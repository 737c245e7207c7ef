"""Sampled query stream and pre-computed match tables.

Queries are sampled per (vertical, country) cell proportionally to the
joint search volume.  Each query starts from a *seed* keyword phrase in
the vertical's pool and is optionally decorated with extra tokens
(exercising phrase/broad matching) or shuffled (only broad survives a
reorder).

Eligibility of a (keyword, match-type) offer for a query depends only
on (seed, decorated, shuffled), so per vertical we pre-compute a match
table over pool x pool pairs using the real matcher, then answer
eligibility in O(1) at query time.

The production path is columnar: :meth:`QuerySampler.sample_day`
returns the day's queries as a :class:`QueryBatch` of arrays, and
:class:`PooledMatchTable` resolves every query's eligible (keyword,
match-type) pairs with one gather over all verticals' tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import obs
from ..config import QueryConfig
from ..entities.enums import MatchType
from ..matching.matcher import broad_match, exact_match, phrase_match
from ..records.codes import MATCH_CODES
from ..taxonomy.geography import COUNTRIES
from ..taxonomy.keywords import keyword_pool, keyword_weights
from ..taxonomy.verticals import VERTICALS

__all__ = [
    "Query", "QueryBatch", "MatchTable", "match_table", "PooledMatchTable",
    "pooled_match_table", "slice_index", "CellSampler", "QuerySampler",
]

# Observability handle (repro.obs): candidate (keyword, match-type)
# pairs matched, bumped at lookup time (once per day on the pooled
# path).  A plain attribute add -- no RNG contact.
_CANDIDATES_MATCHED = obs.counter("matching.candidates_matched")


@dataclass(frozen=True)
class Query:
    """One sampled query instance (stands in for ``weight`` searches)."""

    vertical: int
    country: int
    seed_index: int
    decorated: bool
    shuffled: bool
    weight: float


@dataclass(frozen=True)
class QueryBatch:
    """One day's query instances as columns; row ``i`` is one query.

    ``cell`` is the (vertical, country) cell id the query was drawn
    from.  Iterating yields :class:`Query` rows (scalar oracle, tests).
    """

    vertical: np.ndarray
    country: np.ndarray
    cell: np.ndarray
    seed_index: np.ndarray
    decorated: np.ndarray
    shuffled: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.cell)

    def __iter__(self):
        columns = (self.vertical, self.country, self.seed_index,
                   self.decorated, self.shuffled, self.weight)
        return (Query(*row) for row in zip(*(c.tolist() for c in columns)))


def slice_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the slices ``[starts[i], starts[i] + counts[i])``, concatenated.

    Loop-free: each slice's start, shifted back by the slice's offset
    in the output, plus one running index.
    """
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


class MatchTable:
    """Per-vertical eligibility of (keyword, match type) offers.

    ``eligible(kw, match_code, seed, decorated, shuffled)`` answers: is
    an offer on pool keyword ``kw`` with the given match type eligible
    for a query seeded by pool phrase ``seed``?

    * Exact: keyword == query, so only undecorated, unshuffled queries
      whose seed equals the keyword.
    * Phrase: keyword contiguous in query; decoration appends tokens
      outside the seed so contiguity within the seed is what matters;
      a shuffle breaks ordering.
    * Broad: keyword tokens (or synonyms) anywhere in the query;
      order-insensitive so shuffles are fine.
    """

    def __init__(self, vertical_name: str) -> None:
        pool = keyword_pool(vertical_name)
        size = len(pool)
        self.exact = np.zeros((size, size), dtype=bool)
        self.phrase = np.zeros((size, size), dtype=bool)
        self.broad = np.zeros((size, size), dtype=bool)
        for kw_index, keyword in enumerate(pool):
            for seed_index, seed in enumerate(pool):
                self.exact[kw_index, seed_index] = exact_match(keyword, seed)
                self.phrase[kw_index, seed_index] = phrase_match(keyword, seed)
                self.broad[kw_index, seed_index] = broad_match(keyword, seed)
        # Eligible (kw_index, match_code) pairs per (query shape, seed)
        # in one CSR layout: entry ``e = shape * size + seed`` is
        # ``flat_*[starts[e]:starts[e] + lengths[e]]``.  The three shapes
        # are plain, decorated, decorated+shuffled (a shuffle implies
        # decoration): `3 * size` entries of at most `3 * size` pairs.
        entries = [
            self._build_arrays(seed, decorated, shuffled)
            for decorated, shuffled in ((False, False), (True, False), (True, True))
            for seed in range(size)
        ]
        self.size = size
        self.lengths = np.array([len(kws) for kws, _ in entries], dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.flat_kw = np.concatenate([kws for kws, _ in entries])
        self.flat_code = np.concatenate([codes for _, codes in entries])
        for array in (self.lengths, self.starts, self.flat_kw, self.flat_code):
            array.flags.writeable = False

    def _build_arrays(
        self, seed_index: int, decorated: bool, shuffled: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        kws: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        if not decorated and not shuffled:
            exact = np.flatnonzero(self.exact[:, seed_index])
            kws.append(exact)
            codes.append(np.full(len(exact), MATCH_CODES[MatchType.EXACT]))
        if not shuffled:
            phrase = np.flatnonzero(self.phrase[:, seed_index])
            kws.append(phrase)
            codes.append(np.full(len(phrase), MATCH_CODES[MatchType.PHRASE]))
        broad = np.flatnonzero(self.broad[:, seed_index])
        kws.append(broad)
        codes.append(np.full(len(broad), MATCH_CODES[MatchType.BROAD]))
        return (
            np.concatenate(kws).astype(np.int64),
            np.concatenate(codes).astype(np.int8),
        )

    def eligible(
        self,
        kw_index: int,
        match_code: int,
        seed_index: int,
        decorated: bool,
        shuffled: bool,
    ) -> bool:
        if match_code == MATCH_CODES[MatchType.EXACT]:
            return (
                not decorated
                and not shuffled
                and bool(self.exact[kw_index, seed_index])
            )
        if match_code == MATCH_CODES[MatchType.PHRASE]:
            return not shuffled and bool(self.phrase[kw_index, seed_index])
        return bool(self.broad[kw_index, seed_index])

    def eligible_arrays(
        self, seed_index: int, decorated: bool, shuffled: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eligible ``(kw_index[], match_code[])`` arrays for a query shape.

        Read-only views of the precomputed table.  Ordered exactly like
        :meth:`eligible_pairs`: exact matches first (ascending keyword
        index), then phrase, then broad.
        """
        shape = 2 if shuffled else (1 if decorated else 0)
        entry = shape * self.size + seed_index
        start = self.starts[entry]
        stop = start + self.lengths[entry]
        _CANDIDATES_MATCHED.inc(int(stop - start))
        return self.flat_kw[start:stop], self.flat_code[start:stop]

    def eligible_pairs(
        self, seed_index: int, decorated: bool, shuffled: bool
    ) -> list[tuple[int, int]]:
        """All eligible (kw_index, match_code) pairs for a query shape."""
        kws, codes = self.eligible_arrays(seed_index, decorated, shuffled)
        return [(int(kw), int(code)) for kw, code in zip(kws, codes)]


@lru_cache(maxsize=None)
def match_table(vertical_name: str) -> MatchTable:
    """Cached match table for a vertical."""
    return MatchTable(vertical_name)


class PooledMatchTable:
    """Every vertical's :class:`MatchTable` CSR, pooled into one.

    Entry ``vbase[v] + shape * pool_size[v] + seed`` is vertical
    ``v``'s entry ``shape * pool_size[v] + seed``, so a whole day's
    queries resolve with one index per query and one flat gather.
    """

    def __init__(self, tables: list[MatchTable]) -> None:
        self.pool_size = np.array([t.size for t in tables], dtype=np.int64)
        self.vbase = np.cumsum(3 * self.pool_size) - 3 * self.pool_size
        self.lengths = np.concatenate([t.lengths for t in tables])
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.flat_kw = np.concatenate([t.flat_kw for t in tables])
        self.flat_code = np.concatenate([t.flat_code for t in tables])

    def expand(self, queries: QueryBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, kw_index, match_code)`` for a batch of queries.

        ``counts[i]`` eligible pairs belong to query ``i``; the flat
        arrays concatenate each query's
        :meth:`MatchTable.eligible_arrays` in query order.
        """
        vertical = queries.vertical
        shape = queries.decorated.astype(np.int64) + queries.shuffled
        entry = self.vbase[vertical] + shape * self.pool_size[vertical] + queries.seed_index
        counts = self.lengths[entry]
        index = slice_index(self.starts[entry], counts)
        _CANDIDATES_MATCHED.inc(len(index))
        return counts, self.flat_kw[index], self.flat_code[index]


@lru_cache(maxsize=None)
def pooled_match_table() -> PooledMatchTable:
    """Cached pooled match table over every vertical."""
    return PooledMatchTable([match_table(v.name) for v in VERTICALS])


class CellSampler:
    """Samples (vertical, country) cells by joint query volume."""

    def __init__(self) -> None:
        vertical_volumes = np.array([v.query_volume for v in VERTICALS])
        country_volumes = np.array([c.query_volume for c in COUNTRIES])
        joint = np.outer(vertical_volumes, country_volumes).ravel()
        self._probs = joint / joint.sum()
        self._n_countries = len(COUNTRIES)

    @property
    def n_cells(self) -> int:
        """Total number of (vertical, country) cells."""
        return len(self._probs)

    def cell_probabilities(self) -> np.ndarray:
        """Per-cell sampling probabilities (copy)."""
        return self._probs.copy()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Cell ids (vertical_code * n_countries + country_code)."""
        return rng.choice(self.n_cells, size=size, p=self._probs)

    def split(self, cell_id: int | np.ndarray):
        """(vertical code, country code) of a cell id (or array of ids)."""
        return np.divmod(cell_id, self._n_countries)

    @staticmethod
    def cell_of(vertical_code: int, country_code: int) -> int:
        """Cell id of a (vertical, country) pair."""
        return vertical_code * len(COUNTRIES) + country_code


class QuerySampler:
    """Generates the day's query instances."""

    def __init__(self, config: QueryConfig) -> None:
        self._config = config
        self._cells = CellSampler()
        # Cumulative keyword popularity per vertical for fast seed draws.
        self._seed_cdf = [
            np.cumsum(keyword_weights(v.name)) for v in VERTICALS
        ]

    @property
    def cells(self) -> CellSampler:
        """The underlying cell sampler."""
        return self._cells

    def sample_day(self, rng: np.random.Generator) -> QueryBatch:
        """All query instances for one day, as columns."""
        config = self._config
        count = config.auctions_per_day
        cell_ids = self._cells.sample(rng, count)
        uniform = rng.random((count, 3))
        vertical, country = self._cells.split(cell_ids)
        # One searchsorted per vertical present, each on that
        # vertical's own CDF (pooling CDFs by offset would round and
        # could move ties).
        seed_index = np.empty(count, dtype=np.int64)
        for code in np.unique(vertical).tolist():
            cdf = self._seed_cdf[code]
            rows = vertical == code
            seed_index[rows] = np.minimum(
                np.searchsorted(cdf, uniform[rows, 0]), len(cdf) - 1
            )
        decorated = uniform[:, 1] < config.decorate_prob
        shuffled = decorated & (uniform[:, 2] < config.shuffle_prob)
        tail = config.volume_weight * config.tail_weight_factor
        head = config.volume_weight * config.head_weight_factor
        return QueryBatch(
            vertical=vertical, country=country, cell=cell_ids, seed_index=seed_index,
            decorated=decorated, shuffled=shuffled, weight=np.where(decorated, tail, head),
        )
