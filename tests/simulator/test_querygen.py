"""Tests for query generation and the pre-computed match tables."""

import numpy as np
import pytest

from repro import obs, small_config
from repro.config import QueryConfig
from repro.entities.enums import MatchType
from repro.matching.matcher import matches
from repro.records.codes import MATCH_CODES
from repro.records.impressions import ImpressionBuilder
from repro.simulator.engine import SimulationEngine
from repro.simulator.market import MarketIndex
from repro.simulator.querygen import (
    CellSampler,
    Query,
    QueryBatch,
    QuerySampler,
    match_table,
    pooled_match_table,
)
from repro.taxonomy.geography import COUNTRIES
from repro.taxonomy.keywords import keyword_pool
from repro.taxonomy.verticals import VERTICALS


class TestMatchTable:
    def test_agrees_with_matcher(self):
        """The table must reproduce the real matcher on pool pairs."""
        name = "weightloss"
        pool = keyword_pool(name)
        table = match_table(name)
        for kw_index, keyword in enumerate(pool):
            for seed_index, seed in enumerate(pool):
                assert table.exact[kw_index, seed_index] == matches(
                    keyword, MatchType.EXACT, seed
                )
                assert table.phrase[kw_index, seed_index] == matches(
                    keyword, MatchType.PHRASE, seed
                )
                assert table.broad[kw_index, seed_index] == matches(
                    keyword, MatchType.BROAD, seed
                )

    def test_diagonal_always_eligible(self):
        table = match_table("downloads")
        size = len(keyword_pool("downloads"))
        for index in range(size):
            assert table.exact[index, index]
            assert table.phrase[index, index]
            assert table.broad[index, index]

    def test_exact_requires_plain_query(self):
        table = match_table("downloads")
        assert table.eligible(0, MATCH_CODES[MatchType.EXACT], 0, False, False)
        assert not table.eligible(0, MATCH_CODES[MatchType.EXACT], 0, True, False)
        assert not table.eligible(0, MATCH_CODES[MatchType.EXACT], 0, True, True)

    def test_phrase_survives_decoration_not_shuffle(self):
        table = match_table("downloads")
        assert table.eligible(0, MATCH_CODES[MatchType.PHRASE], 0, True, False)
        assert not table.eligible(0, MATCH_CODES[MatchType.PHRASE], 0, True, True)

    def test_broad_survives_shuffle(self):
        table = match_table("downloads")
        assert table.eligible(0, MATCH_CODES[MatchType.BROAD], 0, True, True)

    def test_eligible_pairs_consistent(self):
        table = match_table("luxury")
        pairs = table.eligible_pairs(0, decorated=False, shuffled=False)
        for kw_index, code in pairs:
            assert table.eligible(kw_index, code, 0, False, False)
        # Shuffled queries only produce broad pairs.
        for _, code in table.eligible_pairs(0, decorated=True, shuffled=True):
            assert code == MATCH_CODES[MatchType.BROAD]


class TestCellSampler:
    def test_split_roundtrip(self):
        cells = CellSampler()
        for cell_id in (0, 5, cells.n_cells - 1):
            vertical, country = cells.split(cell_id)
            assert cells.cell_of(vertical, country) == cell_id

    def test_sampling_follows_volume(self, rng):
        cells = CellSampler()
        samples = cells.sample(rng, 20_000)
        counts = np.bincount(samples, minlength=cells.n_cells)
        probs = cells.cell_probabilities()
        top_expected = int(np.argmax(probs))
        assert counts[top_expected] == counts.max()


class TestQuerySampler:
    def test_day_sample_size(self, rng):
        sampler = QuerySampler(QueryConfig(auctions_per_day=37))
        queries = sampler.sample_day(rng)
        assert len(queries) == 37

    def test_query_fields_valid(self, rng):
        sampler = QuerySampler(QueryConfig(auctions_per_day=500))
        for query in sampler.sample_day(rng):
            assert 0 <= query.vertical < len(VERTICALS)
            pool = keyword_pool(VERTICALS[query.vertical].name)
            assert 0 <= query.seed_index < len(pool)
            assert query.weight > 0
            if query.shuffled:
                assert query.decorated

    def test_decoration_rate(self, rng):
        config = QueryConfig(auctions_per_day=4000, decorate_prob=0.4)
        sampler = QuerySampler(config)
        queries = sampler.sample_day(rng)
        rate = np.mean([q.decorated for q in queries])
        assert rate == pytest.approx(0.4, abs=0.04)

    def test_no_decoration_when_disabled(self, rng):
        config = QueryConfig(decorate_prob=0.0)
        sampler = QuerySampler(config)
        assert not any(q.decorated for q in sampler.sample_day(rng))


def reference_sample_day(sampler: QuerySampler, rng) -> list[Query]:
    """Per-query reference for :meth:`QuerySampler.sample_day`.

    Same two draws in the same order, then one Python iteration per
    query: the columnar sampler must reproduce it exactly.
    """
    config = sampler._config
    cells = sampler.cells
    count = config.auctions_per_day
    cell_ids = cells.sample(rng, count)
    uniform = rng.random((count, 3))
    queries: list[Query] = []
    for index in range(count):
        vertical_code, country_code = divmod(int(cell_ids[index]), len(COUNTRIES))
        cdf = sampler._seed_cdf[vertical_code]
        seed_index = int(np.searchsorted(cdf, uniform[index, 0]))
        seed_index = min(seed_index, len(cdf) - 1)
        decorated = uniform[index, 1] < config.decorate_prob
        shuffled = decorated and uniform[index, 2] < config.shuffle_prob
        factor = config.tail_weight_factor if decorated else config.head_weight_factor
        queries.append(
            Query(
                vertical=vertical_code,
                country=country_code,
                seed_index=seed_index,
                decorated=decorated,
                shuffled=shuffled,
                weight=config.volume_weight * factor,
            )
        )
    return queries


def _unchecked_auctions_per_day(count: int) -> QueryConfig:
    """A QueryConfig with ``auctions_per_day`` past validation (for 0)."""
    config = QueryConfig()
    object.__setattr__(config, "auctions_per_day", count)
    return config


def _assert_batch_equals_reference(sampler: QuerySampler, seed: int) -> QueryBatch:
    reference_rng = np.random.default_rng(seed)
    columnar_rng = np.random.default_rng(seed)
    reference = reference_sample_day(sampler, reference_rng)
    batch = sampler.sample_day(columnar_rng)
    assert reference_rng.bit_generator.state == columnar_rng.bit_generator.state
    assert len(batch) == len(reference)
    columns = {
        "vertical": [q.vertical for q in reference],
        "country": [q.country for q in reference],
        "seed_index": [q.seed_index for q in reference],
        "decorated": [bool(q.decorated) for q in reference],
        "shuffled": [bool(q.shuffled) for q in reference],
        "weight": [q.weight for q in reference],
    }
    for name, expected in columns.items():
        assert getattr(batch, name).tolist() == expected, name
    assert batch.weight.dtype == np.float64
    assert batch.decorated.dtype == bool and batch.shuffled.dtype == bool
    cells = sampler.cells
    assert batch.cell.tolist() == [cells.cell_of(q.vertical, q.country) for q in reference]
    assert list(batch) == reference
    return batch


class TestColumnarSampler:
    """The columnar ``sample_day`` against the per-query reference loop."""

    @pytest.mark.parametrize(
        "config",
        [
            QueryConfig(),
            QueryConfig(decorate_prob=0.0),
            QueryConfig(decorate_prob=1.0),
            QueryConfig(shuffle_prob=0.0),
            QueryConfig(shuffle_prob=1.0),
            _unchecked_auctions_per_day(0),
            QueryConfig(auctions_per_day=1),
            QueryConfig(auctions_per_day=5200),
        ],
        ids=[
            "default", "decorate0", "decorate1", "shuffle0", "shuffle1",
            "apd0", "apd1", "apd5200",
        ],
    )
    @pytest.mark.parametrize("seed", [0, 20170101])
    def test_matches_reference(self, config, seed):
        _assert_batch_equals_reference(QuerySampler(config), seed)

    def test_seed_index_clamped_above_last_cdf_entry(self):
        """Uniforms above a CDF's last entry land on the last keyword."""
        sampler = QuerySampler(QueryConfig(auctions_per_day=2000))
        sampler._seed_cdf = [cdf * 0.5 for cdf in sampler._seed_cdf]
        batch = _assert_batch_equals_reference(sampler, 3)
        last = np.array([len(cdf) - 1 for cdf in sampler._seed_cdf])
        assert np.count_nonzero(batch.seed_index == last[batch.vertical]) > len(batch) // 3


class TestPooledMatchTable:
    def test_every_entry_equals_eligible_arrays(self):
        """Pooled CSR slice == eligible_arrays for every vertical/seed/shape."""
        shapes = ((False, False), (True, False), (True, True))
        rows = [
            (code, seed, decorated, shuffled)
            for code, vertical in enumerate(VERTICALS)
            for seed in range(len(keyword_pool(vertical.name)))
            for decorated, shuffled in shapes
        ]
        assert len(rows) > 900
        vertical, seed_index, decorated, shuffled = (np.array(c) for c in zip(*rows))
        batch = QueryBatch(
            vertical=vertical,
            country=np.zeros(len(rows), dtype=np.int64),
            cell=CellSampler.cell_of(vertical, 0),
            seed_index=seed_index,
            decorated=decorated,
            shuffled=shuffled,
            weight=np.ones(len(rows)),
        )
        counts, kws, codes = pooled_match_table().expand(batch)
        assert kws.dtype == np.int64 and codes.dtype == np.int8
        ends = np.cumsum(counts)
        for (code, seed, dec, shuf), stop, count in zip(rows, ends, counts):
            expected_kw, expected_code = match_table(VERTICALS[code].name).eligible_arrays(
                seed, dec, shuf
            )
            assert expected_kw.dtype == kws.dtype and expected_code.dtype == codes.dtype
            np.testing.assert_array_equal(kws[stop - count : stop], expected_kw)
            np.testing.assert_array_equal(codes[stop - count : stop], expected_code)

    def test_candidates_matched_counts_every_query(self, monkeypatch):
        """The per-day bump sums to the per-query eligible_arrays lengths."""
        batches: list[QueryBatch] = []
        sample_day = QuerySampler.sample_day

        def recording(self, rng):
            batch = sample_day(self, rng)
            batches.append(batch)
            return batch

        monkeypatch.setattr(QuerySampler, "sample_day", recording)
        engine = SimulationEngine(small_config(seed=11, days=40))
        accounts, _ = engine.generate_population()
        counter = obs.counter("matching.candidates_matched")
        before = counter.value
        engine.run_auctions(MarketIndex(accounts), ImpressionBuilder())
        matched = counter.value - before
        assert batches
        expected = sum(
            len(
                match_table(VERTICALS[q.vertical].name).eligible_arrays(
                    q.seed_index, q.decorated, q.shuffled
                )[0]
            )
            for batch in batches
            for q in batch
        )
        assert matched == expected > 0
