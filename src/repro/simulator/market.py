"""Vectorized offer index.

Every account's offer columns are concatenated into parallel numpy
arrays once the population is generated.  Each simulated day the index
computes which offers are live (account alive, ad created, account "on"
today under its activity budget) and groups them into buckets keyed by
``(cell, keyword, match type)`` so each query touches only the offers
that could possibly match it.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .. import obs
from ..behavior.factory import MaterializedAccount
from ..records.codes import country_code, vertical_code
from ..taxonomy.geography import COUNTRIES
from .querygen import CellSampler, slice_index

__all__ = ["MarketIndex", "DayBuckets", "bucket_keys"]

#: Max keyword-pool size supported by the composite bucket key.
_MAX_KW = 128


def bucket_keys(
    cell: int | np.ndarray, kw_index: np.ndarray, match: np.ndarray
) -> np.ndarray:
    """Composite bucket key(s) for (cell, keyword, match) triples."""
    return (
        (np.asarray(cell, dtype=np.int64) * _MAX_KW + kw_index) * 3 + match
    )


class DayBuckets:
    """One day's live offers grouped by (cell, kw, match) key.

    Stored array-native: ``keys`` is the sorted array of distinct
    composite bucket keys, ``starts``/``counts`` delimit each bucket's
    slice of ``rows`` (live offer indices into the
    :class:`MarketIndex` columns, grouped by key).  Lookups are binary
    searches; :meth:`gather` resolves a whole array of keys at once for
    the batched auction path.
    """

    __slots__ = ("keys", "starts", "counts", "rows", "_dict")

    def __init__(
        self,
        keys: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        self.keys = keys
        self.starts = starts
        self.counts = counts
        self.rows = rows
        self._dict: dict[int, np.ndarray] | None = None

    @classmethod
    def empty(cls) -> "DayBuckets":
        return cls(
            keys=np.zeros(0, dtype=np.int64),
            starts=np.zeros(0, dtype=np.int64),
            counts=np.zeros(0, dtype=np.int64),
            rows=np.zeros(0, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def buckets(self) -> dict[int, np.ndarray]:
        """Key -> offer-row-array view (materialized lazily)."""
        if self._dict is None:
            self._dict = {
                int(key): self.rows[start : start + count]
                for key, start, count in zip(self.keys, self.starts, self.counts)
            }
        return self._dict

    def lookup(self, cell: int, kw_index: int, match: int) -> np.ndarray | None:
        """Offer rows for one (cell, keyword, match) bucket."""
        key = (cell * _MAX_KW + kw_index) * 3 + match
        pos = np.searchsorted(self.keys, key)
        if pos >= len(self.keys) or self.keys[pos] != key:
            return None
        start = self.starts[pos]
        return self.rows[start : start + self.counts[pos]]

    def gather(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve many bucket keys in one vectorized pass.

        Args:
            keys: Composite bucket keys, any order, duplicates allowed.

        Returns:
            ``(rows, key_index)``: all offer rows of every key that has
            a bucket (concatenated in the order the keys were given)
            and, parallel to it, the index into ``keys`` each row came
            from — so callers can map rows back to per-key metadata
            such as the match code.  Keys with no bucket contribute
            nothing.
        """
        if len(self.keys) == 0 or len(keys) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        pos = np.searchsorted(self.keys, keys)
        pos_clipped = np.minimum(pos, len(self.keys) - 1)
        hit = np.flatnonzero(self.keys[pos_clipped] == keys)
        if hit.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        bucket = pos[hit]
        counts = self.counts[bucket]
        return self.rows[slice_index(self.starts[bucket], counts)], np.repeat(hit, counts)


class MarketIndex:
    """Static offer arrays plus per-day liveness computation."""

    def __init__(self, accounts: list[MaterializedAccount]) -> None:
        n_accounts = len(accounts)

        def offer_column(name: str, dtype) -> np.ndarray:
            return np.fromiter(
                chain.from_iterable(getattr(a, name) for a in accounts),
                dtype=dtype,
            )

        def per_account(values, dtype) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=n_accounts)

        with obs.span("market.offers", accounts=n_accounts):
            n_offers = per_account((len(a.offer_kw) for a in accounts), np.int64)
            # Every account's campaigns back to back: an offer's row in
            # this table is its account's first row plus its campaign.
            n_campaigns = per_account(
                (len(a.profile.verticals) for a in accounts), np.int64
            )
            campaign_vertical = np.fromiter(
                (vertical_code(v) for a in accounts for v in a.profile.verticals),
                dtype=np.int64,
            )
            campaign_country = np.fromiter(
                (
                    country_code(c)
                    for a in accounts
                    for c in a.profile.target_countries
                ),
                dtype=np.int64,
            )
            campaign_row = np.repeat(
                np.cumsum(n_campaigns) - n_campaigns, n_offers
            ) + offer_column("offer_campaign", np.int64)
            vert = campaign_vertical[campaign_row]
            ctry = campaign_country[campaign_row]

            self.n_offers = len(campaign_row)
            self.n_accounts = n_accounts
            self.cell = CellSampler.cell_of(vert, ctry).astype(np.int32)
            self.kw = offer_column("offer_kw", np.int16)
            self.match = offer_column("offer_mcode", np.int8)
            self.max_bid = offer_column("offer_max_bid", np.float64)
            self.quality = offer_column("offer_quality", np.float64)
            self.click_quality = offer_column("offer_click_quality", np.float64)
            self.adv_row = np.repeat(
                np.arange(n_accounts, dtype=np.int32), n_offers
            )
            self.advertiser_id = np.repeat(
                per_account(
                    (a.advertiser.advertiser_id for a in accounts), np.int64
                ),
                n_offers,
            )
            self.ad_id = offer_column("offer_ad_id", np.int64)
            self.active_from = offer_column("offer_created", np.float64)
            self.active_until = np.repeat(
                per_account((a.activity_end for a in accounts), np.float64),
                n_offers,
            )
            self.fraud_labeled = np.repeat(
                per_account((a.advertiser.labeled_fraud for a in accounts), bool),
                n_offers,
            )
            self.vertical = vert.astype(np.int16)
            self.country = ctry.astype(np.int16)
            self.participation = per_account(
                (a.profile.participation_prob for a in accounts), np.float64
            )
            if self.n_offers and int(self.kw.max()) >= _MAX_KW:
                raise ValueError("keyword pool exceeds composite key capacity")
            self._key = bucket_keys(self.cell, self.kw, self.match)

    def live_mask(self, time: float, rng: np.random.Generator) -> np.ndarray:
        """Offers live at ``time``: active interval covers it, account on."""
        if self.n_offers == 0:
            return np.zeros(0, dtype=bool)
        account_on = rng.random(self.n_accounts) < self.participation
        return (
            (self.active_from <= time)
            & (time < self.active_until)
            & account_on[self.adv_row]
        )

    def day_buckets(self, time: float, rng: np.random.Generator) -> DayBuckets:
        """Group the day's live offers for O(log n) query lookup."""
        live = np.flatnonzero(self.live_mask(time, rng))
        if live.size == 0:
            return DayBuckets.empty()
        keys = self._key[live]
        order = np.argsort(keys, kind="stable")
        sorted_live = live[order]
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_keys)]))
        return DayBuckets(
            keys=sorted_keys[starts],
            starts=starts,
            counts=ends - starts,
            rows=sorted_live,
        )

    def country_volume_check(self) -> None:
        """Internal consistency: country codes must index COUNTRIES."""
        if self.n_offers and int(self.country.max()) >= len(COUNTRIES):
            raise ValueError("country code out of range")
