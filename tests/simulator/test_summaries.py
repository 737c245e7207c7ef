"""Tests for the engine's per-account summaries (bid statistics etc.).

Each summary is recomputed here from the trimmed account columns it
was built from.  Bid sums are compared exactly: summaries are only
bit-identical across paths if every match type's max bids are added in
the same campaign-major order.
"""

import numpy as np
import pytest

from repro.config import small_config
from repro.simulator.engine import SimulationEngine


@pytest.fixture(scope="module")
def population():
    engine = SimulationEngine(small_config(seed=55, days=40))
    accounts, summaries = engine.generate_population()
    materialized = engine.population_plan.materialized
    pairs = [
        (account, summary)
        for account, summary, built in zip(accounts, summaries, materialized)
        if built
    ]
    assert len(pairs) > 10
    return engine.config, pairs


def _campaign_major(account):
    """``(match code, max bid)`` of every bid, campaign by campaign."""
    for mcodes, max_bids in zip(account.mcode_cols, account.max_bid_cols):
        yield from zip(mcodes, max_bids)


class TestBidStatistics:
    def test_counts_and_sums_match_columns(self, population):
        _, pairs = population
        for account, summary in pairs:
            count = [0.0, 0.0, 0.0]
            total = [0.0, 0.0, 0.0]
            for mcode, max_bid in _campaign_major(account):
                count[mcode] += 1
                total[mcode] += max_bid
            np.testing.assert_array_equal(summary.bid_count_by_match, count)
            np.testing.assert_array_equal(summary.bid_sum_by_match, total)
            assert summary.bid_sum_by_match.dtype == np.float64

    def test_above_default_consistent(self, population):
        config, pairs = population
        default = config.auction.default_max_bid
        for account, summary in pairs:
            expected = [0.0, 0.0, 0.0]
            for mcode, max_bid in _campaign_major(account):
                if max_bid > default * 1.0001:
                    expected[mcode] += 1
            np.testing.assert_array_equal(
                summary.bid_above_default_by_match, expected
            )

    def test_keyword_counts_match(self, population):
        _, pairs = population
        for account, summary in pairs:
            n_bids = sum(len(created) for created in account.created_cols)
            assert summary.n_keywords == n_bids == len(account.kw_creation_times)
            assert summary.n_ads == len(account.ad_ids)

    def test_domains_counted(self, population):
        _, pairs = population
        trimmed_away = 0
        for account, summary in pairs:
            assert summary.n_domains == len(set(account.ad_domains))
            trimmed_away += len(account.ad_ids) < account.profile.n_ads
        # The check must see accounts whose trim dropped ads.
        assert trimmed_away > 0
