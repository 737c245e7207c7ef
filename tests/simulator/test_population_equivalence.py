"""End-to-end regression: batched Phase 1 vs the scalar oracle.

:meth:`SimulationEngine.generate_population` (the batched materializer)
must reproduce :meth:`SimulationEngine.generate_population_scalar`
exactly on a same-seed engine: every account summary, every surviving
entity, the columnar population plan both record, and -- the strongest
invariant -- the bit state of all five named RNG streams after
generation, which any skipped or reordered draw would break.
"""

import dataclasses

import numpy as np
import pytest

from repro.behavior.horizon import PopulationPlan
from repro.config import small_config
from repro.simulator.engine import RNG_STREAMS, SimulationEngine


def _generate(scalar: bool):
    engine = SimulationEngine(small_config(seed=123, days=20))
    if scalar:
        accounts, summaries = engine.generate_population_scalar()
    else:
        accounts, summaries = engine.generate_population()
    return accounts, summaries, engine.rng_state(), engine.population_plan


@pytest.fixture(scope="module")
def populations():
    return _generate(scalar=False), _generate(scalar=True)


class TestPopulationEquivalence:
    def test_rng_stream_states_identical(self, populations):
        (_, _, batched, _), (_, _, scalar, _) = populations
        assert set(batched) == set(RNG_STREAMS)
        assert batched == scalar

    def test_summaries_identical(self, populations):
        (_, batched, _, _), (_, scalar, _, _) = populations
        assert len(batched) == len(scalar)
        for mine, theirs in zip(batched, scalar):
            for name in mine.__dataclass_fields__:
                a = getattr(mine, name)
                b = getattr(theirs, name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype, name
                    np.testing.assert_array_equal(a, b, err_msg=name)
                else:
                    assert a == b, name

    def test_entities_identical(self, populations):
        (batched, _, _, _), (scalar, _, _, _) = populations
        assert len(batched) == len(scalar)
        for mine, theirs in zip(batched, scalar):
            assert mine.activity_end == theirs.activity_end
            assert mine.ad_mod_times == theirs.ad_mod_times
            assert mine.kw_mod_times == theirs.kw_mod_times
            mine_campaigns = mine.advertiser.campaigns
            theirs_campaigns = theirs.advertiser.campaigns
            assert len(mine_campaigns) == len(theirs_campaigns)
            for got, want in zip(mine_campaigns, theirs_campaigns):
                assert [
                    (
                        a.ad_id,
                        a.copy,
                        a.destination_domain,
                        a.created_day,
                        a.engagement,
                        a.modified_count,
                    )
                    for a in got.ads
                ] == [
                    (
                        a.ad_id,
                        a.copy,
                        a.destination_domain,
                        a.created_day,
                        a.engagement,
                        a.modified_count,
                    )
                    for a in want.ads
                ]
                assert [
                    (b.keyword, b.match_type, b.max_bid, b.created_day, b.modified_count)
                    for b in got.bids
                ] == [
                    (b.keyword, b.match_type, b.max_bid, b.created_day, b.modified_count)
                    for b in want.bids
                ]
            assert [
                (o.vertical, o.country, o.ad.ad_id, o.kw_index, o.quality,
                 o.click_quality, o.active_from)
                for o in mine.offers
            ] == [
                (o.vertical, o.country, o.ad.ad_id, o.kw_index, o.quality,
                 o.click_quality, o.active_from)
                for o in theirs.offers
            ]

    def test_no_account_left_pending(self, populations):
        """Every lazy account must have been finalized by its trim."""
        (batched, _, _, _), _ = populations
        assert all(account.pending is None for account in batched)

    def test_plans_identical(self, populations):
        (_, _, _, batched), (_, _, _, scalar) = populations
        assert isinstance(batched, PopulationPlan)
        assert isinstance(scalar, PopulationPlan)
        assert batched.days == scalar.days
        for column in dataclasses.fields(PopulationPlan):
            a = getattr(batched, column.name)
            b = getattr(scalar, column.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, column.name
                np.testing.assert_array_equal(a, b, err_msg=column.name)
            else:
                assert a == b, column.name
