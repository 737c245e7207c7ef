"""End-to-end regression: batched Phase 1 vs the scalar oracle.

:meth:`SimulationEngine.generate_population` (the batched materializer)
must reproduce :meth:`SimulationEngine.generate_population_scalar`
exactly on a same-seed engine: every account summary, every trimmed
account column, the columnar population plan both record, and -- the
strongest invariant -- the bit state of all five named RNG streams after
generation, which any skipped or reordered draw would break.
"""

import dataclasses

import numpy as np
import pytest

from repro.behavior.factory import MaterializedAccount
from repro.behavior.horizon import PopulationPlan
from repro.config import small_config
from repro.simulator.engine import RNG_STREAMS, SimulationEngine

#: Every column of a materialized account, compared value for value.
ACCOUNT_COLUMNS = tuple(
    f.name
    for f in dataclasses.fields(MaterializedAccount)
    if f.name not in ("advertiser", "profile", "activity_end")
)


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

    def test_account_columns_identical(self, populations):
        (batched, _, _, _), (scalar, _, _, _) = populations
        assert len(batched) == len(scalar)
        for mine, theirs in zip(batched, scalar):
            assert mine.activity_end == theirs.activity_end
            assert mine.advertiser == theirs.advertiser
            assert mine.profile == theirs.profile
            for name in ACCOUNT_COLUMNS:
                assert getattr(mine, name) == getattr(theirs, name), name

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
