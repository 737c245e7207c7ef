"""The three benchmark workloads: configs from a seed, and their steps.

Each workload is a config generator (``make_config(seed)``, run in the
driver) plus the steps a worker process runs on the generated config:
``prepare`` (part of set-up), ``run`` (timed as ``wall_s``) and
``reopen`` (timed as ``reopen_s``).  See README.md for why each one
exists and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable

__all__ = ["WORKLOADS", "Workload", "Outcome", "rep_seed"]

#: Horizon of ``paper_default``, in simulated days.  The full default
#: horizon (728 days) takes ~70 s at full scale, longer than one
#: benchmark run may measure; 90 days keeps each layer's share of the
#: work (see README.md) while fitting four repetitions a run (with three,
#: 120 days, one run's median moved by up to 25% on a noisy spell).
DAYS = 90
#: ``auction_heavy``: 20x the default query stream over a thin market.
#: Its layer shares do not depend on the horizon, and 90 days fits five
#: repetitions a run, whose median a shared machine's noise moves less.
HEAVY_DAYS = 90
HEAVY_AUCTIONS_PER_DAY = 5200
HEAVY_REGISTRATIONS_PER_DAY = 4.0
#: ``durable_daily``: 2x the default query stream, checkpointed daily.
#: Its manifest cost grows with the square of the checkpoint count, so a
#: shorter horizon shrinks the write path's share; 150 days with half
#: the registrations of the 364-day profile (4/day) keeps it above 70%
#: (130 days gave 68%).
DURABLE_DAYS = 150
DURABLE_AUCTIONS_PER_DAY = 520
DURABLE_REGISTRATIONS_PER_DAY = 2.0
#: How many times the in-memory workloads re-read their saved table,
#: and the durable one reopens its run directory, per repetition.  Each
#: reads the same bytes, and a shared machine only ever adds time to
#: one, so each repetition reports the fastest.
TABLE_REOPENS = 60
RUN_REOPENS = 8


@dataclasses.dataclass
class Outcome:
    """What a workload's timed run produced."""

    result: object
    rng_states: dict
    #: Number of validation targets in band, when the run validated.
    validation_passed: int | None = None
    #: ``(step name, problems)`` for every step the run performed.
    steps: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable
    prepare: Callable
    run: Callable
    persist: Callable
    reopen: Callable
    #: Wall-clock seconds of one repetition on a 2-core 2.1 GHz Xeon VM
    #: (worker start to exit, checks included); the driver sizes a run
    #: as ``--seconds / nominal_rep_s`` repetitions.
    nominal_rep_s: float
    #: Whether ``reopen_s`` is scaled by the machine's speed (speed.py),
    #: as ``wall_s`` is.  Reopening a run directory decodes and checks
    #: every chunk, CPU work the reference tracks; re-reading one table
    #: file is bound by page faults and copies, which it does not, and
    #: scaling that added the reference's noise.
    scale_reopen: bool = False


def rep_seed(seed: int, rep: int) -> int:
    """The seed of config ``rep`` of a run with ``seed``.

    Each config simulates its own input, so a run's medians cover
    several inputs drawn from its seed; two repetitions run each config,
    so that their digests can be compared.
    """
    import numpy as np

    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def _thin(config, days: int, registrations_per_day: float, auctions_per_day: int):
    return dataclasses.replace(
        config,
        days=days,
        population=dataclasses.replace(
            config.population, registrations_per_day=registrations_per_day
        ),
        query=dataclasses.replace(config.query, auctions_per_day=auctions_per_day),
    )


def _paper_config(seed: int):
    from repro.config import default_config

    return dataclasses.replace(default_config(seed), days=DAYS)


def _heavy_config(seed: int):
    from repro.config import default_config

    return _thin(
        default_config(seed), HEAVY_DAYS, HEAVY_REGISTRATIONS_PER_DAY,
        HEAVY_AUCTIONS_PER_DAY,
    )


def _durable_config(seed: int):
    from repro.config import default_config

    return _thin(
        default_config(seed), DURABLE_DAYS, DURABLE_REGISTRATIONS_PER_DAY,
        DURABLE_AUCTIONS_PER_DAY,
    )


def warm_match_tables() -> None:
    """Build every vertical's cached match table (set-up, not run)."""
    from repro.simulator.querygen import match_table
    from repro.taxonomy.verticals import VERTICALS

    for vertical in VERTICALS:
        match_table(vertical.name)


def _prepare_engine(config, workdir: Path) -> dict:
    from repro.simulator.engine import SimulationEngine

    warm_match_tables()
    return {"config": config, "engine": SimulationEngine(config), "workdir": workdir}


def _step(steps: list, name: str, body: Callable):
    """Run one workload step, recording an exception as its failure."""
    try:
        value = body()
    except Exception as exc:  # a failed step is a counted operation
        steps.append((name, [f"{type(exc).__name__}: {exc}"]))
        return None
    steps.append((name, []))
    return value


def _run_paper(state: dict) -> Outcome:
    from repro.experiments.base import ExperimentContext
    from repro.experiments.registry import experiment_ids, run_experiment
    from repro.validation.suite import run_validation

    engine = state["engine"]
    result = engine.run()
    steps: list = [("simulate", [])]
    checks = _step(steps, "validation", lambda: run_validation(result))
    context = ExperimentContext(state["config"], result)
    for experiment_id in experiment_ids():
        _step(steps, f"experiment.{experiment_id}",
              lambda e=experiment_id: run_experiment(e, context))
    passed = None if checks is None else sum(1 for c in checks if c.ok)
    return Outcome(result, engine.rng_state(), passed, steps)


def _run_heavy(state: dict) -> Outcome:
    engine = state["engine"]
    result = engine.run()
    return Outcome(result, engine.rng_state(), steps=[("simulate", [])])


def _persist_table(state: dict, outcome: Outcome) -> None:
    """Save the impression table as a columnar bundle (not timed)."""
    from repro.records.columnar import write_columns

    write_columns(state["workdir"] / "impressions.npc",
                  outcome.result.impressions.to_columns())


def _persist_nothing(state: dict, outcome: Outcome) -> None:
    """The checkpoint runner already left a complete run directory."""


def _reopen_table(state: dict, outcome: Outcome):
    """Time re-reading the saved impression table, per million rows.

    The table's size varies by half between seeds of a thin market, so
    the time is scaled to a fixed row count; what remains is the read
    path's speed.  Returns ``(fastest seconds per 10^6 rows, the result
    with the re-read table)``.
    """
    from repro.records.columnar import read_columns
    from repro.records.impressions import ImpressionTable

    path = state["workdir"] / "impressions.npc"
    times = []
    for _ in range(TABLE_REOPENS):
        start = time.perf_counter()
        table = ImpressionTable.from_columns(read_columns(path))
        times.append(time.perf_counter() - start)
    return min(times) * 1e6 / len(table), dataclasses.replace(
        outcome.result, impressions=table
    )


def _prepare_durable(config, workdir: Path) -> dict:
    from repro.runner import CheckpointRunner

    warm_match_tables()
    run_dir = workdir / "run"
    return {
        "config": config,
        "run_dir": run_dir,
        "runner": CheckpointRunner(config, run_dir, checkpoint_every=1),
    }


def _run_durable(state: dict) -> Outcome:
    from repro.runner.manifest import MANIFEST_NAME, RunManifest

    result = state["runner"].run(resume=False)
    manifest = RunManifest.load(state["run_dir"] / MANIFEST_NAME)
    return Outcome(result, manifest.chunks[-1].rng_after, steps=[("simulate", [])])


def _reopen_durable(state: dict, outcome: Outcome):
    """Reopen the completed run directory and verify it, timed together.

    Returns ``(fastest seconds, the reopened result)`` and records the
    verify outcome as a step of ``outcome``.  Each reopen appends its
    own telemetry, as a user's would.
    """
    from repro.runner import CheckpointRunner
    from repro.runner.doctor import verify_run

    times, problems = [], []
    for _ in range(RUN_REOPENS):
        start = time.perf_counter()
        result = CheckpointRunner(
            state["config"], state["run_dir"], checkpoint_every=1
        ).run(resume=True)
        report = verify_run(state["run_dir"])
        times.append(time.perf_counter() - start)
        problems += [f"{i.kind} {i.path}: {i.detail}" for i in report.damage]
    outcome.steps.append(("verify", problems))
    return min(times), result


WORKLOADS: dict[str, Workload] = {
    "paper_default": Workload(
        "paper_default", _paper_config, _prepare_engine, _run_paper,
        _persist_table, _reopen_table,
        nominal_rep_s=8.5,
    ),
    "auction_heavy": Workload(
        "auction_heavy", _heavy_config, _prepare_engine, _run_heavy,
        _persist_table, _reopen_table,
        nominal_rep_s=7.0,
    ),
    "durable_daily": Workload(
        "durable_daily", _durable_config, _prepare_durable, _run_durable,
        _persist_nothing, _reopen_durable, nominal_rep_s=10.5,
        scale_reopen=True,
    ),
}
