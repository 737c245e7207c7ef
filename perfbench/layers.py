"""Which public callables the traced run wraps, and what each one counts.

Layer names follow the package's modules (``behavior``, ``detection``,
``simulator``, ``matching``, ``auction``, ``records``, ``runner``,
``obs``, ``validation``, ``experiments``).  ``clickmodel`` has no
public boundary to time, so its two numbers are read from the engine's
own counters instead.
"""

from __future__ import annotations

import gc
import os
import time

from tracer import Boundary, Tracer, percentile

__all__ = [
    "DayClock", "GcWatch", "LAYER_SETS", "engine_counters", "install",
    "layer_metrics", "metric_spec",
]

#: Layer groups whose self time says what a workload stresses.
LAYER_SETS = {
    "population": (
        "behavior.materialize", "detection.pipeline", "simulator.population",
    ),
    "auctions": (
        "simulator.auctions", "simulator.querygen.sample_day",
        "matching.eligible_arrays", "simulator.day_buckets", "simulator.gather",
        "auction.kernel", "records.add_batch", "records.build",
    ),
    "write_path": (
        "runner.run", "runner.manifest_save", "records.chunk_encode",
        "records.atomic_write", "records.fsync", "obs.ledger_flush",
        "obs.telemetry_flush", "obs.progress_write", "obs.sink_emit",
        "obs.publish_metrics",
    ),
}

#: Layers reported as ``.calls``/``.busy_s``/``.self_s`` on every run
#: (zero where a workload never reaches them).
TIMED_LAYERS = (
    "behavior.materialize", "detection.pipeline", "simulator.population",
    "simulator.market_build", "simulator.day_buckets", "simulator.gather",
    "simulator.querygen.sample_day", "simulator.auctions",
    "matching.eligible_arrays", "auction.kernel", "records.add_batch",
    "records.build", "records.chunk_encode", "records.chunk_load",
    "records.atomic_write", "records.fsync", "runner.run",
    "runner.manifest_save", "runner.verify", "obs.ledger_flush",
    "obs.telemetry_flush", "obs.progress_write", "obs.sink_emit",
    "obs.publish_metrics", "validation.run", "experiments.run",
)

#: Counts reported on every traced run (zero where never reached).
COUNTS = (
    "behavior.entities_built", "detection.shutdowns", "simulator.market.offers",
    "simulator.gather.candidates", "simulator.querygen.sample_day.queries",
    "matching.candidates_matched", "auction.kernel.candidates_in",
    "auction.kernel.rows_shown", "records.add_batch.rows",
    "records.chunk_encode.bytes", "records.atomic_write.bytes",
    "runner.manifest_save.bytes", "obs.ledger_flush.bytes",
    "obs.telemetry_flush.bytes",
)

#: Engine counters (``repro.obs``) read as before/after deltas.
ENGINE_COUNTERS = {
    "clickmodel.click_draws": "clicks.poisson_draws",
    "clickmodel.clicks_drawn": "clickmodel.clicks_drawn",
    "runner.chunks_written": "runner.chunks_written",
}


class DayClock:
    """Times each Phase-3 day through the public ``on_day_complete`` hook."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.durations: list[float] = []

    def adapt(self, run_auctions):
        day_clock = self

        def run_auctions_timed(*args, **kwargs):
            inner = kwargs.get("on_day_complete")
            last = [day_clock.clock()]

            def on_day_complete(day):
                if inner is not None:
                    inner(day)
                now = day_clock.clock()
                day_clock.durations.append(now - last[0])
                last[0] = now

            kwargs["on_day_complete"] = on_day_complete
            return run_auctions(*args, **kwargs)

        return run_auctions_timed


class GcWatch:
    """Collections and pause time from ``gc.callbacks``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.collections = 0
        self.pauses: list[float] = []
        self._start = None

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = self.clock()
        elif self._start is not None:
            self.collections += 1
            self.pauses.append(self.clock() - self._start)
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def boundaries(day_clock: DayClock) -> list[Boundary]:
    import repro.obs
    from repro.auction import batch as auction_batch
    from repro.behavior import batch as behavior_batch
    from repro.detection.pipeline import DetectionPipeline
    from repro.experiments import registry
    from repro.obs.progress import ProgressSink
    from repro.obs.sink import JsonlSink
    from repro.obs.timeseries import DayLedger
    from repro.records import atomic
    from repro.records.impressions import ImpressionBuilder
    from repro.runner import chunkstore, doctor
    from repro.runner.manifest import RunManifest
    from repro.runner.runner import CheckpointRunner
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.market import DayBuckets, MarketIndex
    from repro.simulator.querygen import MatchTable, QuerySampler
    from repro.validation import suite

    def commit_count(args, kwargs, result):
        outcome = args[2]
        shut = outcome.shutdown_time is not None and outcome.reason is not None
        return {"detection.shutdowns": int(shut)}

    detection = [
        Boundary("detection.pipeline", DetectionPipeline, name, span=False)
        for name in (
            "screen_registration", "evaluate_fraud_account",
            "evaluate_legitimate_account",
        )
    ]
    detection.append(Boundary(
        "detection.pipeline", DetectionPipeline, "commit", commit_count, span=False
    ))
    return detection + [
        Boundary(
            "behavior.materialize", behavior_batch, "materialize_account_batch",
            lambda a, k, r: {"behavior.entities_built":
                             len(r.ad_creation_times) + len(r.kw_creation_times)},
            span=False,
        ),
        Boundary("simulator.population", SimulationEngine, "generate_population"),
        Boundary(
            "simulator.market_build", MarketIndex, "__init__",
            lambda a, k, r: {"simulator.market.offers": len(a[0].max_bid)},
        ),
        Boundary("simulator.market_build", MarketIndex, "country_volume_check"),
        Boundary("simulator.day_buckets", MarketIndex, "day_buckets"),
        Boundary(
            "simulator.gather", DayBuckets, "gather",
            lambda a, k, r: {"simulator.gather.candidates": int(r[0].size)},
        ),
        Boundary(
            "simulator.querygen.sample_day", QuerySampler, "sample_day",
            lambda a, k, r: {"simulator.querygen.sample_day.queries": len(r)},
        ),
        Boundary("simulator.auctions", SimulationEngine, "run_auctions",
                 adapt=day_clock.adapt),
        Boundary(
            "matching.eligible_arrays", MatchTable, "eligible_arrays",
            lambda a, k, r: {"matching.candidates_matched": len(r[0])},
            span=False,
        ),
        Boundary(
            "auction.kernel", auction_batch, "run_auction_batch",
            lambda a, k, r: {"auction.kernel.candidates_in": len(a[0]),
                             "auction.kernel.rows_shown": len(r)},
        ),
        Boundary(
            "records.add_batch", ImpressionBuilder, "add_batch",
            lambda a, k, r: {"records.add_batch.rows": len(k["day"])},
        ),
        Boundary("records.build", ImpressionBuilder, "build"),
        Boundary(
            "records.chunk_encode", chunkstore, "chunk_to_bytes",
            lambda a, k, r: {"records.chunk_encode.bytes": len(r)},
        ),
        Boundary("records.chunk_load", chunkstore, "load_chunk"),
        Boundary(
            "records.atomic_write", atomic, "atomic_write_bytes",
            lambda a, k, r: {"records.atomic_write.bytes": len(a[1])},
        ),
        Boundary("records.fsync", os, "fsync", span=False),
        Boundary("runner.run", CheckpointRunner, "run"),
        Boundary(
            "runner.manifest_save", RunManifest, "save",
            lambda a, k, r: {"runner.manifest_save.bytes": _file_bytes(a[1])},
            durations=True,
        ),
        Boundary("runner.verify", doctor, "verify_run"),
        Boundary(
            "obs.ledger_flush", DayLedger, "flush",
            lambda a, k, r: {"obs.ledger_flush.bytes": len(r)},
        ),
        Boundary(
            "obs.telemetry_flush", JsonlSink, "flush",
            lambda a, k, r: {"obs.telemetry_flush.bytes": _file_bytes(a[0].path)},
        ),
        Boundary("obs.progress_write", ProgressSink, "write"),
        Boundary("obs.sink_emit", JsonlSink, "emit", span=False),
        Boundary("obs.sink_emit", ProgressSink, "emit", span=False),
        Boundary("obs.publish_metrics", repro.obs, "publish_metrics"),
        Boundary("validation.run", suite, "run_validation"),
        Boundary("experiments.run", registry, "run_experiment"),
    ]


def install(tracer: Tracer, day_clock: DayClock) -> None:
    """Wrap every boundary, including the engine's bound default."""
    from repro.behavior import batch as behavior_batch
    from repro.simulator.engine import SimulationEngine

    original = behavior_batch.materialize_account_batch
    tracer.install(boundaries(day_clock))
    # ``_plan_account(..., materializer=materialize_account_batch)``
    # captured the function when the engine module was defined.
    tracer.rebind_default(SimulationEngine._plan_account, original)


def engine_counters() -> dict[str, float]:
    from repro import obs

    return {
        metric: float(obs.counter(name).value)
        for metric, name in ENGINE_COUNTERS.items()
    }


def layer_metrics(
    tracer: Tracer,
    wall: tuple[float, float, dict],
    day_clock: DayClock,
    gc_watch: GcWatch,
    counters: dict[str, float],
) -> dict[str, float]:
    """Flatten one traced repetition into per-layer metric values.

    ``wall`` is ``(start, end, totals)``: the tracer-clock bounds of the
    timed run and the tracer's totals taken at its end.  Layer numbers
    cover the whole repetition (the reopen step included, which is where
    ``records.chunk_load`` and ``runner.verify`` happen); the shares
    cover the timed run alone.
    """
    totals = tracer.totals()
    wall_start, wall_end, wall_totals = wall
    wall_s = wall_end - wall_start
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        row = totals.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.busy_s"] = row["busy_s"]
        out[f"{layer}.self_s"] = row["self_s"]
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0)
    saves = tracer.stats_for("runner.manifest_save").durations or []
    out["runner.manifest_save.p50_ms"] = percentile(saves, 50) * 1e3 if saves else 0.0
    out["runner.manifest_save.p95_ms"] = percentile(saves, 95) * 1e3 if saves else 0.0
    candidates = out["auction.kernel.candidates_in"]
    out["auction.shown_ratio"] = (
        out["auction.kernel.rows_shown"] / candidates if candidates else 0.0
    )
    days = day_clock.durations
    out["simulator.day_p50_ms"] = percentile(days, 50) * 1e3 if days else 0.0
    out["simulator.day_p95_ms"] = percentile(days, 95) * 1e3 if days else 0.0
    out.update(counters)
    out["gc.collections"] = gc_watch.collections
    out["gc.pause_s"] = sum(gc_watch.pauses)
    out["gc.pause_max_s"] = max(gc_watch.pauses, default=0.0)
    # Share of the traced wall time each layer group spent in its own
    # code; the top-level spans' busy time is what named layers cover.
    for group, layers in LAYER_SETS.items():
        own = sum(wall_totals.get(layer, {}).get("self_s", 0.0) for layer in layers)
        out[f"trace.share.{group}"] = own / wall_s
    top = sum(
        s["end"] - s["start"]
        for s in tracer.spans
        if s["parent"] is None and wall_start <= s["start"] and s["end"] <= wall_end
    )
    out["trace.share.attributed"] = top / wall_s
    out["trace.wall_s"] = wall_s
    return out


def _unit_and_direction(name: str) -> tuple[str, str]:
    # Only coverage is a goal.  A group's share describes the workload
    # and falls when that group gets faster; the shown ratio is output
    # behaviour that no optimisation should change.
    if name == "trace.share.attributed":
        return "ratio", "higher"
    if name.startswith("trace.share.") or name == "auction.shown_ratio":
        return "ratio", "lower"
    if name.endswith("_ms"):
        return "ms", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith(".bytes"):
        return "bytes", "lower"
    return "count", "lower"


def metric_spec() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    names = [
        f"{layer}.{part}"
        for layer in TIMED_LAYERS
        for part in ("calls", "busy_s", "self_s")
    ]
    names += list(COUNTS)
    names += [
        "runner.manifest_save.p50_ms", "runner.manifest_save.p95_ms",
        "auction.shown_ratio", "simulator.day_p50_ms", "simulator.day_p95_ms",
    ]
    names += list(ENGINE_COUNTERS)
    names += ["gc.collections", "gc.pause_s", "gc.pause_max_s"]
    names += [f"trace.share.{group}" for group in LAYER_SETS]
    names += ["trace.share.attributed", "trace.wall_s", "trace.overhead_s"]
    return [(name, *_unit_and_direction(name)) for name in names]
