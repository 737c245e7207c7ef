"""One benchmark repetition, run by ``run.py`` in a fresh process.

Usage (the driver builds these arguments; nothing here reads a seed)::

    python3 perfbench/worker.py --workload NAME --config CONFIG.json \\
        --mode setup|run|trace --workdir DIR --out RESULT.json \\
        [--trace-out TRACE.json]

Every mode times set-up (imports, config, engine or runner construction
and match-table warm-up), and ``setup`` stops there.  ``run`` then runs
the workload untraced and checks its outputs.  ``trace`` does the same with every layer boundary
wrapped, and writes spans and totals to ``--trace-out``.
The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path)
    return parser.parse_args(argv)


def _import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"repro imported from {location}, not {ROOT / 'src'}")


def _repetition(args, out: dict, ops) -> None:
    from checks import (
        check_detections, check_impressions, check_summaries, result_digest,
    )
    from repro.config import config_from_dict
    from workloads import WORKLOADS

    config = config_from_dict(json.loads(args.config.read_text()))
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    state = workload.prepare(config, args.workdir)
    out["setup_s"] = time.perf_counter() - _STARTED
    ops.record("setup")
    if args.mode == "setup":
        out["complete"] = True
        return

    traced = args.mode == "trace"
    if traced:
        import layers
        from tracer import Tracer

        tracer, day_clock, gc_watch = Tracer(), layers.DayClock(), layers.GcWatch()
        layers.install(tracer, day_clock)
        before = layers.engine_counters()
        gc_watch.__enter__()
    try:
        start = time.perf_counter()
        outcome = workload.run(state)
        end = time.perf_counter()
        if traced:
            wall_totals = tracer.totals()
            tracer.uninstall()
        workload.persist(state, outcome)
        if traced:
            layers.install(tracer, day_clock)
        out["reopen_s"], reopened = workload.reopen(state, outcome)
    finally:
        if traced:
            gc_watch.__exit__()
            tracer.uninstall()
    out["wall_s"] = end - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        after = layers.engine_counters()
        counters = {name: after[name] - before[name] for name in after}
        out["layers"] = layers.layer_metrics(
            tracer, (start, end, wall_totals), day_clock, gc_watch, counters
        )
        tracer.dump(args.trace_out, {
            "workload": args.workload, "wall": [start, end],
            "wall_totals": wall_totals, "day_durations_s": day_clock.durations,
            "metrics": out["layers"],
        })

    # Output checks: untimed, after the peak-RSS reading.
    result = outcome.result
    for name, problems in outcome.steps:
        ops.record(name, problems)
    ops.record("reopen")
    ops.record("check.impressions",
               check_impressions(result.impressions, config.auction, config.days))
    ops.record("check.summaries", check_summaries(result))
    ops.record("check.detections", check_detections(result))
    out["digest"] = result_digest(result, outcome.rng_states)
    same = result_digest(reopened, outcome.rng_states) == out["digest"]
    ops.record("check.reopened_equals_fresh",
               [] if same else ["reopened result differs from the fresh one"])
    passed = outcome.validation_passed
    if passed is None:
        from repro.validation.suite import TARGETS, run_validation

        # Only paper_default's config is calibrated.  Elsewhere the suite
        # still runs as a check, and the metric is a placeholder, the
        # number of targets the suite defines, so that seed noise of an
        # uncalibrated config cannot widen its bound.
        run_validation(result)
        ops.record("validation")
        passed = len(TARGETS)
    out["validation_passed"] = passed
    out["complete"] = True


def main(argv=None) -> int:
    from checks import Ops

    args = _parse(argv)
    out: dict = {"workload": args.workload, "mode": args.mode}
    ops = Ops()
    status = 0
    try:
        _import_program()
    except ImportError as exc:
        print(f"worker: cannot import the program: {exc}", file=sys.stderr)
        return 3
    try:
        _repetition(args, out, ops)
    except Exception:
        traceback.print_exc()
        ops.record("repetition", [traceback.format_exc(limit=3).strip()])
        status = 1
    out["ops"] = ops.to_dict()
    args.out.write_text(json.dumps(out))
    return status


if __name__ == "__main__":
    sys.exit(main())
