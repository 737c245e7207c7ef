"""Repository benchmark driver.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 34 --trace 0

For one workload and seed it runs a few set-up-only probes, then as many
repetitions as fill ``--seconds`` on the reference machine, one at a
time, each in a fresh worker process (``worker.py``) given only a
simulation config generated from the seed.  The last repetition runs
the first one's config again, and the two must print the same output
digest.  Every repetition's outputs are checked.  With ``--trace 0`` it
reports the end-to-end metrics (medians over the repetitions, times
scaled to the reference machine's speed by ``speed.py``);
with ``--trace 1`` each config runs untraced and then traced, and the
per-layer metrics come from the traced runs.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for the workloads, metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from checks import Ops, agreement  # noqa: E402

#: Where runs write: scratch space (removed at exit) and trace files.
OUT_DIR = ROOT / ".perfbench_runs"
#: Set-up-only workers started before the repetitions: each repetition
#: also sets up, but a few more samples steady the median of ``setup_s``.
SETUP_PROBES = 3
#: No worker may run past this many seconds from this program's start;
#: one that would is stopped and counted as a failed operation.
HARD_LIMIT_S = 165.0
#: Exit code of a worker that could not import the program.
NO_PROGRAM = 3

#: End-to-end values fixed by the input, which no machine noise moves:
#: reported as means over the distinct configs, each input weighed once.
PER_INPUT = ("peak_rss_mb", "validation_passed")
#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("reopen_s", "s", "lower"),
    ("validation_passed", "count", "higher"),
)


class NoProgram(RuntimeError):
    """The checkout holds no importable program to benchmark."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    """The caller's environment minus the program's own REPRO_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


class Session:
    """One driver run: its scratch directory, clock and operation tally."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.ops = Ops()
        self.children = 0
        #: Reference timings: one before the first worker and one after
        #: each.  The first call of the reference pays one-off costs.
        speed.reference_work()
        self.reference_times = [speed.reference_s()]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def config_path(self, rep: int) -> Path:
        """Write (once) and return the generated config of repetition ``rep``."""
        from workloads import rep_seed

        path = self.work / f"config-{rep}.json"
        if not path.exists():
            config = self.workload.make_config(rep_seed(self.seed, rep))
            path.write_text(json.dumps(dataclasses.asdict(config)))
        return path

    def child(self, mode: str, rep: int, trace_out: Path | None = None) -> dict | None:
        """Run one worker; its operations join the tally.

        Returns the worker's result, which lacks ``"complete"`` when the
        repetition failed part-way, or ``None`` when the worker died.
        """
        self.children += 1
        tag = f"{mode}-{self.children}"
        out = self.work / f"{tag}.json"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload.name, "--config", str(self.config_path(rep)),
            "--mode", mode, "--workdir", str(self.work / tag), "--out", str(out),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            completed = subprocess.run(
                command, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.ops.record(f"worker.{tag}", [f"timed out after {timeout:.0f} s"])
            return None
        finally:
            self.reference_times.append(speed.reference_s())
        if completed.returncode == NO_PROGRAM:
            raise NoProgram("the worker could not import the program")
        if not out.exists():
            self.ops.record(f"worker.{tag}", [f"exit code {completed.returncode}"])
            return None
        payload = json.loads(out.read_text())
        payload["rep"] = rep
        self.ops.merge(payload["ops"])
        shutil.rmtree(self.work / tag, ignore_errors=True)
        return payload


def schedule(nominal_rep_s: float, seconds: float, trace: bool) -> list[tuple[int, str]]:
    """The workers a run starts, in order, as ``(config index, mode)``.

    Fixed by the arguments alone, so every run of one seed simulates the
    same inputs however fast the machine is.  Config ``i`` is generated
    from :func:`workloads.rep_seed` ``(seed, i)``, and some config always
    runs twice, so that the two digests can be compared: with
    ``--trace 0`` the last repetition reruns config 0 (the others each
    run their own config, so the medians cover as many inputs as they
    can); with ``--trace 1`` each config runs untraced and then traced.
    """
    if trace:
        pairs = max(1, round(seconds / (2 * nominal_rep_s)))
        return [(i, mode) for i in range(pairs) for mode in ("run", "trace")]
    reps = max(2, round(seconds / nominal_rep_s))
    return [(i, "run") for i in range(reps - 1)] + [(0, "run")]


def _measure(session: Session, seconds: float, trace: bool, trace_dir: Path):
    """Set-up probes, then the scheduled repetitions, one process at a time."""
    probes, runs, traced = [], [], []
    for _ in range(SETUP_PROBES):
        probes.append(session.child("setup", 0))
    for rep, mode in schedule(session.workload.nominal_rep_s, seconds, trace):
        if mode == "trace":
            traced.append(session.child(mode, rep, trace_dir / f"trace-{rep}.json"))
        else:
            runs.append(session.child(mode, rep))
    probes, runs, traced = (
        [p for p in payloads if p is not None and p.get("complete")]
        for payloads in (probes, runs, traced)
    )
    setups = [p["setup_s"] for p in probes + runs + traced]
    return setups, runs, traced


def _median(payloads: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in payloads)


def _per_input_mean(payloads: list[dict], key: str) -> float:
    return statistics.fmean({p["rep"]: p[key] for p in payloads}.values())


def _metrics(setups, runs, traced, trace: bool, scale: float, workload) -> dict:
    if not trace:
        values = {
            "setup_s": statistics.median(setups) * scale,
            "wall_s": _median(runs, "wall_s") * scale,
            "reopen_s": _median(runs, "reopen_s")
            * (scale if workload.scale_reopen else 1.0),
        }
        for name in PER_INPUT:
            values[name] = _per_input_mean(runs, name)
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    import layers

    values = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name, _, _ in layers.metric_spec()
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(runs, "wall_s")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in layers.metric_spec()
    }


def _digest_problems(payloads: list[dict]) -> list[str]:
    """Every config's repetitions, traced or not, print one digest."""
    by_config: dict[int, list[str]] = {}
    for payload in payloads:
        by_config.setdefault(payload["rep"], []).append(payload["digest"])
    problems = []
    for digests in by_config.values():
        if len(digests) > 1:
            problems += agreement(digests)
    if all(len(digests) < 2 for digests in by_config.values()):
        problems.append("no config completed twice, so no digests were compared")
    return problems


def run(args) -> dict:
    import selftest

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise NoProgram(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    if args.seed < 0:
        raise SystemExit("--seed must be >= 0")

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        session = Session(WORKLOADS[args.workload], args.seed, work)
        for name, problems in selftest.run_all():
            session.ops.record(f"selftest.{name}", problems)
        trace_dir = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        setups, runs, traced = _measure(session, args.seconds, bool(args.trace), trace_dir)
        if not runs or (args.trace and not traced):
            raise RuntimeError("no repetition completed")
        session.ops.record("check.digest_agreement", _digest_problems(runs + traced))
        # One scale for the whole run: the reference timings' median
        # follows the machine's drift between runs, while the noise of a
        # single timing stays out of the times.
        scale = speed.REFERENCE_S / statistics.median(session.reference_times)
        metrics = _metrics(
            setups, runs, traced, bool(args.trace), scale, session.workload
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs, "
          f"{len(traced)} traced, {len(setups)} set-ups; times x {scale:.4f}")
    for payload in runs:
        print(f"  rep {payload['rep']}: wall_s {payload['wall_s']:.3f} "
              f"reopen_s {payload['reopen_s']:.4f} "
              f"digest {payload.get('digest', '-')}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    for failure in session.ops.failures:
        print(f"  FAILED {failure}")
    return {
        "correct": session.ops.failed == 0,
        "attempted": session.ops.attempted,
        "failed": session.ops.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        summary = run(args)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
