"""Self-tests of the benchmark's own arithmetic and checks.

Run on their own with ``python3 perfbench/selftest.py``; ``run.py``
also runs them at the start of every benchmark run and counts each as
an operation.  Each test returns a list of problems (empty = passed).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from checks import Ops, agreement, check_impressions  # noqa: E402
from tracer import Boundary, Tracer, percentile  # noqa: E402

#: A fixed span tree, ``(name, start, end, parent)``: root [0, 10] holds
#: a [1, 4] and b [5, 9]; b holds c [6, 7].
SPAN_TREE = [
    ("root", 0.0, 10.0, None),
    ("a", 1.0, 4.0, "root"),
    ("b", 5.0, 9.0, "root"),
    ("c", 6.0, 7.0, "b"),
]
#: Each span's duration minus its children's.
SPAN_SELF = {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_percentile() -> list[str]:
    problems = []
    data = list(range(1, 11))
    for q, expected in ((0, 1.0), (50, 5.5), (95, 9.55), (100, 10.0)):
        got = percentile(data, q)
        if not _close(got, expected):
            problems.append(f"p{q} of 1..10 = {got}, expected {expected}")
    if percentile([4.0], 95) != 4.0:
        problems.append("percentile of one value is not that value")
    if not math.isnan(percentile([], 50)):
        problems.append("percentile of nothing is not NaN")
    values = np.random.default_rng(0).exponential(size=37)
    for q in (50, 90, 95, 99):
        if not _close(percentile(values, q), float(np.percentile(values, q))):
            problems.append(f"p{q} disagrees with numpy")
    return problems


def _tree_module() -> ModuleType:
    """Functions calling each other through their module, as in SPAN_TREE."""
    tree = ModuleType("span_tree")

    def root():
        tree.a()
        tree.b()

    def b():
        tree.c()
        return "b"

    def x(depth):
        return tree.x(depth - 1) if depth else 0

    tree.root, tree.a, tree.b, tree.c, tree.x = root, lambda: None, b, lambda: 1, x
    return tree


def test_tracer_nesting() -> list[str]:
    """Replay the fixed tree through wrapped callables on a fake clock.

    ``c`` is an aggregate-only boundary: it keeps no span, but its time
    still leaves ``b``'s self time.
    """
    tree = _tree_module()
    originals = dict(vars(tree))
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install([
        Boundary("root", tree, "root"),
        Boundary("a", tree, "a"),
        Boundary("b", tree, "b"),
        Boundary("c", tree, "c", lambda args, kwargs, result: {"c.n": result},
                 span=False),
    ])
    tree.root()
    tracer.uninstall()
    problems = []
    for name, expected in SPAN_SELF.items():
        got = tracer.stats[name].self_s
        if not _close(got, expected):
            problems.append(f"{name}: self {got}, expected {expected}")
    kept = [(s["name"], s["start"], s["end"]) for s in tracer.spans]
    if kept != [(name, start, end) for name, start, end, _ in SPAN_TREE[:3]]:
        problems.append(f"spans {kept} do not match the tree")
    if [s["parent"] for s in tracer.spans] != [None, 0, 0]:
        problems.append("span parents do not match the tree")
    if not _close(tracer.stats["b"].busy_s, 4.0):
        problems.append("busy time of b is not its duration")
    if tracer.counts != {"c.n": 1}:
        problems.append(f"counts {tracer.counts}, expected one c.n")
    if any(vars(tree)[name] is not f for name, f in originals.items()):
        problems.append("uninstall left a wrapper in place")
    return problems


def test_recursion_busy_once() -> list[str]:
    tree = _tree_module()
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install([Boundary("x", tree, "x", span=False)])
    tree.x(1)
    tracer.uninstall()
    stats = tracer.stats["x"]
    problems = []
    if stats.calls != 2 or not _close(stats.busy_s, 3.0):
        problems.append(f"recursive busy {stats.busy_s} over {stats.calls} calls")
    if not _close(stats.self_s, 3.0):
        problems.append(f"recursive self {stats.self_s}, expected 3.0")
    return problems


class _Table(SimpleNamespace):
    def __len__(self) -> int:
        return len(self.day)


def _clean_fields() -> dict:
    """Columns of three valid impression rows from two auctions."""
    return dict(
        day=np.array([0.5, 0.5, 1.5]),
        position=np.array([1, 2, 1], dtype=np.int16),
        mainline=np.array([True, False, True]),
        n_shown=np.array([2, 2, 1], dtype=np.int16),
        n_fraud_shown=np.array([1, 1, 0], dtype=np.int16),
        fraud_labeled=np.array([True, False, False]),
        clicks=np.array([3.0, 0.0, 1.0]),
        price=np.array([0.25, 0.1, 0.4]),
        spend=np.array([0.75, 0.0, 0.4]),
        weight=np.array([100.0, 100.0, 50.0]),
        match_type=np.array([0, 2, 1], dtype=np.int8),
    )


def test_perturbed_table_fails() -> list[str]:
    slots = SimpleNamespace(total_slots=10, mainline_slots=4)
    fields = _clean_fields()
    problems = []
    if check_impressions(_Table(**fields), slots, days=2):
        problems.append("the clean table fails its checks")
    perturbations = {
        "spend": lambda t: t.spend.__setitem__(0, 0.76),
        "n_fraud_shown": lambda t: t.n_fraud_shown.__setitem__(2, 2),
        "position": lambda t: t.position.__setitem__(1, 3),
        "mainline": lambda t: t.position.__setitem__(0, 5),
    }
    for name, perturb in perturbations.items():
        table = _Table(**{k: v.copy() for k, v in fields.items()})
        perturb(table)
        ops = Ops()
        ops.record("check.impressions", check_impressions(table, slots, days=2))
        if ops.failed != 1:
            problems.append(f"a perturbed {name} was not a failed operation")
    return problems


def test_mismatched_digest_fails() -> list[str]:
    """A digest that differs within one config is a failed operation."""
    from run import _digest_problems, schedule

    same, other = "ab" * 32, "cd" * 32
    ops = Ops()
    ops.record("agree", agreement([same] * 3))
    ops.record("disagree", agreement([same, same, other]))
    ops.record("runs agree", _digest_problems(
        [{"rep": 0, "digest": same}, {"rep": 0, "digest": same},
         {"rep": 1, "digest": other}]))
    ops.record("runs disagree", _digest_problems(
        [{"rep": 0, "digest": same}, {"rep": 0, "digest": other}]))
    ops.record("nothing compared", _digest_problems(
        [{"rep": 0, "digest": same}, {"rep": 1, "digest": same}]))
    problems = []
    if (ops.attempted, ops.failed) != (5, 3):
        problems.append(
            f"digest agreement counted {ops.failed} of {ops.attempted} as failed")
    for trace in (False, True):
        for seconds in (1, 10, 30, 60):
            configs = [rep for rep, _ in schedule(9.0, seconds, trace)]
            if all(configs.count(rep) < 2 for rep in configs):
                problems.append(f"schedule({seconds} s, trace={trace}) "
                                "runs no config twice")
    return problems


def test_benchmark_json_matches() -> list[str]:
    """BENCHMARK.json lists exactly the metrics the driver prints."""
    import layers
    from run import END_TO_END

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append("end_to_end differs from run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != layers.metric_spec():
        problems.append("per_layer differs from layers.metric_spec()")
    return problems


TESTS = {
    "percentile": test_percentile,
    "tracer_nesting": test_tracer_nesting,
    "recursion_busy_once": test_recursion_busy_once,
    "perturbed_table_fails": test_perturbed_table_fails,
    "mismatched_digest_fails": test_mismatched_digest_fails,
    "benchmark_json_matches": test_benchmark_json_matches,
}


def run_all() -> list[tuple[str, list[str]]]:
    results = []
    for name, test in TESTS.items():
        try:
            problems = test()
        except Exception as exc:  # a crashing self-test is a failed one
            problems = [f"{type(exc).__name__}: {exc}"]
        results.append((name, problems))
    return results


def main() -> int:
    failed = 0
    for name, problems in run_all():
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
