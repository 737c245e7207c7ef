"""The benchmark's layer tracer: wraps public callables, keeps spans.

The tracer lives entirely in the benchmark.  It rebinds a callable in
every loaded ``repro`` module that holds it (so ``from x import f``
bindings are covered too), times each call on the main thread with
``time.perf_counter``, and derives self time from nesting: a call's
self time is its duration minus the durations of the wrapped calls made
inside it.  The wrappers only read arguments and results, never an RNG
stream, so a traced run must produce the same bytes as an untraced one.

High-frequency boundaries (``span=False``) are aggregated as count and
busy time only; the others also keep one span per call in memory, which
:meth:`Tracer.dump` writes out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Boundary", "LayerStats", "Tracer", "percentile"]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``.

    The same rule as ``numpy.percentile``'s default; NaN when empty.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


@dataclass
class LayerStats:
    """Aggregate of every call through one named boundary."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    #: Calls of this layer currently open (busy time counts the
    #: outermost call of a recursion once).
    depth: int = 0
    #: Per-call durations, kept only for boundaries that report
    #: percentiles of their own call time.
    durations: list[float] | None = None


@dataclass(frozen=True)
class Boundary:
    """One public callable to wrap and the layer name it reports as.

    ``owner`` is a module or class and ``attr`` the attribute holding
    the callable.  ``count(args, kwargs, result)`` returns per-call
    counts (``{metric: amount}``) added to :attr:`Tracer.counts`.
    ``adapt(original)``, when given, returns the callable to time in
    place of the original (the day-hook injector uses it).
    ``span=False`` marks a high-frequency boundary: aggregated only.
    """

    layer: str
    owner: object
    attr: str
    count: Callable | None = None
    adapt: Callable | None = None
    span: bool = True
    durations: bool = False


class Tracer:
    """Installs wrappers around :class:`Boundary` callables and aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        #: Open frames: ``[layer, start, child_s, span_id]``.
        self._stack: list[list] = []
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, Callable] = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stats_for(self, layer: str) -> LayerStats:
        stats = self.stats.get(layer)
        if stats is None:
            stats = self.stats[layer] = LayerStats()
        return stats

    def enter(self, layer: str, keep_span: bool = True) -> list:
        """Open a call of ``layer``; returns the frame :meth:`exit` closes.

        A frame is ``[child_s, span_id, stats, start]``.
        """
        stats = self.stats_for(layer)
        span_id = None
        if keep_span:
            parent = next(
                (f[1] for f in reversed(self._stack) if f[1] is not None), None
            )
            span_id = len(self.spans)
            self.spans.append(
                {"id": span_id, "parent": parent, "name": layer,
                 "start": 0.0, "end": 0.0}
            )
        stats.depth += 1
        frame = [0.0, span_id, stats, self.clock()]
        if span_id is not None:
            self.spans[span_id]["start"] = frame[3]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("unbalanced trace stack")
        child_s, span_id, stats, start = frame
        duration = end - start
        if stack:
            stack[-1][0] += duration
        stats.depth -= 1
        stats.calls += 1
        stats.self_s += duration - child_s
        if not stats.depth:
            stats.busy_s += duration
        if stats.durations is not None:
            stats.durations.append(duration)
        if span_id is not None:
            self.spans[span_id]["end"] = end

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, boundary: Boundary, original: Callable) -> Callable:
        layer, count, keep_span = boundary.layer, boundary.count, boundary.span
        stats = self.stats_for(layer)
        if boundary.durations and stats.durations is None:
            stats.durations = []
        enter, exit_, get_ident = self.enter, self.exit, threading.get_ident
        main, counts = self._main, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if get_ident() != main:
                return original(*args, **kwargs)
            frame = enter(layer, keep_span)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + amount
            return result

        return traced

    def install(self, boundaries: list[Boundary]) -> None:
        """Wrap every boundary, rebinding each alias in loaded modules."""
        for boundary in boundaries:
            original = boundary.owner.__dict__[boundary.attr]
            timed = boundary.adapt(original) if boundary.adapt else original
            wrapper = self.wrap(boundary, timed)
            self._wrappers[id(original)] = wrapper
            self._rebind(boundary.owner, boundary.attr, original, wrapper)
            if isinstance(boundary.owner, type):
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is boundary.owner or not name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def rebind_default(self, function: Callable, original: Callable) -> None:
        """Point a function's default argument at an installed wrapper.

        A default bound at definition time (``f(x, g=g)``) keeps the
        original object however the module attribute is rebound.
        """
        defaults = function.__defaults__ or ()
        wrapper = self._wrappers[id(original)]
        new = tuple(wrapper if d is original else d for d in defaults)
        self._restore.append((function, "__defaults__", defaults))
        function.__defaults__ = new

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        out = {}
        for layer, stats in sorted(self.stats.items()):
            row = {"calls": stats.calls, "busy_s": stats.busy_s,
                   "self_s": stats.self_s}
            if stats.durations is not None:
                row["p50_ms"] = percentile(stats.durations, 50) * 1e3
                row["p95_ms"] = percentile(stats.durations, 95) * 1e3
            out[layer] = row
        return out

    def dump(self, path, extra: dict | None = None) -> None:
        """Write spans and per-layer totals as one JSON document."""
        payload = {
            "totals": self.totals(), "counts": self.counts, "spans": self.spans
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=float)
