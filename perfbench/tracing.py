"""Spans around the program's layer boundaries, recorded from outside.

A :class:`Tracer` replaces a function with a wrapper at the name its
callers look up (a module global or a class attribute); the program
itself is not changed. Each call becomes a span ``[name, start, end,
parent]`` kept in memory; the benchmark writes them out when the run
ends. A span's self time is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Traced stand-in for ``fn``.

        ``count(bound_arguments, result)`` returns a number added to the
        counter ``name`` after each call, so counts are taken at the same
        boundary as the span.
        """
        spans, opened, clock = self.spans, self._open, self.clock
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, opened[-1] if opened else -1])
            opened.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                opened.pop()
                spans[index][2] = clock()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[name] += count(bound.arguments, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        """Wrap ``owner.attribute`` in place (a module or a class)."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), count))


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach, start), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total duration, total self time and durations."""
    summary: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _ = span
        entry = summary.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return summary
