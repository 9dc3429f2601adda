"""In-memory spans for the benchmark's traced runs.

A span is opened by the benchmark around one call into a layer of `eviq`
and records its name, start, end and parent.  Spans under one operation
(one query, one training round, one decoded event) share the operation's
root span index as their identifier.  Nothing here touches the package.
"""

from __future__ import annotations

import json
import math
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "_tracer")

    def __init__(self, tracer, name, parent, op, attrs):
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Collects nested spans; one per `with tracer.span(name):` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        op = self.spans[parent].op if parent >= 0 else index
        s = Span(self, name, parent, op, attrs)
        self.spans.append(s)
        self._stack.append(index)
        return s

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, **s.attrs}) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stand-in for untraced runs: every span is the same no-op object."""

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN


def self_times(spans) -> list[float]:
    """Per span, its duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and merged before being
    subtracted, so overlapping or out-of-bounds children are not counted
    twice.
    """
    children: dict[int, list] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    v = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(v)))
    return v[rank - 1]
