"""Latency statistics and the in-memory span tracer.

Nothing here imports ncfree; the tracer wraps the benchmark's own calls into
the library from the outside.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from fractions import Fraction

# Host interference on a shared box changes the speed of the same code by
# 25-40% from one minute to the next.  Every timing is therefore taken next
# to a fixed reference loop and scaled by REF_QUIET_S / (loop time): the
# result estimates the time on the same box when it is quiet.  REF_QUIET_S
# is the loop's time measured alone on a quiet 2-core x86 box.
REF_QUIET_S = 0.008

# Percentiles tried for the tail, highest first.  The tail is the highest one
# with at least TAIL_MIN_BEYOND samples strictly above its rank.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def quantile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolation quantile of already sorted values, p in [0, 100]."""
    if not sorted_vals:
        raise ValueError("no samples")
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _beyond(n: int, p: float) -> int:
    return n - 1 - int((n - 1) * p / 100.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile leaving TAIL_MIN_BEYOND samples beyond it in n."""
    for p in TAIL_LADDER:
        if _beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def tail_latency(latencies: list[float], n_ref: int | None = None) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the tail latency.

    The percentile is chosen for min(len(latencies), n_ref) samples: a faster
    program that completes more passes in a run keeps the percentile of the
    reference run length, so two versions are compared at the same rank.
    """
    vals = sorted(latencies)
    n = len(vals)
    p = tail_percentile(n if n_ref is None else min(n, n_ref))
    return quantile(vals, p), p, _beyond(n, p)


def reference() -> float:
    """Seconds for a fixed pure-Python Fraction loop that shares no code with ncfree."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, 2)
    return time.perf_counter() - t


def speed_factor() -> float:
    """Scale for a timing taken now: REF_QUIET_S over the reference loop's time."""
    return REF_QUIET_S / reference()


class Tracer:
    """Spans (name, start, end, parent, job) kept in memory until the run ends.

    A disabled tracer hands out one shared no-op context, so untraced runs
    pay only for the method call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: object = None
        self._noop = nullcontext()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._noop

    def write(self, path: str, scale: dict) -> None:
        """Spans as JSON, with the speed factor of each job id."""
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans], "scale": scale}, fh)

    def self_times(self, scale: dict, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans, each
        span scaled by the speed factor of its job (`scale[job]`).

        Spans come from one thread and children nest inside their parent, so
        child intervals never overlap and their durations simply add up.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for idx, (name, start, end, _, job) in enumerate(spans, start=first):
            own = (end - start - child[idx]) * scale[job]
            out[name] = out.get(name, 0.0) + own
        return out

    def durations(self, name: str, scale: dict, first: int = 0,
                  last: int | None = None) -> list[float]:
        return [(s[2] - s[1]) * scale[s[4]] for s in self.spans[first:last] if s[0] == name]


class _Span:
    __slots__ = ("tr", "name", "idx")

    def __init__(self, tr: Tracer, name: str):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        parent = tr._stack[-1] if tr._stack else None
        self.idx = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.job])
        tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tr
        tr.spans[self.idx][2] = time.perf_counter()
        tr._stack.pop()
        return False
