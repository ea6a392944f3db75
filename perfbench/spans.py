"""In-memory spans and the interval arithmetic behind self time.

A span is one timed call: name, start, end and the index of the span that
was open when it started (its parent). Self time is a span's duration minus
the part of its interval that its direct children cover; children of one
call run one after another, but the union is taken anyway so overlapping or
out-of-range child intervals can never be counted twice or outside the
parent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

ROOT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = ROOT
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one traced replicate; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, **attrs) -> Span:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = self.clock()
        span.attrs.update(attrs)
        return span


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent != ROOT:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - union_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def covered_share(spans, names, within: Span) -> float:
    """Share of ``within``'s interval covered by spans whose name is in ``names``."""
    if within.duration <= 0:
        return 0.0
    intervals = [(s.start, s.end) for s in spans if s.name in names]
    return union_length(intervals, within.start, within.end) / within.duration
