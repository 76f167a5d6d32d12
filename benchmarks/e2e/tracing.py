"""In-memory spans recorded from outside the program under test.

The benchmark steps the public calls of each layer itself and wraps
each in a span; nothing inside ``repro`` is instrumented.  Spans stay
in memory during the run and are written as JSON lines afterwards.
A layer's self time is its span minus what its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    op_id: int
    name: str
    parent: "int | None"
    start: float
    end: float = 0.0


class Tracer:
    """Records a tree of spans per operation."""

    def __init__(self):
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        self._op_id = 0

    @contextmanager
    def span(self, name: str):
        if not self._stack:
            self._op_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), self._op_id, name, parent,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> "dict[int, float]":
    """Seconds each span spent outside its children, by span id.

    Children are clipped to the parent's interval and their overlap is
    counted once, so concurrent children cannot drive self time negative.
    """
    children: "dict[int, list]" = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    result = {}
    for record in spans:
        inside = [(max(child.start, record.start), min(child.end, record.end))
                  for child in children.get(record.span_id, ())]
        inside = [(start, end) for start, end in inside if end > start]
        result[record.span_id] = (record.end - record.start) - covered(inside)
    return result


def self_time_by_name(spans) -> "dict[str, float]":
    """Total self seconds per span name."""
    totals: "dict[str, float]" = {}
    for span_id, seconds in self_times(spans).items():
        name = spans[span_id].name
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def durations_by_name(spans) -> "dict[str, list[float]]":
    """Span durations in milliseconds, grouped by name."""
    grouped: "dict[str, list[float]]" = {}
    for record in spans:
        grouped.setdefault(record.name, []).append(
            (record.end - record.start) * 1000.0)
    return grouped
