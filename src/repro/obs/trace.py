"""Lightweight spans over the §5 pipeline stages.

A *span* times one named stage::

    with span("cluster"):
        clusters = build_clusters(prepared, index, ids_match, budget=budget)

Every span observes the process-wide ``sama_stage_seconds`` histogram
(labelled by stage) unless observability is off, and — independently
of that switch — records into the thread's active :class:`Trace` when
one was opened with :func:`start_trace`.  ``sama profile`` opens a
trace around a whole query to print the per-stage breakdown; the
serving layer opens one per request when the slow-query log is armed,
so a slow request's log line says *where* the time went.

The taxonomy (DESIGN.md §9): ``prepare`` (validation + decomposition,
with ``extract`` nested inside it), ``cluster``, ``search``, and
``forest`` for the diagnostic Fig. 4 rendering.  Spans nest; each
record keeps its depth, times are *inclusive* (``extract`` is part of
``prepare``'s time), and :meth:`Trace.total_seconds` sums only the
top-level spans so nothing is double-counted.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from . import registry as _registry

#: Help text of the per-stage histogram family.
STAGE_HELP = "Wall-clock seconds spent per pipeline stage"
STAGE_METRIC = "sama_stage_seconds"

_active = threading.local()


@dataclass
class SpanRecord:
    """One finished span inside a trace."""

    name: str
    seconds: float
    depth: int


class Trace:
    """The ordered spans observed on one thread between start/stop."""

    def __init__(self):
        self.records: "list[SpanRecord]" = []

    def add(self, name: str, seconds: float, depth: int) -> None:
        self.records.append(SpanRecord(name, seconds, depth))

    @property
    def total_seconds(self) -> float:
        """Summed top-level span time (nested spans not double-counted)."""
        return sum(r.seconds for r in self.records if r.depth == 0)

    def breakdown(self) -> "list[tuple[str, int, float]]":
        """``(name, calls, inclusive_seconds)`` in first-seen order."""
        order: "list[str]" = []
        calls: "dict[str, int]" = {}
        seconds: "dict[str, float]" = {}
        for record in self.records:
            if record.name not in calls:
                order.append(record.name)
                calls[record.name] = 0
                seconds[record.name] = 0.0
            calls[record.name] += 1
            seconds[record.name] += record.seconds
        return [(name, calls[name], seconds[name]) for name in order]

    def stage_ms(self) -> "dict[str, float]":
        """``{stage: inclusive milliseconds}`` (slow-query log shape)."""
        return {name: round(total * 1000.0, 3)
                for name, _calls, total in self.breakdown()}


def current_trace() -> "Trace | None":
    return getattr(_active, "trace", None)


class _TraceCtx:
    __slots__ = ("trace", "_previous", "_previous_depth")

    def __init__(self):
        self.trace = Trace()

    def __enter__(self) -> Trace:
        self._previous = getattr(_active, "trace", None)
        self._previous_depth = getattr(_active, "depth", 0)
        _active.trace = self.trace
        _active.depth = 0
        return self.trace

    def __exit__(self, *exc) -> bool:
        _active.trace = self._previous
        _active.depth = self._previous_depth
        return False


def start_trace() -> _TraceCtx:
    """Capture every span on this thread into a fresh :class:`Trace`."""
    return _TraceCtx()


# Memoised per-stage histograms: span() runs a few times per query, but
# there is no reason to re-derive the (name, labels) lookup each time.
_stage_histograms: "dict[tuple[int, str], object]" = {}


def _stage_histogram(name: str):
    registry = _registry.get_registry()
    key = (id(registry), name)
    histogram = _stage_histograms.get(key)
    if histogram is None:
        histogram = registry.histogram(STAGE_METRIC, STAGE_HELP,
                                       labels={"stage": name})
        _stage_histograms[key] = histogram
        # Registries are swapped wholesale by configure(); drop cache
        # entries for dead registries so the dict cannot grow unbounded.
        for stale in [k for k in _stage_histograms if k[0] != id(registry)]:
            _stage_histograms.pop(stale, None)
    return histogram


class _SpanCtx:
    __slots__ = ("name", "_trace", "_started", "_depth", "_live")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> "_SpanCtx":
        self._trace = getattr(_active, "trace", None)
        self._live = _registry.enabled() or self._trace is not None
        if not self._live:
            return self
        self._depth = getattr(_active, "depth", 0)
        _active.depth = self._depth + 1
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if not self._live:
            return False
        elapsed = time.perf_counter() - self._started
        _active.depth = self._depth
        if _registry.enabled():
            _stage_histogram(self.name).observe(elapsed)
        if self._trace is not None:
            self._trace.add(self.name, elapsed, self._depth)
        return False


def span(name: str) -> _SpanCtx:
    """Time one pipeline stage (see module docstring)."""
    return _SpanCtx(name)
