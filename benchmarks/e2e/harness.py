"""The measured phase: time steps, spin between them, reduce to metrics."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from calibrate import slowdown, spin
from stats import (boundary_violations, iqr_spread, percentile,
                   split_blocks)

#: Reads a measured phase must collect whatever its length: a p90 needs
#: ten samples beyond it.
MIN_READS = 100


@dataclass
class Sample:
    """One operation a caller waited for."""

    op_class: str        # template id, or the kind of write
    ms: float            # latency at reference speed
    ok: bool
    is_read: bool


@dataclass
class Sweep:
    """One pass over the workload's op sequence."""

    samples: "list[Sample]"
    seconds: float       # time of its timed steps at reference speed
    raw_seconds: float   # the same as the clock read it
    spin_ms: float       # mean spin around its steps


class SetupClock:
    """Times set-up at reference speed: ``tick()`` between its stages."""

    def __init__(self):
        self._started = time.perf_counter()
        self._spins = [spin()]

    def tick(self) -> None:
        self._spins.append(spin())

    def seconds(self) -> float:
        self.tick()
        raw = time.perf_counter() - self._started
        return raw / slowdown(*self._spins)


def measure(sweeps, seconds: float) -> "list[Sweep]":
    """Run whole sweeps until ``seconds`` of timed steps have passed
    (and ``MIN_READS`` reads are in hand).

    ``sweeps`` yields lists of steps; a step is a callable returning
    ``(op_class, raw_ms, ok, is_read)`` tuples for the operations it
    waited for, or ``None`` for work that is not part of the workload
    (a correctness checkpoint) and is left out of every time.
    """
    done, measured, reads = [], 0.0, 0
    before = spin()
    for steps in sweeps:
        samples, busy, raw_busy, spins = [], 0.0, 0.0, []
        for step in steps:
            step_started = time.perf_counter()
            observed = step()
            wall = time.perf_counter() - step_started
            after = spin()
            if observed is not None:
                factor = slowdown(before, after)
                busy += wall / factor
                raw_busy += wall
                spins.append((before + after) / 2.0)
                samples.extend(Sample(op_class, raw_ms / factor, ok, is_read)
                               for op_class, raw_ms, ok, is_read in observed)
            before = after
        done.append(Sweep(samples, busy, raw_busy, statistics.fmean(spins)))
        measured += raw_busy
        reads += sum(sample.is_read for sample in samples)
        if measured >= seconds and reads >= MIN_READS:
            break
    return done


def _reduce(sweeps: "list[Sweep]", checked: bool = True) -> dict:
    reads = [s.ms for sweep in sweeps for s in sweep.samples if s.is_read]
    busy = sum(sweep.seconds for sweep in sweeps)
    return {"queries_per_s": len(reads) / busy,
            "query_p50_ms": percentile(reads, 0.5, checked),
            "query_p90_ms": percentile(reads, 0.9, checked)}


def summarise(sweeps: "list[Sweep]") -> dict:
    """Pooled metrics, their spread over five blocks, and self-checks."""
    metrics = _reduce(sweeps)
    by_class: "dict[str, list[float]]" = {}
    for sweep in sweeps:
        for sample in sweep.samples:
            if sample.is_read:
                by_class.setdefault(sample.op_class, []).append(sample.ms)
    # The blocks only show how steady the run was; a fifth of the
    # sample need not support the percentiles the whole sample does.
    blocks = [_reduce(block, checked=False)
              for block in split_blocks(sweeps)]
    reads = sum(len(values) for values in by_class.values())
    return {
        "metrics": metrics,
        "samples": reads,
        "sweeps": len(sweeps),
        "block_spread": {name: iqr_spread([block[name] for block in blocks])
                         for name in metrics},
        "class_median_ms": {name: statistics.median(values)
                            for name, values in sorted(by_class.items())},
        "boundary_violations": boundary_violations(by_class),
        "raw_queries_per_s": reads / sum(s.raw_seconds for s in sweeps),
        "spin_factor": slowdown(*(sweep.spin_ms for sweep in sweeps)),
    }
