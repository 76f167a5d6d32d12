"""A spin kernel that tells how fast the machine is running right now.

The sandbox this benchmark runs in shares physical cores: for seconds
to minutes at a time a busy sibling hyperthread slows one vCPU by up to
2x, independently per vCPU, with no steal time reported.  Identical
code then differs by +-20 % between 10-second runs, which no amount of
averaging inside a run removes.  So the benchmark pins itself (and, by
inheritance, every process it starts) to one CPU and runs this fixed,
benchmark-owned kernel on that CPU between the steps it times.  A
step's times are divided by ``spin now / SPIN_REFERENCE_MS``.  Reported
times therefore read as *milliseconds on the quiet reference machine*;
``bench.spin_factor`` says how far the machine was from it.

Plain proportional scaling is what the data supports: over 160 runs,
with the spin between 0.8 and 6 times its reference, the slope of
log(run time) on log(run spin) was 1.10, 0.99, 0.99 and 1.08 on the
four workloads (``out/sweeps-<workload>.json`` holds the per-sweep
pairs of the last run).  On a noisy hour it cut the range of
``served_hot`` throughput over ten runs from 47 % of the median to 14 %.

The kernel belongs to the benchmark, never to the code under test, so
an optimisation cannot speed the ruler up with the thing it measures.
"""

from __future__ import annotations

import os
import statistics
import time

#: Median kernel time on the reference box (Xeon 2.1 GHz sandbox vCPU)
#: with a quiet sibling.
SPIN_REFERENCE_MS = 0.98


def pin_to_one_cpu() -> None:
    """Pin this process and its future children to its first CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel(rounds: int = 4000) -> int:
    # Dict, string and integer work: the interpreter's everyday mix.
    table: dict = {}
    total = 0
    for i in range(rounds):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    return total


def spin() -> float:
    """Milliseconds the kernel takes now (median of three runs)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000.0


def slowdown(*spins: float) -> float:
    """What to divide a time by, given the spins measured around it."""
    return statistics.fmean(spins) / SPIN_REFERENCE_MS
