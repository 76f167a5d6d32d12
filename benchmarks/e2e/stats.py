"""Percentiles, spreads and the checks the benchmark runs on itself."""

from __future__ import annotations

import math
import statistics

#: A percentile is refused unless this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
#: A percentile may not sit this close (in percentile points) to a
#: boundary between op classes whose medians differ by more than
#: ``CLASS_GAP``: a run-to-run shift of one sample would then move the
#: metric from one class's latency to the other's.
BOUNDARY_MARGIN_POINTS = 3.0
CLASS_GAP = 0.10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values, fraction: float, checked: bool = True) -> float:
    """Nearest-rank percentile; ``checked`` refuses what the sample
    cannot support (every reported metric is checked)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    beyond = len(ordered) - rank
    if checked and beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {len(ordered)} samples leaves "
            f"{beyond} beyond it; {MIN_SAMPLES_BEYOND} are required")
    return ordered[rank - 1]


def iqr_spread(values) -> float:
    """(Q3 - Q1) / median, the spread the driver computes over runs."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def split_blocks(items: list, count: int = 5) -> "list[list]":
    """Cut ``items`` into ``count`` contiguous, near-equal blocks."""
    count = min(count, len(items))
    size, extra = divmod(len(items), count)
    blocks, start = [], 0
    for number in range(count):
        stop = start + size + (1 if number < extra else 0)
        blocks.append(items[start:stop])
        start = stop
    return blocks


def boundary_violations(by_class: "dict[str, list[float]]",
                        fractions=(0.5, 0.9)) -> "list[str]":
    """Percentiles that sit on a boundary between unlike op classes.

    Classes are laid side by side in order of their medians, each as
    wide as its share of the samples; the edges between neighbours
    whose medians differ by more than ``CLASS_GAP`` are the boundaries.
    """
    total = sum(len(samples) for samples in by_class.values())
    ranked = sorted((statistics.median(samples), len(samples), name)
                    for name, samples in by_class.items() if samples)
    problems, position = [], 0.0
    for (low, count, name), (high, _, neighbour) in zip(ranked, ranked[1:]):
        position += 100.0 * count / total
        if high <= low * (1.0 + CLASS_GAP):
            continue
        for fraction in fractions:
            if abs(fraction * 100.0 - position) < BOUNDARY_MARGIN_POINTS:
                problems.append(
                    f"p{fraction * 100:g} sits {abs(fraction * 100 - position):.1f} "
                    f"points from the {name}/{neighbour} boundary at "
                    f"{position:.1f} ({low:.2f} vs {high:.2f} ms)")
    return problems
