"""The benchmark's own arithmetic: percentiles, chunk rates and self time."""

from __future__ import annotations

import math

#: a reported tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10
#: candidate tail percentiles, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (rounded first, so 99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def nearest_rank(sorted_values, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) of ascending ``sorted_values`` by nearest rank."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return float(sorted_values[_rank(len(sorted_values), q) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def highest_supported_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with >= :data:`MIN_BEYOND` samples beyond it."""
    supported = [q for q in TAIL_PERCENTILES if samples_beyond(n, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


def tail_summary(values) -> dict:
    """Median, the p99 the metric names, and the highest percentile the sample supports."""
    ordered = sorted(values)
    n = len(ordered)
    top = highest_supported_percentile(n)
    return {
        "n": n,
        "p50": nearest_rank(ordered, 50.0),
        "p99": nearest_rank(ordered, 99.0),
        "p99_beyond": samples_beyond(n, 99.0),
        "top_q": top,
        "top": nearest_rank(ordered, top) if top is not None else None,
    }


def chunk_rates(durations, items_per_step: int, steps_per_chunk: int) -> list[float]:
    """Items per second over consecutive whole chunks of ``steps_per_chunk``
    step durations; a trailing partial chunk is dropped so every rate covers
    the same amount of work."""
    whole = len(durations) - len(durations) % steps_per_chunk
    return [
        items_per_step * steps_per_chunk / sum(durations[start : start + steps_per_chunk])
        for start in range(0, whole, steps_per_chunk)
    ]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals`` (clipped to it)."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(start, end, children)
