"""Small statistics helpers used by experiments and benchmarks."""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median (0.0 for an empty sequence)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def relative_overhead(baseline: float, measured: float) -> float:
    """(measured - baseline) / baseline; 0.0 when the baseline is zero."""
    if baseline == 0:
        return 0.0
    return (measured - baseline) / baseline
