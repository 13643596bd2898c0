"""Shared simulation primitives.

All subsystems (SSD, NIC, link, remote targets) advance a single
:class:`SimClock`.  The clock counts microseconds as integers so that
event ordering is exact and reproducible.
"""

from __future__ import annotations

from typing import List

US_PER_MS = 1_000
US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE
US_PER_DAY = 24 * US_PER_HOUR


class SimClock:
    """A monotonically advancing microsecond clock shared by all models.

    The clock never goes backwards.  ``advance`` moves time forward by a
    delta; ``advance_to`` moves it to an absolute timestamp and is a
    no-op if that timestamp is already in the past.
    """

    def __init__(self, start_us: int = 0) -> None:
        if start_us < 0:
            raise ValueError("clock cannot start at a negative time")
        self._now_us = int(start_us)

    @property
    def now_us(self) -> int:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / US_PER_SECOND

    @property
    def now_days(self) -> float:
        """Current simulated time in days."""
        return self._now_us / US_PER_DAY

    def advance(self, delta_us: int) -> int:
        """Advance the clock by ``delta_us`` microseconds and return *now*."""
        if delta_us < 0:
            raise ValueError("cannot advance the clock by a negative delta")
        self._now_us += int(delta_us)
        return self._now_us

    def advance_to(self, timestamp_us: int) -> int:
        """Advance the clock to ``timestamp_us`` if it is in the future."""
        if timestamp_us > self._now_us:
            self._now_us = int(timestamp_us)
        return self._now_us

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SimClock(now_us={self._now_us})"


def format_duration(us: float) -> str:
    """Format a microsecond duration as a human-readable string."""
    if us < US_PER_MS:
        return f"{us:.0f}us"
    if us < US_PER_SECOND:
        return f"{us / US_PER_MS:.2f}ms"
    if us < US_PER_MINUTE:
        return f"{us / US_PER_SECOND:.2f}s"
    if us < US_PER_HOUR:
        return f"{us / US_PER_MINUTE:.2f}min"
    if us < US_PER_DAY:
        return f"{us / US_PER_HOUR:.2f}h"
    return f"{us / US_PER_DAY:.2f}days"


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Return the ``fraction`` percentile of an already sorted list.

    Uses linear interpolation between closest ranks.  Returns 0.0 for an
    empty list so metric reporting never raises on idle devices.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be within [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    low_value, high_value = sorted_values[lower], sorted_values[upper]
    # lerp as low + (high - low) * w: exact at w == 0 and when the two
    # ranks are equal, so rounding can never land outside [low, high]
    # (the a*(1-w) + b*w form can dip just below ``low``).
    return low_value + (high_value - low_value) * weight
