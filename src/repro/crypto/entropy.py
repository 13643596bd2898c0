"""Entropy thresholds and trackers used by ransomware detectors.

Detection baselines (UNVEIL, CryptoDrop, SSDInsider) flag writes whose
content entropy is high, or jumps relative to the data being replaced.
This module holds the thresholds those detectors run at, the per-LBA
jump tracker and the sliding entropy window; the entropy of a page
itself is :func:`repro.ssd.flash.shannon_entropy`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

# Re-bound here for the benchmark tracer, which declares
# ``repro.crypto.entropy:shannon_entropy`` as a boundary and resolves it
# with ``getattr`` on this module.
from repro.ssd.flash import shannon_entropy  # noqa: F401

#: Entropy (bits/byte) at or above which a write looks encrypted; the
#: deployed default shared by the live detectors, the forensic profiler
#: and the detection-quality sweeps.
DEFAULT_ENCRYPTED_THRESHOLD = 7.2
#: Entropy rise over the replaced data that counts as a jump; shared the
#: same way, so tuning it re-tunes every consumer together.
DEFAULT_JUMP_THRESHOLD = 2.0


class EntropyJumpTracker:
    """Per-LBA write-entropy memory for jump detection.

    Both the live detection-quality observer and the post-attack
    profiler need the same cross-stream view: what entropy did the
    previous write to this page carry, whoever wrote it.  One tracker
    implementation keeps their delta semantics identical.
    """

    def __init__(self) -> None:
        self._last_entropy: Dict[int, float] = {}

    def observe(self, lba: int, entropy: float) -> Optional[float]:
        """Record a write and return its entropy rise over the page's
        previous write (``None`` for the first write to the page)."""
        previous = self._last_entropy.get(lba)
        self._last_entropy[lba] = entropy
        return None if previous is None else entropy - previous


class EntropyWindow:
    """Sliding window over recent write entropies.

    Detectors use the window to distinguish a burst of high-entropy
    writes (ransomware encrypting files) from occasional compressed or
    media writes in normal workloads.
    """

    def __init__(self, window_size: int = 128) -> None:
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.window_size = window_size
        self._window: Deque[float] = deque(maxlen=window_size)

    def observe(self, entropy: float) -> None:
        """Add one write's entropy to the window."""
        if not 0.0 <= entropy <= 8.0:
            raise ValueError("entropy must be within [0, 8]")
        self._window.append(entropy)

    @property
    def count(self) -> int:
        return len(self._window)

    @property
    def mean(self) -> float:
        if not self._window:
            return 0.0
        return sum(self._window) / len(self._window)

    def high_entropy_fraction(self, threshold: float = 7.2) -> float:
        """Fraction of windowed writes that exceed ``threshold``."""
        if not self._window:
            return 0.0
        high = sum(1 for value in self._window if value >= threshold)
        return high / len(self._window)

    def is_suspicious(
        self, fraction_threshold: float = 0.6, entropy_threshold: float = 7.2
    ) -> bool:
        """True when the window is dominated by encrypted-looking writes."""
        if len(self._window) < self.window_size // 2:
            return False
        return self.high_entropy_fraction(entropy_threshold) >= fraction_threshold
