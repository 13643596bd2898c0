"""Tests for the write-entropy detectors and the sliding entropy window.

The live per-write detectors are ``entropy`` (a write at or above
:data:`DEFAULT_ENCRYPTED_THRESHOLD` bits/byte) and ``jump`` (a rise of at
least :data:`DEFAULT_JUMP_THRESHOLD` over the page's previous write,
whoever wrote it).  The ROC pipeline scores them on the samples of a
:class:`DetectionTraceObserver`; the post-attack profiler counts the same
writes from the operation log.  Each test below drives a real device and
checks both views.
"""

import pytest

from repro.core.config import RSSDConfig
from repro.core.detection import (
    DETECTOR_DEFAULTS,
    DetectionTraceObserver,
    profile_streams,
    sweep_detector,
)
from repro.core.rssd import RSSD
from repro.crypto.entropy import (
    DEFAULT_ENCRYPTED_THRESHOLD,
    DEFAULT_JUMP_THRESHOLD,
    EntropyWindow,
)
from repro.ssd.flash import PageContent

USER_STREAM = 1
WRITER_STREAM = 2
PAGE = 3


def encrypted_page() -> PageContent:
    data = bytes((i * 193 + 71) % 256 for i in range(4096))
    return PageContent.from_bytes(data)


def text_page() -> PageContent:
    return PageContent.from_bytes(b"plain old document text, nothing to see " * 100)


def synthetic(entropy: float) -> PageContent:
    return PageContent.synthetic(1, 4096, entropy=entropy)


def overwrite(new, previous=None):
    """Write ``previous`` under the user's stream, then ``new`` under the
    writer's, to one page of a fresh device.

    Returns the observer's sample of the writer's write (labelled
    malicious) and the profiler's view of the writer's stream.
    """
    rssd = RSSD(config=RSSDConfig.tiny())
    observer = DetectionTraceObserver()
    rssd.ssd.add_observer(observer)
    if previous is not None:
        rssd.write(PAGE, previous, stream_id=USER_STREAM)
    rssd.write(PAGE, new, stream_id=WRITER_STREAM)
    sample = observer.samples([WRITER_STREAM])[-1]
    assert (sample.stream_id, sample.lba, sample.malicious) == (WRITER_STREAM, PAGE, True)
    return sample, profile_streams(rssd.oplog.all_entries())[WRITER_STREAM]


def flagged(sample, detector, threshold=None):
    """Whether ``detector`` flags ``sample`` (default: its deployed threshold)."""
    if threshold is None:
        threshold = DETECTOR_DEFAULTS[detector]
    ((_, matrix),) = sweep_detector([sample], detector, thresholds=(threshold,))
    return matrix.true_positives == 1


class TestWriteEntropyDetectors:
    def test_detects_encrypted_payload(self):
        sample, profile = overwrite(encrypted_page())
        assert sample.entropy > DEFAULT_ENCRYPTED_THRESHOLD
        assert flagged(sample, "entropy")
        assert profile.high_entropy_writes == 1

    def test_plain_text_not_flagged(self):
        sample, profile = overwrite(text_page())
        assert sample.delta_entropy is None
        assert not flagged(sample, "entropy")
        assert not flagged(sample, "jump")
        assert (profile.high_entropy_writes, profile.entropy_jump_writes) == (0, 0)

    def test_delta_computed_against_previous(self):
        sample, profile = overwrite(encrypted_page(), previous=text_page())
        assert sample.delta_entropy is not None
        assert sample.delta_entropy > DEFAULT_JUMP_THRESHOLD
        assert flagged(sample, "entropy")
        assert flagged(sample, "jump")
        assert (profile.high_entropy_writes, profile.entropy_jump_writes) == (1, 1)

    def test_descriptor_only_pages_use_declared_entropy(self):
        sample, profile = overwrite(synthetic(7.9))
        assert sample.entropy == pytest.approx(7.9)
        assert flagged(sample, "entropy")
        assert profile.high_entropy_writes == 1

    def test_unknown_detector_rejected(self):
        sample, _ = overwrite(synthetic(7.9))
        with pytest.raises(ValueError, match="unknown detector"):
            sweep_detector([sample], "classifier")


class TestEntropyJumpThreshold:
    """The jump threshold gates the ``jump`` detector and the profiler's
    jump count; the absolute threshold gates ``entropy`` independently."""

    def test_sub_threshold_jump_is_not_flagged(self):
        sample, profile = overwrite(synthetic(6.9), previous=synthetic(5.5))
        assert sample.delta_entropy == pytest.approx(1.4)
        assert not flagged(sample, "jump")
        assert not flagged(sample, "entropy")
        assert profile.entropy_jump_writes == 0

    def test_supra_threshold_jump_is_flagged_below_absolute_line(self):
        sample, profile = overwrite(synthetic(6.9), previous=synthetic(4.0))
        assert sample.delta_entropy == pytest.approx(2.9)
        assert flagged(sample, "jump")
        assert not flagged(sample, "entropy")
        assert (profile.high_entropy_writes, profile.entropy_jump_writes) == (0, 1)

    @pytest.mark.parametrize("previous_entropy", [0.5, 2.0, 3.5, 5.0, 6.5, 7.9])
    @pytest.mark.parametrize("entropy", [0.5, 2.0, 3.5, 5.0, 6.5, 6.9, 7.5, 8.0])
    def test_verdict_property_over_the_grid(self, entropy, previous_entropy):
        """Property: the observer's delta is the rise over the page's
        previous write; ``entropy`` flags iff the write reaches the
        absolute line, ``jump`` iff the rise reaches the jump line, and
        the profiler counts exactly the writes each detector flags."""
        sample, profile = overwrite(synthetic(entropy), previous=synthetic(previous_entropy))
        delta = entropy - previous_entropy
        looks_encrypted = entropy >= DEFAULT_ENCRYPTED_THRESHOLD
        jumped = delta >= DEFAULT_JUMP_THRESHOLD
        assert sample.delta_entropy == pytest.approx(delta)
        assert flagged(sample, "entropy") == looks_encrypted
        assert flagged(sample, "jump") == jumped
        assert profile.high_entropy_writes == int(looks_encrypted)
        assert profile.entropy_jump_writes == int(jumped)

    def test_custom_jump_threshold_is_respected(self):
        sample, _ = overwrite(synthetic(6.0), previous=synthetic(5.0))
        assert flagged(sample, "jump", threshold=0.5)
        assert not flagged(sample, "jump", threshold=3.0)

    def test_entropy_drop_never_flags(self):
        sample, profile = overwrite(synthetic(7.9), previous=synthetic(7.95))
        assert sample.delta_entropy < 0
        assert not flagged(sample, "jump")
        assert not flagged(sample, "jump", threshold=0.0)
        assert profile.entropy_jump_writes == 0
        # The absolute detector has no memory of the page: it still flags.
        assert flagged(sample, "entropy")


class TestEntropyWindow:
    def test_empty_window_not_suspicious(self):
        assert not EntropyWindow().is_suspicious()

    def test_suspicious_when_dominated_by_high_entropy(self):
        window = EntropyWindow(window_size=16)
        for _ in range(16):
            window.observe(7.9)
        assert window.is_suspicious()
        assert window.high_entropy_fraction() == 1.0

    def test_not_suspicious_when_diluted_by_normal_writes(self):
        window = EntropyWindow(window_size=16)
        for index in range(32):
            window.observe(7.9 if index % 4 == 0 else 3.5)
        assert not window.is_suspicious()

    def test_requires_enough_samples(self):
        window = EntropyWindow(window_size=64)
        for _ in range(10):
            window.observe(8.0)
        assert not window.is_suspicious()

    def test_mean_and_count(self):
        window = EntropyWindow(window_size=4)
        for value in (2.0, 4.0, 6.0, 8.0):
            window.observe(value)
        assert window.count == 4
        assert window.mean == pytest.approx(5.0)

    def test_sliding_behaviour_forgets_old_values(self):
        window = EntropyWindow(window_size=4)
        for _ in range(4):
            window.observe(8.0)
        for _ in range(4):
            window.observe(1.0)
        assert window.high_entropy_fraction() == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            EntropyWindow(window_size=0)
        with pytest.raises(ValueError):
            EntropyWindow().observe(9.5)
