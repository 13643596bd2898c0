"""Ransomware detection: local lightweight and remote offloaded.

RSSD's position is that the device itself only needs *retention* to
guarantee recovery; detection can therefore be conservative locally and
thorough remotely, where the offloaded log and powerful servers allow
long-horizon analysis that in-device detectors cannot afford.  Two
detectors are provided:

* :class:`LocalDetector` -- an in-firmware sliding-window detector in
  the spirit of SSDInsider: cheap, looks at a short window of recent
  writes, good at catching fast bulk encryption, easy to evade by
  pacing the attack (the timing attack).
* :class:`RemoteDetector` -- runs on the remote servers over the full
  offloaded log; profiles each stream over its whole history, so pacing
  does not help the attacker.

The stream profiling behind the remote detector -- :class:`StreamProfile`,
:func:`profile_streams` and the hindsight rule :func:`suspect_streams`
-- is defined once here; :class:`repro.forensics.ForensicsEngine`
classifies attacks with the same two functions, so the detector and the
forensic report cannot disagree on who the attacker was.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.oplog import LogEntry, OperationLog
from repro.crypto.entropy import (
    DEFAULT_ENCRYPTED_THRESHOLD,
    DEFAULT_JUMP_THRESHOLD,
    EntropyJumpTracker,
    EntropyWindow,
)
from repro.ssd.device import HostOp, HostOpType


@dataclass
class DetectionReport:
    """Outcome of running a detector."""

    detector: str
    detected: bool
    detection_time_us: Optional[int] = None
    suspected_streams: List[int] = field(default_factory=list)
    trigger: str = ""
    operations_analyzed: int = 0


class LocalDetector:
    """In-device sliding-window detector (SSDInsider-style).

    Registered as a device observer.  It flags the workload when, inside
    a short window of recent writes, the fraction of encrypted-looking
    overwrites exceeds a threshold at a sufficient rate.
    """

    def __init__(
        self,
        window_size: int = 64,
        high_entropy_fraction: float = 0.7,
        min_writes_per_second: float = 50.0,
    ) -> None:
        if not 0.0 < high_entropy_fraction <= 1.0:
            raise ValueError("high_entropy_fraction must be within (0, 1]")
        if min_writes_per_second <= 0:
            raise ValueError("min_writes_per_second must be positive")
        self.window = EntropyWindow(window_size=window_size)
        self.high_entropy_fraction = high_entropy_fraction
        self.min_writes_per_second = min_writes_per_second
        self._window_timestamps: List[int] = []
        self._window_size = window_size
        self._detected_at: Optional[int] = None
        self._ops_seen = 0
        self._recent_streams: Dict[int, int] = {}

    # -- observer interface ---------------------------------------------------------

    def on_host_op(self, op: HostOp) -> None:
        self._ops_seen += 1
        if op.op_type is not HostOpType.WRITE or op.content is None:
            return
        self.window.observe(op.content.entropy)
        self._window_timestamps.append(op.timestamp_us)
        if len(self._window_timestamps) > self._window_size:
            self._window_timestamps.pop(0)
        self._recent_streams[op.stream_id] = self._recent_streams.get(op.stream_id, 0) + 1
        if self._detected_at is None and self._window_is_suspicious():
            self._detected_at = op.timestamp_us

    def _window_is_suspicious(self) -> bool:
        if not self.window.is_suspicious(
            fraction_threshold=self.high_entropy_fraction
        ):
            return False
        if len(self._window_timestamps) < 2:
            return False
        span_us = self._window_timestamps[-1] - self._window_timestamps[0]
        if span_us <= 0:
            return True
        writes_per_second = len(self._window_timestamps) / (span_us / 1_000_000.0)
        # A paced (timing) attack keeps the windowed write rate below the
        # threshold, which is exactly how it evades this detector.
        return writes_per_second >= self.min_writes_per_second

    # -- reporting ----------------------------------------------------------------------

    def report(self) -> DetectionReport:
        suspects = []
        if self._detected_at is not None:
            total = sum(self._recent_streams.values())
            suspects = [
                stream
                for stream, count in self._recent_streams.items()
                if total and count / total >= 0.2
            ]
        return DetectionReport(
            detector="local-window",
            detected=self._detected_at is not None,
            detection_time_us=self._detected_at,
            suspected_streams=sorted(suspects),
            trigger="entropy-window" if self._detected_at is not None else "",
            operations_analyzed=self._ops_seen,
        )


#: Distinct recently-read pages remembered for read-then-trim attribution.
RECENT_READ_PAGES = 512
#: Floor of writes, trims or telltale operations below which the
#: hindsight rule suspects no stream.
MIN_SUSPECT_OPERATIONS = 8
#: Fraction of a stream's writes that must carry an encryption tell
#: (half of it for the partially-encrypting rule).
SUSPECT_ENTROPY_FRACTION = 0.5


@dataclass(frozen=True)
class StreamProfile:
    """Behavioural summary of one host stream, derived from the log."""

    stream_id: int
    operations: int
    writes: int
    trims: int
    reads: int
    high_entropy_writes: int
    read_then_overwrite: int
    first_us: int
    last_us: int
    #: Writes whose entropy rose by at least the jump threshold over the
    #: previous write to the same page (any stream's) -- the signal that
    #: survives entropy-shaped (mimicry) ciphertext.
    entropy_jump_writes: int = 0
    #: Trimmed pages that some stream had read shortly before the trim
    #: -- the read-then-destroy signature that separates a trim-wiping
    #: attacker from benign discard traffic.
    trims_of_read_data: int = 0

    @property
    def high_entropy_fraction(self) -> float:
        return self.high_entropy_writes / self.writes if self.writes else 0.0

    @property
    def jump_fraction(self) -> float:
        """Fraction of this stream's writes that were entropy jumps."""
        return self.entropy_jump_writes / self.writes if self.writes else 0.0

    @property
    def duration_us(self) -> int:
        return max(0, self.last_us - self.first_us)


def profile_streams(entries: Sequence[LogEntry]) -> Dict[int, StreamProfile]:
    """Summarise per-stream behaviour over the logged ``entries``."""
    per_stream: Dict[int, List[LogEntry]] = {}
    # Jump and read-then-trim detection need the cross-stream view:
    # the replaced (or wiped) data a malicious stream destroys was
    # usually written -- and read back -- under the user's stream.
    jump_writes: Dict[int, int] = {}
    trims_of_read: Dict[int, int] = {}
    jump_tracker = EntropyJumpTracker()
    recent_read_order: Deque[int] = deque()
    recent_read_pages: Set[int] = set()
    for entry in entries:
        per_stream.setdefault(entry.stream_id, []).append(entry)
        pages = range(entry.lba, entry.lba + max(1, entry.npages))
        if entry.op_type is HostOpType.WRITE:
            delta = jump_tracker.observe(entry.lba, entry.entropy)
            if delta is not None and delta >= DEFAULT_JUMP_THRESHOLD:
                jump_writes[entry.stream_id] = jump_writes.get(entry.stream_id, 0) + 1
        elif entry.op_type is HostOpType.READ:
            for page in pages:
                if page not in recent_read_pages:
                    recent_read_pages.add(page)
                    recent_read_order.append(page)
                    if len(recent_read_order) > RECENT_READ_PAGES:
                        recent_read_pages.discard(recent_read_order.popleft())
        elif entry.op_type is HostOpType.TRIM:
            hit = sum(1 for page in pages if page in recent_read_pages)
            if hit:
                trims_of_read[entry.stream_id] = (
                    trims_of_read.get(entry.stream_id, 0) + hit
                )
    profiles: Dict[int, StreamProfile] = {}
    for stream_id, stream_entries in per_stream.items():
        writes = [e for e in stream_entries if e.op_type is HostOpType.WRITE]
        trims = [e for e in stream_entries if e.op_type is HostOpType.TRIM]
        reads = [e for e in stream_entries if e.op_type is HostOpType.READ]
        high_entropy = [e for e in writes if e.entropy >= DEFAULT_ENCRYPTED_THRESHOLD]
        recently_read: Set[int] = set()
        read_then_overwrite = 0
        for entry in stream_entries:
            pages = range(entry.lba, entry.lba + max(1, entry.npages))
            if entry.op_type is HostOpType.READ:
                recently_read.update(pages)
            elif entry.op_type is HostOpType.WRITE:
                if any(page in recently_read for page in pages):
                    read_then_overwrite += 1
        profiles[stream_id] = StreamProfile(
            stream_id=stream_id,
            operations=len(stream_entries),
            writes=len(writes),
            trims=len(trims),
            reads=len(reads),
            high_entropy_writes=len(high_entropy),
            read_then_overwrite=read_then_overwrite,
            first_us=min(e.timestamp_us for e in stream_entries),
            last_us=max(e.timestamp_us for e in stream_entries),
            entropy_jump_writes=jump_writes.get(stream_id, 0),
            trims_of_read_data=trims_of_read.get(stream_id, 0),
        )
    return profiles


def suspect_streams(profiles: Dict[int, StreamProfile]) -> List[int]:
    """Streams whose behaviour matches encryption ransomware.

    Three rules, each aimed at a family the defenses' live detectors
    can miss but hindsight should not:

    * **encrypting** -- at least :data:`SUSPECT_ENTROPY_FRACTION` of
      the stream's writes look encrypted (absolute entropy) *or* jumped
      over the data they replaced (which survives entropy-shaped
      mimicry), and the stream destroys originals (overwrites data it
      read, or trims);
    * **partially encrypting** -- only a minority of writes carry
      either tell (intermittent/partial encryption), but there are at
      least :data:`MIN_SUSPECT_OPERATIONS` of them and the stream
      destroys originals;
    * **wiping** -- the stream trims enough *recently-read* pages:
      read-then-destroy is the trim-wipe signature, and requiring it
      keeps benign discard traffic (deletes without a preceding read)
      off the suspect list even with no encryption tell.

    A stream with fewer than :data:`MIN_SUSPECT_OPERATIONS` writes and
    as few trims is never suspected.
    """
    suspects = []
    for stream_id, profile in profiles.items():
        if profile.writes < MIN_SUSPECT_OPERATIONS and profile.trims < MIN_SUSPECT_OPERATIONS:
            continue
        encryption_tell = max(profile.high_entropy_fraction, profile.jump_fraction)
        destroys_originals = profile.read_then_overwrite > 0 or profile.trims > 0
        encrypting = encryption_tell >= SUSPECT_ENTROPY_FRACTION
        partially_encrypting = (
            encryption_tell >= SUSPECT_ENTROPY_FRACTION / 2.0
            and max(profile.high_entropy_writes, profile.entropy_jump_writes)
            >= MIN_SUSPECT_OPERATIONS
            and destroys_originals
        )
        wiping = profile.trims_of_read_data >= MIN_SUSPECT_OPERATIONS
        if (encrypting and destroys_originals) or partially_encrypting or wiping:
            suspects.append(stream_id)
    return sorted(suspects)


class RemoteDetector:
    """Offloaded, full-history detector running on the remote servers."""

    def __init__(self, oplog: OperationLog) -> None:
        self.oplog = oplog

    def analyze(self) -> DetectionReport:
        """Profile every stream over the full log and flag ransomware-like ones."""
        entries = self.oplog.all_entries()
        suspects = suspect_streams(profile_streams(entries))
        detection_time = None
        trigger = ""
        if suspects:
            suspect_entries = [e for e in entries if e.stream_id in suspects]
            detection_time = min(e.timestamp_us for e in suspect_entries)
            trigger = "full-history-profile"
        return DetectionReport(
            detector="remote-offloaded",
            detected=bool(suspects),
            detection_time_us=detection_time,
            suspected_streams=suspects,
            trigger=trigger,
            operations_analyzed=len(entries),
        )


# ---------------------------------------------------------------------------
# Detection quality: labelled observation + confusion matrices + sweeps
# ---------------------------------------------------------------------------
#
# Detection *latency* (above) says when a detector fired; it says nothing
# about how well its trigger separates malicious writes from benign
# ones.  The classes below add that second axis: an observer records the
# labelled write stream a scenario produced, and per-detector scorers
# replay primitive detectors over it at many thresholds, yielding the
# confusion matrices the ROC pipeline (repro.campaign.roc) turns into
# TPR/FPR trade-off curves -- the evaluation methodology of SSDInsider
# and FlashGuard, applied to every defense x attack cell.


@dataclass
class ConfusionMatrix:
    """Counts of predicted-vs-actual verdicts over labelled operations."""

    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0

    def record(self, predicted: bool, actual: bool) -> None:
        """Tally one (prediction, ground truth) pair."""
        if actual:
            if predicted:
                self.true_positives += 1
            else:
                self.false_negatives += 1
        elif predicted:
            self.false_positives += 1
        else:
            self.true_negatives += 1

    @property
    def total(self) -> int:
        """Number of labelled operations scored."""
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def true_positive_rate(self) -> float:
        """Recall: flagged malicious ops / all malicious ops (0 if none)."""
        positives = self.true_positives + self.false_negatives
        return self.true_positives / positives if positives else 0.0

    @property
    def false_positive_rate(self) -> float:
        """Flagged benign ops / all benign ops (0 if none)."""
        negatives = self.false_positives + self.true_negatives
        return self.false_positives / negatives if negatives else 0.0

    @property
    def precision(self) -> float:
        """Truly malicious fraction of everything flagged (0 if nothing flagged)."""
        flagged = self.true_positives + self.false_positives
        return self.true_positives / flagged if flagged else 0.0


@dataclass(frozen=True)
class DetectionSample:
    """One labelled write, as the detector primitives see it.

    ``delta_entropy`` is the rise over the previous write to the same
    LBA (``None`` for the first write -- jump detectors cannot fire
    without a displaced version).  ``malicious`` is ground truth from
    the scenario's stream labels, never from the detector under test.
    """

    timestamp_us: int
    stream_id: int
    lba: int
    entropy: float
    delta_entropy: Optional[float]
    malicious: bool


class DetectionTraceObserver:
    """Device observer recording the labelled write stream of a scenario.

    Attach it to the raw SSD before the workload runs; afterwards,
    :meth:`samples` labels each recorded write against the attack's
    ground-truth malicious stream set.  Multi-page writes are recorded
    once, under their first LBA, mirroring what the operation log
    carries (single-page traffic is everything the scenarios issue).
    """

    def __init__(self) -> None:
        self._writes: List[Tuple[int, int, int, float, Optional[float]]] = []
        self._jump_tracker = EntropyJumpTracker()

    def on_host_op(self, op: HostOp) -> None:
        """Observer hook: record completed writes with their entropy delta."""
        if op.op_type is not HostOpType.WRITE or op.content is None:
            return
        entropy = op.content.entropy
        delta = self._jump_tracker.observe(op.lba, entropy)
        self._writes.append((op.timestamp_us, op.stream_id, op.lba, entropy, delta))

    def samples(self, malicious_streams: Iterable[int]) -> List[DetectionSample]:
        """Label the recorded writes against ``malicious_streams``."""
        malicious: Set[int] = set(malicious_streams)
        return [
            DetectionSample(
                timestamp_us=timestamp_us,
                stream_id=stream_id,
                lba=lba,
                entropy=entropy,
                delta_entropy=delta,
                malicious=stream_id in malicious,
            )
            for timestamp_us, stream_id, lba, entropy, delta in self._writes
        ]


def entropy_confusion(
    samples: Sequence[DetectionSample], threshold: float
) -> ConfusionMatrix:
    """Score the absolute-entropy detector: flag writes at or above ``threshold``."""
    matrix = ConfusionMatrix()
    for sample in samples:
        matrix.record(sample.entropy >= threshold, sample.malicious)
    return matrix


def jump_confusion(
    samples: Sequence[DetectionSample], threshold: float
) -> ConfusionMatrix:
    """Score the entropy-jump detector: flag rises of at least ``threshold``.

    Writes with no displaced version (``delta_entropy is None``) are
    scored as not-flagged: a jump detector has nothing to compare
    against, which is exactly its blind spot on fresh allocations.
    """
    matrix = ConfusionMatrix()
    for sample in samples:
        predicted = sample.delta_entropy is not None and (
            sample.delta_entropy >= threshold
        )
        matrix.record(predicted, sample.malicious)
    return matrix


def window_confusion(
    samples: Sequence[DetectionSample],
    fraction_threshold: float,
    window_size: int = 64,
    entropy_threshold: float = DEFAULT_ENCRYPTED_THRESHOLD,
) -> ConfusionMatrix:
    """Score the sliding-window detector at one fraction threshold.

    Replays an :class:`~repro.crypto.entropy.EntropyWindow` over the
    write stream; each write's prediction is the alarm state *at that
    write* (window at least half full and the high-entropy fraction at
    or above ``fraction_threshold``), matching how the in-firmware
    detectors sample their window.
    """
    matrix = ConfusionMatrix()
    window = EntropyWindow(window_size=window_size)
    for sample in samples:
        window.observe(min(8.0, max(0.0, sample.entropy)))
        predicted = window.count >= window_size // 2 and (
            window.high_entropy_fraction(entropy_threshold) >= fraction_threshold
        )
        matrix.record(predicted, sample.malicious)
    return matrix


#: Threshold grids swept per detector; each includes a permissive and a
#: prohibitive endpoint so every ROC curve is anchored near (1,1)/(0,0).
DETECTOR_THRESHOLDS: Dict[str, Tuple[float, ...]] = {
    "entropy": (0.0, 4.0, 5.0, 5.5, 6.0, 6.5, 6.8, 7.0, 7.2, 7.5, 7.9, 8.5),
    "jump": (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 8.5),
    "window": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0, 1.1),
}

#: The thresholds the deployed detectors actually run at; ROC quality
#: tables report the operating point alongside the full curve.  The
#: entropy and jump defaults are the shared ``repro.crypto.entropy``
#: constants, so the live detectors, the forensic profiler and the
#: sweeps stay in lockstep when tuned.
DETECTOR_DEFAULTS: Dict[str, float] = {
    "entropy": DEFAULT_ENCRYPTED_THRESHOLD,
    "jump": DEFAULT_JUMP_THRESHOLD,
    "window": 0.6,
}

_DETECTOR_SCORERS = {
    "entropy": entropy_confusion,
    "jump": jump_confusion,
    "window": window_confusion,
}


def detector_names() -> List[str]:
    """The detector primitives the quality pipeline sweeps, sorted."""
    return sorted(_DETECTOR_SCORERS)


def sweep_detector(
    samples: Sequence[DetectionSample],
    detector: str,
    thresholds: Optional[Sequence[float]] = None,
) -> List[Tuple[float, ConfusionMatrix]]:
    """Confusion matrix of ``detector`` at every swept threshold.

    ``detector`` is one of :func:`detector_names`; ``thresholds``
    defaults to the detector's :data:`DETECTOR_THRESHOLDS` grid.
    Results are ordered by threshold, ascending.
    """
    try:
        scorer = _DETECTOR_SCORERS[detector]
    except KeyError:
        raise ValueError(
            f"unknown detector {detector!r}; known: {detector_names()}"
        ) from None
    grid = thresholds if thresholds is not None else DETECTOR_THRESHOLDS[detector]
    return [(threshold, scorer(samples, threshold)) for threshold in sorted(grid)]
