"""Attack-window classification from the verified timeline.

Given a verified :class:`~repro.forensics.timeline.OperationTimeline`,
this module answers the investigator's first three questions: *which
attack pattern ran*, *when did it start* (the first malicious
operation), and *how much did it touch* (the blast radius in pages and
bytes).  Stream suspicion is the remote detector's own behavioural
profiling (:func:`repro.core.detection.profile_streams` and
:func:`repro.core.detection.suspect_streams`), so the campaign engine,
the detector and the forensic report all agree on who the attacker was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.detection import StreamProfile
from repro.crypto.entropy import DEFAULT_ENCRYPTED_THRESHOLD
from repro.forensics.timeline import OperationTimeline, TimelineEvent
from repro.sim import US_PER_MINUTE
from repro.ssd.device import HostOpType


@dataclass(frozen=True)
class AttackClassification:
    """What the evidence says the attack was and did.

    ``pattern`` is one of:

    * ``"encrypt-overwrite"``     -- in-place encryption (WannaCry-like),
    * ``"encrypt-then-trim"``     -- encrypt to new files, trim originals,
    * ``"trim-wipe"``             -- destruction dominated by trims,
    * ``"trim-interleaved-wipe"`` -- trims spread behind decoy writes
      with no encrypted-looking traffic (the adaptive trim attack),
    * ``"low-and-slow"``          -- encrypted-looking writes spread over
      a long window with no destruction burst (the timing attack and
      its computed-dilution v2),
    * ``"entropy-mimicry"``       -- destruction by writes that never
      look encrypted (entropy-shaped ciphertext),
    * ``"intermittent-encrypt"``  -- a fast burst where only a minority
      of the destructive writes look encrypted (partial encryption),
    * ``"none"``                  -- no malicious activity identified.
    """

    pattern: str
    malicious_streams: List[int]
    #: Log sequence number of the first malicious operation, or ``None``.
    first_malicious_sequence: Optional[int]
    #: Device time of the first malicious operation, or ``None``.
    first_malicious_us: Optional[int]
    #: Device time of the last malicious operation, or ``None``.
    last_malicious_us: Optional[int]
    #: Distinct logical pages the attacker wrote or trimmed.
    blast_radius_pages: int
    #: The same radius in bytes (pages * page size).
    blast_radius_bytes: int
    #: Malicious encrypted-looking page writes.
    encrypted_writes: int
    #: Malicious page trims.
    trimmed_pages: int
    per_stream_operations: Dict[int, int] = field(default_factory=dict)

    @property
    def attack_found(self) -> bool:
        """Whether any malicious activity was identified."""
        return self.pattern != "none"

    @property
    def window_us(self) -> Optional[int]:
        """Attack window length, when an attack was identified."""
        if self.first_malicious_us is None or self.last_malicious_us is None:
            return None
        return self.last_malicious_us - self.first_malicious_us


def _malicious_events(
    timeline: OperationTimeline, suspects: Set[int]
) -> List[TimelineEvent]:
    return [event for event in timeline.events if event.stream_id in suspects]


def _choose_pattern(
    destructive: List[TimelineEvent],
    encrypted_writes: int,
    trimmed_pages: int,
    window_us: int,
    mean_gap_us: float,
) -> str:
    """Map observed malicious behaviour onto a named attack family."""
    if not destructive:
        return "none"
    writes = sum(1 for e in destructive if e.op_type is HostOpType.WRITE)
    if trimmed_pages > 0 and encrypted_writes == 0:
        # Plaintext destroyed through trim with no encrypted-looking
        # traffic at all; substantial interleaved write activity marks
        # the adaptive variant that buries its trims behind decoys.
        if writes > trimmed_pages // 2:
            return "trim-interleaved-wipe"
        return "trim-wipe"
    if trimmed_pages > 0:
        return "encrypt-then-trim"
    if encrypted_writes == 0:
        # Malicious destruction whose writes never cross the entropy
        # line: the signature of entropy-shaped (mimicry) ciphertext.
        return "entropy-mimicry" if writes else "none"
    paced = mean_gap_us > 60_000_000
    if not paced and window_us > 10 * US_PER_MINUTE:
        # Computed-dilution pacing hides the big gaps between bursts by
        # filling them with decoys; the sustained destructive-write
        # *rate* over a long window still gives the pacing away.
        writes_per_second = len(destructive) / (window_us / 1_000_000.0)
        paced = writes_per_second < 1.0
    if writes and paced:
        # Destruction spread out with minutes between operations: the
        # stealth profile of the timing attack, not a bulk encryptor.
        return "low-and-slow"
    if writes and encrypted_writes / writes <= 0.6:
        # A fast burst where most destructive writes look benign:
        # partial (every k-th page) encryption.
        return "intermittent-encrypt"
    return "encrypt-overwrite"


def classify_attack(
    timeline: OperationTimeline,
    profiles: Dict[int, StreamProfile],
    suspects: List[int],
    page_size: int,
) -> AttackClassification:
    """Classify the attack recorded in ``timeline``.

    ``profiles`` and ``suspects`` come from
    :func:`~repro.core.detection.profile_streams` and
    :func:`~repro.core.detection.suspect_streams`; ``page_size``
    converts the page-granular blast radius into bytes.
    """
    suspect_set = set(suspects)
    events = _malicious_events(timeline, suspect_set)
    destructive = [event for event in events if event.destroys_data]
    if not destructive:
        return AttackClassification(
            pattern="none",
            malicious_streams=sorted(suspect_set),
            first_malicious_sequence=None,
            first_malicious_us=None,
            last_malicious_us=None,
            blast_radius_pages=0,
            blast_radius_bytes=0,
            encrypted_writes=0,
            trimmed_pages=0,
            per_stream_operations={
                sid: profile.operations for sid, profile in profiles.items()
            },
        )

    touched = {event.lba for event in destructive}
    encrypted_writes = sum(
        1
        for event in destructive
        if event.op_type is HostOpType.WRITE
        and event.entropy >= DEFAULT_ENCRYPTED_THRESHOLD
    )
    trimmed_pages = sum(1 for event in destructive if event.op_type is HostOpType.TRIM)
    first = destructive[0]
    last = destructive[-1]
    window_us = last.timestamp_us - first.timestamp_us
    distinct_times = sorted({event.timestamp_us for event in destructive})
    gaps = [b - a for a, b in zip(distinct_times, distinct_times[1:])]
    mean_gap_us = sum(gaps) / len(gaps) if gaps else 0.0

    return AttackClassification(
        pattern=_choose_pattern(
            destructive, encrypted_writes, trimmed_pages, window_us, mean_gap_us
        ),
        malicious_streams=sorted(suspect_set),
        first_malicious_sequence=first.sequence,
        first_malicious_us=first.timestamp_us,
        last_malicious_us=last.timestamp_us,
        blast_radius_pages=len(touched),
        blast_radius_bytes=len(touched) * page_size,
        encrypted_writes=encrypted_writes,
        trimmed_pages=trimmed_pages,
        per_stream_operations={
            sid: profile.operations for sid, profile in profiles.items()
        },
    )
