"""Per-LBA operation timeline reconstruction.

The operation log records every host command in arrival order and folds
it into a SHA-256 hash chain; the retention archive keeps every
superseded page version together with its GC relocation count.  This
module joins the two into an :class:`OperationTimeline`: a verified,
queryable history of what happened to every logical page -- the first of
the three artifacts post-attack analysis produces.

The timeline is *evidence-only*: it is built exclusively from the
hardware-isolated log and archive, never from host-side state, so its
conclusions hold even when the host was fully compromised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.oplog import LogEntry, OperationLog
from repro.core.retention import RetentionManager
from repro.ssd.device import HostOpType

#: Sentinel fingerprint meaning "the page is unmapped at this point".
UNMAPPED = None


@dataclass(frozen=True)
class TimelineEvent:
    """One operation affecting one logical page.

    A multi-page host command expands into one event per covered LBA;
    ``exact_fingerprint`` is only True for the page whose content
    descriptor the aggregated log entry actually carries (the first
    page of the run), so downstream consumers never mistake an
    approximate fingerprint for evidence.
    """

    sequence: int
    timestamp_us: int
    op_type: HostOpType
    lba: int
    stream_id: int
    entropy: float
    #: Content hash written by this event; ``None`` for trims/reads and
    #: for pages of a multi-page write beyond the first.
    fingerprint: Optional[int]
    #: True when ``fingerprint`` is the page's real content hash.
    exact_fingerprint: bool

    @property
    def destroys_data(self) -> bool:
        """Whether the event replaces or unmaps previously live data."""
        return self.op_type in (HostOpType.WRITE, HostOpType.TRIM)


@dataclass(frozen=True)
class RetainedVersion:
    """A superseded version of one page, as kept by the retention archive."""

    lba: int
    fingerprint: int
    written_us: int
    invalidated_us: int
    version: int
    offloaded: bool
    released: bool
    #: Times GC moved the physical copy while it was retained.
    gc_relocations: int


@dataclass
class LBAHistory:
    """Everything the evidence records about one logical page."""

    lba: int
    events: List[TimelineEvent] = field(default_factory=list)
    versions: List[RetainedVersion] = field(default_factory=list)

    @property
    def writes(self) -> int:
        """Recorded write events touching this page."""
        return sum(1 for e in self.events if e.op_type is HostOpType.WRITE)

    @property
    def trims(self) -> int:
        """Recorded trim events touching this page."""
        return sum(1 for e in self.events if e.op_type is HostOpType.TRIM)

    def governing_event(self, timestamp_us: int) -> Optional[TimelineEvent]:
        """The last write or trim at or before ``timestamp_us``.

        ``None`` means the evidence never saw the page mutated by then.
        Walks the event list in sequence order, so simultaneous events
        resolve in arrival order exactly as the device applied them.
        """
        governing: Optional[TimelineEvent] = None
        for event in self.events:
            if event.timestamp_us > timestamp_us:
                break
            if event.destroys_data:
                governing = event
        return governing

    def state_at(self, timestamp_us: int) -> Optional[int]:
        """Expected fingerprint of the page at ``timestamp_us``.

        ``None`` means unmapped (never written, or last op was a trim)
        -- or written by an event whose aggregated log entry does not
        carry this page's hash; use :meth:`governing_event` when that
        distinction matters.
        """
        event = self.governing_event(timestamp_us)
        if event is None or event.op_type is HostOpType.TRIM:
            return UNMAPPED
        return event.fingerprint


class OperationTimeline:
    """A verified per-LBA view of the full operation history.

    Build one with :meth:`from_oplog`; ``chain_verified`` reports
    whether the entries reproduce the hardware hash chain (a timeline
    built from tampered evidence still answers queries, but flags
    itself so nothing downstream trusts it silently).
    """

    def __init__(
        self,
        events: List[TimelineEvent],
        chain_verified: bool,
        tampered_at: Optional[int],
        histories: Dict[int, LBAHistory],
        total_entries: int,
        gc_relocations: int,
    ) -> None:
        self.events = events
        self.chain_verified = chain_verified
        self.tampered_at = tampered_at
        self._histories = histories
        self.total_entries = total_entries
        self.gc_relocations = gc_relocations

    # -- construction -----------------------------------------------------

    @classmethod
    def from_oplog(
        cls,
        oplog: OperationLog,
        retention: Optional[RetentionManager] = None,
    ) -> "OperationTimeline":
        """Reconstruct the timeline from the log (and archive, if given)."""
        entries = oplog.all_entries()
        chain_verified = oplog.verify_integrity(entries)
        tampered_at = None if chain_verified else oplog.find_tampering(entries)

        events: List[TimelineEvent] = []
        histories: Dict[int, LBAHistory] = {}
        for entry in entries:
            for event in cls._expand_entry(entry):
                events.append(event)
                histories.setdefault(event.lba, LBAHistory(lba=event.lba)).events.append(
                    event
                )

        gc_relocations = 0
        if retention is not None:
            for lba in retention.retained_lbas():
                history = histories.setdefault(lba, LBAHistory(lba=lba))
                for record in retention.versions_for(lba):
                    history.versions.append(
                        RetainedVersion(
                            lba=lba,
                            fingerprint=record.content.fingerprint,
                            written_us=record.written_us,
                            invalidated_us=record.invalidated_us,
                            version=record.version,
                            offloaded=record.offloaded,
                            released=record.released,
                            gc_relocations=record.relocations,
                        )
                    )
                    gc_relocations += record.relocations

        return cls(
            events=events,
            chain_verified=chain_verified,
            tampered_at=tampered_at,
            histories=histories,
            total_entries=len(entries),
            gc_relocations=gc_relocations,
        )

    @staticmethod
    def _expand_entry(entry: LogEntry) -> List[TimelineEvent]:
        """One aggregated log entry -> one event per covered page."""
        events = []
        for offset in range(max(1, entry.npages)):
            first = offset == 0
            carries_hash = entry.op_type is HostOpType.WRITE and first
            events.append(
                TimelineEvent(
                    sequence=entry.sequence,
                    timestamp_us=entry.timestamp_us,
                    op_type=entry.op_type,
                    lba=entry.lba + offset,
                    stream_id=entry.stream_id,
                    entropy=entry.entropy,
                    fingerprint=entry.fingerprint if carries_hash else None,
                    exact_fingerprint=carries_hash,
                )
            )
        return events

    # -- queries ----------------------------------------------------------

    def lbas(self) -> List[int]:
        """Every logical page the evidence mentions, ascending."""
        return sorted(self._histories)

    def history(self, lba: int) -> LBAHistory:
        """Full recorded history of one page (empty if never touched)."""
        return self._histories.get(lba, LBAHistory(lba=lba))

    def events_between(
        self, start_us: Optional[int] = None, end_us: Optional[int] = None
    ) -> List[TimelineEvent]:
        """Events whose timestamps fall within ``[start_us, end_us]``."""
        selected = []
        for event in self.events:
            if start_us is not None and event.timestamp_us < start_us:
                continue
            if end_us is not None and event.timestamp_us > end_us:
                continue
            selected.append(event)
        return selected

    def lbas_modified_since(
        self, since_us: int, streams: Optional[Iterable[int]] = None
    ) -> List[int]:
        """Pages written or trimmed at or after ``since_us``, ascending.

        ``streams`` keeps only the events those host streams issued --
        the attacker's, to scope a rollback to what the attack touched.
        """
        wanted = None if streams is None else set(streams)
        return sorted(
            {
                event.lba
                for event in self.events_between(start_us=since_us)
                if event.destroys_data and (wanted is None or event.stream_id in wanted)
            }
        )

    def image_at(self, timestamp_us: int) -> Dict[int, Optional[int]]:
        """Expected device image (lba -> fingerprint) as of ``timestamp_us``.

        Pages absent from the mapping were never touched; a ``None``
        value means the page was written at some point but is unmapped
        (trimmed) at the target time.
        """
        image: Dict[int, Optional[int]] = {}
        for lba, history in self._histories.items():
            event = history.governing_event(timestamp_us)
            if event is None:
                # Never written or trimmed by the target time (reads
                # alone do not put a page in the image).
                continue
            image[lba] = (
                UNMAPPED if event.op_type is HostOpType.TRIM else event.fingerprint
            )
        return image

    @property
    def span_us(self) -> int:
        """Duration between the first and last recorded event."""
        if not self.events:
            return 0
        return self.events[-1].timestamp_us - self.events[0].timestamp_us
