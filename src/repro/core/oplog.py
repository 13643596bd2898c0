"""Hardware-assisted operation log.

RSSD records every storage operation it receives, in arrival order, in
a log that lives inside the device (and is therefore hardware-isolated
from the host).  Entries are folded into a SHA-256 hash chain as they
are appended; every ``segment_entries`` entries the log seals a
segment, which becomes eligible for offloading to the remote tier.  The
chain plus the sealed segments form the *trusted evidence chain* that
post-attack analysis replays and verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.compat import DATACLASS_SLOTS
from repro.crypto.hashing import HashChain
from repro.ssd.device import HostOp, HostOpType
from repro.ssd.flash import PageContent


@dataclass(frozen=True, **DATACLASS_SLOTS)
class LogEntry:
    """One logged storage operation."""

    sequence: int
    timestamp_us: int
    op_type: HostOpType
    lba: int
    npages: int
    stream_id: int
    entropy: float
    fingerprint: int

    def to_bytes(self) -> bytes:
        """Canonical byte encoding used for hash chaining."""
        return (
            f"{self.sequence}|{self.timestamp_us}|{self.op_type.value}|"
            f"{self.lba}|{self.npages}|{self.stream_id}|"
            f"{self.entropy:.4f}|{self.fingerprint}"
        ).encode("utf-8")

    @classmethod
    def from_host_op(cls, sequence: int, op: HostOp) -> "LogEntry":
        """Build an entry from a completed host operation."""
        content: Optional[PageContent] = op.content
        return cls(
            sequence=sequence,
            timestamp_us=op.timestamp_us,
            op_type=op.op_type,
            lba=op.lba,
            npages=op.npages,
            stream_id=op.stream_id,
            entropy=content.entropy if content is not None else 0.0,
            fingerprint=content.fingerprint if content is not None else 0,
        )

    @property
    def estimated_bytes(self) -> int:
        """Approximate serialised size of the entry (for offload sizing)."""
        return 48


@dataclass
class LogSegment:
    """A sealed run of log entries, ready for offload."""

    segment_id: int
    entries: List[LogEntry]
    sealed_head: bytes
    offloaded: bool = False

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    @property
    def estimated_bytes(self) -> int:
        return sum(entry.estimated_bytes for entry in self.entries)

    @property
    def first_sequence(self) -> int:
        return self.entries[0].sequence if self.entries else -1

    @property
    def last_sequence(self) -> int:
        return self.entries[-1].sequence if self.entries else -1


class OperationLog:
    """The in-device operation log.

    The log implements the SSD's observer interface, so registering it
    on a device captures every host command with no host cooperation.
    """

    def __init__(self, segment_entries: int = 512, checkpoint_interval: int = 256) -> None:
        if segment_entries < 1:
            raise ValueError("segment_entries must be at least 1")
        self.segment_entries = segment_entries
        self.chain = HashChain(checkpoint_interval=checkpoint_interval)
        self._open_entries: List[LogEntry] = []
        self._segments: List[LogSegment] = []
        self._sequence = 0

    # -- observer interface --------------------------------------------------

    def on_host_op(self, op: HostOp) -> None:
        """Record one completed host operation."""
        entry = LogEntry.from_host_op(self._sequence, op)
        self.append(entry)

    def append(self, entry: LogEntry) -> None:
        """Append a pre-built entry (used by replay during verification)."""
        if entry.sequence != self._sequence:
            raise ValueError(
                f"log entries must be appended in order: expected sequence "
                f"{self._sequence}, got {entry.sequence}"
            )
        self.chain.append(entry.to_bytes())
        self._open_entries.append(entry)
        self._sequence += 1
        if len(self._open_entries) >= self.segment_entries:
            self.seal_segment()

    # -- segments ---------------------------------------------------------------

    def seal_segment(self) -> Optional[LogSegment]:
        """Seal the currently open entries into an offloadable segment."""
        if not self._open_entries:
            return None
        segment = LogSegment(
            segment_id=len(self._segments),
            entries=list(self._open_entries),
            sealed_head=self.chain.head,
        )
        self._segments.append(segment)
        self._open_entries.clear()
        return segment

    def sealed_segments(self, unoffloaded_only: bool = False) -> List[LogSegment]:
        """All sealed segments, optionally only those not yet offloaded."""
        if unoffloaded_only:
            return [segment for segment in self._segments if not segment.offloaded]
        return list(self._segments)

    @property
    def sealed_segment_count(self) -> int:
        return len(self._segments)

    def sealed_segments_since(self, index: int) -> List[LogSegment]:
        """Sealed segments from position ``index`` on (in sealing order).

        Segments are append-only, so the offload engine polls for new
        work with a cursor instead of rescanning the whole list on every
        drain -- the scan made log offloading quadratic in trace length.
        """
        return self._segments[index:]

    # -- queries ---------------------------------------------------------------

    @property
    def total_entries(self) -> int:
        return self._sequence

    @property
    def open_entries(self) -> int:
        return len(self._open_entries)

    def all_entries(self) -> List[LogEntry]:
        """Every entry, sealed or not, in sequence order."""
        entries: List[LogEntry] = []
        for segment in self._segments:
            entries.extend(segment.entries)
        entries.extend(self._open_entries)
        return entries

    # -- integrity ----------------------------------------------------------------

    def verify_integrity(self, entries: Optional[Iterable[LogEntry]] = None) -> bool:
        """Recompute the hash chain over ``entries`` and compare to the head."""
        entry_list = list(entries) if entries is not None else self.all_entries()
        return self.chain.verify([entry.to_bytes() for entry in entry_list])

    def find_tampering(self, entries: Iterable[LogEntry]) -> Optional[int]:
        """Sequence index of the first tampered entry, or ``None`` if clean."""
        return self.chain.find_divergence([entry.to_bytes() for entry in entries])
