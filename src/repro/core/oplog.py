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
from typing import Dict, Iterable, List, Optional

import numpy as np

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
        # Struct-of-arrays append path: instead of expanding every
        # multi-page entry into per-page dict appends on the hot path,
        # the append records (lba, npages, sequence) into three int
        # columns; the per-LBA coverage dict is derived lazily from the
        # columns the first time a query needs it (and extended
        # incrementally on later queries).
        self._idx_lba = np.empty(1024, dtype=np.int64)
        self._idx_npages = np.empty(1024, dtype=np.int64)
        self._idx_seq = np.empty(1024, dtype=np.int64)
        self._idx_size = 0
        self._indexed_upto = 0
        self._lba_index: Dict[int, List[int]] = {}

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
        size = self._idx_size
        if size == len(self._idx_lba):
            for name in ("_idx_lba", "_idx_npages", "_idx_seq"):
                column = getattr(self, name)
                grown = np.empty(size * 2, dtype=np.int64)
                grown[:size] = column
                setattr(self, name, grown)
        self._idx_lba[size] = entry.lba
        self._idx_npages[size] = entry.npages
        self._idx_seq[size] = entry.sequence
        self._idx_size = size + 1
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

    def _sync_lba_index(self) -> None:
        """Extend the per-LBA coverage dict from the unindexed column tail."""
        start = self._indexed_upto
        if start == self._idx_size:
            return
        lbas = self._idx_lba[start : self._idx_size].tolist()
        npages = self._idx_npages[start : self._idx_size].tolist()
        sequences = self._idx_seq[start : self._idx_size].tolist()
        index = self._lba_index
        for lba, count, sequence in zip(lbas, npages, sequences):
            for offset in range(max(1, count)):
                index.setdefault(lba + offset, []).append(sequence)
        self._indexed_upto = self._idx_size

    def entries_for_lba(self, lba: int) -> List[LogEntry]:
        """Every logged operation that touched ``lba``, in order."""
        self._sync_lba_index()
        sequences = self._lba_index.get(lba, [])
        by_sequence = {entry.sequence: entry for entry in self.all_entries()}
        return [by_sequence[seq] for seq in sequences if seq in by_sequence]

    # -- integrity ----------------------------------------------------------------

    def verify_integrity(self, entries: Optional[Iterable[LogEntry]] = None) -> bool:
        """Recompute the hash chain over ``entries`` and compare to the head."""
        entry_list = list(entries) if entries is not None else self.all_entries()
        return self.chain.verify([entry.to_bytes() for entry in entry_list])

    def find_tampering(self, entries: Iterable[LogEntry]) -> Optional[int]:
        """Sequence index of the first tampered entry, or ``None`` if clean."""
        return self.chain.find_divergence([entry.to_bytes() for entry in entries])
