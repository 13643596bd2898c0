"""Hardware-isolated NVMe-oE offload engine.

The offload engine drains retained stale pages and sealed log segments
to the remote tier:

1. pages are taken from the retention manager *in time order* (oldest
   invalidation first), preserving the ordering the evidence chain and
   recovery rely on;
2. each batch is compressed and encrypted inside the device;
3. the batch is packed into an NVMe-oE capsule and transmitted through
   the embedded NIC -- a path the host cannot touch;
4. on arrival the remote tier stores the capsule and the pages are
   marked offloaded, which finally makes their local copies releasable
   by garbage collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.oplog import LogSegment, OperationLog
from repro.core.retention import RetentionManager
from repro.crypto.cipher import StreamCipher
from repro.crypto.compression import CompressionModel
from repro.nvmeoe.nic import EmbeddedNIC, FirmwareToken
from repro.nvmeoe.protocol import NVMeOEProtocol
from repro.nvmeoe.remote import TieredRemote
from repro.sim import SimClock
from repro.ssd.ftl import StalePage


@dataclass
class OffloadStats:
    """Counters kept by the offload engine."""

    page_capsules: int = 0
    log_capsules: int = 0
    pages_offloaded: int = 0
    log_entries_offloaded: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    wire_bytes: int = 0
    last_arrival_us: float = 0.0

    @property
    def compression_ratio(self) -> float:
        """Compressed bytes / raw bytes across everything shipped so far."""
        if self.raw_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.raw_bytes


class OffloadEngine:
    """Drains retained data and log segments over the NVMe-oE path."""

    def __init__(
        self,
        clock: SimClock,
        nic: EmbeddedNIC,
        remote: TieredRemote,
        retention: RetentionManager,
        batch_pages: int = 64,
        compression: Optional[CompressionModel] = None,
        cipher: Optional[StreamCipher] = None,
    ) -> None:
        if batch_pages < 1:
            raise ValueError("batch_pages must be at least 1")
        self.clock = clock
        self.nic = nic
        self.remote = remote
        self.retention = retention
        self.batch_pages = batch_pages
        self.compression = compression if compression is not None else CompressionModel()
        self.cipher = (
            cipher if cipher is not None else StreamCipher.from_passphrase("rssd-offload")
        )
        self.protocol = NVMeOEProtocol()
        self.stats = OffloadStats()
        #: The ``remote-offload`` ablation clears this; a disabled engine
        #: ships nothing (drains return 0) so retained data piles up
        #: locally and GC pressure must be resolved some other way.
        self.enabled = True
        # The engine is part of the firmware, so it holds the single
        # firmware capability for the embedded NIC.
        self._token: FirmwareToken = nic.issue_firmware_token()
        self._nonce = 0
        # Position of the next unexamined sealed log segment: segments
        # seal append-only, so everything before the cursor has already
        # been shipped and never needs rescanning.
        self._log_segment_cursor = 0
        #: Passive callbacks invoked once per shipped capsule with
        #: ``(kind, count, wire_bytes, arrival_us)``, where ``kind`` is
        #: ``"pages"`` or ``"log-segment"``.  The :mod:`repro.api` event
        #: bus taps this to publish typed ``OffloadEvent`` records;
        #: listeners must not mutate engine state.
        self.listeners: List[Callable[[str, int, int, int], None]] = []

    # -- page offloading ------------------------------------------------------

    def drain(self, max_pages: Optional[int] = None) -> int:
        """Offload up to ``max_pages`` pending stale pages.  Returns pages shipped."""
        if not self.enabled:
            return 0
        shipped = 0
        budget = max_pages if max_pages is not None else self.retention.pending_pages
        while budget > 0:
            batch = self.retention.take_pending(min(self.batch_pages, budget))
            if not batch:
                break
            shipped += self._ship_page_batch(batch)
            budget -= len(batch)
        return shipped

    def drain_all(self) -> int:
        """Offload every pending stale page."""
        if not self.enabled:
            return 0
        total = 0
        while self.retention.pending_pages > 0:
            shipped = self.drain(max_pages=self.retention.pending_pages)
            if shipped == 0:
                break
            total += shipped
        return total

    def _ship_page_batch(self, batch: List[StalePage]) -> int:
        contents = [record.content for record in batch]
        compression = self.compression.compress_pages(contents)
        # Encryption is length-preserving for the stream cipher, so the
        # capsule body is the compressed size; the cipher is exercised on
        # a representative sample so the code path stays honest.
        sample = contents[0]
        if sample.payload is not None:
            self.cipher.encrypt(sample.payload, self._nonce)
        self._nonce += 1
        capsule = self.protocol.offload_pages(
            compressed_bytes=compression.compressed_size,
            page_count=len(batch),
            first_version=batch[0].version,
            last_version=batch[-1].version,
        )
        arrival_us = self.nic.send_capsule(self._token, capsule.wire_payload_bytes)
        self.remote.store_capsule(capsule, arrival_us)
        self.retention.mark_offloaded(batch)
        self.stats.page_capsules += 1
        self.stats.pages_offloaded += len(batch)
        self.stats.raw_bytes += compression.original_size
        self.stats.compressed_bytes += compression.compressed_size
        self.stats.wire_bytes += capsule.wire_payload_bytes
        self.stats.last_arrival_us = max(self.stats.last_arrival_us, arrival_us)
        for listener in self.listeners:
            listener("pages", len(batch), capsule.wire_payload_bytes, arrival_us)
        return len(batch)

    # -- log segment offloading ---------------------------------------------------

    def offload_log_segments(self, oplog: OperationLog) -> int:
        """Ship every sealed-but-unoffloaded log segment.  Returns segments shipped."""
        if not self.enabled:
            return 0
        cursor = self._log_segment_cursor
        if cursor >= oplog.sealed_segment_count:
            return 0
        shipped = 0
        for segment in oplog.sealed_segments_since(cursor):
            if not segment.offloaded:
                self._ship_log_segment(segment)
                shipped += 1
        self._log_segment_cursor = oplog.sealed_segment_count
        return shipped

    def _ship_log_segment(self, segment: LogSegment) -> None:
        raw_bytes = segment.estimated_bytes
        compressed = max(1, int(raw_bytes * 0.5))
        capsule = self.protocol.offload_log_segment(
            compressed_bytes=compressed,
            record_count=segment.entry_count,
            segment_id=segment.segment_id,
        )
        arrival_us = self.nic.send_capsule(self._token, capsule.wire_payload_bytes)
        self.remote.store_capsule(capsule, arrival_us)
        segment.offloaded = True
        self.stats.log_capsules += 1
        self.stats.log_entries_offloaded += segment.entry_count
        self.stats.raw_bytes += raw_bytes
        self.stats.compressed_bytes += compressed
        self.stats.wire_bytes += capsule.wire_payload_bytes
        self.stats.last_arrival_us = max(self.stats.last_arrival_us, arrival_us)
        for listener in self.listeners:
            listener(
                "log-segment", segment.entry_count, capsule.wire_payload_bytes, arrival_us
            )

    # -- recovery-side fetch ---------------------------------------------------------

    def fetch_pages(self, page_count: int, mean_compressed_page_bytes: int = 2048) -> float:
        """Fetch ``page_count`` retained pages back from the remote tier.

        Returns the completion timestamp of the transfer; point-in-time
        recovery uses it to compute recovery time.
        """
        if page_count < 0:
            raise ValueError("page_count must be non-negative")
        if page_count == 0:
            return float(self.clock.now_us)
        request = self.protocol.fetch_pages(page_count)
        self.nic.send_capsule(self._token, request.wire_payload_bytes)
        response_bytes = page_count * mean_compressed_page_bytes
        return self.nic.receive_capsule(self._token, response_bytes)

    # -- link health ---------------------------------------------------------------------

    @property
    def link_backlog_us(self) -> float:
        """How far behind real time the offload link currently is."""
        return self.nic.link.backlog_us()
