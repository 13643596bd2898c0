"""The RSSD device facade.

:class:`RSSD` wires the SSD substrate together with the paper's
mechanisms (Figure 1): conservative retention, hardware-assisted
logging, the enhanced trim handler, the embedded NIC with its
hardware-isolated NVMe-oE path, the offload engine, and the evidence
chain and detection services built on top.  Recovery reads this
device's log, archive and remote tier from outside:
``repro.forensics.ForensicsEngine(rssd).recovery()``.

The facade exposes the same block interface as a plain :class:`SSD`
(``read`` / ``write`` / ``trim`` / ``flush``), so traces, file systems
and attacks run unchanged against either device -- which is how the
benchmarks compare RSSD against the baselines.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import RSSDConfig
from repro.core.detection import DetectionReport, LocalDetector, RemoteDetector
from repro.core.offload import OffloadEngine
from repro.core.oplog import OperationLog
from repro.core.retention import RetentionManager
from repro.core.trim_handler import EnhancedTrimHandler, TrimMode
from repro.crypto.cipher import StreamCipher
from repro.crypto.compression import CompressionModel
from repro.nvmeoe.link import NetworkLink
from repro.nvmeoe.nic import EmbeddedNIC
from repro.nvmeoe.remote import ObjectStore, StorageServer, TieredRemote
from repro.sim import SimClock
from repro.ssd.device import SSD, HostOp, HostOpType
from repro.ssd.flash import PageContent
from repro.ssd.ftl import StalePage


class RSSD:
    """A ransomware-aware SSD with hardware-isolated network-storage codesign."""

    name = "RSSD"

    def __init__(self, config: Optional[RSSDConfig] = None, clock: Optional[SimClock] = None) -> None:
        self.config = config if config is not None else RSSDConfig.small()
        self.clock = clock if clock is not None else SimClock()

        # -- storage substrate ------------------------------------------------
        self.retention = RetentionManager()
        self.ssd = SSD(
            geometry=self.config.geometry,
            latency=self.config.latency,
            clock=self.clock,
            retention_policy=self.retention,
            gc_threshold_blocks=self.config.gc_threshold_blocks,
            eager_trim_gc=False,
        )

        # -- network substrate (hardware-isolated) -----------------------------
        self.link = NetworkLink(
            clock=self.clock,
            bandwidth_gbps=self.config.link_bandwidth_gbps,
            propagation_us=self.config.link_propagation_us,
        )
        self.nic = EmbeddedNIC(clock=self.clock, link=self.link)
        self.remote = TieredRemote(
            server=StorageServer(capacity_bytes=self.config.storage_server_capacity_bytes),
            cloud=ObjectStore(),
        )
        self.offload = OffloadEngine(
            clock=self.clock,
            nic=self.nic,
            remote=self.remote,
            retention=self.retention,
            batch_pages=self.config.offload_batch_pages,
            compression=CompressionModel(),
            cipher=StreamCipher.from_passphrase(self.config.encryption_passphrase),
        )
        self.retention.attach_offload_engine(self.offload)

        # -- logging and trim ----------------------------------------------------
        self.oplog = OperationLog(
            segment_entries=self.config.log_segment_entries,
            checkpoint_interval=self.config.checkpoint_interval,
        )
        self.ssd.add_observer(self.oplog)
        self.trim_handler = EnhancedTrimHandler(self.ssd, mode=TrimMode.ENHANCED)

        # Logging adds a small per-command firmware cost on the write path;
        # read log entries are captured off the critical path (the DRAM
        # append completes after the data transfer has been acknowledged).
        for op_type in (HostOpType.WRITE, HostOpType.TRIM):
            self.ssd.add_op_overhead(op_type, self.config.latency.log_append_us)

        # -- detection ---------------------------------------------------------------
        self.local_detector = LocalDetector()
        self.ssd.add_observer(self.local_detector)

        self._ops_since_drain = 0
        #: Drain the offload queue opportunistically every this many host ops.
        #: The hardware engine drains continuously; a small interval keeps the
        #: pending pool tiny so GC almost never has to relocate retained pages
        #: (which is what keeps the lifetime impact minimal).
        self.offload_interval_ops = 4

    # -- block interface ---------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.ssd.page_size

    @property
    def capacity_pages(self) -> int:
        return self.ssd.capacity_pages

    @property
    def metrics(self):
        return self.ssd.metrics

    def read(self, lba: int, npages: int = 1, stream_id: int = 0) -> bytes:
        return self.ssd.read(lba, npages, stream_id=stream_id)

    def read_content(self, lba: int) -> Optional[PageContent]:
        return self.ssd.read_content(lba)

    def write(self, lba: int, data, stream_id: int = 0) -> HostOp:
        op = self.ssd.write(lba, data, stream_id=stream_id)
        self._after_op()
        return op

    def trim(self, lba: int, npages: int = 1, stream_id: int = 0) -> List[StalePage]:
        records = self.trim_handler.trim(lba, npages, stream_id=stream_id)
        self._after_op()
        return records

    def flush(self, stream_id: int = 0) -> int:
        return self.ssd.flush(stream_id=stream_id)

    # -- batched block interface ---------------------------------------------------
    #
    # Vectorized counterparts of read/write/trim.  Each call is one host
    # command covering a contiguous LBA run: the SSD programs the pages
    # in one pass and observers (operation log, local detector) see one
    # aggregated event, which is what makes fleet-scale trace replay
    # feasible in Python.

    def read_batch(self, lba: int, npages: int = 1, stream_id: int = 0) -> bytes:
        return self.ssd.read_batch(lba, npages, stream_id=stream_id)

    def write_batch(self, lba: int, data, stream_id: int = 0) -> HostOp:
        op = self.ssd.write_batch(lba, data, stream_id=stream_id)
        self._after_op()
        return op

    def trim_range(self, lba: int, npages: int = 1, stream_id: int = 0) -> List[StalePage]:
        records = self.trim_handler.trim_range(lba, npages, stream_id=stream_id)
        self._after_op()
        return records

    def _after_op(self) -> None:
        self._ops_since_drain += 1
        if self._ops_since_drain >= self.offload_interval_ops:
            self._ops_since_drain = 0
            # The offload engine runs continuously in the firmware; draining
            # the whole pending queue here models that background progress
            # without advancing the foreground clock (the link model keeps
            # its own backlog to account for finite bandwidth).
            self.offload.drain_all()
            self.offload.offload_log_segments(self.oplog)

    # -- background maintenance ----------------------------------------------------------

    def drain_offload_queue(self) -> int:
        """Ship every pending retained page and sealed log segment remotely."""
        shipped = self.offload.drain_all()
        self.oplog.seal_segment()
        self.offload.offload_log_segments(self.oplog)
        return shipped

    # -- services -----------------------------------------------------------------------------

    def detect(self) -> DetectionReport:
        """Run the offloaded (remote) detector over the full operation log."""
        return RemoteDetector(self.oplog).analyze()

    # -- invariants -----------------------------------------------------------------------------------

    @property
    def data_loss_pages(self) -> int:
        """Retained pages destroyed before reaching the remote tier (must be 0)."""
        return self.retention.stats.data_loss_pages

    @property
    def retained_pages_local(self) -> int:
        """Stale pages currently held on local flash."""
        return self.ssd.ftl.stale_pages

    @property
    def retained_pages_remote(self) -> int:
        """Retained pages stored on the remote tier."""
        return self.offload.stats.pages_offloaded

    def summary(self) -> dict:
        """Headline counters for reports."""
        return {
            "host_writes": self.metrics.host_writes,
            "host_trims": self.metrics.host_trims,
            "write_amplification": self.metrics.write_amplification,
            "retained_local": self.retained_pages_local,
            "retained_remote": self.retained_pages_remote,
            "data_loss_pages": self.data_loss_pages,
            "log_entries": self.oplog.total_entries,
            "offload_compression_ratio": self.offload.stats.compression_ratio,
            "link_wire_bytes": self.link.stats.wire_bytes_sent,
        }


def build_rssd(config: Optional[RSSDConfig] = None, clock: Optional[SimClock] = None) -> RSSD:
    """Build a ready-to-use RSSD device.

    >>> rssd = build_rssd(RSSDConfig.tiny())
    >>> rssd.write(0, b"hello")  # doctest: +ELLIPSIS
    HostOp(...)
    """
    return RSSD(config=config, clock=clock)
