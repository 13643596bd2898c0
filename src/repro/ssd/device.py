"""The SSD block device.

:class:`SSD` glues the substrate together: flash array, FTL, garbage
collector, wear leveler, DRAM write buffer, latency model and metrics.
It exposes the block interface every higher layer uses -- ``read``,
``write``, ``trim``, ``flush`` -- and two extension points that the
ransomware defenses are built on:

* a *retention policy* (``ftl.retention_policy``) deciding whether stale
  flash pages may be physically destroyed, and
* *observers* that see every host operation in arrival order (used by
  detection baselines and by RSSD's hardware-assisted log).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.sim import SimClock
from repro.ssd.dram import WriteBuffer
from repro.ssd.errors import OutOfRangeError
from repro.ssd.flash import FlashArray, PageContent
from repro.ssd.ftl import FTL, RetentionPolicy, StalePage
from repro.ssd.gc import GarbageCollector, GCResult, GreedyGC
from repro.ssd.geometry import SSDGeometry
from repro.ssd.latency import LatencyModel
from repro.ssd.metrics import DeviceMetrics
from repro.ssd.wearlevel import StaticWearLeveler


class HostOpType(enum.Enum):
    """Host command types observed at the device interface."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"
    FLUSH = "flush"


@dataclass(frozen=True)
class HostOp:
    """One completed host command, as seen by observers.

    Observers receive these in exactly the order the device processed
    them, which is the ordering property RSSD's evidence chain relies
    on.
    """

    sequence: int
    op_type: HostOpType
    lba: int
    npages: int
    timestamp_us: int
    latency_us: float
    content: Optional[PageContent] = None
    stream_id: int = 0


class IOObserver(Protocol):
    """Anything that wants to watch host operations (detectors, loggers)."""

    def on_host_op(self, op: HostOp) -> None:
        """Called after the device completes each host command."""


DataLike = Union[bytes, PageContent, Sequence[PageContent]]


class SSD:
    """A simulated SSD with a page-granular block interface.

    Logical addresses are page indices (one LBA == one flash page).  A
    ``write`` with a ``bytes`` payload longer than one page spans
    consecutive LBAs.
    """

    def __init__(
        self,
        geometry: Optional[SSDGeometry] = None,
        latency: Optional[LatencyModel] = None,
        clock: Optional[SimClock] = None,
        retention_policy: Optional[RetentionPolicy] = None,
        gc: Optional[GarbageCollector] = None,
        write_buffer: Optional[WriteBuffer] = None,
        gc_threshold_blocks: int = 4,
        eager_trim_gc: bool = True,
    ) -> None:
        self.geometry = geometry if geometry is not None else SSDGeometry.small()
        self.latency = latency if latency is not None else LatencyModel()
        self.clock = clock if clock is not None else SimClock()
        self.flash = FlashArray(self.geometry)
        self.ftl = FTL(
            self.geometry,
            self.flash,
            self.clock,
            retention_policy=retention_policy,
            gc_threshold_blocks=gc_threshold_blocks,
        )
        self.gc = gc if gc is not None else GreedyGC()
        self.wear_leveler = StaticWearLeveler()
        self.write_buffer = write_buffer if write_buffer is not None else WriteBuffer()
        self.metrics = DeviceMetrics()
        self.eager_trim_gc = eager_trim_gc
        self.op_overhead_us: Dict[HostOpType, float] = {
            op_type: 0.0 for op_type in HostOpType
        }
        self.gc_time_us: float = 0.0
        self._observers: List[IOObserver] = []
        #: Passive callbacks invoked after every GC pass with
        #: ``(result, timestamp_us, forced)``.  The :mod:`repro.api`
        #: event bus taps this to publish typed ``GCEvent`` records;
        #: listeners must not mutate device state.
        self.gc_listeners: List[Callable[[GCResult, int, bool], None]] = []
        self._sequence = 0
        # Shared all-zero read buffers keyed by byte length.  Descriptor
        # -only batch reads return runs of zero pages; ``bytes`` is
        # immutable, so one buffer per distinct run length is safe to
        # hand out repeatedly instead of allocating megabytes per call.
        self._zero_runs: Dict[int, bytes] = {}
        # Folded per-run read latency keyed by (overhead, per-page cost,
        # run length): the repeated float addition the per-op path
        # performs, evaluated once per distinct key.
        self._read_run_latency: Dict[Tuple[float, float, int], float] = {}

    # -- configuration -------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        """Host-visible capacity in logical pages."""
        return self.geometry.exported_pages

    @property
    def page_size(self) -> int:
        return self.geometry.page_size

    def add_observer(self, observer: IOObserver) -> None:
        """Register an observer that sees every completed host command."""
        self._observers.append(observer)

    def remove_observer(self, observer: IOObserver) -> None:
        self._observers.remove(observer)

    def add_op_overhead(self, op_type: HostOpType, extra_us: float) -> None:
        """Add a fixed per-command latency overhead (e.g. RSSD log append)."""
        if extra_us < 0:
            raise ValueError("extra_us must be non-negative")
        self.op_overhead_us[op_type] += extra_us

    # -- host interface --------------------------------------------------------

    def read(self, lba: int, npages: int = 1, stream_id: int = 0) -> bytes:
        """Read ``npages`` logical pages starting at ``lba``.

        Unmapped pages and descriptor-only pages read back as zeros, so
        callers that care about content identity should prefer
        :meth:`read_content`.
        """
        self._check_range(lba, npages)
        chunks: List[bytes] = []
        total_latency = self.op_overhead_us[HostOpType.READ]
        for offset in range(npages):
            content = self.ftl.read(lba + offset)
            if content is not None and content.payload is not None:
                chunk = content.payload.ljust(self.page_size, b"\x00")
            else:
                chunk = b"\x00" * self.page_size
            chunks.append(chunk)
            if content is None:
                total_latency += self.latency.dram_access_us
            else:
                total_latency += self.latency.read_page_us(self.page_size)
            self.metrics.flash_pages_read += 1
        self._complete_op(
            HostOpType.READ, lba, npages, total_latency, content=None, stream_id=stream_id
        )
        self.metrics.host_reads += 1
        self.metrics.host_pages_read += npages
        return b"".join(chunks)

    def read_content(self, lba: int) -> Optional[PageContent]:
        """Return the live content descriptor of ``lba`` without latency accounting."""
        self._check_range(lba, 1)
        return self.ftl.read(lba)

    def write(self, lba: int, data: DataLike, stream_id: int = 0) -> HostOp:
        """Write ``data`` starting at logical page ``lba``.

        ``data`` may be raw bytes (split across pages), a single
        :class:`PageContent`, or a sequence of page contents.
        """
        contents = self._to_page_contents(data)
        self._check_range(lba, len(contents))
        total_latency = self.op_overhead_us[HostOpType.WRITE]
        for offset, content in enumerate(contents):
            # Large requests can span several erase blocks; keep the free
            # pool above the GC threshold page by page so a single burst
            # cannot exhaust the allocator mid-request.
            if self.ftl.needs_gc():
                self._run_gc(force=False)
            self.ftl.write(lba + offset, content)
            self.metrics.flash_pages_programmed += 1
            if self.write_buffer.admit(self.clock.now_us):
                total_latency += (
                    self.latency.controller_us
                    + self.latency.dram_access_us
                    + self.latency.transfer_us(content.length)
                )
            else:
                total_latency += self.latency.program_page_us(self.page_size)
        self.metrics.host_writes += 1
        self.metrics.host_pages_written += len(contents)
        op = self._complete_op(
            HostOpType.WRITE,
            lba,
            len(contents),
            total_latency,
            content=contents[0],
            stream_id=stream_id,
        )
        self._maybe_collect()
        return op

    def trim(self, lba: int, npages: int = 1, stream_id: int = 0) -> List[StalePage]:
        """Trim ``npages`` logical pages starting at ``lba``.

        On an unmodified SSD, trimmed data becomes immediately
        reclaimable and (with ``eager_trim_gc``) is physically erased at
        the next GC pass -- the behaviour the trimming attack exploits.
        """
        self._check_range(lba, npages)
        records: List[StalePage] = []
        total_latency = self.op_overhead_us[HostOpType.TRIM] + self.latency.controller_us
        for offset in range(npages):
            record = self.ftl.trim(lba + offset)
            if record is not None:
                records.append(record)
            total_latency += self.latency.dram_access_us
        self.metrics.host_trims += 1
        self.metrics.host_pages_trimmed += npages
        self._complete_op(
            HostOpType.TRIM, lba, npages, total_latency, content=None, stream_id=stream_id
        )
        if self.eager_trim_gc and records:
            self._run_gc(force=True)
        else:
            self._maybe_collect()
        return records

    # -- batched host interface ------------------------------------------------
    #
    # The batched entry points program many pages per Python call: one
    # command overhead, per-page flash cost, one aggregated HostOp (so
    # observers such as the operation log and the local detector append
    # per batch).  They perform exactly the state transitions of the
    # per-op methods above, in the same order, so device state, metrics
    # and the evidence chain stay bit-identical between the two paths --
    # a property the equivalence tests pin down.

    def read_batch(self, lba: int, npages: int = 1, stream_id: int = 0) -> bytes:
        """Vectorized form of :meth:`read` for a contiguous LBA run."""
        self._check_range(lba, npages)
        page_size = self.page_size
        read_cost = self.latency.read_page_us(page_size)
        dram_cost = self.latency.dram_access_us
        total_latency = self.op_overhead_us[HostOpType.READ]
        if self.flash.kernel.payload_pages == 0:
            # Descriptor-only working set (trace-driven experiments):
            # every page reads back as zeros, so latency is accounted
            # straight off the mapping column without materialising a
            # content object per page.  The per-page float accumulation
            # order is preserved -- the per-op path adds the same costs
            # page by page.  Fully mapped runs (the common case once a
            # trace has warmed up) fold to a deterministic sum, which is
            # computed once by the same repeated addition and cached.
            ppns = self.ftl.read_ppns(lba, npages)
            if int(ppns.min()) >= 0:
                key = (total_latency, read_cost, npages)
                cached = self._read_run_latency.get(key)
                if cached is None:
                    cached = total_latency
                    for _ in range(npages):
                        cached += read_cost
                    self._read_run_latency[key] = cached
                total_latency = cached
            else:
                for mapped in (ppns >= 0).tolist():
                    total_latency += read_cost if mapped else dram_cost
            nbytes = page_size * npages
            data = self._zero_runs.get(nbytes)
            if data is None:
                data = b"\x00" * nbytes
                self._zero_runs[nbytes] = data
        else:
            zero_page = b"\x00" * page_size
            chunks: List[bytes] = []
            for content in self.ftl.read_run(lba, npages):
                if content is not None and content.payload is not None:
                    chunks.append(content.payload.ljust(page_size, b"\x00"))
                else:
                    chunks.append(zero_page)
                if content is None:
                    total_latency += dram_cost
                else:
                    total_latency += read_cost
            data = b"".join(chunks)
        self.metrics.flash_pages_read += npages
        self._complete_op(
            HostOpType.READ, lba, npages, total_latency, content=None, stream_id=stream_id
        )
        self.metrics.host_reads += 1
        self.metrics.host_pages_read += npages
        return data

    def write_batch(self, lba: int, data: DataLike, stream_id: int = 0) -> HostOp:
        """Vectorized form of :meth:`write` for a contiguous LBA run."""
        contents = self._to_page_contents(data)
        self._check_range(lba, len(contents))
        metrics = self.metrics
        clock = self.clock
        buffer = self.write_buffer
        latency = self.latency
        buffer_hit_cost = latency.controller_us + latency.dram_access_us
        transfer = latency.transfer_us
        program_cost = latency.program_page_us(self.page_size)
        needs_gc = self.ftl.needs_gc
        total_latency = self.op_overhead_us[HostOpType.WRITE]

        def gc_check() -> None:
            # Same per-page guard as the per-op path: a large run can
            # span several erase blocks, so the free pool is kept above
            # the GC threshold page by page (the FTL degrades to
            # one-page chunks whenever the pool sits at the threshold).
            if needs_gc():
                self._run_gc(force=False)

        def on_chunk(chunk: List[PageContent]) -> None:
            # The clock only moves while GC runs, so every admit() of
            # the per-op path within this chunk would see the same
            # timestamp: one batched admission gives the identical
            # admitted/rejected split and buffer statistics.  The float
            # latency accumulation stays per-page, in page order, so the
            # total is bit-identical to the per-op sum.
            nonlocal total_latency
            metrics.flash_pages_programmed += len(chunk)
            admitted = buffer.admit_run(clock.now_us, len(chunk))
            for index, content in enumerate(chunk):
                if index < admitted:
                    total_latency += buffer_hit_cost + transfer(content.length)
                else:
                    total_latency += program_cost

        self.ftl.write_run(lba, contents, gc_check=gc_check, on_chunk=on_chunk)
        metrics.host_writes += 1
        metrics.host_pages_written += len(contents)
        op = self._complete_op(
            HostOpType.WRITE,
            lba,
            len(contents),
            total_latency,
            content=contents[0],
            stream_id=stream_id,
        )
        self._maybe_collect()
        return op

    def trim_range(self, lba: int, npages: int = 1, stream_id: int = 0) -> List[StalePage]:
        """Vectorized form of :meth:`trim` for a contiguous LBA run."""
        self._check_range(lba, npages)
        records = self.ftl.trim_run(lba, npages)
        dram_cost = self.latency.dram_access_us
        total_latency = self.op_overhead_us[HostOpType.TRIM] + self.latency.controller_us
        for _ in range(npages):
            total_latency += dram_cost
        self.metrics.host_trims += 1
        self.metrics.host_pages_trimmed += npages
        self._complete_op(
            HostOpType.TRIM, lba, npages, total_latency, content=None, stream_id=stream_id
        )
        if self.eager_trim_gc and records:
            self._run_gc(force=True)
        else:
            self._maybe_collect()
        return records

    def flush(self, stream_id: int = 0) -> int:
        """Flush the DRAM write buffer.  Returns the number of pages destaged."""
        destaged = self.write_buffer.flush(self.clock.now_us)
        latency = (
            self.op_overhead_us[HostOpType.FLUSH]
            + self.latency.controller_us
            + destaged * self.latency.program_us * 0.1
        )
        self.metrics.host_flushes += 1
        self._complete_op(HostOpType.FLUSH, 0, 0, latency, content=None, stream_id=stream_id)
        return destaged

    # -- background machinery ----------------------------------------------------

    def _maybe_collect(self) -> None:
        if self.ftl.needs_gc():
            self._run_gc(force=False)
        # Static wear leveling copies live data around, so it only runs when
        # the free pool has comfortable headroom beyond the GC threshold.
        if (
            self.ftl.allocator.free_blocks > self.ftl.gc_threshold_blocks + 2
            and self.wear_leveler.should_run(self.flash)
        ):
            moved = self.wear_leveler.run(self.ftl)
            self.metrics.gc_pages_relocated += moved

    def _run_gc(self, force: bool) -> GCResult:
        result = self.gc.collect(self.ftl, force=force)
        self.metrics.gc_invocations += 1
        self.metrics.gc_pages_relocated += result.pages_relocated
        self.metrics.gc_stale_pages_preserved += result.stale_pages_preserved
        self.metrics.gc_stale_pages_released += result.stale_pages_released
        self.metrics.flash_pages_programmed += result.pages_relocated
        self.metrics.flash_blocks_erased += result.blocks_erased
        gc_latency = (
            result.pages_relocated * self.latency.copyback_page_us(self.page_size)
            + result.blocks_erased * self.latency.erase_block_us()
        )
        self.gc_time_us += gc_latency
        self.clock.advance(int(gc_latency))
        self.metrics.retained_pages_current = self.ftl.stale_pages
        for listener in self.gc_listeners:
            listener(result, self.clock.now_us, force)
        return result

    def run_gc_now(self, force: bool = True) -> GCResult:
        """Run a GC pass on demand (used by tests and the trim ablation)."""
        return self._run_gc(force=force)

    # -- helpers --------------------------------------------------------------------

    def _to_page_contents(self, data: DataLike) -> List[PageContent]:
        if isinstance(data, PageContent):
            return [data]
        if isinstance(data, (bytes, bytearray, memoryview)):
            raw = bytes(data)
            if not raw:
                raise ValueError("cannot write an empty payload")
            return [
                PageContent.from_bytes(raw[offset : offset + self.page_size])
                for offset in range(0, len(raw), self.page_size)
            ]
        contents = list(data)
        if not contents:
            raise ValueError("cannot write an empty sequence of pages")
        if not all(isinstance(content, PageContent) for content in contents):
            raise TypeError("sequence writes must contain PageContent items")
        return contents

    def _check_range(self, lba: int, npages: int) -> None:
        if npages < 0:
            raise ValueError("npages must be non-negative")
        if lba < 0 or lba + max(npages, 1) > self.capacity_pages:
            raise OutOfRangeError(
                f"LBA range [{lba}, {lba + npages}) outside device capacity "
                f"{self.capacity_pages} pages"
            )

    def _complete_op(
        self,
        op_type: HostOpType,
        lba: int,
        npages: int,
        latency_us: float,
        content: Optional[PageContent],
        stream_id: int,
    ) -> HostOp:
        self.clock.advance(int(latency_us))
        op = HostOp(
            sequence=self._sequence,
            op_type=op_type,
            lba=lba,
            npages=npages,
            timestamp_us=self.clock.now_us,
            latency_us=latency_us,
            content=content,
            stream_id=stream_id,
        )
        self._sequence += 1
        self.metrics.record_latency(op_type.value, latency_us)
        for observer in self._observers:
            observer.on_host_op(op)
        return op
