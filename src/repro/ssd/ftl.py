"""Flash translation layer (FTL).

The FTL keeps the logical-to-physical page mapping, allocates flash
pages for host writes, invalidates superseded pages, and cooperates
with garbage collection.  Retention behaviour -- the property every
ransomware defense in the paper builds on -- is delegated to a
:class:`RetentionPolicy`:

* A plain SSD uses :class:`PassthroughRetention`: stale pages may be
  destroyed as soon as GC wants the space.
* FlashGuard/TimeSSD-like defenses retain *suspicious* or *recent*
  stale pages locally, bounded by spare capacity, and are forced to
  release them under capacity pressure (which the GC attack exploits).
* RSSD retains *every* stale page and only allows release after the
  page has been offloaded to the remote tier over NVMe-oE.

Since the kernel refactor the mapping table lives in
:class:`~repro.ssd.kernel.SimKernel` as int columns (``map_ppn`` with
``-1`` as the unmapped sentinel, plus write-timestamp and version
columns) instead of a ``Dict[int, PageMetadata]``.  The batch surfaces
(:meth:`FTL.write_run` / :meth:`FTL.read_run` / :meth:`FTL.trim_run`)
operate on whole array slices per open-block chunk; the scalar methods
keep their historical per-op semantics, and :class:`PageMetadata` is
returned as a point-in-time snapshot of the columns.  Stale pages
remain identity-bearing :class:`StalePage` objects -- they are the unit
of retention, offload and recovery and are mutated in place across GC
relocations -- indexed by their current physical page.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol

import numpy as np

from repro.compat import DATACLASS_SLOTS
from repro.sim import SimClock
from repro.ssd.errors import CapacityExhaustedError, OutOfRangeError
from repro.ssd.flash import FlashArray, FlashBlock, PageContent
from repro.ssd.geometry import SSDGeometry
from repro.ssd.kernel import NO_LPN, NO_PPN, PAGE_VALID, SimKernel


class InvalidationCause(enum.Enum):
    """Why a flash page became stale."""

    OVERWRITE = "overwrite"
    TRIM = "trim"
    RELOCATION = "relocation"


@dataclass(**DATACLASS_SLOTS)
class StalePage:
    """A flash page whose logical address has been superseded or trimmed.

    The record survives relocation by GC (``ppn`` is updated) and is the
    unit of retention, offloading, release and recovery throughout the
    library.
    """

    lpn: int
    ppn: int
    content: PageContent
    written_us: int
    invalidated_us: int
    cause: InvalidationCause
    version: int
    offloaded: bool = False
    released: bool = False
    relocations: int = 0


@dataclass(**DATACLASS_SLOTS)
class PageMetadata:
    """Snapshot of the mapping columns for one live logical page."""

    lpn: int
    ppn: int
    written_us: int
    version: int


class RetentionPolicy(Protocol):
    """Decides the fate of stale flash pages.

    The FTL and GC call these hooks; the policy never mutates flash
    state itself.  Implementations live with the defense they belong to
    (``repro.defenses`` for the baselines, ``repro.core.retention`` for
    RSSD).
    """

    def on_invalidate(self, record: StalePage) -> None:
        """A page just became stale (overwrite or trim)."""

    def may_release(self, record: StalePage) -> bool:
        """May GC physically destroy this stale page's data right now?"""

    def on_release(self, record: StalePage) -> None:
        """The stale page's data has been physically destroyed."""

    def on_relocate(self, record: StalePage, new_ppn: int) -> None:
        """GC relocated the stale page; ``record.ppn`` already updated."""

    def reclaim_pressure(self, ftl: "FTL", needed_pages: int) -> int:
        """GC cannot free space without violating retention.

        The policy must either make some stale pages releasable (RSSD
        drains its offload queue; FlashGuard force-releases its oldest
        retained pages, losing them) or accept that the device stalls.
        Returns the number of stale pages made releasable.
        """


class PassthroughRetention:
    """Retention policy of an unmodified SSD: stale data is expendable."""

    def on_invalidate(self, record: StalePage) -> None:
        return None

    def may_release(self, record: StalePage) -> bool:
        return True

    def on_release(self, record: StalePage) -> None:
        return None

    def on_relocate(self, record: StalePage, new_ppn: int) -> None:
        return None

    def reclaim_pressure(self, ftl: "FTL", needed_pages: int) -> int:
        return 0


class BlockAllocator:
    """Free-block pool with dynamic wear leveling.

    Free blocks are handed out lowest-erase-count first so wear spreads
    across the array; this is the "dynamic wear leveling" the device
    statistics report on.  The pool is a heap keyed by (erase count,
    block index), making every allocation O(log n) instead of a scan.
    During normal operation a block's erase count only changes before
    it is released back, so entries are keyed correctly; entries whose
    count was changed externally (wear injection via
    ``FlashArray.set_erase_count``) are detected against the live count
    on pop and lazily re-keyed, so allocation order always follows the
    true counts.  The last ``gc_reserve_blocks`` blocks are reserved
    for garbage collection so relocation always has somewhere to copy
    pages even when host writes have exhausted the pool.
    """

    def __init__(self, flash: FlashArray, gc_reserve_blocks: int = 2) -> None:
        if gc_reserve_blocks < 0:
            raise ValueError("gc_reserve_blocks must be non-negative")
        self._flash = flash
        self._heap: List[tuple] = [
            (block.erase_count, block.block_index) for block in flash.iter_blocks()
        ]
        heapq.heapify(self._heap)
        self._free_set = {block.block_index for block in flash.iter_blocks()}
        self.gc_reserve_blocks = gc_reserve_blocks

    @property
    def free_blocks(self) -> int:
        return len(self._heap)

    def allocate(self, for_gc: bool = False) -> int:
        """Pop the free block with the lowest erase count.

        Host allocations (``for_gc=False``) may not dig into the GC
        reserve; GC relocation allocations may.
        """
        available = len(self._heap) if for_gc else len(self._heap) - self.gc_reserve_blocks
        if available <= 0:
            raise CapacityExhaustedError(
                "no free blocks available"
                + ("" if for_gc else " outside the GC reserve")
            )
        erase_counts = self._flash.kernel.block_erase
        while True:
            erase_count, block_index = heapq.heappop(self._heap)
            live_count = int(erase_counts[block_index])
            if live_count != erase_count:
                # Externally mutated while free: re-key and try again.
                heapq.heappush(self._heap, (live_count, block_index))
                continue
            self._free_set.discard(block_index)
            return block_index

    def release(self, block_index: int) -> None:
        """Return an erased block to the free pool."""
        if block_index in self._free_set:
            raise ValueError(f"block {block_index} is already free")
        heapq.heappush(
            self._heap, (int(self._flash.kernel.block_erase[block_index]), block_index)
        )
        self._free_set.add(block_index)

    def is_free(self, block_index: int) -> bool:
        """Whether ``block_index`` currently sits in the free pool."""
        return block_index in self._free_set


@dataclass
class FTLStats:
    """Counters specific to FTL/GC internals."""

    stale_pages_created: int = 0
    stale_pages_released: int = 0
    stale_pages_relocated: int = 0
    reclaim_pressure_events: int = 0


class FTL:
    """Page-mapping flash translation layer.

    Host writes go to the currently open "host" block; GC relocations go
    to a separate open "gc" block so hot and cold data do not mix.  The
    mapping table is the kernel's ``map_ppn`` int column (``-1`` =
    unmapped) with parallel write-timestamp and version columns.
    """

    def __init__(
        self,
        geometry: SSDGeometry,
        flash: FlashArray,
        clock: SimClock,
        retention_policy: Optional[RetentionPolicy] = None,
        gc_threshold_blocks: int = 4,
    ) -> None:
        if gc_threshold_blocks < 2:
            raise ValueError("gc_threshold_blocks must be at least 2")
        self.geometry = geometry
        self.flash = flash
        self.kernel: SimKernel = flash.kernel
        self.clock = clock
        self.retention_policy: RetentionPolicy = (
            retention_policy if retention_policy is not None else PassthroughRetention()
        )
        self.gc_threshold_blocks = gc_threshold_blocks
        self.allocator = BlockAllocator(flash)
        self.stats = FTLStats()
        self._stale: Dict[int, StalePage] = {}  # keyed by current ppn
        # Same records, bucketed by erase block, so GC victim accounting
        # only visits a block's own stale records instead of re-walking
        # every page of every candidate block each pass.
        self._stale_by_block: Dict[int, Dict[int, StalePage]] = {}
        # Blocks currently holding at least one invalid page (cleared on
        # erase), so GC candidate enumeration skips untouched blocks.
        self._invalid_blocks: set = set()
        self._host_block: Optional[int] = None
        self._gc_block: Optional[int] = None

    # -- introspection -----------------------------------------------------

    @property
    def mapped_pages(self) -> int:
        """Number of live logical pages."""
        return self.kernel.mapped_count

    @property
    def stale_pages(self) -> int:
        """Number of stale pages currently held on flash."""
        return len(self._stale)

    @property
    def free_pages(self) -> int:
        """Free (never-programmed-since-erase) pages across the device."""
        pages_per_block = self.geometry.pages_per_block
        free_in_pool = self.allocator.free_blocks * pages_per_block
        open_free = 0
        for block_index in (self._host_block, self._gc_block):
            if block_index is not None:
                open_free += pages_per_block - int(self.kernel.block_next_off[block_index])
        return free_in_pool + open_free

    def lookup(self, lpn: int) -> Optional[PageMetadata]:
        """Return the live mapping for ``lpn`` or ``None`` if unmapped."""
        self._check_lpn(lpn)
        kernel = self.kernel
        ppn = int(kernel.map_ppn[lpn])
        if ppn < 0:
            return None
        return PageMetadata(
            lpn=lpn,
            ppn=ppn,
            written_us=int(kernel.map_written_us[lpn]),
            version=int(kernel.map_version[lpn]),
        )

    def iter_stale(self) -> Iterable[StalePage]:
        """Iterate stale pages currently retained on flash."""
        return list(self._stale.values())

    def stale_for_lpn(self, lpn: int) -> List[StalePage]:
        """All retained stale versions of ``lpn``, oldest first."""
        records = [record for record in self._stale.values() if record.lpn == lpn]
        records.sort(key=lambda record: record.version)
        return records

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.geometry.exported_pages:
            raise OutOfRangeError(
                f"logical page {lpn} outside [0, {self.geometry.exported_pages})"
            )

    # -- host operations ----------------------------------------------------

    def read(self, lpn: int) -> Optional[PageContent]:
        """Read the live content of ``lpn`` (``None`` for unmapped pages)."""
        self._check_lpn(lpn)
        ppn = int(self.kernel.map_ppn[lpn])
        if ppn < 0:
            return None
        return self.flash.read(ppn)

    def write(self, lpn: int, content: PageContent) -> PageMetadata:
        """Write ``content`` to ``lpn``, invalidating any previous version.

        Returns the new mapping entry (a snapshot).  Flash page programs
        performed here are reported to the caller via the returned
        metadata and the FTL counters; host-level latency accounting
        happens in the device layer.
        """
        self._check_lpn(lpn)
        kernel = self.kernel
        previous_ppn = int(kernel.map_ppn[lpn])
        if previous_ppn >= 0:
            previous_written = int(kernel.map_written_us[lpn])
            previous_version = int(kernel.map_version[lpn])
        ppn = self._program_host_page(content, lpn)
        now_us = self.clock.now_us
        version = int(kernel.map_version[lpn]) + 1
        kernel.map_ppn[lpn] = ppn
        kernel.map_written_us[lpn] = now_us
        kernel.map_version[lpn] = version
        meta = PageMetadata(lpn=lpn, ppn=ppn, written_us=now_us, version=version)
        if previous_ppn >= 0:
            self._invalidate_ppn(
                lpn, previous_ppn, previous_written, previous_version,
                InvalidationCause.OVERWRITE,
            )
        else:
            kernel.mapped_count += 1
        return meta

    def trim(self, lpn: int) -> Optional[StalePage]:
        """Drop the mapping for ``lpn``.

        The previously mapped flash page becomes stale with cause
        ``TRIM``; whether its data survives is up to the retention
        policy.  Returns the stale record, or ``None`` if the page was
        not mapped.
        """
        self._check_lpn(lpn)
        kernel = self.kernel
        ppn = int(kernel.map_ppn[lpn])
        if ppn < 0:
            return None
        written_us = int(kernel.map_written_us[lpn])
        version = int(kernel.map_version[lpn])
        kernel.map_ppn[lpn] = NO_PPN
        kernel.mapped_count -= 1
        return self._invalidate_ppn(lpn, ppn, written_us, version, InvalidationCause.TRIM)

    # -- vectorized host operations ------------------------------------------

    def write_run(
        self,
        start_lpn: int,
        contents: List[PageContent],
        gc_check=None,
        on_chunk=None,
    ) -> None:
        """Write a run of consecutive logical pages with array bookkeeping.

        Performs exactly the state transitions of calling :meth:`write`
        once per page, in page order, but executes them one open-block
        *chunk* at a time: the run is split at block boundaries, each
        chunk is programmed with a single kernel array op, and the
        superseded pages are invalidated in bulk.

        ``gc_check`` (the device's per-page GC guard) runs once per
        chunk, which is equivalent to the per-op path's per-page guard
        because ``needs_gc()`` only changes when the allocator hands out
        or takes back a block -- never in the middle of an open-block
        chunk.  The one corner where that argument fails -- the pool is
        still at/below the threshold right after a check (GC stalled, or
        the block opened for this chunk drained the pool) -- degrades to
        one-page chunks, which *is* the per-op path.  ``on_chunk`` is
        invoked after each chunk with the chunk's contents; the device
        hooks buffer-admission/latency/metrics accounting there.
        """
        npages = len(contents)
        if npages == 0:
            raise ValueError("cannot write an empty run of pages")
        self._check_lpn(start_lpn)
        self._check_lpn(start_lpn + npages - 1)
        kernel = self.kernel
        clock = self.clock
        pages_per_block = self.geometry.pages_per_block
        map_ppn = kernel.map_ppn
        map_written = kernel.map_written_us
        map_version = kernel.map_version
        block_next_off = kernel.block_next_off
        position = 0
        lpn = start_lpn
        while position < npages:
            if gc_check is not None:
                gc_check()
            now_us = clock.now_us
            block_index = self._host_block
            if block_index is None or block_next_off[block_index] >= pages_per_block:
                block_index = self._open_block("host")
            chunk = min(npages - position, pages_per_block - int(block_next_off[block_index]))
            if chunk > 1 and gc_check is not None and self.needs_gc():
                # The pool is at/below the GC threshold even after the
                # check above (stalled GC, or opening this chunk's block
                # crossed the threshold): the per-op path would re-run
                # GC before the *next* page, so program one page only
                # and loop back to the guard.
                chunk = 1
            end = lpn + chunk
            window = slice(lpn, end)
            previous_ppns = map_ppn[window].copy()
            mapped = np.nonzero(previous_ppns >= 0)[0]
            if len(mapped):
                previous_written = map_written[window][mapped]
                previous_versions = map_version[window][mapped]
            chunk_contents = contents[position : position + chunk]
            ppns = self.flash.program_run(
                block_index,
                chunk_contents,
                np.arange(lpn, end, dtype=np.int64),
                now_us,
            )
            map_ppn[window] = ppns
            map_written[window] = now_us
            map_version[window] += 1
            kernel.mapped_count += chunk - len(mapped)
            if len(mapped):
                old_ppns = previous_ppns[mapped]
                kernel.invalidate_pages(old_ppns)
                self._register_stale_run(
                    (lpn + mapped).tolist(),
                    old_ppns.tolist(),
                    previous_written.tolist(),
                    previous_versions.tolist(),
                    InvalidationCause.OVERWRITE,
                    now_us,
                )
            if on_chunk is not None:
                on_chunk(chunk_contents)
            position += chunk
            lpn = end

    def read_run(self, start_lpn: int, npages: int) -> List[Optional[PageContent]]:
        """Read a run of consecutive logical pages (``None`` for unmapped)."""
        self._check_lpn(start_lpn)
        if npages > 0:
            self._check_lpn(start_lpn + npages - 1)
        page_content = self.kernel.page_content
        return [
            page_content[ppn] if ppn >= 0 else None
            for ppn in self.kernel.map_ppn[start_lpn : start_lpn + npages].tolist()
        ]

    def read_ppns(self, start_lpn: int, npages: int) -> np.ndarray:
        """The mapping column for a run (``-1`` = unmapped; no content objects).

        The device read fast path uses this to account latency without
        materialising per-page content descriptors.
        """
        self._check_lpn(start_lpn)
        if npages > 0:
            self._check_lpn(start_lpn + npages - 1)
        return self.kernel.read_ppns(start_lpn, npages)

    def trim_run(self, start_lpn: int, npages: int) -> List[StalePage]:
        """Trim a run of consecutive logical pages with array bookkeeping.

        Equivalent to calling :meth:`trim` once per page in order;
        returns the stale records of the pages that were mapped.
        """
        self._check_lpn(start_lpn)
        if npages > 0:
            self._check_lpn(start_lpn + npages - 1)
        kernel = self.kernel
        window = slice(start_lpn, start_lpn + npages)
        ppn_window = kernel.map_ppn[window]
        mapped = np.nonzero(ppn_window >= 0)[0]
        if not len(mapped):
            return []
        old_ppns = ppn_window[mapped].copy()
        written = kernel.map_written_us[window][mapped]
        versions = kernel.map_version[window][mapped]
        ppn_window[mapped] = NO_PPN
        kernel.mapped_count -= len(mapped)
        kernel.invalidate_pages(old_ppns)
        return self._register_stale_run(
            (start_lpn + mapped).tolist(),
            old_ppns.tolist(),
            written.tolist(),
            versions.tolist(),
            InvalidationCause.TRIM,
            self.clock.now_us,
        )

    # -- internals -----------------------------------------------------------

    def _invalidate_ppn(
        self,
        lpn: int,
        ppn: int,
        written_us: int,
        version: int,
        cause: InvalidationCause,
    ) -> StalePage:
        """Scalar invalidation: NAND state check plus stale bookkeeping."""
        page = self.flash.invalidate(ppn)
        content = page.content
        record = StalePage(
            lpn=lpn,
            ppn=ppn,
            content=content if content is not None else PageContent.synthetic(0, 0),
            written_us=written_us,
            invalidated_us=self.clock.now_us,
            cause=cause,
            version=version,
        )
        self._index_stale(record)
        self.stats.stale_pages_created += 1
        self.retention_policy.on_invalidate(record)
        return record

    def _register_stale_run(
        self,
        lpns: List[int],
        ppns: List[int],
        written: List[int],
        versions: List[int],
        cause: InvalidationCause,
        invalidated_us: int,
    ) -> List[StalePage]:
        """Build and index stale records for a bulk-invalidated page set.

        The physical pages have already been flipped INVALID by the
        kernel (they are guaranteed VALID: they came from the mapping
        column); records are created and reported to the retention
        policy in LPN order, matching the per-op path.
        """
        stale = self._stale
        by_block = self._stale_by_block
        invalid_blocks = self._invalid_blocks
        page_content = self.kernel.page_content
        pages_per_block = self.geometry.pages_per_block
        on_invalidate = self.retention_policy.on_invalidate
        records: List[StalePage] = []
        for lpn, ppn, written_us, version in zip(lpns, ppns, written, versions):
            record = StalePage(
                lpn=lpn,
                ppn=ppn,
                content=page_content[ppn],
                written_us=written_us,
                invalidated_us=invalidated_us,
                cause=cause,
                version=version,
            )
            stale[ppn] = record
            block_index = ppn // pages_per_block
            bucket = by_block.get(block_index)
            if bucket is None:
                bucket = by_block[block_index] = {}
            bucket[ppn] = record
            invalid_blocks.add(block_index)
            records.append(record)
            on_invalidate(record)
        self.stats.stale_pages_created += len(records)
        return records

    def _index_stale(self, record: StalePage) -> None:
        ppn = record.ppn
        self._stale[ppn] = record
        block_index = ppn // self.geometry.pages_per_block
        self._stale_by_block.setdefault(block_index, {})[ppn] = record
        self._invalid_blocks.add(block_index)

    def _open_block(self, purpose: str) -> int:
        """Allocate and open a new block for host writes or GC relocation."""
        block_index = self.allocator.allocate(for_gc=(purpose == "gc"))
        if purpose == "host":
            self._host_block = block_index
        else:
            self._gc_block = block_index
        return block_index

    def _program_host_page(self, content: PageContent, lpn: Optional[int]) -> int:
        return self._program(content, lpn, purpose="host")

    def program_relocation_page(self, content: PageContent, lpn: Optional[int]) -> int:
        """Program a page on the GC/relocation stream (used by the GC)."""
        return self._program(content, lpn, purpose="gc")

    def _program(self, content: PageContent, lpn: Optional[int], purpose: str) -> int:
        block_index = self._host_block if purpose == "host" else self._gc_block
        if (
            block_index is None
            or self.kernel.block_next_off[block_index] >= self.geometry.pages_per_block
        ):
            block_index = self._open_block(purpose)
        ppn = self.flash.program(
            block_index, content, lpn, timestamp_us=self.clock.now_us
        )
        return ppn

    # -- GC support ------------------------------------------------------------

    def needs_gc(self) -> bool:
        """True when the free-block pool has drained to the GC threshold."""
        return self.allocator.free_blocks <= self.gc_threshold_blocks

    def closed_blocks(self) -> List[FlashBlock]:
        """Blocks eligible as GC victims (full, not currently open)."""
        open_blocks = {self._host_block, self._gc_block}
        is_free = self.allocator.is_free
        victims = []
        for block in self.flash.iter_blocks():
            if block.block_index in open_blocks:
                continue
            if block.is_erased:
                continue
            if is_free(block.block_index):
                continue
            victims.append(block)
        return victims

    def reclaimable_blocks(self) -> List[FlashBlock]:
        """Closed blocks holding at least one invalid page (GC candidates).

        Enumerated from the incrementally maintained invalid-block set,
        so the cost scales with the number of dirtied blocks instead of
        the whole array.  Blocks in the set are never free or erased
        (erase clears their membership), so only the open blocks need
        filtering out.
        """
        open_blocks = (self._host_block, self._gc_block)
        flash_block = self.flash.block
        return [
            flash_block(block_index)
            for block_index in self._invalid_blocks
            if block_index not in open_blocks
        ]

    def stale_record_at(self, ppn: int) -> Optional[StalePage]:
        """The stale record currently stored at physical page ``ppn``."""
        return self._stale.get(ppn)

    def relocate_valid_page(self, ppn: int) -> int:
        """Move a live page out of a GC victim block.  Returns the new ppn."""
        kernel = self.kernel
        if kernel.page_state[ppn] != PAGE_VALID or kernel.page_lpn[ppn] == NO_LPN:
            raise ValueError(f"page {ppn} is not a live valid page")
        lpn = int(kernel.page_lpn[ppn])
        content = self.flash.read(ppn)
        new_ppn = self.program_relocation_page(content, lpn)
        if int(kernel.map_ppn[lpn]) == ppn:
            kernel.map_ppn[lpn] = new_ppn
        self.flash.invalidate(ppn)
        self._invalid_blocks.add(ppn // self.geometry.pages_per_block)
        return new_ppn

    def relocate_stale_page(self, record: StalePage) -> int:
        """Preserve a stale page by copying it out of a GC victim block.

        The copy is immediately marked invalid: it is retained history,
        not live data, and must never be mistaken for a mapped page by a
        later GC pass.
        """
        new_ppn = self.program_relocation_page(record.content, record.lpn)
        self.flash.invalidate(new_ppn)
        del self._stale[record.ppn]
        self._unindex_stale(record.ppn)
        record.ppn = new_ppn
        record.relocations += 1
        self._stale[new_ppn] = record
        new_block = new_ppn // self.geometry.pages_per_block
        self._stale_by_block.setdefault(new_block, {})[new_ppn] = record
        self._invalid_blocks.add(new_block)
        self.stats.stale_pages_relocated += 1
        self.retention_policy.on_relocate(record, new_ppn)
        return new_ppn

    def release_stale_page(self, record: StalePage) -> None:
        """Allow a stale page's data to be destroyed by the upcoming erase."""
        record.released = True
        self._stale.pop(record.ppn, None)
        self._unindex_stale(record.ppn)
        self.stats.stale_pages_released += 1
        self.retention_policy.on_release(record)

    def _unindex_stale(self, ppn: int) -> None:
        """Drop ``ppn`` from the per-block stale index."""
        block_index = ppn // self.geometry.pages_per_block
        bucket = self._stale_by_block.get(block_index)
        if bucket is not None:
            bucket.pop(ppn, None)
            if not bucket:
                del self._stale_by_block[block_index]

    def stale_records_in_block(self, block_index: int) -> List[StalePage]:
        """Stale records whose current physical page lives in ``block_index``."""
        bucket = self._stale_by_block.get(block_index)
        return list(bucket.values()) if bucket else []

    def finish_block_erase(self, block: FlashBlock) -> None:
        """Erase ``block`` and return it to the free pool."""
        self.flash.erase(block.block_index)
        self._invalid_blocks.discard(block.block_index)
        self.allocator.release(block.block_index)

    def signal_reclaim_pressure(self, needed_pages: int) -> int:
        """Forward capacity pressure to the retention policy."""
        self.stats.reclaim_pressure_events += 1
        return self.retention_policy.reclaim_pressure(self, needed_pages)
