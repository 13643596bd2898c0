"""The array-backed simulation kernel.

:class:`SimKernel` is the single authoritative store for the simulator's
hot state, laid out as contiguous struct-of-arrays (numpy) instead of
the dict-of-dataclass representation the first five PRs grew up on:

* **flash plane** -- per physical page: state, logical owner, program
  timestamp and the :class:`~repro.ssd.flash.PageContent` descriptor
  (an object column, so content identity survives the refactor
  bit-for-bit; each page's entropy rides on its descriptor);
* **block plane** -- per erase block: program frontier, valid/invalid
  counters, erase counts and the newest program timestamp;
* **mapping plane** -- per logical page: the LPN→PPN translation as an
  int array with ``-1`` as the "unmapped" sentinel (the validity mask
  that replaced ``Dict[int, PageMetadata]``), the write timestamp and
  the monotonically increasing version counter.

The object layers above (:class:`~repro.ssd.flash.FlashArray`,
:class:`~repro.ssd.ftl.FTL`, :class:`~repro.ssd.gc.GarbageCollector`)
are views and orchestration over these arrays: scalar accessors keep the
historical per-op semantics and exceptions, while the batch surfaces
(``write_run`` / ``read_run`` / ``trim_run``) operate on whole array
slices per call.  Nothing observable moved: page placement, counters,
timestamps and content identity are exactly what the dict-backed
implementation produced, which the batch-equivalence and differential
property suites pin down.

Invariants the kernel maintains (and the test suite cross-checks
against full page walks):

* ``block_next_off[b]`` pages of block ``b`` are programmed; pages are
  programmed strictly in order inside a block (NAND constraint);
* ``block_valid[b] + block_invalid[b] <= block_next_off[b]`` with
  equality outside the erased state;
* ``map_ppn[lpn] >= 0`` implies ``page_state[map_ppn[lpn]] == VALID``
  and ``page_lpn[map_ppn[lpn]] == lpn``;
* ``map_version`` never decreases, and survives trims (a re-written
  page continues the version sequence, which recovery relies on).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ssd.geometry import SSDGeometry

#: Page-state encoding used across every array consumer.  The values
#: are stable (persisted nowhere, but relied on by bincount-style
#: accounting) -- keep in sync with :class:`repro.ssd.flash.PageState`.
PAGE_FREE = 0
PAGE_VALID = 1
PAGE_INVALID = 2

#: Sentinel for "no logical owner" / "unmapped" in int columns.
NO_LPN = -1
NO_PPN = -1


class SimKernel:
    """Struct-of-arrays state for one simulated SSD.

    The kernel is deliberately mechanism-free: it enforces nothing and
    decides nothing.  The NAND state machine lives in
    :class:`~repro.ssd.flash.FlashArray`, placement and retention in the
    FTL/GC -- the kernel only gives them a layout they can operate on in
    bulk.
    """

    __slots__ = (
        "geometry",
        "page_state",
        "page_lpn",
        "page_ts",
        "page_content",
        "block_next_off",
        "block_valid",
        "block_invalid",
        "block_erase",
        "block_last_ts",
        "map_ppn",
        "map_written_us",
        "map_version",
        "mapped_count",
        "payload_pages",
    )

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        n_pages = geometry.total_pages
        n_blocks = geometry.total_blocks
        n_logical = geometry.exported_pages

        # -- flash plane (per physical page) ------------------------------
        self.page_state = np.zeros(n_pages, dtype=np.int8)
        self.page_lpn = np.full(n_pages, NO_LPN, dtype=np.int64)
        self.page_ts = np.zeros(n_pages, dtype=np.int64)
        #: The PageContent descriptor programmed into each page (None
        #: for free pages).  An object column: identity is preserved so
        #: reads return exactly the object that was written.
        self.page_content = np.empty(n_pages, dtype=object)

        # -- block plane (per erase block) --------------------------------
        self.block_next_off = np.zeros(n_blocks, dtype=np.int32)
        self.block_valid = np.zeros(n_blocks, dtype=np.int32)
        self.block_invalid = np.zeros(n_blocks, dtype=np.int32)
        self.block_erase = np.zeros(n_blocks, dtype=np.int64)
        self.block_last_ts = np.zeros(n_blocks, dtype=np.int64)

        # -- mapping plane (per logical page) ------------------------------
        self.map_ppn = np.full(n_logical, NO_PPN, dtype=np.int64)
        self.map_written_us = np.zeros(n_logical, dtype=np.int64)
        #: Per-LPN version counter.  Increments on every write and is
        #: NOT reset by trim: version numbers identify page generations
        #: across the whole device lifetime (recovery depends on this).
        self.map_version = np.zeros(n_logical, dtype=np.int64)

        #: Live logical pages (cheap ``mapped_pages`` without a scan).
        self.mapped_count = 0
        #: Programmed pages currently carrying a real ``payload``.  The
        #: read fast path returns zero-filled buffers without touching
        #: the object column while this is 0 (descriptor-only traces).
        self.payload_pages = 0

    # -- scalar flash transitions -----------------------------------------
    #
    # Used by the per-op path and by GC relocation; validation stays in
    # FlashArray so errors keep their historical types and messages.

    def program_page(self, block_index: int, content, lpn: Optional[int], timestamp_us: int) -> int:
        """Program the next free page of ``block_index``; returns the ppn."""
        offset = int(self.block_next_off[block_index])
        ppn = block_index * self.geometry.pages_per_block + offset
        self.page_state[ppn] = PAGE_VALID
        self.page_lpn[ppn] = NO_LPN if lpn is None else lpn
        self.page_ts[ppn] = timestamp_us
        self.page_content[ppn] = content
        if content.payload is not None:
            self.payload_pages += 1
        self.block_next_off[block_index] = offset + 1
        self.block_valid[block_index] += 1
        if timestamp_us > self.block_last_ts[block_index]:
            self.block_last_ts[block_index] = timestamp_us
        return ppn

    def invalidate_page(self, ppn: int) -> None:
        """Flip a VALID page to INVALID (content stays readable)."""
        block_index = ppn // self.geometry.pages_per_block
        self.page_state[ppn] = PAGE_INVALID
        self.block_valid[block_index] -= 1
        self.block_invalid[block_index] += 1

    def erase_block(self, block_index: int) -> None:
        """Reset every page of the block and bump its erase count."""
        pages_per_block = self.geometry.pages_per_block
        start = block_index * pages_per_block
        end = start + pages_per_block
        if self.payload_pages:
            for content in self.page_content[start:end]:
                if content is not None and content.payload is not None:
                    self.payload_pages -= 1
        self.page_state[start:end] = PAGE_FREE
        self.page_lpn[start:end] = NO_LPN
        self.page_ts[start:end] = 0
        self.page_content[start:end] = None
        self.block_next_off[block_index] = 0
        self.block_valid[block_index] = 0
        self.block_invalid[block_index] = 0
        self.block_erase[block_index] += 1
        self.block_last_ts[block_index] = 0

    # -- bulk flash transitions --------------------------------------------

    def program_run(
        self,
        block_index: int,
        contents: List,
        lpns: np.ndarray,
        timestamp_us: int,
    ) -> np.ndarray:
        """Program ``len(contents)`` pages into ``block_index`` in order.

        The caller guarantees the block has room (the FTL chunks runs at
        open-block boundaries).  Returns the programmed ppns.
        """
        count = len(contents)
        offset = int(self.block_next_off[block_index])
        start = block_index * self.geometry.pages_per_block + offset
        ppns = np.arange(start, start + count, dtype=np.int64)
        self.page_state[start : start + count] = PAGE_VALID
        self.page_lpn[start : start + count] = lpns
        self.page_ts[start : start + count] = timestamp_us
        self.page_content[start : start + count] = contents
        payloads = 0
        for c in contents:
            if c.payload is not None:
                payloads += 1
        if payloads:
            self.payload_pages += payloads
        self.block_next_off[block_index] = offset + count
        self.block_valid[block_index] += count
        if timestamp_us > self.block_last_ts[block_index]:
            self.block_last_ts[block_index] = timestamp_us
        return ppns

    def invalidate_pages(self, ppns: np.ndarray) -> None:
        """Flip a batch of VALID pages to INVALID with bulk counter updates."""
        self.page_state[ppns] = PAGE_INVALID
        blocks = ppns // self.geometry.pages_per_block
        np.subtract.at(self.block_valid, blocks, 1)
        np.add.at(self.block_invalid, blocks, 1)

    # -- mapping plane -----------------------------------------------------

    def read_ppns(self, start_lpn: int, npages: int) -> np.ndarray:
        """The PPN column for a contiguous LPN run (``-1`` = unmapped)."""
        return self.map_ppn[start_lpn : start_lpn + npages]

    # -- vectorized accounting ---------------------------------------------

    def state_counts(self) -> Tuple[int, int, int]:
        """(free, valid, invalid) page counts across the whole array."""
        counts = np.bincount(self.page_state, minlength=3)
        return int(counts[PAGE_FREE]), int(counts[PAGE_VALID]), int(counts[PAGE_INVALID])

    def count_state_in_block(self, block_index: int, state: int) -> int:
        """Authoritative page walk for one block (tests cross-check this)."""
        pages_per_block = self.geometry.pages_per_block
        start = block_index * pages_per_block
        return int(np.count_nonzero(self.page_state[start : start + pages_per_block] == state))
