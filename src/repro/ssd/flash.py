"""NAND flash array model.

The array enforces the NAND state machine: pages are programmed once
per erase cycle, in order inside a block, and data disappears only when
the whole block is erased.  This "erase-before-rewrite" property is the
physical foundation of every retention-based ransomware defense in the
paper -- overwritten data is *not* destroyed by the overwrite itself.

Since the kernel refactor the authoritative page/block state lives in
:class:`~repro.ssd.kernel.SimKernel` as struct-of-arrays columns.
:class:`FlashPage` and :class:`FlashBlock` are flyweight *views* over
those columns: they keep the historical object API (``page.state``,
``block.valid_pages``, ...) for tests, GC and the wear leveler, while
the hot batch paths bypass them entirely and operate on the arrays.

Page payloads are represented by :class:`PageContent`.  Small working
sets (file-system examples, recovery correctness tests) carry real
bytes; large trace-driven experiments carry only a compact fingerprint
plus entropy/compressibility classes so terabyte-scale behaviour can be
simulated in memory.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.compat import DATACLASS_SLOTS, field_setters
from repro.ssd.errors import FlashStateError
from repro.ssd.geometry import SSDGeometry
from repro.ssd.kernel import NO_LPN, PAGE_FREE, PAGE_INVALID, PAGE_VALID, SimKernel


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of ``data`` in bits per byte (0.0 for empty input)."""
    if not data:
        return 0.0
    # Sum the terms in the order byte values first occur in ``data``:
    # float addition is not associative, and this order is part of the
    # determinism contract (docs/ARCHITECTURE.md).
    _, first, counts = np.unique(
        np.frombuffer(data, np.uint8), return_index=True, return_counts=True
    )
    total = len(data)
    entropy = 0.0
    for count in counts[np.argsort(first)].tolist():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


@dataclass(frozen=True, **DATACLASS_SLOTS)
class PageContent:
    """Compact description of the data stored in one flash page.

    Attributes
    ----------
    fingerprint:
        64-bit content hash.  Two pages with the same fingerprint are
        treated as holding identical data; recovery correctness is
        checked against fingerprints (and against ``payload`` when one
        is carried).
    length:
        Number of valid bytes (<= page size).
    entropy:
        Shannon entropy estimate in bits/byte.  Encrypted data sits near
        8.0; typical user data sits well below.
    compress_ratio:
        Expected compressed size / original size in (0, 1].  Encrypted
        or already-compressed data is ~1.0.
    payload:
        Optional real bytes, carried only for small working sets.
    """

    fingerprint: int
    length: int
    entropy: float = 4.0
    compress_ratio: float = 0.5
    payload: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0.0 <= self.entropy <= 8.0:
            raise ValueError("entropy must be within [0, 8] bits per byte")
        if not 0.0 < self.compress_ratio <= 1.0:
            raise ValueError("compress_ratio must be within (0, 1]")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageContent":
        """Build content carrying real bytes, deriving entropy and ratio."""
        digest = hashlib.blake2b(data, digest_size=8).digest()
        entropy = shannon_entropy(data)
        # Entropy is a serviceable proxy for compressibility: nearly
        # incompressible data has entropy close to 8 bits/byte.
        ratio = max(0.05, min(1.0, entropy / 8.0))
        return cls(
            fingerprint=int.from_bytes(digest, "big"),
            length=len(data),
            entropy=entropy,
            compress_ratio=ratio,
            payload=data,
        )

    @classmethod
    def synthetic(
        cls,
        fingerprint: int,
        length: int,
        entropy: float = 4.0,
        compress_ratio: float = 0.5,
    ) -> "PageContent":
        """Build descriptor-only content for trace-driven simulation."""
        return cls(
            fingerprint=fingerprint,
            length=length,
            entropy=entropy,
            compress_ratio=compress_ratio,
            payload=None,
        )

    @classmethod
    def synthetic_run(
        cls,
        fingerprints: List[int],
        length: int,
        entropy: float = 4.0,
        compress_ratio: float = 0.5,
    ) -> List["PageContent"]:
        """Bulk :meth:`synthetic` for a page run sharing one descriptor.

        The replayer materialises one content object per written page,
        so construction cost is a measurable slice of trace replay.  The
        shared attributes are validated once up front, then the
        instances are filled directly through the fields' setters
        (:func:`repro.compat.field_setters`), without re-running
        per-field validation or the frozen ``__setattr__``.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        if not 0.0 <= entropy <= 8.0:
            raise ValueError("entropy must be within [0, 8] bits per byte")
        if not 0.0 < compress_ratio <= 1.0:
            raise ValueError("compress_ratio must be within (0, 1]")
        new = cls.__new__
        set_fingerprint, set_length, set_entropy, set_ratio, set_payload = _CONTENT_SETTERS
        run: List["PageContent"] = []
        append = run.append
        for fingerprint in fingerprints:
            content = new(cls)
            set_fingerprint(content, fingerprint)
            set_length(content, length)
            set_entropy(content, entropy)
            set_ratio(content, compress_ratio)
            set_payload(content, None)
            append(content)
        return run

    @property
    def looks_encrypted(self) -> bool:
        """Heuristic used by entropy-based detectors."""
        return self.entropy >= 7.2

    def compressed_size(self) -> int:
        """Estimated size after compression, in bytes."""
        return max(1, int(self.length * self.compress_ratio))


_CONTENT_SETTERS = field_setters(
    PageContent, ("fingerprint", "length", "entropy", "compress_ratio", "payload")
)


class PageState(enum.Enum):
    """State of a physical flash page."""

    FREE = "free"
    VALID = "valid"
    INVALID = "invalid"


#: Kernel int codes <-> PageState enum members.
_INT_TO_STATE = {PAGE_FREE: PageState.FREE, PAGE_VALID: PageState.VALID, PAGE_INVALID: PageState.INVALID}
_STATE_TO_INT = {PageState.FREE: PAGE_FREE, PageState.VALID: PAGE_VALID, PageState.INVALID: PAGE_INVALID}


class FlashPage:
    """View of one physical flash page over the kernel's arrays."""

    __slots__ = ("_kernel", "ppn")

    def __init__(self, kernel: SimKernel, ppn: int) -> None:
        self._kernel = kernel
        self.ppn = ppn

    @property
    def state(self) -> PageState:
        return _INT_TO_STATE[int(self._kernel.page_state[self.ppn])]

    @property
    def content(self) -> Optional[PageContent]:
        return self._kernel.page_content[self.ppn]

    @property
    def lpn(self) -> Optional[int]:
        lpn = int(self._kernel.page_lpn[self.ppn])
        return None if lpn == NO_LPN else lpn


class FlashBlock:
    """View of one erase block over the kernel's arrays.

    ``valid_count`` / ``invalid_count`` are maintained incrementally by
    the kernel so GC victim selection does not have to walk every page
    of every block; :meth:`count_state` remains as the slow,
    authoritative cross-check used by the tests.
    """

    __slots__ = ("_kernel", "_array", "block_index")

    def __init__(self, kernel: SimKernel, array: "FlashArray", block_index: int) -> None:
        self._kernel = kernel
        self._array = array
        self.block_index = block_index

    @property
    def pages(self) -> List[FlashPage]:
        start = self.block_index * self._kernel.geometry.pages_per_block
        return [self._array.page(start + offset) for offset in range(self._kernel.geometry.pages_per_block)]

    @property
    def erase_count(self) -> int:
        return int(self._kernel.block_erase[self.block_index])

    @erase_count.setter
    def erase_count(self, value: int) -> None:
        # Direct assignment (tests / wear injection) bypasses the wear
        # histogram, exactly as mutating the old dataclass field did;
        # use FlashArray.set_erase_count to keep statistics consistent.
        self._kernel.block_erase[self.block_index] = value

    @property
    def next_program_offset(self) -> int:
        return int(self._kernel.block_next_off[self.block_index])

    @property
    def valid_count(self) -> int:
        return int(self._kernel.block_valid[self.block_index])

    @property
    def invalid_count(self) -> int:
        return int(self._kernel.block_invalid[self.block_index])

    @property
    def last_program_timestamp_us(self) -> int:
        return int(self._kernel.block_last_ts[self.block_index])

    @property
    def size(self) -> int:
        return self._kernel.geometry.pages_per_block

    @property
    def is_erased(self) -> bool:
        """True if no page in the block has been programmed since erase."""
        return self.next_program_offset == 0

    def count_state(self, state: PageState) -> int:
        """Number of pages currently in ``state`` (authoritative page walk)."""
        return self._kernel.count_state_in_block(self.block_index, _STATE_TO_INT[state])

    @property
    def valid_pages(self) -> int:
        return self.valid_count

    @property
    def invalid_pages(self) -> int:
        return self.invalid_count

    @property
    def free_pages(self) -> int:
        return self.size - self.next_program_offset

    def iter_pages(self, state: Optional[PageState] = None) -> Iterator[FlashPage]:
        """Iterate pages, optionally filtered by state."""
        kernel = self._kernel
        pages_per_block = kernel.geometry.pages_per_block
        start = self.block_index * pages_per_block
        if state is None:
            for ppn in range(start, start + pages_per_block):
                yield self._array.page(ppn)
        else:
            code = _STATE_TO_INT[state]
            window = kernel.page_state[start : start + pages_per_block]
            for offset in np.nonzero(window == code)[0]:
                yield self._array.page(start + int(offset))


class FlashArray:
    """The full NAND array: every block and page of the device.

    The array is deliberately policy-free -- it enforces only the NAND
    constraints (program erased pages in order, erase whole blocks) and
    leaves placement, mapping, and retention to the FTL above it.  All
    state lives in the shared :class:`~repro.ssd.kernel.SimKernel`.
    """

    def __init__(self, geometry: SSDGeometry, kernel: Optional[SimKernel] = None) -> None:
        self.geometry = geometry
        self.kernel = kernel if kernel is not None else SimKernel(geometry)
        self._blocks = [FlashBlock(self.kernel, self, index) for index in range(geometry.total_blocks)]
        self._pages: Dict[int, FlashPage] = {}
        # Incremental wear statistics: erase counts only change in
        # erase(), so the histogram keeps min/max/total O(1) -- the wear
        # leveler consults the spread on every host command.
        self._total_erases = 0
        self._erase_histogram: Dict[int, int] = {0: len(self._blocks)}
        self._min_erase = 0
        self._max_erase = 0

    # -- addressing -------------------------------------------------------

    def block(self, block_index: int) -> FlashBlock:
        """Return the erase block with the given index."""
        self.geometry.check_block(block_index)
        return self._blocks[block_index]

    def page(self, ppn: int) -> FlashPage:
        """Return the physical page view with the given physical page number."""
        view = self._pages.get(ppn)
        if view is None:
            self.geometry.check_ppn(ppn)
            view = self._pages[ppn] = FlashPage(self.kernel, ppn)
        return view

    def iter_blocks(self) -> Iterator[FlashBlock]:
        return iter(self._blocks)

    # -- NAND operations ---------------------------------------------------

    def program(
        self,
        block_index: int,
        content: PageContent,
        lpn: Optional[int],
        timestamp_us: int,
    ) -> int:
        """Program the next free page of ``block_index``.

        Returns the physical page number that was programmed.  Raises
        :class:`FlashStateError` if the block is full.
        """
        return self.program_into(self.block(block_index), content, lpn, timestamp_us)

    def program_into(
        self,
        block: FlashBlock,
        content: PageContent,
        lpn: Optional[int],
        timestamp_us: int,
    ) -> int:
        """Program the next free page of an already-resolved ``block``.

        Same NAND state machine as :meth:`program`; the batched write
        path caches the open block across a run instead of re-resolving
        it per page.
        """
        kernel = self.kernel
        block_index = block.block_index
        offset = int(kernel.block_next_off[block_index])
        if offset >= self.geometry.pages_per_block:
            raise FlashStateError(f"block {block_index} has no free pages")
        ppn = block_index * self.geometry.pages_per_block + offset
        if kernel.page_state[ppn] != PAGE_FREE:
            state = _INT_TO_STATE[int(kernel.page_state[ppn])]
            raise FlashStateError(
                f"page {ppn} is {state.value}, expected free"
            )
        return kernel.program_page(block_index, content, lpn, timestamp_us)

    def program_run(
        self,
        block_index: int,
        contents: List[PageContent],
        lpns: np.ndarray,
        timestamp_us: int,
    ) -> np.ndarray:
        """Program a run of pages into ``block_index`` in a single array op.

        The batched write path uses this; the caller must have checked
        the block has ``len(contents)`` free pages (the FTL chunks runs
        at open-block boundaries, so it always holds).
        """
        kernel = self.kernel
        if int(kernel.block_next_off[block_index]) + len(contents) > self.geometry.pages_per_block:
            raise FlashStateError(f"block {block_index} has no free pages")
        return kernel.program_run(block_index, contents, lpns, timestamp_us)

    def read(self, ppn: int) -> PageContent:
        """Read the content of a programmed page."""
        self.geometry.check_ppn(ppn)
        content = self.kernel.page_content[ppn]
        if content is None:
            raise FlashStateError(f"page {ppn} has never been programmed")
        return content

    def invalidate(self, ppn: int) -> FlashPage:
        """Mark a valid page invalid (its data remains readable until erase)."""
        self.geometry.check_ppn(ppn)
        kernel = self.kernel
        if kernel.page_state[ppn] != PAGE_VALID:
            state = _INT_TO_STATE[int(kernel.page_state[ppn])]
            raise FlashStateError(
                f"page {ppn} is {state.value}, expected valid"
            )
        kernel.invalidate_page(ppn)
        return self.page(ppn)

    def erase(self, block_index: int) -> FlashBlock:
        """Erase a whole block, destroying the data of every page in it."""
        block = self.block(block_index)
        if block.valid_pages:
            raise FlashStateError(
                f"block {block_index} still holds {block.valid_pages} valid pages"
            )
        previous = block.erase_count
        self.kernel.erase_block(block_index)
        self._total_erases += 1
        histogram = self._erase_histogram
        histogram[previous] -= 1
        if histogram[previous] == 0:
            del histogram[previous]
        histogram[previous + 1] = histogram.get(previous + 1, 0) + 1
        if previous + 1 > self._max_erase:
            self._max_erase = previous + 1
        while self._min_erase not in histogram:
            self._min_erase += 1
        return block

    def set_erase_count(self, block_index: int, erase_count: int) -> None:
        """Force a block's erase count (tests / wear-injection only).

        Keeps the incremental wear histogram consistent; mutating
        ``block.erase_count`` directly would leave the O(1) statistics
        stale.  A :class:`~repro.ssd.ftl.BlockAllocator` holding the
        block in its free pool re-keys it lazily on the next
        allocation, so injected wear steers allocation order as it did
        with the old live scan.
        """
        if erase_count < 0:
            raise ValueError("erase_count must be non-negative")
        block = self.block(block_index)
        histogram = self._erase_histogram
        previous = block.erase_count
        self._total_erases += erase_count - previous
        histogram[previous] -= 1
        if histogram[previous] == 0:
            del histogram[previous]
        histogram[erase_count] = histogram.get(erase_count, 0) + 1
        self.kernel.block_erase[block_index] = erase_count
        self._max_erase = max(histogram)
        self._min_erase = min(histogram)

    # -- statistics ---------------------------------------------------------

    def total_erases(self) -> int:
        """Sum of erase counts across every block (O(1), kept incrementally)."""
        return self._total_erases

    def max_erase_count(self) -> int:
        """Highest per-block erase count (wear hot spot)."""
        return self._max_erase

    def min_erase_count(self) -> int:
        """Lowest per-block erase count."""
        return self._min_erase

    def state_counts(self) -> Dict[PageState, int]:
        """Count pages in each state across the whole array."""
        free, valid, invalid = self.kernel.state_counts()
        return {PageState.FREE: free, PageState.VALID: valid, PageState.INVALID: invalid}
