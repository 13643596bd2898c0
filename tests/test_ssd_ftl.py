"""Tests for the flash translation layer."""

import pytest

from repro.sim import SimClock
from repro.ssd.errors import CapacityExhaustedError, OutOfRangeError
from repro.ssd.flash import FlashArray, PageContent, PageState
from repro.ssd.ftl import (
    FTL,
    BlockAllocator,
    InvalidationCause,
    PassthroughRetention,
    StalePage,
)
from repro.ssd.geometry import SSDGeometry


def make_ftl(retention=None, gc_threshold=2):
    geometry = SSDGeometry.tiny()
    clock = SimClock()
    flash = FlashArray(geometry)
    ftl = FTL(geometry, flash, clock, retention_policy=retention, gc_threshold_blocks=gc_threshold)
    return ftl


def content(tag, entropy=3.0):
    return PageContent.synthetic(fingerprint=tag, length=4096, entropy=entropy)


class RecordingRetention(PassthroughRetention):
    """Passthrough policy that remembers every invalidation it saw."""

    def __init__(self):
        self.invalidated = []

    def on_invalidate(self, record):
        self.invalidated.append(record)


class TestMappingBasics:
    def test_unmapped_read_returns_none(self):
        ftl = make_ftl()
        assert ftl.read(0) is None

    def test_write_then_read(self):
        ftl = make_ftl()
        ftl.write(3, content(1))
        assert ftl.read(3).fingerprint == 1
        assert ftl.mapped_pages == 1

    def test_overwrite_updates_mapping_and_version(self):
        ftl = make_ftl()
        first = ftl.write(3, content(1))
        second = ftl.write(3, content(2))
        assert ftl.read(3).fingerprint == 2
        assert second.version == first.version + 1
        assert ftl.mapped_pages == 1

    def test_out_of_range_lpn_rejected(self):
        ftl = make_ftl()
        with pytest.raises(OutOfRangeError):
            ftl.write(ftl.geometry.exported_pages, content(1))
        with pytest.raises(OutOfRangeError):
            ftl.read(-1)

    def test_writes_to_distinct_lpns_use_distinct_ppns(self):
        ftl = make_ftl()
        first = ftl.write(0, content(1))
        second = ftl.write(1, content(2))
        assert first.ppn != second.ppn


class TestInvalidationAndStaleTracking:
    def test_overwrite_creates_stale_record(self):
        policy = RecordingRetention()
        ftl = make_ftl(retention=policy)
        ftl.write(5, content(1))
        ftl.write(5, content(2))
        assert ftl.stale_pages == 1
        assert len(policy.invalidated) == 1
        record = policy.invalidated[0]
        assert record.lpn == 5
        assert record.cause is InvalidationCause.OVERWRITE
        assert record.content.fingerprint == 1

    def test_trim_creates_stale_record_with_trim_cause(self):
        policy = RecordingRetention()
        ftl = make_ftl(retention=policy)
        ftl.write(5, content(1))
        record = ftl.trim(5)
        assert record is not None
        assert record.cause is InvalidationCause.TRIM
        assert ftl.read(5) is None
        assert ftl.mapped_pages == 0

    def test_trim_of_unmapped_lpn_returns_none(self):
        ftl = make_ftl()
        assert ftl.trim(7) is None

    def test_stale_versions_ordered_for_lpn(self):
        ftl = make_ftl()
        for version in range(1, 5):
            ftl.write(2, content(version))
        versions = ftl.stale_for_lpn(2)
        assert [record.content.fingerprint for record in versions] == [1, 2, 3]
        assert [record.version for record in versions] == [1, 2, 3]

    def test_stale_data_remains_readable_on_flash(self):
        ftl = make_ftl()
        ftl.write(2, content(1))
        ftl.write(2, content(2))
        record = ftl.stale_for_lpn(2)[0]
        assert ftl.flash.read(record.ppn).fingerprint == 1


class TestRelocationAndRelease:
    def test_relocate_valid_page_updates_mapping(self):
        ftl = make_ftl()
        meta = ftl.write(1, content(1))
        old_ppn = meta.ppn
        new_ppn = ftl.relocate_valid_page(old_ppn)
        assert ftl.lookup(1).ppn == new_ppn
        assert ftl.read(1).fingerprint == 1
        assert ftl.flash.page(old_ppn).state is PageState.INVALID

    def test_relocate_stale_page_keeps_record_and_marks_copy_invalid(self):
        ftl = make_ftl()
        ftl.write(1, content(1))
        ftl.write(1, content(2))
        record = ftl.stale_for_lpn(1)[0]
        old_ppn = record.ppn
        new_ppn = ftl.relocate_stale_page(record)
        assert record.ppn == new_ppn != old_ppn
        assert record.relocations == 1
        assert ftl.stale_record_at(new_ppn) is record
        assert ftl.stale_record_at(old_ppn) is None
        # The relocated copy is history, not live data.
        assert ftl.flash.page(new_ppn).state is PageState.INVALID
        assert ftl.flash.read(new_ppn).fingerprint == 1

    def test_release_stale_page_removes_tracking(self):
        ftl = make_ftl()
        ftl.write(1, content(1))
        ftl.write(1, content(2))
        record = ftl.stale_for_lpn(1)[0]
        ftl.release_stale_page(record)
        assert record.released
        assert ftl.stale_pages == 0


class TestBlockAllocator:
    def test_allocates_lowest_erase_count_first(self):
        geometry = SSDGeometry.tiny()
        flash = FlashArray(geometry)
        flash.block(0).erase_count = 5
        allocator = BlockAllocator(flash, gc_reserve_blocks=0)
        first = allocator.allocate()
        assert first != 0

    def test_wear_injected_after_construction_steers_allocation(self):
        """Heap entries are lazily re-keyed against live erase counts."""
        flash = FlashArray(SSDGeometry.tiny())
        allocator = BlockAllocator(flash, gc_reserve_blocks=0)
        flash.set_erase_count(0, 60)
        assert allocator.allocate() != 0

    def test_release_returns_block_to_pool(self):
        flash = FlashArray(SSDGeometry.tiny())
        allocator = BlockAllocator(flash, gc_reserve_blocks=0)
        block = allocator.allocate()
        before = allocator.free_blocks
        allocator.release(block)
        assert allocator.free_blocks == before + 1

    def test_double_release_rejected(self):
        flash = FlashArray(SSDGeometry.tiny())
        allocator = BlockAllocator(flash, gc_reserve_blocks=0)
        block = allocator.allocate()
        allocator.release(block)
        with pytest.raises(ValueError):
            allocator.release(block)

    def test_gc_reserve_blocks_host_allocations(self):
        flash = FlashArray(SSDGeometry.tiny())
        allocator = BlockAllocator(flash, gc_reserve_blocks=2)
        for _ in range(flash.geometry.total_blocks - 2):
            allocator.allocate()
        with pytest.raises(CapacityExhaustedError):
            allocator.allocate()
        # GC can still dig into the reserve.
        assert allocator.allocate(for_gc=True) is not None

    def test_exhaustion_raises(self):
        flash = FlashArray(SSDGeometry.tiny())
        allocator = BlockAllocator(flash, gc_reserve_blocks=0)
        for _ in range(flash.geometry.total_blocks):
            allocator.allocate()
        with pytest.raises(CapacityExhaustedError):
            allocator.allocate(for_gc=True)


class TestFreeAccounting:
    def test_free_pages_decrease_with_writes(self):
        ftl = make_ftl()
        before = ftl.free_pages
        ftl.write(0, content(1))
        assert ftl.free_pages == before - 1

    def test_needs_gc_when_pool_drains(self):
        ftl = make_ftl(gc_threshold=31)
        assert not ftl.needs_gc()  # 32 free blocks, threshold 31
        ftl.write(0, content(1))  # opening the first host block drops the pool to 31
        assert ftl.needs_gc()

    def test_closed_blocks_excludes_open_and_free(self):
        ftl = make_ftl()
        for lpn in range(20):
            ftl.write(lpn, content(lpn))
        closed = ftl.closed_blocks()
        assert all(block.next_program_offset > 0 for block in closed)
