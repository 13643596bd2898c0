"""Tests for the retention manager and the NVMe-oE offload engine."""

import pytest

from repro.core.config import RSSDConfig
from repro.core.offload import OffloadEngine
from repro.core.retention import RetentionManager
from repro.core.rssd import RSSD
from repro.nvmeoe.link import NetworkLink
from repro.nvmeoe.nic import EmbeddedNIC
from repro.nvmeoe.remote import TieredRemote
from repro.sim import SimClock
from repro.ssd.flash import PageContent
from repro.ssd.ftl import InvalidationCause, StalePage


def stale(lpn, version=1, cause=InvalidationCause.OVERWRITE, written=0, invalidated=10):
    return StalePage(
        lpn=lpn,
        ppn=lpn + 100,
        content=PageContent.synthetic(fingerprint=lpn * 10 + version, length=4096),
        written_us=written,
        invalidated_us=invalidated,
        cause=cause,
        version=version,
    )


def make_engine(retention, batch_pages=8):
    clock = SimClock()
    link = NetworkLink(clock, bandwidth_gbps=1.0, propagation_us=50.0)
    nic = EmbeddedNIC(clock, link)
    remote = TieredRemote()
    return OffloadEngine(clock, nic, remote, retention, batch_pages=batch_pages)


class TestRetentionManager:
    def test_retains_everything_by_default(self):
        manager = RetentionManager()
        record = stale(1)
        manager.on_invalidate(record)
        assert not manager.may_release(record)
        assert manager.pending_pages == 1
        assert manager.archived_versions == 1

    def test_trimmed_data_also_retained(self):
        manager = RetentionManager()
        record = stale(2, cause=InvalidationCause.TRIM)
        manager.on_invalidate(record)
        assert not manager.may_release(record)

    def test_retain_trimmed_can_be_disabled_for_ablation(self):
        manager = RetentionManager(retain_trimmed=False)
        trimmed = stale(2, cause=InvalidationCause.TRIM)
        overwritten = stale(3, cause=InvalidationCause.OVERWRITE)
        manager.on_invalidate(trimmed)
        manager.on_invalidate(overwritten)
        assert manager.may_release(trimmed)
        assert not manager.may_release(overwritten)

    def test_release_only_after_offload(self):
        manager = RetentionManager()
        record = stale(1)
        manager.on_invalidate(record)
        manager.mark_offloaded([record])
        assert manager.may_release(record)
        manager.on_release(record)
        assert manager.stats.pages_released_after_offload == 1
        assert manager.stats.data_loss_pages == 0

    def test_unoffloaded_release_counted_as_data_loss(self):
        manager = RetentionManager()
        record = stale(1)
        manager.on_invalidate(record)
        manager.on_release(record)
        assert manager.stats.data_loss_pages == 1

    def test_take_pending_in_time_order(self):
        manager = RetentionManager()
        records = [stale(lpn, invalidated=lpn * 10) for lpn in range(5)]
        for record in records:
            manager.on_invalidate(record)
        batch = manager.take_pending(3)
        assert [record.lpn for record in batch] == [0, 1, 2]
        assert manager.pending_pages == 2

    def test_version_archive_lookup(self):
        manager = RetentionManager()
        manager.on_invalidate(stale(7, version=1, written=100))
        manager.on_invalidate(stale(7, version=2, written=200))
        versions = manager.versions_for(7)
        assert [record.version for record in versions] == [1, 2]
        best = manager.latest_version_before(7, 150)
        assert best is not None and best.version == 1
        assert manager.latest_version_before(7, 50) is None
        assert manager.retained_lbas() == [7]

    def test_take_pending_validates_argument(self):
        with pytest.raises(ValueError):
            RetentionManager().take_pending(0)


class TestOffloadEngine:
    def test_drain_marks_records_offloaded_and_stores_remotely(self):
        manager = RetentionManager()
        engine = make_engine(manager, batch_pages=4)
        records = [stale(lpn) for lpn in range(10)]
        for record in records:
            manager.on_invalidate(record)
        shipped = engine.drain_all()
        assert shipped == 10
        assert all(record.offloaded for record in records)
        assert manager.pending_pages == 0
        assert engine.stats.pages_offloaded == 10
        assert engine.stats.page_capsules == 3  # 4 + 4 + 2
        assert engine.remote.stored_entries == 10

    def test_drain_respects_max_pages(self):
        manager = RetentionManager()
        engine = make_engine(manager, batch_pages=4)
        for lpn in range(10):
            manager.on_invalidate(stale(lpn))
        shipped = engine.drain(max_pages=5)
        assert shipped == 5
        assert manager.pending_pages == 5

    def test_compression_reduces_wire_bytes(self):
        manager = RetentionManager()
        engine = make_engine(manager)
        for lpn in range(8):
            record = stale(lpn)
            manager.on_invalidate(record)
        engine.drain_all()
        assert engine.stats.compressed_bytes < engine.stats.raw_bytes
        assert engine.stats.compression_ratio < 1.0

    def test_capsules_arrive_in_time_order(self):
        manager = RetentionManager()
        engine = make_engine(manager, batch_pages=2)
        for lpn in range(10):
            manager.on_invalidate(stale(lpn))
        engine.drain_all()
        assert engine.remote.verify_time_order()

    def test_reclaim_pressure_drains_through_manager(self):
        manager = RetentionManager()
        engine = make_engine(manager, batch_pages=4)
        manager.attach_offload_engine(engine)
        for lpn in range(6):
            manager.on_invalidate(stale(lpn))
        released = manager.reclaim_pressure(ftl=None, needed_pages=3)
        assert released >= 3
        assert manager.stats.reclaim_pressure_events == 1

    def test_fetch_pages_returns_future_completion(self):
        manager = RetentionManager()
        engine = make_engine(manager)
        completion = engine.fetch_pages(100)
        assert completion > engine.clock.now_us
        assert engine.fetch_pages(0) == float(engine.clock.now_us)
        with pytest.raises(ValueError):
            engine.fetch_pages(-1)

    def test_log_segment_offload(self):
        from repro.core.oplog import OperationLog
        from repro.ssd.device import HostOp, HostOpType

        manager = RetentionManager()
        engine = make_engine(manager)
        log = OperationLog(segment_entries=4)
        for index in range(10):
            log.on_host_op(
                HostOp(index, HostOpType.WRITE, index, 1, 100 + index, 5.0,
                       PageContent.synthetic(index, 4096), 1)
            )
        shipped = engine.offload_log_segments(log)
        assert shipped == 2
        assert all(segment.offloaded for segment in log.sealed_segments())
        assert engine.stats.log_entries_offloaded == 8
        # Second call ships nothing new.
        assert engine.offload_log_segments(log) == 0


class TestRSSDRetentionInvariant:
    def test_no_data_loss_under_heavy_overwrite(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        for round_index in range(30):
            for lba in range(32):
                rssd.write(lba, PageContent.synthetic(round_index * 100 + lba, 4096))
        rssd.drain_offload_queue()
        assert rssd.data_loss_pages == 0
        # Every superseded version is accounted for either locally or remotely.
        assert rssd.retention.stats.stale_pages_seen > 0
        assert rssd.retained_pages_remote > 0
