"""Tests for the SSD block device."""

import pytest

from repro.sim import SimClock
from repro.ssd.device import SSD, HostOp, HostOpType
from repro.ssd.errors import OutOfRangeError
from repro.ssd.flash import PageContent
from repro.ssd.geometry import SSDGeometry
from repro.ssd.latency import LatencyModel


class RecordingObserver:
    def __init__(self):
        self.ops = []

    def on_host_op(self, op: HostOp) -> None:
        self.ops.append(op)


class TestReadWrite:
    def test_write_then_read_bytes_roundtrip(self, ssd):
        ssd.write(0, b"hello device")
        assert ssd.read(0).startswith(b"hello device")

    def test_unwritten_pages_read_as_zeros(self, ssd):
        assert ssd.read(5) == b"\x00" * ssd.page_size

    def test_multi_page_write_spans_consecutive_lbas(self, ssd):
        payload = bytes(range(256)) * 33  # > one page
        ssd.write(10, payload)
        assert ssd.read_content(10) is not None
        assert ssd.read_content(11) is not None
        data = ssd.read(10, 3)
        assert data[: len(payload)] == payload

    def test_write_page_content_descriptor(self, ssd, content_factory):
        ssd.write(3, content_factory(77))
        assert ssd.read_content(3).fingerprint == 77
        # Descriptor-only pages read back as zeros (no payload carried).
        assert ssd.read(3) == b"\x00" * ssd.page_size

    def test_write_sequence_of_contents(self, ssd, content_factory):
        ssd.write(0, [content_factory(1), content_factory(2)])
        assert ssd.read_content(0).fingerprint == 1
        assert ssd.read_content(1).fingerprint == 2

    def test_empty_write_rejected(self, ssd):
        with pytest.raises(ValueError):
            ssd.write(0, b"")
        with pytest.raises(ValueError):
            ssd.write(0, [])

    def test_out_of_range_rejected(self, ssd):
        with pytest.raises(OutOfRangeError):
            ssd.read(ssd.capacity_pages)
        with pytest.raises(OutOfRangeError):
            ssd.write(ssd.capacity_pages - 1, b"x" * (2 * ssd.page_size))

    def test_overwrite_returns_latest_data(self, ssd):
        ssd.write(2, b"version one")
        ssd.write(2, b"version two")
        assert ssd.read(2).startswith(b"version two")


class TestTrim:
    def test_trim_unmaps_pages(self, ssd):
        ssd.write(4, b"to be trimmed")
        records = ssd.trim(4)
        assert len(records) == 1
        assert ssd.read(4) == b"\x00" * ssd.page_size

    def test_trim_unmapped_returns_no_records(self, ssd):
        assert ssd.trim(8, 2) == []

    def test_eager_trim_gc_erases_stale_data(self, tiny_geometry):
        ssd = SSD(geometry=tiny_geometry, eager_trim_gc=True)
        # Fill more than one block so the trimmed pages live in a closed
        # block that GC is allowed to reclaim.
        for lba in range(20):
            ssd.write(lba, b"secret data %d" % lba)
        ssd.trim(0, 16)
        # With commodity trim handling the stale pages are gone after the
        # trim-triggered GC pass -- the lever the trimming attack pulls.
        assert ssd.ftl.stale_pages == 0

    def test_trim_without_eager_gc_keeps_stale_until_gc(self, tiny_geometry):
        ssd = SSD(geometry=tiny_geometry, eager_trim_gc=False)
        for lba in range(20):
            ssd.write(lba, b"secret data %d" % lba)
        ssd.trim(0, 16)
        assert ssd.ftl.stale_pages == 16


class TestFlushAndMetrics:
    def test_flush_reports_destaged_pages(self, ssd):
        for lba in range(8):
            ssd.write(lba, b"x")
        destaged = ssd.flush()
        assert destaged >= 0
        assert ssd.metrics.host_flushes == 1

    def test_metrics_count_host_operations(self, ssd):
        ssd.write(0, b"a")
        ssd.write(1, b"b")
        ssd.read(0)
        ssd.trim(1)
        assert ssd.metrics.host_writes == 2
        assert ssd.metrics.host_reads == 1
        assert ssd.metrics.host_trims == 1
        assert ssd.metrics.host_pages_written == 2

    def test_write_amplification_at_least_one_under_pressure(self, tiny_geometry):
        ssd = SSD(geometry=tiny_geometry)
        # Overwrite a small working set many times to force GC.
        for round_index in range(40):
            for lba in range(16):
                ssd.write(lba, PageContent.synthetic(round_index * 100 + lba, 4096))
        assert ssd.metrics.write_amplification >= 1.0
        assert ssd.metrics.gc_invocations > 0

    def test_latency_recorded_per_op(self, ssd):
        ssd.write(0, b"payload")
        ssd.read(0)
        assert ssd.metrics.latency["write"].count == 1
        assert ssd.metrics.latency["read"].count == 1
        assert ssd.metrics.latency["write"].mean_us > 0


class TestClockAdvancement:
    def test_operations_advance_the_clock(self, tiny_geometry):
        clock = SimClock()
        ssd = SSD(geometry=tiny_geometry, clock=clock)
        ssd.write(0, b"data")
        after_write = clock.now_us
        assert after_write > 0
        ssd.read(0)
        assert clock.now_us > after_write

    def test_op_overhead_added_to_latency(self, tiny_geometry):
        plain = SSD(geometry=tiny_geometry)
        plain.write(0, b"data")
        base_latency = plain.metrics.latency["write"].mean_us

        with_overhead = SSD(geometry=tiny_geometry)
        with_overhead.add_op_overhead(HostOpType.WRITE, 25.0)
        with_overhead.write(0, b"data")
        assert with_overhead.metrics.latency["write"].mean_us == pytest.approx(
            base_latency + 25.0
        )

    def test_negative_overhead_rejected(self, ssd):
        with pytest.raises(ValueError):
            ssd.add_op_overhead(HostOpType.WRITE, -1.0)


class TestObservers:
    def test_observers_see_all_ops_in_order(self, ssd):
        observer = RecordingObserver()
        ssd.add_observer(observer)
        ssd.write(0, b"a")
        ssd.read(0)
        ssd.trim(0)
        assert [op.op_type for op in observer.ops] == [
            HostOpType.WRITE,
            HostOpType.READ,
            HostOpType.TRIM,
        ]
        assert [op.sequence for op in observer.ops] == sorted(
            op.sequence for op in observer.ops
        )

    def test_observer_sees_stream_ids(self, ssd):
        observer = RecordingObserver()
        ssd.add_observer(observer)
        ssd.write(0, b"a", stream_id=7)
        assert observer.ops[0].stream_id == 7

    def test_remove_observer(self, ssd):
        observer = RecordingObserver()
        ssd.add_observer(observer)
        ssd.remove_observer(observer)
        ssd.write(0, b"a")
        assert observer.ops == []


class TestConstruction:
    def test_constructor_produces_configured_device(self):
        clock = SimClock()
        ssd = SSD(
            geometry=SSDGeometry.tiny(),
            latency=LatencyModel.cosmos_openssd(),
            clock=clock,
            gc_threshold_blocks=5,
            eager_trim_gc=False,
        )
        assert ssd.geometry.total_pages == 512
        assert ssd.clock is clock
        assert ssd.ftl.gc_threshold_blocks == 5
        assert ssd.eager_trim_gc is False
