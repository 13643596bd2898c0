"""Tests for wear leveling, the DRAM write buffer, and device metrics."""

import pytest

from repro.sim import SimClock
from repro.ssd.dram import WriteBuffer
from repro.ssd.flash import FlashArray, PageContent
from repro.ssd.ftl import FTL
from repro.ssd.geometry import SSDGeometry
from repro.ssd.metrics import DeviceMetrics, LatencyRecorder
from repro.ssd.wearlevel import StaticWearLeveler


class TestStaticWearLeveler:
    def test_does_not_run_below_threshold(self):
        flash = FlashArray(SSDGeometry.tiny())
        leveler = StaticWearLeveler(threshold=20)
        assert not leveler.should_run(flash)

    def test_fresh_array_has_no_wear_spread(self):
        flash = FlashArray(SSDGeometry.tiny())
        assert flash.max_erase_count() == flash.min_erase_count() == 0
        assert not StaticWearLeveler(threshold=1).should_run(flash)

    def test_spread_reflects_uneven_wear(self):
        flash = FlashArray(SSDGeometry.tiny())
        flash.set_erase_count(0, 50)
        assert (flash.max_erase_count(), flash.min_erase_count()) == (50, 0)
        assert StaticWearLeveler(threshold=50).should_run(flash)
        assert not StaticWearLeveler(threshold=51).should_run(flash)

    def test_migrates_cold_valid_pages(self):
        geometry = SSDGeometry.tiny()
        flash = FlashArray(geometry)
        ftl = FTL(geometry, flash, SimClock())
        # Fill a few blocks so there are closed (non-open) blocks holding
        # cold valid data for the leveler to migrate.
        for lpn in range(40):
            ftl.write(lpn, PageContent.synthetic(lpn, 4096))
        # Make the wear spread large so the leveler engages.
        for block_index in range(20, 25):
            flash.set_erase_count(block_index, 60)
        leveler = StaticWearLeveler(threshold=20)
        assert leveler.should_run(flash)
        moved = leveler.run(ftl)
        assert moved > 0
        # Live data still readable afterwards.
        for lpn in range(40):
            assert ftl.read(lpn).fingerprint == lpn

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StaticWearLeveler(threshold=0)
        with pytest.raises(ValueError):
            StaticWearLeveler(max_blocks_per_pass=0)


class TestWriteBuffer:
    def test_absorbs_writes_until_full(self):
        buffer = WriteBuffer(capacity_pages=4, drain_rate_pages_per_ms=0.001)
        results = [buffer.admit(now_us=0) for _ in range(6)]
        assert results[:4] == [True] * 4
        assert results[4] is False

    def test_drains_over_time(self):
        buffer = WriteBuffer(capacity_pages=4, drain_rate_pages_per_ms=1.0)
        for _ in range(4):
            assert buffer.admit(now_us=0)
        assert not buffer.admit(now_us=0)
        # After 4 ms the buffer has drained enough to absorb again.
        assert buffer.admit(now_us=4_000)

    def test_flush_empties_buffer(self):
        buffer = WriteBuffer(capacity_pages=8, drain_rate_pages_per_ms=0.001)
        for _ in range(5):
            buffer.admit(now_us=0)
        destaged = buffer.flush(now_us=10)
        assert destaged >= 4
        assert buffer.occupancy == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity_pages=0)
        with pytest.raises(ValueError):
            WriteBuffer(drain_rate_pages_per_ms=0)
        with pytest.raises(ValueError):
            WriteBuffer().admit(0, pages=0)


class TestDeviceMetrics:
    def test_write_amplification_zero_without_writes(self):
        assert DeviceMetrics().write_amplification == 0.0

    def test_write_amplification_ratio(self):
        metrics = DeviceMetrics()
        metrics.host_pages_written = 100
        metrics.flash_pages_programmed = 150
        assert metrics.write_amplification == pytest.approx(1.5)

    def test_lifetime_consumed_fraction(self):
        metrics = DeviceMetrics()
        metrics.flash_blocks_erased = 300
        assert metrics.lifetime_consumed_fraction(total_blocks=100, endurance_cycles=3000) == pytest.approx(0.001)
        with pytest.raises(ValueError):
            metrics.lifetime_consumed_fraction(total_blocks=0)

    def test_summary_contains_headline_keys(self):
        summary = DeviceMetrics().summary()
        for key in ("write_amplification", "gc_invocations", "p99_write_latency_us"):
            assert key in summary

    def test_latency_recorder_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.count == 100
        assert recorder.mean_us == pytest.approx(50.5)
        assert recorder.percentile_us(0.5) == pytest.approx(50.5)
        assert recorder.percentile_us(0.99) > 98
