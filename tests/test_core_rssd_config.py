"""Tests for the RSSD facade and its configuration."""

import pytest

from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD, build_rssd
from repro.forensics import ForensicsEngine
from repro.ssd.device import HostOpType
from repro.ssd.errors import FirmwareProtectionError
from repro.ssd.flash import PageContent
from repro.ssd.geometry import SSDGeometry


class TestConfig:
    def test_presets(self):
        assert RSSDConfig.tiny().geometry.total_pages == 512
        assert RSSDConfig.small().geometry.total_pages > 512
        assert RSSDConfig.paper_prototype().geometry.raw_capacity_bytes > 10**12

    def test_validation(self):
        with pytest.raises(ValueError):
            RSSDConfig(link_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            RSSDConfig(offload_batch_pages=0)
        with pytest.raises(ValueError):
            RSSDConfig(local_retention_fraction=0.0)
        with pytest.raises(ValueError):
            RSSDConfig(gc_threshold_blocks=1)


class TestRSSDFacade:
    def test_build_rssd_returns_working_device(self):
        rssd = build_rssd(RSSDConfig.tiny())
        rssd.write(0, b"hello rssd")
        assert rssd.read(0).startswith(b"hello rssd")
        assert rssd.capacity_pages == rssd.ssd.capacity_pages
        assert rssd.page_size == 4096

    def test_every_host_op_is_logged(self, rssd):
        rssd.write(0, b"a")
        rssd.read(0)
        rssd.trim(0)
        rssd.flush()
        assert rssd.oplog.total_entries == 4
        ops = [entry.op_type for entry in rssd.oplog.all_entries()]
        assert ops == [HostOpType.WRITE, HostOpType.READ, HostOpType.TRIM, HostOpType.FLUSH]

    def test_write_latency_includes_log_overhead(self, rssd, tiny_geometry):
        from repro.ssd.device import SSD

        plain = SSD(geometry=tiny_geometry)
        plain.write(0, b"data")
        rssd.write(0, b"data")
        overhead = rssd.config.latency.log_append_us
        assert rssd.metrics.latency["write"].mean_us == pytest.approx(
            plain.metrics.latency["write"].mean_us + overhead
        )

    def test_offload_happens_automatically_during_writes(self, rssd):
        for round_index in range(20):
            for lba in range(16):
                rssd.write(lba, PageContent.synthetic(round_index * 100 + lba, 4096))
        assert rssd.retained_pages_remote > 0
        assert rssd.remote_link_traffic() if hasattr(rssd, "remote_link_traffic") else True
        assert rssd.link.stats.wire_bytes_sent > 0

    def test_drain_offload_queue_empties_pending(self, rssd):
        for lba in range(32):
            rssd.write(lba, PageContent.synthetic(lba, 4096))
            rssd.write(lba, PageContent.synthetic(1000 + lba, 4096))
        rssd.drain_offload_queue()
        assert rssd.retention.pending_pages == 0
        assert rssd.offload.stats.pages_offloaded >= 32

    def test_nic_is_hardware_isolated_from_host(self, rssd):
        with pytest.raises(FirmwareProtectionError):
            rssd.nic.send_capsule(None, 4096)
        with pytest.raises(FirmwareProtectionError):
            rssd.nic.issue_firmware_token()

    def test_summary_reports_key_counters(self, rssd):
        rssd.write(0, b"data")
        rssd.write(0, b"data v2")
        rssd.drain_offload_queue()
        summary = rssd.summary()
        assert summary["host_writes"] == 2
        assert summary["data_loss_pages"] == 0
        assert summary["log_entries"] == 2
        assert 0 < summary["offload_compression_ratio"] <= 1.0

    def test_stream_ids_propagate_to_log(self, rssd):
        rssd.write(0, b"x", stream_id=5)
        assert rssd.oplog.all_entries()[0].stream_id == 5

    def test_services_are_constructible(self, rssd):
        rssd.write(0, b"x")
        engine = ForensicsEngine(rssd)
        assert engine.recovery() is not None
        assert engine.classify().pattern == "none"
        assert not rssd.detect().detected

    def test_doctest_example_in_module(self):
        rssd = build_rssd(RSSDConfig.small())
        rssd.write(lba=0, data=b"hello world")
        assert rssd.read(lba=0)[: len(b"hello world")] == b"hello world"
