"""Tests for the fleet-scale trace replay runner.

Fleets are built through :func:`repro.api.run_fleet`, or directly as a
``FleetRunner`` for tests that drive one runner through several
scenarios.
"""

import pytest

from repro.api import run_fleet
from repro.cli import main
from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.ssd.geometry import SSDGeometry
from repro.workloads.fleet import (
    FleetRunner,
    default_fleet_factories,
    shard_trace,
)
from repro.workloads.records import TraceOp, TraceRecord
from repro.workloads.synthetic import SequentialWorkload


def small_trace(n_records=600, capacity=2048):
    workload = SequentialWorkload(
        capacity_pages=capacity,
        iops=2000.0,
        write_fraction=0.7,
        mean_request_pages=1,
        trim_fraction=0.05,
        seed=9,
    )
    records = workload.generate(duration_s=n_records / 2000.0)
    return records[:n_records]


class TestShardTrace:
    def test_chunked_round_robin_partition(self):
        records = small_trace(100)
        shards = shard_trace(records, 4, chunk_records=10)
        assert len(shards) == 4
        assert sum(len(shard) for shard in shards) == len(records)
        assert shards[0][0] is records[0]
        assert shards[1][0] is records[10]
        # Chunks keep consecutive records together.
        assert shards[0][:10] == records[:10]

    def test_per_record_round_robin(self):
        records = small_trace(40)
        shards = shard_trace(records, 4, chunk_records=1)
        assert shards[0][0] is records[0]
        assert shards[1][0] is records[1]

    def test_single_shard_is_identity(self):
        records = small_trace(10)
        assert shard_trace(records, 1) == [records]

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            shard_trace([], 0)


class TestFleetRunner:
    @pytest.fixture
    def tiny_fleet(self):
        geometry = SSDGeometry.tiny()
        return FleetRunner(
            factories={
                "rssd-0": lambda: RSSD(RSSDConfig.tiny()),
                "rssd-1": lambda: RSSD(RSSDConfig.tiny()),
            },
            honor_timestamps=False,
        )

    def test_mirrored_run_replays_full_trace_everywhere(self, tiny_fleet):
        records = small_trace(400)
        report = tiny_fleet.run_mirrored(records)
        assert report.mode == "mirror"
        assert len(report.devices) == 2
        for device_report in report.devices:
            assert device_report.result.records_replayed == 400
        # Identical devices, identical traffic, identical outcome.
        first, second = report.devices
        assert first.result.pages_written == second.result.pages_written
        assert first.write_amplification == second.write_amplification

    def test_sharded_run_splits_the_trace(self, tiny_fleet):
        records = small_trace(400)
        report = tiny_fleet.run_sharded(records)
        assert report.mode == "shard"
        total = sum(r.result.records_replayed for r in report.devices)
        assert total == 400
        for device_report in report.devices:
            assert 0 < device_report.result.records_replayed < 400

    def test_parallel_mirror_matches_sequential(self, tiny_fleet):
        records = small_trace(300)
        sequential = tiny_fleet.run_mirrored(records)
        parallel = tiny_fleet.run_mirrored(records, parallel=True)
        for seq_report, par_report in zip(sequential.devices, parallel.devices):
            assert seq_report.name == par_report.name
            assert (
                seq_report.result.pages_written == par_report.result.pages_written
            )

    def test_report_table_renders_every_device(self, tiny_fleet):
        report = tiny_fleet.run_mirrored(small_trace(100))
        table = report.format_table()
        assert "rssd-0" in table and "rssd-1" in table
        assert report.device("rssd-0").ops_per_second > 0
        with pytest.raises(KeyError):
            report.device("nope")

    def test_default_fleet_includes_rssd_and_baselines(self):
        factories = default_fleet_factories()
        assert "RSSD" in factories
        assert "LocalSSD" in factories
        report = run_fleet(
            small_trace(150, capacity=1500),
            factories=factories,
            honor_timestamps=False,
        )
        names = {device_report.name for device_report in report.devices}
        assert "RSSD" in names
        assert len(report.devices) == len(factories)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            run_fleet([], factories={})

    def test_run_fleet_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="unknown fleet mode"):
            run_fleet([], mode="broadcast")


class TestFleetCommand:
    DEVICES = ["LocalSSD", "FlashGuard", "TimeSSD", "SSDInsider", "RSSD"]

    @staticmethod
    def fleet_rows(capsys, *args):
        """(device, records replayed) per row of ``repro fleet``'s table."""
        assert main(["fleet", "--records", "2000", *args]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rule = next(index for index, line in enumerate(lines) if set(line) == {"-"})
        return [(line.split()[0], int(line.split()[1])) for line in lines[rule + 1 :]]

    def test_mirror_replays_every_record_on_every_device(self, capsys):
        rows = self.fleet_rows(capsys)
        assert [name for name, _ in rows] == self.DEVICES
        assert [records for _, records in rows] == [2000] * len(self.DEVICES)

    def test_shard_splits_the_records_across_the_fleet(self, capsys):
        rows = self.fleet_rows(capsys, "--shard", "--per-op")
        assert [name for name, _ in rows] == self.DEVICES
        assert sum(records for _, records in rows) == 2000
