"""Tests for the analysis helpers: retention model, stats, reporting."""

import pytest

from repro.analysis.reporting import format_csv, format_markdown_table, format_table
from repro.analysis.retention import (
    RetentionScenario,
    figure2_rows,
    lookup_volume,
    retention_days_local,
    retention_days_local_compressed,
    retention_days_rssd,
)
from repro.analysis.stats import mean, median, relative_overhead
from repro.ssd.device import SSD
from repro.ssd.geometry import SSDGeometry
from repro.workloads.fiu import figure2_volumes
from repro.workloads.replay import TraceReplayer
from repro.workloads.synthetic import profile_workload


class TestStats:
    def test_mean_median_empty(self):
        assert mean([]) == 0.0
        assert median([]) == 0.0

    def test_mean_and_median(self):
        assert mean([1, 2, 3, 4]) == pytest.approx(2.5)
        assert median([5, 1, 3]) == 3
        assert median([1, 2, 3, 4]) == pytest.approx(2.5)

    def test_relative_overhead(self):
        assert relative_overhead(100.0, 101.0) == pytest.approx(0.01)
        assert relative_overhead(0.0, 5.0) == 0.0


class TestReporting:
    def test_text_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["longer-name", 2.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer-name" in lines[3]

    def test_markdown_table(self):
        table = format_markdown_table(["a", "b"], [[1, 2]])
        assert table.splitlines()[1] == "| --- | --- |"

    def test_csv_rejects_commas(self):
        assert format_csv(["a"], [["x"]]).splitlines() == ["a", "x"]
        with pytest.raises(ValueError):
            format_csv(["a"], [["x,y"]])


class TestRetentionModel:
    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            RetentionScenario(device_capacity_gb=0)
        with pytest.raises(ValueError):
            RetentionScenario(overprovision_ratio=1.5)
        with pytest.raises(ValueError):
            RetentionScenario(overwrite_fraction=0.0)

    def test_lookup_volume_spans_both_catalogues(self):
        assert lookup_volume("hm").name == "hm"
        assert lookup_volume("email").name == "email"
        with pytest.raises(KeyError):
            lookup_volume("missing-volume")

    def test_local_retention_inversely_proportional_to_write_rate(self):
        scenario = RetentionScenario(horizon_days=10_000)
        light = lookup_volume("wdev")   # ~1 GB/day
        heavy = lookup_volume("email")  # ~8 GB/day
        assert retention_days_local(light, scenario) > retention_days_local(heavy, scenario)

    def test_compression_extends_local_retention(self):
        scenario = RetentionScenario(horizon_days=10_000)
        for volume in ("hm", "src", "email"):
            profile = lookup_volume(volume)
            assert retention_days_local_compressed(profile, scenario) > retention_days_local(
                profile, scenario
            )

    def test_rssd_bounded_by_remote_budget_not_op(self):
        scenario = RetentionScenario(horizon_days=100_000, remote_budget_gb=2048)
        profile = lookup_volume("src")
        rssd_days = retention_days_rssd(profile, scenario)
        local_days = retention_days_local(profile, scenario)
        assert rssd_days > 10 * local_days

    def test_slow_link_degrades_rssd_retention(self):
        profile = lookup_volume("email")
        fast = RetentionScenario(horizon_days=10_000)
        # A link slower than the stale production rate cannot drain.
        slow = RetentionScenario(horizon_days=10_000, link_bandwidth_gbps=1e-6)
        assert retention_days_rssd(profile, slow) < retention_days_rssd(profile, fast)

    def test_figure2_shape_matches_paper(self):
        rows = figure2_rows()
        assert len(rows) == len(figure2_volumes())
        for row in rows:
            assert row.rssd_days >= row.local_compressed_days >= row.local_days
            assert row.rssd_days >= 200.0  # the headline claim
            assert row.local_days < 100.0

    def test_figure2_respects_horizon_cap(self):
        rows = figure2_rows(scenario=RetentionScenario(horizon_days=240.0))
        assert max(row.rssd_days for row in rows) <= 240.0


def measure_stale_production(volume: str, duration_s: float, seed: int = 5) -> float:
    """Stale pages produced per host page written, replaying ``volume``.

    A short, time-compressed replay of the volume's profile on a plain
    SSD: the simulated check of the analytic model's key input.
    """
    geometry = SSDGeometry.small()
    device = SSD(geometry=geometry)
    records = profile_workload(
        lookup_volume(volume),
        capacity_pages=geometry.exported_pages // 2,
        duration_s=duration_s,
        seed=seed,
        time_compression=20_000.0,
    )
    result = TraceReplayer(device).replay(records)
    if result.pages_written == 0:
        return 0.0
    return device.ftl.stats.stale_pages_created / result.pages_written


class TestStaleProductionValidation:
    def test_simulated_stale_rate_supports_model_assumption(self):
        ratio = measure_stale_production("hm", duration_s=0.5)
        # Most writes to a skewed working set displace an older version, which
        # is what the analytic model's overwrite_fraction encodes.
        assert 0.5 < ratio <= 1.0
