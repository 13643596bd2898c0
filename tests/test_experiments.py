"""Tests for the experiment harnesses used by the benchmark suite.

These run the same code paths as the benchmarks, at reduced scale, and
assert the *shape* of the results the paper reports.
"""

import pytest

from repro.ablation import experiments as ablation
from repro.analysis import experiments as ex
from repro.ssd.geometry import SSDGeometry


class TestPerformanceOverhead:
    def test_overhead_below_one_percent(self):
        rows = ex.run_performance_overhead(duration_s=0.3)
        assert rows
        for row in rows:
            assert row.write_overhead < 0.01, row.job
            assert row.read_overhead < 0.01, row.job

    def test_latencies_are_positive(self):
        rows = ex.run_performance_overhead(duration_s=0.2)
        for row in rows:
            if "write" in row.job or "mix" in row.job:
                assert row.rssd_write_latency_us > 0


class TestLifetimeImpact:
    def test_waf_overhead_is_small(self):
        rows = ex.run_lifetime_experiment(volumes=["hm"], duration_s=0.05)
        assert rows
        for row in rows:
            assert row.baseline_waf >= 1.0
            assert row.rssd_waf >= 1.0
            assert row.waf_overhead < 0.10
            assert row.erase_overhead < 0.15


class TestRecoveryExperiment:
    def test_all_attacks_fully_recovered_on_rssd(self):
        rows = ex.run_recovery_experiment(victim_files=12)
        attacks = {row.attack for row in rows}
        assert attacks == {"classic", "gc-attack", "timing-attack", "trimming-attack"}
        for row in rows:
            assert row.pages_unrecoverable == 0, row.attack
            assert row.recovered_fraction == 1.0
            assert row.files_fully_recovered == row.files_total
            assert row.recovery_seconds < 60.0


class TestForensicsExperiment:
    def test_chain_verified_and_attacker_identified(self):
        rows = ex.run_forensics_experiment(background_ops_list=[100, 800])
        assert len(rows) == 2
        for row in rows:
            assert row.chain_verified
            assert row.attacker_identified
        # Reconstruction cost grows with log size.
        assert rows[1].log_entries > rows[0].log_entries
        assert rows[1].reconstruction_seconds >= rows[0].reconstruction_seconds


class TestOffloadAblation:
    def test_compression_saves_bandwidth(self):
        rows = ablation.run_offload_ablation(volumes=["hm", "email"], duration_s=0.05)
        assert len(rows) == 2
        for row in rows:
            assert row.pages_offloaded > 0
            assert 0.0 < row.compression_ratio < 1.0
            assert row.compressed_mb <= row.raw_mb

    def test_more_compressible_volume_ships_fewer_bytes_per_page(self):
        rows = {row.volume: row for row in ablation.run_offload_ablation(volumes=["hm", "email"], duration_s=0.05)}
        # hm's data is more compressible than email's (per the profiles).
        assert rows["hm"].compression_ratio < rows["email"].compression_ratio


class TestTrimAblation:
    def test_enhanced_trim_is_the_only_mode_with_full_recovery_and_trim_support(self):
        rows = {row.mode: row for row in ablation.run_trim_ablation(victim_files=10)}
        assert rows["enhanced"].recovered_fraction == 1.0
        assert rows["enhanced"].pages_trimmed > 0
        assert rows["naive"].recovered_fraction < 0.5
        assert rows["disabled"].trim_rejected


class TestDetectionAblation:
    def test_remote_detection_strictly_more_capable(self):
        rows = {row.attack: row for row in ablation.run_detection_ablation()}
        # Remote (offloaded) detection catches everything, including the
        # paced attack the local window detector misses.
        for attack, row in rows.items():
            assert row.remote_detected, attack
            assert row.remote_identified_attacker, attack
        assert not rows["timing-attack"].local_detected
        assert rows["classic"].local_detected
