"""Tests for trace records, generators, volume profiles and replay."""

import pytest

from repro.analysis.retention import lookup_volume
from repro.ssd.device import SSD
from repro.ssd.geometry import SSDGeometry
from repro.workloads.fio import FioJob, standard_jobs
from repro.workloads.fiu import FIU_VOLUMES, figure2_volumes
from repro.workloads.msr import MSR_VOLUMES
from repro.workloads.records import TraceOp, TraceRecord, merge_traces
from repro.workloads.replay import TraceReplayer
from repro.workloads.synthetic import (
    SequentialWorkload,
    UniformRandomWorkload,
    VolumeProfile,
    ZipfianWorkload,
    ZipfSampler,
    profile_workload,
)


def op_count(records, op):
    return sum(1 for record in records if record.op is op)


def write_fraction(records):
    """Writes among reads and writes (trims and flushes excluded)."""
    writes = op_count(records, TraceOp.WRITE)
    return writes / (writes + op_count(records, TraceOp.READ))


class TestTraceRecords:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, TraceOp.READ, 0)
        with pytest.raises(ValueError):
            TraceRecord(0, TraceOp.READ, -1)
        with pytest.raises(ValueError):
            TraceRecord(0, TraceOp.WRITE, 0, entropy=9.0)

    def test_merge_traces_sorted(self):
        a = [TraceRecord(30, TraceOp.READ, 0), TraceRecord(10, TraceOp.READ, 1)]
        b = [TraceRecord(20, TraceOp.WRITE, 2)]
        merged = merge_traces(a, b)
        assert [record.timestamp_us for record in merged] == [10, 20, 30]


class TestSyntheticGenerators:
    def test_sequential_workload_is_sequential(self):
        workload = SequentialWorkload(capacity_pages=1000, iops=1000, write_fraction=1.0, seed=3)
        records = workload.generate(0.2)
        lbas = [record.lba for record in records[:20]]
        assert lbas == sorted(lbas)

    def test_uniform_workload_spreads_accesses(self):
        workload = UniformRandomWorkload(capacity_pages=10_000, iops=2000, seed=3)
        records = workload.generate(0.5)
        lbas = {record.lba for record in records}
        assert len(lbas) > len(records) * 0.5

    def test_zipf_workload_is_skewed(self):
        workload = ZipfianWorkload(
            capacity_pages=10_000, working_set_pages=2_000, zipf_theta=1.1, iops=2000, seed=3
        )
        records = workload.generate(1.0)
        counts = {}
        for record in records:
            counts[record.lba] = counts.get(record.lba, 0) + 1
        hottest = max(counts.values())
        assert hottest > 2  # some pages are clearly hotter than others

    def test_write_fraction_respected(self):
        workload = UniformRandomWorkload(capacity_pages=1000, iops=2000, write_fraction=0.8, seed=5)
        assert 0.65 < write_fraction(workload.generate(1.0)) < 0.95

    def test_deterministic_given_seed(self):
        first = UniformRandomWorkload(1000, iops=500, seed=7).generate(0.2)
        second = UniformRandomWorkload(1000, iops=500, seed=7).generate(0.2)
        assert first == second

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            UniformRandomWorkload(0)
        with pytest.raises(ValueError):
            UniformRandomWorkload(100, iops=0)
        with pytest.raises(ValueError):
            UniformRandomWorkload(100).generate(0)

    def test_zipf_sampler_bounds(self):
        import random

        sampler = ZipfSampler(population=500, theta=0.9, rng=random.Random(1))
        samples = [sampler.sample() for _ in range(1000)]
        assert all(0 <= value < 500 for value in samples)


class TestVolumeProfiles:
    def test_every_figure2_volume_has_a_profile(self):
        for volume in figure2_volumes():
            profile = lookup_volume(volume)
            assert profile.daily_write_gb > 0

    def test_msr_and_fiu_lookup(self):
        assert MSR_VOLUMES["hm"].name == "hm"
        assert FIU_VOLUMES["email"].name == "email"
        with pytest.raises(KeyError):
            lookup_volume("does-not-exist")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            VolumeProfile("bad", daily_write_gb=-1, write_fraction=0.5)
        with pytest.raises(ValueError):
            VolumeProfile("bad", daily_write_gb=1, write_fraction=1.5)

    def test_profile_workload_scales_with_compression(self):
        profile = MSR_VOLUMES["hm"]
        slow = profile_workload(profile, 10_000, duration_s=0.5, time_compression=1_000)
        fast = profile_workload(profile, 10_000, duration_s=0.5, time_compression=10_000)
        assert len(fast) > len(slow)

    def test_msr_and_fiu_trace_generation(self):
        sizes = dict(capacity_pages=5_000, duration_s=0.2, time_compression=5_000)
        records = profile_workload(MSR_VOLUMES["hm"], **sizes)
        assert records
        records = profile_workload(FIU_VOLUMES["email"], **sizes)
        assert records
        assert write_fraction(records) > 0.5  # email is write heavy


ALL_VOLUMES = {**MSR_VOLUMES, **FIU_VOLUMES}


def volume_trace(profile, capacity_pages=2_000_000, stream_id=0):
    """Half a second of ``profile`` at 2,000x time compression."""
    return profile_workload(
        profile,
        capacity_pages,
        duration_s=0.5,
        seed=11,
        stream_id=stream_id,
        time_compression=2_000,
    )


@pytest.mark.parametrize("volume", sorted(ALL_VOLUMES))
class TestEveryVolumeProfile:
    """Each calibrated MSR/FIU profile generates the traffic it declares."""

    def test_trace_honours_the_write_mix(self, volume):
        profile = ALL_VOLUMES[volume]
        records = volume_trace(profile)
        assert len(records) >= 2_000
        assert op_count(records, TraceOp.TRIM) == 0
        assert write_fraction(records) == pytest.approx(profile.write_fraction, abs=0.05)

    def test_trace_stays_inside_the_working_set(self, volume):
        profile = ALL_VOLUMES[volume]
        assert max(record.lba for record in volume_trace(profile)) < profile.working_set_pages
        # On a device smaller than the working set, requests end inside it.
        small = volume_trace(profile, capacity_pages=4_096)
        assert all(record.lba + record.npages <= 4_096 for record in small)

    def test_trace_carries_the_profile_content(self, volume):
        profile = ALL_VOLUMES[volume]
        records = volume_trace(profile, stream_id=5)
        assert {record.stream_id for record in records} == {5}
        writes = [record for record in records if record.op is TraceOp.WRITE]
        mean_entropy = sum(record.entropy for record in writes) / len(writes)
        mean_ratio = sum(record.compress_ratio for record in writes) / len(writes)
        assert mean_entropy == pytest.approx(profile.mean_entropy, abs=0.1)
        assert mean_ratio == pytest.approx(profile.mean_compress_ratio, abs=0.02)


class TestFioJobs:
    def test_standard_jobs_present(self):
        jobs = standard_jobs()
        assert set(jobs) == {"seq-read", "seq-write", "rand-read", "rand-write", "oltp-mix"}

    def test_job_generation(self):
        job = FioJob("test", "rand", write_fraction=1.0, iops=500, duration_s=0.2)
        records = job.generate(10_000)
        assert op_count(records, TraceOp.READ) == 0
        assert op_count(records, TraceOp.WRITE) == len(records)

    def test_job_validation(self):
        with pytest.raises(ValueError):
            FioJob("bad", "diagonal", write_fraction=0.5)
        with pytest.raises(ValueError):
            FioJob("bad", "seq", write_fraction=2.0)


class TestReplay:
    def test_replay_applies_every_record(self):
        geometry = SSDGeometry.tiny()
        device = SSD(geometry=geometry)
        workload = UniformRandomWorkload(geometry.exported_pages // 2, iops=500, write_fraction=0.6, seed=11)
        records = workload.generate(0.5)
        result = TraceReplayer(device).replay(records)
        assert result.records_replayed == len(records)
        assert result.writes == device.metrics.host_writes
        assert result.reads == device.metrics.host_reads
        assert result.pages_written == device.metrics.host_pages_written

    def test_replay_honors_timestamps(self):
        geometry = SSDGeometry.tiny()
        device = SSD(geometry=geometry)
        records = [
            TraceRecord(1_000_000, TraceOp.WRITE, 0, 1),
            TraceRecord(2_000_000, TraceOp.WRITE, 1, 1),
        ]
        TraceReplayer(device).replay(records)
        assert device.clock.now_us >= 2_000_000

    def test_replay_without_timestamps(self):
        geometry = SSDGeometry.tiny()
        device = SSD(geometry=geometry)
        records = [TraceRecord(10**9, TraceOp.WRITE, 0, 1)]
        TraceReplayer(device, honor_timestamps=False).replay(records)
        assert device.clock.now_us < 10**9

    def test_replay_mean_latencies_reported(self):
        geometry = SSDGeometry.tiny()
        device = SSD(geometry=geometry)
        workload = UniformRandomWorkload(geometry.exported_pages // 2, iops=500, write_fraction=0.5, seed=2)
        result = TraceReplayer(device).replay(workload.generate(0.3))
        if result.writes:
            assert result.mean_write_latency_us > 0
        if result.reads:
            assert result.mean_read_latency_us >= 0
