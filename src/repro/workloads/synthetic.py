"""Synthetic workload generators.

The duration-driven generators (:class:`SequentialWorkload`,
:class:`UniformRandomWorkload`, :class:`ZipfianWorkload` and
:func:`profile_workload`) return a list of
:class:`TraceRecord` covering a requested duration.
:class:`BurstyWorkload` returns a columnar
:class:`~repro.workloads.records.Trace` of a requested record count,
which the batched replayer consumes without building per-record
objects.  Every generator is deterministic given a seed, so every
experiment is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sim import US_PER_SECOND
from repro.workloads.records import OP_CODES, Trace, TraceOp, TraceRecord


@dataclass(frozen=True)
class VolumeProfile:
    """Statistical profile of one traced storage volume.

    The per-volume numbers in :mod:`repro.workloads.msr` and
    :mod:`repro.workloads.fiu` instantiate this profile; the retention
    experiments also consume it analytically (see
    :mod:`repro.analysis.retention`).

    Attributes
    ----------
    name:
        Volume label (e.g. ``"hm"``, ``"src"``).
    daily_write_gb:
        Average gigabytes written per day.
    write_fraction:
        Fraction of requests that are writes.
    mean_request_pages:
        Mean request size in 4 KiB pages.
    working_set_pages:
        Number of distinct hot logical pages the volume touches.
    zipf_theta:
        Skew of accesses over the working set (0 = uniform).
    mean_entropy:
        Typical content entropy of written data (bits/byte).
    mean_compress_ratio:
        Typical compression ratio of written data.
    trim_fraction:
        Fraction of requests that are trims (most volumes: 0).
    """

    name: str
    daily_write_gb: float
    write_fraction: float
    mean_request_pages: int = 2
    working_set_pages: int = 65_536
    zipf_theta: float = 0.9
    mean_entropy: float = 4.2
    mean_compress_ratio: float = 0.45
    trim_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.daily_write_gb < 0:
            raise ValueError("daily_write_gb must be non-negative")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        if self.mean_request_pages < 1:
            raise ValueError("mean_request_pages must be at least 1")
        if self.working_set_pages < 1:
            raise ValueError("working_set_pages must be at least 1")
        if not 0.0 <= self.trim_fraction <= 1.0:
            raise ValueError("trim_fraction must be within [0, 1]")

    @property
    def daily_write_bytes(self) -> float:
        """``daily_write_gb`` in bytes (GiB-based)."""
        return self.daily_write_gb * 1024**3

    @property
    def daily_write_pages(self) -> float:
        """``daily_write_bytes`` in 4 KiB pages."""
        return self.daily_write_bytes / 4096.0


class ZipfSampler:
    """Zipf-distributed integer sampler over ``[0, population)``.

    Uses the classic power-law weights ``1 / rank**theta``; ranks are
    shuffled so hot pages are spread across the address space the way
    real volumes behave rather than clustered at LBA 0.
    """

    def __init__(self, population: int, theta: float, rng: random.Random) -> None:
        if population < 1:
            raise ValueError("population must be at least 1")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.population = population
        self.theta = theta
        self._rng = rng
        sample_size = min(population, 4096)
        weights = [1.0 / ((rank + 1) ** theta) for rank in range(sample_size)]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._bucket_span = population / sample_size
        self._rank_to_bucket = list(range(sample_size))
        self._rng.shuffle(self._rank_to_bucket)

    def sample(self) -> int:
        """Draw one page index."""
        point = self._rng.random()
        low, high = 0, len(self._cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < point:
                low = mid + 1
            else:
                high = mid
        bucket = self._rank_to_bucket[low]
        offset = self._rng.randrange(max(1, int(self._bucket_span)))
        return min(self.population - 1, int(bucket * self._bucket_span) + offset)


class _BaseWorkload:
    """Common machinery for synthetic generators."""

    def __init__(
        self,
        capacity_pages: int,
        iops: float = 200.0,
        write_fraction: float = 0.5,
        mean_request_pages: int = 2,
        entropy: float = 4.2,
        compress_ratio: float = 0.45,
        trim_fraction: float = 0.0,
        stream_id: int = 0,
        seed: int = 1,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be at least 1")
        if iops <= 0:
            raise ValueError("iops must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        if mean_request_pages < 1:
            raise ValueError("mean_request_pages must be at least 1")
        self.capacity_pages = capacity_pages
        self.iops = iops
        self.write_fraction = write_fraction
        self.mean_request_pages = mean_request_pages
        self.entropy = entropy
        self.compress_ratio = compress_ratio
        self.trim_fraction = trim_fraction
        self.stream_id = stream_id
        self.rng = random.Random(seed)

    def _next_lba(self, npages: int) -> int:
        raise NotImplementedError

    def _request_pages(self) -> int:
        # Geometric-ish size distribution around the mean.
        pages = 1 + int(self.rng.expovariate(1.0 / self.mean_request_pages))
        return max(1, min(pages, 64))

    def generate(self, duration_s: float, start_us: int = 0) -> List[TraceRecord]:
        """Generate records covering ``duration_s`` seconds of activity."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        records: List[TraceRecord] = []
        interarrival_us = US_PER_SECOND / self.iops
        timestamp = float(start_us)
        end_us = start_us + duration_s * US_PER_SECOND
        while timestamp < end_us:
            npages = self._request_pages()
            lba = self._next_lba(npages)
            roll = self.rng.random()
            if roll < self.trim_fraction:
                op = TraceOp.TRIM
            elif roll < self.trim_fraction + self.write_fraction:
                op = TraceOp.WRITE
            else:
                op = TraceOp.READ
            records.append(
                TraceRecord(
                    timestamp_us=int(timestamp),
                    op=op,
                    lba=lba,
                    npages=npages,
                    stream_id=self.stream_id,
                    entropy=min(8.0, max(0.0, self.rng.gauss(self.entropy, 0.5))),
                    compress_ratio=min(
                        1.0, max(0.05, self.rng.gauss(self.compress_ratio, 0.1))
                    ),
                )
            )
            timestamp += self.rng.expovariate(1.0 / interarrival_us)
        return records


class SequentialWorkload(_BaseWorkload):
    """Sequential streaming access (large file copies, backups, video)."""

    def __init__(self, capacity_pages: int, **kwargs) -> None:
        super().__init__(capacity_pages, **kwargs)
        self._cursor = 0

    def _next_lba(self, npages: int) -> int:
        lba = self._cursor
        if lba + npages >= self.capacity_pages:
            lba = 0
            self._cursor = 0
        self._cursor = lba + npages
        return lba


class UniformRandomWorkload(_BaseWorkload):
    """Uniformly random access over the full device."""

    def _next_lba(self, npages: int) -> int:
        return self.rng.randrange(max(1, self.capacity_pages - npages))


class ZipfianWorkload(_BaseWorkload):
    """Skewed access over a bounded working set (typical server volumes)."""

    def __init__(
        self,
        capacity_pages: int,
        working_set_pages: Optional[int] = None,
        zipf_theta: float = 0.9,
        **kwargs,
    ) -> None:
        super().__init__(capacity_pages, **kwargs)
        working_set = working_set_pages or max(1, capacity_pages // 4)
        working_set = min(working_set, capacity_pages)
        self._sampler = ZipfSampler(working_set, zipf_theta, self.rng)
        self._working_set = working_set

    def _next_lba(self, npages: int) -> int:
        lba = self._sampler.sample()
        return min(lba, max(0, self.capacity_pages - npages))


class BurstyWorkload:
    """Burst-structured traffic: runs of contiguous same-type requests.

    Real block traces arrive in phases -- a bulk ingest streams
    thousands of sequential writes, a scan issues a long run of
    sequential reads, a cleanup discards a contiguous extent.  This
    generator emits that shape directly: each burst picks an operation
    type, a length, and a starting point, then issues contiguous
    single-request records.  It is the canonical input for the batched
    replay path (contiguous same-op runs are exactly what command
    coalescing merges) and for the fleet runner's ingest scenarios.
    """

    def __init__(
        self,
        capacity_pages: int,
        write_fraction: float = 0.5,
        read_fraction: float = 0.4,
        burst_records: tuple = (64, 256),
        request_pages: int = 1,
        entropy: float = 6.5,
        compress_ratio: float = 0.9,
        interarrival_us: tuple = (5, 40),
        span_fraction: float = 0.9,
        stream_id: int = 0,
        seed: int = 1,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be at least 1")
        if not 0.0 <= write_fraction + read_fraction <= 1.0:
            raise ValueError("write_fraction + read_fraction must be within [0, 1]")
        if burst_records[0] < 1 or burst_records[1] < burst_records[0]:
            raise ValueError("burst_records must be a (lo, hi) pair with 1 <= lo <= hi")
        if interarrival_us[0] < 0 or interarrival_us[1] < interarrival_us[0]:
            raise ValueError("interarrival_us must be a (lo, hi) pair with 0 <= lo <= hi")
        if not 0.0 < span_fraction <= 1.0:
            raise ValueError("span_fraction must be within (0, 1]")
        self.capacity_pages = capacity_pages
        self.write_fraction = write_fraction
        self.read_fraction = read_fraction
        self.burst_records = burst_records
        self.request_pages = max(1, request_pages)
        self.entropy = entropy
        self.compress_ratio = compress_ratio
        self.interarrival_us = interarrival_us
        self.span = max(1, int(capacity_pages * span_fraction))
        self.stream_id = stream_id
        self.rng = random.Random(seed)

    def generate(self, n_records: int, start_us: int = 0) -> Trace:
        """Generate exactly ``n_records`` burst-structured records.

        The generator draws from ``self.rng`` in a fixed order -- per
        burst: the op roll, the burst length, the scan or discard start
        (reads and trims only), then one inter-arrival gap per record --
        and that order is part of the determinism contract.  The draws
        land in plain lists and the columns are built once at the end.
        """
        if n_records < 1:
            raise ValueError("n_records must be at least 1")
        rng = self.rng
        randint = rng.randint
        lo, hi = self.burst_records
        gap_lo, gap_hi = self.interarrival_us
        span = self.span
        npages = self.request_pages
        write_fraction = self.write_fraction
        scan_fraction = write_fraction + self.read_fraction
        # Per burst: op code, record count, first (unwrapped) LBA.
        codes: List[int] = []
        counts: List[int] = []
        bases: List[int] = []
        gaps: List[int] = []
        cursor = 0
        while len(gaps) < n_records:
            roll = rng.random()
            burst = randint(lo, hi)
            if roll < write_fraction:
                # Sequential ingest burst at the write frontier.
                code = OP_CODES[TraceOp.WRITE]
                base = cursor
                cursor += burst * npages
            elif roll < scan_fraction:
                # Sequential scan over previously written data.
                code = OP_CODES[TraceOp.READ]
                base = rng.randrange(max(1, cursor)) % span if cursor else 0
            else:
                # Discard of a cold contiguous extent behind the frontier.
                code = OP_CODES[TraceOp.TRIM]
                base = max(0, (cursor % span) - randint(4 * burst, 8 * burst))
                burst = burst // 2 + 1
            codes.append(code)
            counts.append(burst)
            bases.append(base)
            gaps.extend([randint(gap_lo, gap_hi) for _ in range(burst)])
        # Record k of a burst sits ``k * npages`` past the burst's base.
        per_burst = np.array(counts, dtype=np.int64)
        offsets = np.arange(len(gaps), dtype=np.int64) - np.repeat(
            np.cumsum(per_burst) - per_burst, per_burst
        )
        lbas = (np.repeat(np.array(bases, dtype=np.int64), per_burst) + offsets * npages) % span
        stamps = start_us + np.cumsum(np.array(gaps, dtype=np.int64))
        op = np.repeat(np.array(codes, dtype=np.int8), per_burst)[:n_records]
        writes = op == OP_CODES[TraceOp.WRITE]
        return Trace(
            timestamp_us=stamps[:n_records],
            op=op,
            lba=lbas[:n_records],
            npages=np.full(n_records, npages),
            stream_id=np.full(n_records, self.stream_id),
            # Reads and trims carry TraceRecord's default descriptors.
            entropy=np.where(writes, self.entropy, 4.0),
            compress_ratio=np.where(writes, self.compress_ratio, 0.5),
        )


def profile_workload(
    profile: VolumeProfile,
    capacity_pages: int,
    duration_s: float,
    seed: int = 1,
    stream_id: int = 0,
    time_compression: float = 1.0,
) -> List[TraceRecord]:
    """Generate a trace matching a :class:`VolumeProfile`.

    ``time_compression`` > 1 squeezes a day's worth of traffic into a
    shorter simulated window while preserving total volume -- the
    retention experiments use this to avoid simulating wall-clock days
    request by request.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if time_compression <= 0:
        raise ValueError("time_compression must be positive")
    pages_per_second = profile.daily_write_pages / 86_400.0 * time_compression
    total_iops = max(
        1.0, pages_per_second / profile.mean_request_pages / max(profile.write_fraction, 0.01)
    )
    workload = ZipfianWorkload(
        capacity_pages=capacity_pages,
        working_set_pages=min(profile.working_set_pages, capacity_pages),
        zipf_theta=profile.zipf_theta,
        iops=total_iops,
        write_fraction=profile.write_fraction,
        mean_request_pages=profile.mean_request_pages,
        entropy=profile.mean_entropy,
        compress_ratio=profile.mean_compress_ratio,
        trim_fraction=profile.trim_fraction,
        stream_id=stream_id,
        seed=seed,
    )
    return workload.generate(duration_s)
