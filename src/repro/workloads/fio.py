"""fio-like benchmark job specifications.

The paper measures local storage performance overhead with standard
storage benchmarks.  :func:`standard_jobs` returns the usual quartet of
sequential/random read/write jobs plus a mixed OLTP-like job; each job
knows how to generate its trace for a given device capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.workloads.records import TraceRecord
from repro.workloads.synthetic import (
    SequentialWorkload,
    UniformRandomWorkload,
    ZipfianWorkload,
)


@dataclass(frozen=True)
class FioJob:
    """One benchmark job description (a tiny subset of fio's job file)."""

    name: str
    pattern: str  # "seq" | "rand" | "zipf"
    write_fraction: float
    iops: float = 2000.0
    request_pages: int = 8
    duration_s: float = 2.0

    def __post_init__(self) -> None:
        if self.pattern not in ("seq", "rand", "zipf"):
            raise ValueError("pattern must be 'seq', 'rand' or 'zipf'")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        if self.iops <= 0 or self.duration_s <= 0:
            raise ValueError("iops and duration_s must be positive")

    def generate(self, capacity_pages: int, seed: int = 7) -> List[TraceRecord]:
        """Generate the trace for this job on a device of ``capacity_pages``."""
        kwargs = dict(
            iops=self.iops,
            write_fraction=self.write_fraction,
            mean_request_pages=self.request_pages,
            seed=seed,
        )
        if self.pattern == "seq":
            workload = SequentialWorkload(capacity_pages, **kwargs)
        elif self.pattern == "rand":
            workload = UniformRandomWorkload(capacity_pages, **kwargs)
        else:
            workload = ZipfianWorkload(capacity_pages, **kwargs)
        return workload.generate(self.duration_s)


def standard_jobs(duration_s: float = 2.0) -> Dict[str, FioJob]:
    """The benchmark jobs used by the performance-overhead experiment."""
    return {
        "seq-read": FioJob("seq-read", "seq", write_fraction=0.0, duration_s=duration_s),
        "seq-write": FioJob("seq-write", "seq", write_fraction=1.0, duration_s=duration_s),
        "rand-read": FioJob("rand-read", "rand", write_fraction=0.0, duration_s=duration_s),
        "rand-write": FioJob("rand-write", "rand", write_fraction=1.0, duration_s=duration_s),
        "oltp-mix": FioJob(
            "oltp-mix", "zipf", write_fraction=0.3, request_pages=2, duration_s=duration_s
        ),
    }
