"""Workload and block-trace substrate.

The paper evaluates RSSD with MSR-Cambridge and FIU block traces plus
fio-style storage benchmarks.  Those traces are not redistributable, so
this package provides statistical generators calibrated to the
published per-volume characteristics (write intensity, read/write mix,
request sizes, working-set skew).  Retention-time results depend on the
*write volume and overwrite behaviour per day*, which the generators
reproduce per volume.  No trace file is replayed: the repository ships
none, so it carries no parser for one.

* :mod:`repro.workloads.records` -- the trace record format and the
  columnar :class:`~repro.workloads.records.Trace`.
* :mod:`repro.workloads.synthetic` -- generic generators (sequential,
  uniform random, Zipfian, bursty) and :func:`profile_workload`.
* :mod:`repro.workloads.msr` -- MSR-Cambridge volume profiles.
* :mod:`repro.workloads.fiu` -- FIU volume profiles.
* :mod:`repro.workloads.fio` -- fio-like benchmark job specifications.
* :mod:`repro.workloads.replay` -- replay a trace against any device
  (per-op, or batched/coalescing for high-throughput replay).
* :mod:`repro.workloads.fleet` -- replay traces against a fleet of
  devices (RSSD + baselines) and compare them.
"""

from repro.workloads.fio import FioJob, standard_jobs
from repro.workloads.fiu import FIU_VOLUMES
from repro.workloads.fleet import (
    FleetDeviceReport,
    FleetReport,
    FleetRunner,
    default_fleet_factories,
    shard_trace,
)
from repro.workloads.msr import MSR_VOLUMES
from repro.workloads.records import Trace, TraceRecord
from repro.workloads.replay import BatchTraceReplayer, ReplayResult, TraceReplayer
from repro.workloads.synthetic import (
    BurstyWorkload,
    SequentialWorkload,
    UniformRandomWorkload,
    VolumeProfile,
    ZipfianWorkload,
    profile_workload,
)

__all__ = [
    "BatchTraceReplayer",
    "BurstyWorkload",
    "FIU_VOLUMES",
    "FioJob",
    "FleetDeviceReport",
    "FleetReport",
    "FleetRunner",
    "MSR_VOLUMES",
    "ReplayResult",
    "SequentialWorkload",
    "Trace",
    "TraceRecord",
    "TraceReplayer",
    "UniformRandomWorkload",
    "VolumeProfile",
    "ZipfianWorkload",
    "default_fleet_factories",
    "profile_workload",
    "shard_trace",
    "standard_jobs",
]
