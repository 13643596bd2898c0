"""Workload and block-trace substrate.

The paper evaluates RSSD with MSR-Cambridge and FIU block traces plus
fio-style storage benchmarks.  Those traces are not redistributable, so
this package provides statistical generators calibrated to the
published per-volume characteristics (write intensity, read/write mix,
request sizes, working-set skew).  Retention-time results depend on the
*write volume and overwrite behaviour per day*, which the generators
reproduce per volume.

* :mod:`repro.workloads.records` -- the trace record format, the
  columnar :class:`~repro.workloads.records.Trace`, and stats.
* :mod:`repro.workloads.synthetic` -- generic generators (sequential,
  uniform random, Zipfian, mixed).
* :mod:`repro.workloads.msr` -- MSR-Cambridge volume profiles.
* :mod:`repro.workloads.fiu` -- FIU volume profiles.
* :mod:`repro.workloads.fio` -- fio-like benchmark job specifications.
* :mod:`repro.workloads.replay` -- replay a trace against any device
  (per-op, or batched/coalescing for high-throughput replay).
* :mod:`repro.workloads.fleet` -- replay traces against a fleet of
  devices (RSSD + baselines) and compare them.
"""

from repro.workloads.fio import FioJob, load_fio_iolog, standard_jobs
from repro.workloads.fiu import FIU_VOLUMES, fiu_profile, load_fiu_trace
from repro.workloads.fleet import (
    FleetDeviceReport,
    FleetReport,
    FleetRunner,
    default_fleet_factories,
    shard_trace,
)
from repro.workloads.msr import MSR_VOLUMES, load_msr_trace, msr_profile
from repro.workloads.records import (
    Trace,
    TraceParseError,
    TraceRecord,
    TraceStats,
    collect_stats,
)
from repro.workloads.replay import BatchTraceReplayer, ReplayResult, TraceReplayer
from repro.workloads.synthetic import (
    BurstyWorkload,
    MixedWorkload,
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
    "MixedWorkload",
    "ReplayResult",
    "SequentialWorkload",
    "Trace",
    "TraceParseError",
    "TraceRecord",
    "TraceReplayer",
    "TraceStats",
    "UniformRandomWorkload",
    "VolumeProfile",
    "ZipfianWorkload",
    "collect_stats",
    "default_fleet_factories",
    "fiu_profile",
    "load_fio_iolog",
    "load_fiu_trace",
    "load_msr_trace",
    "msr_profile",
    "profile_workload",
    "shard_trace",
    "standard_jobs",
]
