"""Fleet-scale trace replay: one trace, many devices.

The fleet runner replays a block trace against a whole fleet of
simulated devices -- RSSD next to each baseline defense -- through the
batched replay path, and emits a comparison report.  Two scenarios are
supported:

* ``mirror`` -- every device replays the full trace.  This is the
  apples-to-apples comparison mode: identical traffic, one report row
  per defense.
* ``shard``  -- the trace is split round-robin into one shard per
  device, modelling a multi-tenant deployment where a pool of devices
  absorbs the aggregate traffic of many users.

Devices are independent simulations (each owns its clock), so shards
can also be replayed on real OS threads with ``parallel=True``.  The
replays run through the same :class:`~repro.campaign.runner
.ExperimentRunner` the campaign engine uses, so both evaluation paths
share one parallelism implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.workloads.records import TraceRecord
from repro.workloads.replay import BatchTraceReplayer, ReplayResult, TraceReplayer

#: A factory returning either a bare device (``SSD``/``RSSD``) or a
#: defense object exposing ``.device`` and ``.detect()``.
FleetFactory = Callable[[], object]


def default_fleet_factories(geometry=None) -> Dict[str, FleetFactory]:
    """RSSD plus the hardware baseline defenses, ready for the fleet runner.

    Imported lazily so the workloads package keeps no hard dependency on
    the defense layer.
    """
    from repro.defenses.flashguard import FlashGuardDefense
    from repro.defenses.rssd_adapter import RSSDDefense
    from repro.defenses.ssdinsider import SSDInsiderDefense
    from repro.defenses.timessd import TimeSSDDefense
    from repro.defenses.unprotected import UnprotectedSSD
    from repro.ssd.geometry import SSDGeometry

    geometry = geometry if geometry is not None else SSDGeometry.tiny()
    return {
        "LocalSSD": lambda: UnprotectedSSD(geometry=geometry),
        "FlashGuard": lambda: FlashGuardDefense(geometry=geometry),
        "TimeSSD": lambda: TimeSSDDefense(geometry=geometry),
        "SSDInsider": lambda: SSDInsiderDefense(geometry=geometry),
        "RSSD": lambda: RSSDDefense(geometry=geometry),
    }


def shard_trace(
    records: Sequence[TraceRecord], shards: int, chunk_records: int = 256
) -> List[List[TraceRecord]]:
    """Split a trace into ``shards`` interleaved sub-traces.

    Chunks of ``chunk_records`` consecutive records are dealt round-robin
    across the shards: every shard stays statistically similar to the
    full trace (same mix, same time span) -- what a load balancer
    spreading tenants over a device pool produces -- while bursts inside
    a chunk stay contiguous, so the batched replay path keeps its
    coalescing opportunities.  ``chunk_records=1`` degenerates to plain
    per-record round-robin.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if chunk_records < 1:
        raise ValueError("chunk_records must be at least 1")
    buckets: List[List[TraceRecord]] = [[] for _ in range(shards)]
    for chunk_index, start in enumerate(range(0, len(records), chunk_records)):
        buckets[chunk_index % shards].extend(records[start : start + chunk_records])
    return buckets


@dataclass
class FleetDeviceReport:
    """Replay outcome for one device of the fleet."""

    name: str
    result: ReplayResult
    wall_seconds: float
    detected: bool
    write_amplification: float
    mean_write_latency_us: float
    retained_pages: int

    @property
    def ops_per_second(self) -> float:
        """Trace records replayed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.result.records_replayed / self.wall_seconds


@dataclass
class FleetReport:
    """Comparison report across the whole fleet."""

    mode: str
    total_records: int
    batched: bool
    #: Whether the devices replayed concurrently (affects how per-device
    #: wall times combine into an aggregate).
    parallel: bool = False
    devices: List[FleetDeviceReport] = field(default_factory=list)

    def device(self, name: str) -> FleetDeviceReport:
        """The report row of the device called ``name`` (``KeyError`` if none)."""
        for report in self.devices:
            if report.name == name:
                return report
        raise KeyError(f"no fleet device named {name!r}")

    @property
    def total_ops_per_second(self) -> float:
        """Aggregate replay throughput across the fleet.

        Concurrent replays overlap, so their combined wall time is the
        slowest device; sequential replays add up.
        """
        if self.parallel:
            wall = max((report.wall_seconds for report in self.devices), default=0.0)
        else:
            wall = sum(report.wall_seconds for report in self.devices)
        if wall <= 0:
            return 0.0
        return sum(report.result.records_replayed for report in self.devices) / wall

    def format_table(self) -> str:
        """Render one row per device, capability-matrix style."""
        header = (
            f"{'Device':<12} {'records':>8} {'cmds':>8} {'coalesce':>9} "
            f"{'ops/s':>10} {'WA':>6} {'wr us':>8} {'retained':>9} {'det':>4}"
        )
        lines = [header, "-" * len(header)]
        for report in self.devices:
            lines.append(
                f"{report.name:<12} "
                f"{report.result.records_replayed:>8} "
                f"{report.result.device_calls:>8} "
                f"{report.result.coalescing_factor:>9.2f} "
                f"{report.ops_per_second:>10.0f} "
                f"{report.write_amplification:>6.2f} "
                f"{report.mean_write_latency_us:>8.1f} "
                f"{report.retained_pages:>9} "
                f"{'✔' if report.detected else '✗':>4}"
            )
        return "\n".join(lines)


class FleetRunner:
    """Replays traces against a fleet of devices and compares them.

    :func:`repro.api.run_fleet` builds one per call; construct a runner
    directly to drive several scenarios through the same fleet.
    """

    def __init__(
        self,
        factories: Optional[Dict[str, FleetFactory]] = None,
        batched: bool = True,
        max_batch_pages: int = 64,
        honor_timestamps: bool = False,
        timer: Optional[Callable[[], float]] = None,
    ) -> None:
        self.factories = factories if factories is not None else default_fleet_factories()
        if not self.factories:
            raise ValueError("the fleet needs at least one device factory")
        self.batched = batched
        self.max_batch_pages = max_batch_pages
        self.honor_timestamps = honor_timestamps
        # wall_seconds is throughput *reporting*, not simulation state, so
        # the clock is injectable: tests pass a fake timer for deterministic
        # reports, and nothing inside scenario execution reads it.
        self.timer: Callable[[], float] = timer if timer is not None else time.perf_counter

    # -- single device ------------------------------------------------------

    def _replay_one(self, name: str, records: Sequence[TraceRecord]) -> FleetDeviceReport:
        target = self.factories[name]()
        device = getattr(target, "device", target)
        if self.batched:
            replayer: TraceReplayer = BatchTraceReplayer(
                device,
                honor_timestamps=self.honor_timestamps,
                max_batch_pages=self.max_batch_pages,
            )
        else:
            replayer = TraceReplayer(device, honor_timestamps=self.honor_timestamps)
        started = self.timer()
        result = replayer.replay(records)
        wall = self.timer() - started
        detect = getattr(target, "detect", None)
        metrics = device.metrics
        retained = getattr(device, "retained_pages_local", None)
        if retained is None:
            retained = device.ftl.stale_pages if hasattr(device, "ftl") else 0
        return FleetDeviceReport(
            name=name,
            result=result,
            wall_seconds=wall,
            detected=bool(detect()) if callable(detect) else False,
            write_amplification=metrics.write_amplification,
            mean_write_latency_us=metrics.latency["write"].mean_us,
            retained_pages=retained,
        )

    # -- fleet scenarios ----------------------------------------------------

    def run_mirrored(
        self, records: Sequence[TraceRecord], parallel: bool = False
    ) -> FleetReport:
        """Every device replays the full trace (comparison mode)."""
        return self._run(
            {name: records for name in self.factories}, mode="mirror", parallel=parallel
        )

    def run_sharded(
        self, records: Sequence[TraceRecord], parallel: bool = False
    ) -> FleetReport:
        """The trace is split round-robin, one shard per device."""
        shards = shard_trace(records, len(self.factories))
        assignment = {
            name: shard for name, shard in zip(self.factories, shards)
        }
        return self._run(assignment, mode="shard", parallel=parallel)

    def _run(
        self,
        assignment: Dict[str, Sequence[TraceRecord]],
        mode: str,
        parallel: bool,
    ) -> FleetReport:
        # Imported lazily: the campaign package sits above the defense and
        # attack layers, and importing it at module level would close an
        # import cycle through repro.host -> repro.workloads.
        from repro.campaign.runner import ExperimentRunner

        concurrent = parallel and len(assignment) > 1
        report = FleetReport(
            mode=mode,
            total_records=sum(len(records) for records in assignment.values()),
            batched=self.batched,
            parallel=concurrent,
        )
        # Thread backend: the factories close over live simulator objects,
        # which a process pool could not pickle.
        runner = ExperimentRunner(
            backend="thread" if concurrent else "sequential",
            jobs=len(assignment),
        )
        report.devices = runner.map(
            lambda name: self._replay_one(name, assignment[name]), list(assignment)
        )
        return report
