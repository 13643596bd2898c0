"""Session: the lifecycle object that executes one scenario.

A :class:`Session` takes a :class:`~repro.api.spec.ScenarioSpec` through
the canonical lifecycle::

    session = Session(spec)
    session.provision()   # clock, defense, device, event taps, victim FS
    session.run()         # workload -> attack -> scoring
    session.result        # SessionResult (picklable scores + live objects)

``provision()`` and ``run()`` are idempotent-by-construction in the
sense that ``run()`` provisions on demand and refuses to run twice; the
views -- :meth:`Session.metrics`, :meth:`Session.detection`,
:meth:`Session.forensics` -- are built lazily from the live scenario
objects and cached.

The session owns the :class:`~repro.sim.SimClock` and derives every
random stream from the spec the same SHA-256 way the campaign engine
does, so a campaign cell executed through a session is bit-identical to
the historical engine path (the golden-run suite pins this).  All
observation flows through the session's typed
:class:`~repro.api.events.EventBus`: the device's host-op stream, GC
passes, NVMe-oE offload capsules and retention evictions are published
as events, and the forensic :class:`~repro.forensics.pitr.TraceRecorder`
is just another subscriber.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.campaign.results import CellResult

from repro.api.events import (
    DetectionEvent,
    EventBus,
    GCEvent,
    HostOpEvent,
    OffloadEvent,
    RetentionEvictEvent,
)
from repro.api.spec import ScenarioSpec
from repro.attacks.base import AttackEnvironment, AttackOutcome
from repro.defenses.base import Defense, ForensicsEngineLike
from repro.defenses.matrix import DEFENDED_THRESHOLD
from repro.forensics import TraceRecorder, reference_image
from repro.sim import SimClock
from repro.ssd.device import HostOp
from repro.ssd.geometry import SSDGeometry


@dataclass
class SessionResult:
    """Everything needed to grade one executed scenario.

    The forensic fields are populated only for defenses that support
    forensics (an evidence chain to analyze); ``defense`` keeps the live
    defense object so in-process consumers (the ``repro recover`` CLI,
    the session views) can keep interrogating the scenario after it was
    scored.  A :class:`SessionResult` never crosses a process boundary
    -- workers reduce it to a picklable
    :class:`~repro.campaign.results.CellResult` via
    :meth:`to_cell_result`.
    """

    attack_outcome: AttackOutcome
    recovery_fraction: float
    pages_recovered: int
    defended: bool
    detected: bool
    detection_latency_us: Optional[int]
    compromised: bool
    write_amplification: float
    mean_write_latency_us: float
    mean_read_latency_us: float
    host_commands: int
    flash_pages_programmed: int
    oplog_hash: Optional[str]
    # -- forensics --------------------------------------------------------
    exact_pages_recovered: Optional[int] = None
    exact_pages_lost: Optional[int] = None
    recovery_exact: Optional[bool] = None
    forensic_pattern: Optional[str] = None
    first_malicious_us: Optional[int] = None
    blast_radius_pages: Optional[int] = None
    remote_time_order_ok: Optional[bool] = None
    integrity_errors: List[str] = field(default_factory=list)
    # -- live scenario objects (in-process consumers only) ----------------
    defense: Optional[Defense] = None
    recorder: Optional[TraceRecorder] = None
    spec: Optional[ScenarioSpec] = None

    def to_cell_result(self) -> "CellResult":
        """Reduce to a picklable campaign :class:`~repro.campaign.results.CellResult`.

        Requires a session that ran its :class:`ScenarioSpec` as written
        (the cell identity -- names and seeds -- comes from it).
        """
        from repro.campaign.results import CellResult

        if self.spec is None:
            raise ValueError(
                "this result was produced with a workload or geometry override "
                "its ScenarioSpec cannot express; cell results need the spec's "
                "names and seeds to reproduce the run"
            )
        outcome = self.attack_outcome
        spec = self.spec
        return CellResult(
            cell_key=spec.scenario_key,
            defense=spec.defense,
            attack=spec.attack,
            workload=spec.workload,
            device_config=spec.device,
            recovery_fraction=self.recovery_fraction,
            defended=self.defended,
            victim_pages=len(outcome.victim_lbas),
            pages_recovered=self.pages_recovered,
            detected=self.detected,
            detection_latency_us=self.detection_latency_us,
            compromised=self.compromised,
            attack_duration_us=outcome.duration_us,
            write_amplification=self.write_amplification,
            mean_write_latency_us=self.mean_write_latency_us,
            mean_read_latency_us=self.mean_read_latency_us,
            host_commands=self.host_commands,
            flash_pages_programmed=self.flash_pages_programmed,
            oplog_hash=self.oplog_hash,
            env_seed=spec.resolved_env_seed,
            workload_seed=spec.resolved_workload_seed,
            attack_seed=spec.resolved_attack_seed,
            exact_pages_recovered=self.exact_pages_recovered,
            exact_pages_lost=self.exact_pages_lost,
            recovery_exact=self.recovery_exact,
            forensic_pattern=self.forensic_pattern,
            first_malicious_us=self.first_malicious_us,
            blast_radius_pages=self.blast_radius_pages,
            remote_time_order_ok=self.remote_time_order_ok,
            integrity_errors=list(self.integrity_errors),
        )

    def to_dict(self) -> dict:
        """JSON-ready view: the spec plus the picklable cell scores."""
        return {
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "result": self.to_cell_result().to_dict(),
        }


@dataclass(frozen=True)
class MetricsView:
    """Lazily-built I/O overhead summary of a session's device."""

    write_amplification: float
    mean_write_latency_us: float
    mean_read_latency_us: float
    host_reads: int
    host_writes: int
    host_trims: int
    host_flushes: int
    flash_pages_programmed: int
    gc_invocations: int

    @property
    def host_commands(self) -> int:
        """Total host commands the device completed."""
        return self.host_reads + self.host_writes + self.host_trims + self.host_flushes


@dataclass(frozen=True)
class DetectionView:
    """Lazily-built detection summary of an executed session.

    ``detection_time_us`` is the defense's own trigger time (the same
    source ``detection_latency_us`` is computed from, so the two always
    agree); per-detector trigger times live on the individual
    :class:`~repro.api.events.DetectionEvent` records in ``events``.
    """

    detected: bool
    detection_time_us: Optional[int]
    detection_latency_us: Optional[int]
    events: Tuple[DetectionEvent, ...] = ()


def score_recovery(
    defense: Defense, env: AttackEnvironment, outcome: AttackOutcome
) -> tuple:
    """Fraction of victim pages whose pre-attack version is producible."""
    recovered = 0
    total = 0
    for lba in outcome.victim_lbas:
        original = outcome.original_fingerprints.get(lba)
        if original is None:
            continue
        total += 1
        live = env.device.read_content(lba)  # type: ignore[attr-defined]
        if live is not None and live.fingerprint == original:
            recovered += 1
            continue
        version = defense.pre_attack_version(lba, outcome.start_us)
        if version is not None and version.fingerprint == original:
            recovered += 1
    fraction = recovered / total if total else 0.0
    return fraction, recovered


def score_forensics(
    defense: Defense,
    outcome: AttackOutcome,
    recorder: Optional[TraceRecorder],
) -> dict:
    """Exact post-attack metrics for defenses with an evidence chain.

    Runs the full forensic pipeline -- chain + remote-order verification,
    attack classification, and a read-only point-in-time rebuild of the
    pre-attack image -- and checks the rebuilt image page for page
    against an independent replay of the recorded command-stream prefix.
    Defenses whose :meth:`~repro.defenses.base.Defense.forensics_engine`
    returns ``None`` (the capability protocol, shared with the
    ``repro recover`` CLI) get the all-``None`` defaults.
    """
    engine = defense.forensics_engine()
    if engine is None:
        return {}
    status = engine.verify_chain()
    classification = engine.classify()
    image = engine.recover_to(outcome.start_us)
    exact = image.is_exact
    if recorder is not None:
        exact = exact and image.matches(reference_image(recorder.ops, outcome.start_us))
    return {
        "exact_pages_recovered": image.pages_recovered,
        "exact_pages_lost": image.pages_lost,
        "recovery_exact": exact,
        "forensic_pattern": classification.pattern,
        "first_malicious_us": classification.first_malicious_us,
        "blast_radius_pages": classification.blast_radius_pages,
        "remote_time_order_ok": status.remote_time_order_ok,
        "integrity_errors": status.errors(),
    }


class _BusForwarder:
    """Device observer that republishes host ops as typed bus events.

    This sits on the device's per-command hot path, so it only
    constructs a :class:`HostOpEvent` when someone is subscribed; a
    subscriber-less session pays one dict lookup and a counter bump per
    op, nothing more.
    """

    def __init__(self, bus: EventBus) -> None:
        self._bus = bus

    def on_host_op(self, op: HostOp) -> None:
        """Observer hook: publish one completed host command."""
        bus = self._bus
        if bus.has_subscribers(HostOpEvent):
            bus.publish(HostOpEvent(timestamp_us=op.timestamp_us, op=op))
        else:
            bus.count_discarded(HostOpEvent)


class Session:
    """One scenario's lifecycle: ``provision() -> run() -> result``.

    Built from a validated :class:`~repro.api.spec.ScenarioSpec`, whose
    names resolve through the campaign registries.  Two overrides run
    something the spec cannot name: ``workload`` (a pre-attack workload
    callable, used by compound scenarios) and ``geometry`` (a custom
    device, used by the targeted ablation experiments).  Either one
    clears :attr:`SessionResult.spec`, so such a result never claims
    the spec reproduces it; to change a named field, ``replace`` the
    spec instead.

    ``observers`` is the legacy passive-observer hook; each observer is
    subscribed to the session's bus and fed the raw host-op stream,
    exactly as if it had been attached to the device directly.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        bus: Optional[EventBus] = None,
        workload: Optional[
            Callable[[AttackEnvironment, random.Random, float, float], None]
        ] = None,
        geometry: Optional[SSDGeometry] = None,
        observers: Sequence[object] = (),
    ) -> None:
        self.spec = spec
        self.bus = bus if bus is not None else EventBus()
        self._workload = workload
        self._geometry = geometry
        self._spec_faithful = workload is None and geometry is None
        self._observers = tuple(observers)

        self.clock: Optional[SimClock] = None
        self.defense: Optional[Defense] = None
        self.env: Optional[AttackEnvironment] = None
        self._recorder: Optional[TraceRecorder] = None
        self._result: Optional[SessionResult] = None
        self._forensics_cache: Optional[object] = None
        self._detection_cache: Optional[DetectionView] = None
        self._detection_events: List[DetectionEvent] = []
        self._detected_at_us: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def provisioned(self) -> bool:
        """Whether :meth:`provision` has run."""
        return self.defense is not None

    @property
    def executed(self) -> bool:
        """Whether :meth:`run` has completed."""
        return self._result is not None

    def provision(self) -> "Session":
        """Build the scenario: clock, defense, device taps, victim file system.

        Returns ``self`` for chaining.  Provisioning twice is an error
        (a session is one scenario; build a new session to re-run).
        """
        from repro.api.environment import provision_environment
        from repro.campaign import registries

        if self.provisioned:
            raise RuntimeError("session already provisioned")
        spec = self.spec
        self.clock = SimClock()
        geometry = self._geometry
        if geometry is None:
            geometry = registries.DEVICE_CONFIGS[spec.device]()
        self.defense = registries.DEFENSES[spec.defense](geometry, self.clock)
        if spec.ablation:
            from repro.ablation.registry import apply_ablation

            apply_ablation(self.defense, spec.ablation)
        self._wire_bus(self.defense)
        self.env = provision_environment(
            self.defense.device,
            victim_files=spec.victim_files,
            file_size_bytes=spec.file_size_bytes,
            seed=spec.resolved_env_seed,
        )
        return self

    def run(self) -> SessionResult:
        """Execute the scenario (provisioning on demand) and score it.

        Runs the pre-attack workload, lets aggressive attacks disable
        host-resident defenses, executes the attack, and scores
        recovery, detection, overhead and (where supported) exact
        forensics.  Returns the :class:`SessionResult`, also available
        as :attr:`result`.
        """
        from repro.campaign import registries

        if self.executed:
            raise RuntimeError("session already ran; build a new session to re-run")
        if not self.provisioned:
            self.provision()
        assert self.defense is not None and self.env is not None
        defense, env, spec = self.defense, self.env, self.spec

        workload = self._workload
        if workload is None:
            workload = registries.WORKLOADS[spec.workload]
        workload(
            env,
            random.Random(spec.resolved_workload_seed),
            spec.user_activity_hours,
            spec.recent_edit_fraction,
        )

        attack = registries.ATTACKS[spec.attack](spec.resolved_attack_seed)
        compromised = False
        if getattr(attack, "aggressive", False):
            compromised = defense.compromise()
        outcome: AttackOutcome = attack.execute(env)  # type: ignore[attr-defined]
        fraction, recovered = score_recovery(defense, env, outcome)

        detected = defense.detect()
        detection_latency_us: Optional[int] = None
        detected_at: Optional[int] = None
        if detected:
            detected_at = defense.detection_time_us()
            if detected_at is not None:
                detection_latency_us = max(0, detected_at - outcome.start_us)
            else:
                # The defense flags but cannot timestamp the trigger: bound
                # the latency by the end of the attack.
                detection_latency_us = outcome.duration_us
        self._detected_at_us = detected_at
        self._publish_detection(defense, detected, detected_at)

        device = defense.device
        metrics = device.metrics  # type: ignore[attr-defined]
        oplog = getattr(device, "oplog", None)

        forensics = score_forensics(defense, outcome, self._recorder)
        self._result = SessionResult(
            **forensics,
            defense=defense,
            recorder=self._recorder,
            spec=spec if self._spec_faithful else None,
            attack_outcome=outcome,
            recovery_fraction=fraction,
            pages_recovered=recovered,
            defended=fraction >= DEFENDED_THRESHOLD,
            detected=detected,
            detection_latency_us=detection_latency_us,
            compromised=compromised,
            write_amplification=metrics.write_amplification,
            mean_write_latency_us=metrics.latency["write"].mean_us,
            mean_read_latency_us=metrics.latency["read"].mean_us,
            host_commands=(
                metrics.host_reads
                + metrics.host_writes
                + metrics.host_trims
                + metrics.host_flushes
            ),
            flash_pages_programmed=metrics.flash_pages_programmed,
            oplog_hash=oplog.chain.head.hex() if oplog is not None else None,
        )
        return self._result

    @property
    def result(self) -> SessionResult:
        """The scored outcome; raises if the session has not run yet."""
        if self._result is None:
            raise RuntimeError("session has not run yet; call run() first")
        return self._result

    # -- lazily-built views ------------------------------------------------

    def metrics(self) -> MetricsView:
        """I/O overhead view of the session's device (provision first)."""
        if not self.provisioned:
            raise RuntimeError("session not provisioned yet; call provision() first")
        assert self.defense is not None
        metrics = self.defense.device.metrics  # type: ignore[attr-defined]
        return MetricsView(
            write_amplification=metrics.write_amplification,
            mean_write_latency_us=metrics.latency["write"].mean_us,
            mean_read_latency_us=metrics.latency["read"].mean_us,
            host_reads=metrics.host_reads,
            host_writes=metrics.host_writes,
            host_trims=metrics.host_trims,
            host_flushes=metrics.host_flushes,
            flash_pages_programmed=metrics.flash_pages_programmed,
            gc_invocations=metrics.gc_invocations,
        )

    def detection(self) -> DetectionView:
        """Detection summary of the executed session (cached)."""
        if self._detection_cache is None:
            result = self.result
            self._detection_cache = DetectionView(
                detected=result.detected,
                detection_time_us=self._detected_at_us,
                detection_latency_us=result.detection_latency_us,
                events=tuple(self._detection_events),
            )
        return self._detection_cache

    def forensics(self) -> "Optional[ForensicsEngineLike]":
        """The defense's post-attack analysis engine, or ``None`` (cached).

        Available for defenses with ``supports_forensics`` (structurally
        a :class:`~repro.defenses.base.ForensicsEngineLike`); the view is
        bound to the live device, so it reflects everything up to the
        moment it is queried.
        """
        if self._forensics_cache is None:
            if not self.provisioned:
                raise RuntimeError(
                    "session not provisioned yet; call provision() first"
                )
            assert self.defense is not None
            self._forensics_cache = self.defense.forensics_engine()
        return self._forensics_cache

    # -- internals ---------------------------------------------------------

    def _wire_bus(self, defense: Defense) -> None:
        """Attach every tap the scenario's device exposes to the bus.

        One forwarder on the raw device publishes the host-op stream;
        GC, offload and retention-eviction taps publish their typed
        events.  The forensic :class:`TraceRecorder` (ground truth for
        the exact-recovery check) and any legacy ``observers`` become
        ordinary subscribers.  Everything here is passive: wiring the
        bus never changes simulated behaviour.
        """
        raw_device = getattr(defense.device, "ssd", defense.device)
        if defense.supports_forensics and hasattr(defense.device, "ssd"):
            self._recorder = TraceRecorder()
            recorder = self._recorder
            self.bus.subscribe(HostOpEvent, lambda event: recorder.on_host_op(event.op))
        for observer in self._observers:
            self.bus.subscribe(
                HostOpEvent,
                lambda event, observer=observer: observer.on_host_op(event.op),  # type: ignore[attr-defined]
            )
        raw_device.add_observer(_BusForwarder(self.bus))  # type: ignore[attr-defined]
        bus = self.bus

        # Like the host-op forwarder, every tap below skips event
        # construction when nobody is listening (evictions alone can
        # fire tens of thousands of times in a flooding scenario).
        def on_gc(result: Any, timestamp_us: int, forced: bool) -> None:
            if bus.has_subscribers(GCEvent):
                bus.publish(GCEvent.from_result(result, timestamp_us, forced))
            else:
                bus.count_discarded(GCEvent)

        def on_evict(record: Any, cause: str, timestamp_us: int) -> None:
            if bus.has_subscribers(RetentionEvictEvent):
                bus.publish(
                    RetentionEvictEvent(
                        timestamp_us=timestamp_us, lba=record.lpn, cause=cause
                    )
                )
            else:
                bus.count_discarded(RetentionEvictEvent)

        def on_offload(kind: str, count: int, wire_bytes: int, timestamp_us: int) -> None:
            if bus.has_subscribers(OffloadEvent):
                bus.publish(
                    OffloadEvent(
                        timestamp_us=timestamp_us,
                        kind=kind,
                        count=count,
                        wire_bytes=wire_bytes,
                    )
                )
            else:
                bus.count_discarded(OffloadEvent)

        if hasattr(raw_device, "gc_listeners"):
            raw_device.gc_listeners.append(on_gc)
        policy = getattr(defense, "policy", None)
        if policy is not None and hasattr(policy, "evict_listeners"):
            policy.evict_listeners.append(on_evict)
        rssd = getattr(defense, "rssd", None)
        if rssd is not None and hasattr(rssd, "offload"):
            rssd.offload.listeners.append(on_offload)

    def _publish_detection(
        self, defense: Defense, detected: bool, detected_at: Optional[int]
    ) -> None:
        """Publish one detection-fire event per detector report available."""
        events: List[DetectionEvent] = [
            DetectionEvent(
                detector=report.detector,
                detected=report.detected,
                timestamp_us=report.detection_time_us,
                trigger=report.trigger,
            )
            for report in defense.detection_reports()
        ]
        if not events:
            events.append(
                DetectionEvent(
                    detector=defense.name,
                    detected=detected,
                    timestamp_us=detected_at,
                    trigger="defense-flag" if detected else "",
                )
            )
        for event in events:
            self._detection_events.append(event)
            self.bus.publish(event)
