"""Defense framework shared by all baselines.

A *defense* owns a device (the thing workloads and attacks run
against), may keep host- or firmware-side state, and must answer one
question after an attack: *what did logical page X contain before the
attack started?*  The capability-matrix harness grades every defense by
how much of the victim data it can answer that question for, which is
the measured version of the paper's Table 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.sim import SimClock, US_PER_DAY
from repro.ssd.device import SSD, HostOp
from repro.ssd.flash import PageContent
from repro.ssd.ftl import FTL, InvalidationCause, StalePage
from repro.ssd.geometry import SSDGeometry

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.detection import DetectionReport
    from repro.forensics.engine import ForensicsEngine


class Defense(ABC):
    """Interface every defense (and RSSD itself, via an adapter) implements."""

    #: Row label used in the capability matrix.
    name: str = "defense"
    #: True if the defense lives below the block interface and cannot be
    #: disabled by a privileged host attacker.
    hardware_isolated: bool = False
    #: True if the defense can produce a trustworthy, ordered record of
    #: the storage operations that led to the attack.
    supports_forensics: bool = False

    def __init__(
        self, geometry: Optional[SSDGeometry] = None, clock: Optional[SimClock] = None
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.geometry = geometry if geometry is not None else SSDGeometry.tiny()
        self.compromised = False
        self.device = self._build_device()

    # -- construction -------------------------------------------------------------

    @abstractmethod
    def _build_device(self):
        """Create the block device this defense protects."""

    # -- threat model ---------------------------------------------------------------

    def compromise(self) -> bool:
        """A privileged attacker attempts to disable the defense.

        Host-resident defenses are disabled (their state is destroyed or
        their agent killed); hardware-isolated ones are unaffected.
        Returns whether the defense is now compromised.
        """
        if not self.hardware_isolated:
            self.compromised = True
            self._on_compromised()
        return self.compromised

    def _on_compromised(self) -> None:
        """Hook for software defenses to drop their host-side state."""

    # -- capabilities -------------------------------------------------------------------

    @abstractmethod
    def pre_attack_version(
        self, lba: int, attack_start_us: int
    ) -> Optional[PageContent]:
        """The newest version of ``lba`` from before ``attack_start_us``.

        Returns ``None`` when the defense cannot produce one (no
        retention, expired, evicted, or compromised).
        """

    def detect(self) -> bool:
        """Whether the defense has flagged ransomware activity so far."""
        return False

    def detection_time_us(self) -> Optional[int]:
        """Device time of the detector's first trigger, if known.

        Detectors that can timestamp their trigger record it in
        ``_detected_at_us``; defenses that only expose a boolean return
        ``None`` and the campaign engine bounds the latency by the end
        of the attack instead.
        """
        if not self.detect():
            return None
        return getattr(self, "_detected_at_us", None)

    def detection_reports(self) -> List[DetectionReport]:
        """Per-detector verdict reports, if the defense exposes any.

        Defenses running named detectors (e.g. RSSD's in-firmware window
        detector plus the offloaded full-history detector) return one
        report per detector after :meth:`detect` has run; defenses that
        only answer the boolean return an empty list, and the session
        facade synthesizes a single generic detection event instead.
        """
        return []

    def forensics_engine(self) -> Optional[ForensicsEngine]:
        """The post-attack analysis service, if the defense supports one.

        Defenses with ``supports_forensics`` return a
        :class:`~repro.forensics.engine.ForensicsEngine` bound to their
        device; everything else returns ``None``.  This is the single
        capability probe the campaign engine and the ``repro recover``
        CLI share.
        """
        return None


class SoftwareDefense(Defense):
    """Base for host-resident defenses: a plain SSD plus host-side state.

    The underlying device behaves exactly like a commodity drive
    (immediate release of stale data, eager trim), because software
    defenses cannot change firmware behaviour.
    """

    hardware_isolated = False

    def _build_device(self) -> SSD:
        device = SSD(geometry=self.geometry, clock=self.clock, eager_trim_gc=True)
        device.add_observer(self)
        return device

    # Observer hook: subclasses override to watch writes.
    def on_host_op(self, op: HostOp) -> None:  # pragma: no cover - default no-op
        return None


class SelectiveRetentionPolicy:
    """Retention policy used by the hardware baselines.

    Retains the stale pages selected by ``should_retain`` for at most
    ``window_us``, holding at most ``capacity_pages`` of them.  When GC
    pressure arrives, the policy either pins its retained set (stalling
    the device, as FlashGuard/TimeSSD effectively do) or releases the
    oldest entries (as the small buffers of detection-first designs do).

    The policy keeps its own index of retained versions; defenses answer
    ``pre_attack_version`` from that index, so expiry and eviction take
    effect immediately regardless of when GC physically erases pages.
    The index is keyed by record identity: the FTL builds each
    :class:`StalePage` once and GC hands back that same object.
    """

    def __init__(
        self,
        clock: SimClock,
        should_retain: Callable[[StalePage], bool],
        window_us: float = 3 * US_PER_DAY,
        capacity_pages: int = 1_000_000,
        pin_under_pressure: bool = True,
    ) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be at least 1")
        self.clock = clock
        self.should_retain = should_retain
        self.window_us = window_us
        self.capacity_pages = capacity_pages
        self.pin_under_pressure = pin_under_pressure
        #: Retained records, oldest first, keyed by ``id(record)``.
        self._retained: OrderedDict[int, StalePage] = OrderedDict()
        self._evicted = 0
        self._forced_releases = 0
        #: Passive callbacks invoked with ``(record, cause, timestamp_us)``
        #: when a retained version is dropped -- ``"capacity"`` for
        #: ring-buffer overflow, ``"gc-pressure"`` for forced releases
        #: under reclaim pressure.  The :mod:`repro.api` event bus taps
        #: this to publish typed ``RetentionEvictEvent`` records.
        self.evict_listeners: List[Callable[[StalePage, str, int], None]] = []

    # -- RetentionPolicy protocol -------------------------------------------------------

    def on_invalidate(self, record: StalePage) -> None:
        if not self.should_retain(record):
            return
        self._retained[id(record)] = record
        while len(self._retained) > self.capacity_pages:
            _, evicted = self._retained.popitem(last=False)
            evicted.released = True
            self._evicted += 1
            for listener in self.evict_listeners:
                listener(evicted, "capacity", self.clock.now_us)

    def _expired(self, record: StalePage) -> bool:
        return (self.clock.now_us - record.invalidated_us) > self.window_us

    def _is_retained(self, record: StalePage) -> bool:
        return id(record) in self._retained and not record.released and not self._expired(record)

    def may_release(self, record: StalePage) -> bool:
        return not self._is_retained(record)

    def on_release(self, record: StalePage) -> None:
        self._retained.pop(id(record), None)

    def on_relocate(self, record: StalePage, new_ppn: int) -> None:
        return None

    def reclaim_pressure(self, ftl: FTL, needed_pages: int) -> int:
        if self.pin_under_pressure:
            return 0
        released = 0
        while self._retained and released < needed_pages:
            _, record = self._retained.popitem(last=False)
            record.released = True
            self._forced_releases += 1
            released += 1
            for listener in self.evict_listeners:
                listener(record, "gc-pressure", self.clock.now_us)
        return released

    # -- queries used by the owning defense ------------------------------------------------

    @property
    def retained_count(self) -> int:
        return sum(1 for record in self._retained.values() if self._is_retained(record))

    @property
    def evicted_count(self) -> int:
        return self._evicted + self._forced_releases

    def lookup(self, lba: int, before_us: int) -> Optional[PageContent]:
        """Newest retained version of ``lba`` written at or before ``before_us``."""
        best: Optional[StalePage] = None
        for record in self._retained.values():
            if record.lpn != lba or record.released or self._expired(record):
                continue
            if record.written_us <= before_us:
                if best is None or record.written_us > best.written_us:
                    best = record
        return best.content if best is not None else None


class HardwareDefense(Defense):
    """Base for firmware-level baselines built on a selective retention policy."""

    hardware_isolated = True
    #: Retention window (microseconds); subclasses override.
    window_us: float = 3 * US_PER_DAY
    #: Maximum retained pages; subclasses override.
    capacity_pages: int = 1_000_000
    #: Whether the policy pins retained data under GC pressure.
    pin_under_pressure: bool = True
    #: Whether trim on this device eagerly erases data (commodity behaviour).
    eager_trim_gc: bool = True

    def __init__(
        self, geometry: Optional[SSDGeometry] = None, clock: Optional[SimClock] = None
    ) -> None:
        self.policy: Optional[SelectiveRetentionPolicy] = None
        super().__init__(geometry=geometry, clock=clock)

    def _build_device(self) -> SSD:
        self.policy = SelectiveRetentionPolicy(
            clock=self.clock,
            should_retain=self._should_retain,
            window_us=self.window_us,
            capacity_pages=self.capacity_pages,
            pin_under_pressure=self.pin_under_pressure,
        )
        device = SSD(
            geometry=self.geometry,
            clock=self.clock,
            retention_policy=self.policy,
            eager_trim_gc=self.eager_trim_gc,
        )
        device.add_observer(self)
        return device

    def _should_retain(self, record: StalePage) -> bool:
        """Default selection: retain data invalidated by overwrites only."""
        return record.cause is InvalidationCause.OVERWRITE

    def on_host_op(self, op: HostOp) -> None:  # pragma: no cover - default no-op
        return None

    def pre_attack_version(
        self, lba: int, attack_start_us: int
    ) -> Optional[PageContent]:
        assert self.policy is not None
        return self.policy.lookup(lba, attack_start_us)
