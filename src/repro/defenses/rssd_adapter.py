"""RSSD exposed through the defense interface.

The capability-matrix harness talks to every row of Table 1 through the
:class:`~repro.defenses.base.Defense` interface; this adapter lets the
full RSSD device (retention + logging + offload + recovery + forensics)
be scored in exactly the same runs as the baselines.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import RSSDConfig
from repro.core.detection import DetectionReport
from repro.core.rssd import RSSD
from repro.defenses.base import Defense
from repro.forensics import ForensicsEngine
from repro.sim import SimClock
from repro.ssd.flash import PageContent
from repro.ssd.geometry import SSDGeometry


class RSSDDefense(Defense):
    """The paper's device, adapted to the defense interface."""

    name = "RSSD"
    hardware_isolated = True
    supports_forensics = True

    def __init__(
        self,
        geometry: Optional[SSDGeometry] = None,
        clock: Optional[SimClock] = None,
        config: Optional[RSSDConfig] = None,
    ) -> None:
        self._config_override = config
        #: Ablation toggles: the ``local-detector`` / ``remote-detector``
        #: features clear these, making :meth:`detect` skip the
        #: corresponding analysis and report a non-detection instead.
        self.local_detection_enabled = True
        self.remote_detection_enabled = True
        super().__init__(geometry=geometry, clock=clock)

    def _build_device(self) -> RSSD:
        if self._config_override is not None:
            config = self._config_override
        else:
            config = RSSDConfig(geometry=self.geometry)
        self.rssd = RSSD(config=config, clock=self.clock)
        return self.rssd

    # -- Defense interface ----------------------------------------------------------

    def pre_attack_version(self, lba: int, attack_start_us: int) -> Optional[PageContent]:
        # Live data that predates the attack counts as its own pre-attack
        # version (the attacker never touched it).
        live = self.rssd.ssd.ftl.lookup(lba)
        if live is not None and live.written_us <= attack_start_us:
            return self.rssd.ssd.flash.read(live.ppn)
        version = self.rssd.retention.latest_version_before(lba, attack_start_us)
        if version is None:
            return None
        if version.released and not version.offloaded:
            # Never happens by construction (the retention invariant), but
            # the honest answer if it did would be "lost".
            return None
        return version.content

    def detect(self) -> bool:
        # The remote report replays the full operation log; cache it so
        # detection_time_us() does not repeat the analysis.  Ablated
        # detectors are replaced by an honest "ran nothing, saw nothing"
        # report so downstream consumers keep both slots.
        if self.remote_detection_enabled:
            self._remote_report = self.rssd.detect()
        else:
            self._remote_report = DetectionReport(
                detector="remote-offloaded", detected=False, trigger="disabled"
            )
        if self.local_detection_enabled:
            self._local_report = self.rssd.local_detector.report()
        else:
            self._local_report = DetectionReport(
                detector="local-window", detected=False, trigger="disabled"
            )
        return self._remote_report.detected or self._local_report.detected

    def detection_time_us(self) -> Optional[int]:
        if getattr(self, "_remote_report", None) is None:
            self.detect()
        local = self._local_report
        if local.detected and local.detection_time_us is not None:
            return local.detection_time_us
        if self._remote_report.detected:
            return getattr(self._remote_report, "detection_time_us", None)
        return None

    def detection_reports(self) -> List[DetectionReport]:
        """The local-window and remote-offloaded reports (after :meth:`detect`)."""
        return [
            report
            for report in (
                getattr(self, "_local_report", None),
                getattr(self, "_remote_report", None),
            )
            if report is not None
        ]

    def forensics_engine(self) -> ForensicsEngine:
        """The full post-attack analysis and point-in-time recovery service.

        Returns a :class:`~repro.forensics.engine.ForensicsEngine` bound
        to this defense's device; campaign cells and the ``repro
        recover`` CLI use it to produce exact recovery metrics and the
        attack-timeline report.
        """
        return ForensicsEngine(self.rssd)
