"""The forensics facade: one entry point over a live RSSD device.

:class:`ForensicsEngine` binds the timeline builder, the classifier and
the point-in-time recovery service to the evidence sources a concrete
:class:`~repro.core.rssd.RSSD` owns -- its operation log, retention
archive, offload engine and NVMe-oE remote tier -- and produces the
:class:`~repro.forensics.report.ForensicReport` everything downstream
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.detection import profile_streams, suspect_streams
from repro.core.rssd import RSSD
from repro.forensics.classify import AttackClassification, classify_attack
from repro.forensics.pitr import PointInTimeRecovery, RecoveredImage, Snapshot
from repro.forensics.report import ForensicReport, classification_fields
from repro.forensics.timeline import OperationTimeline


@dataclass(frozen=True)
class ChainStatus:
    """Outcome of verifying the full evidence chain."""

    total_entries: int
    sealed_segments: int
    offloaded_segments: int
    chain_verified: bool
    tampered_at: Optional[int]
    remote_time_order_ok: Optional[bool]

    @property
    def trustworthy(self) -> bool:
        """Whether every integrity check the evidence supports passed."""
        return self.chain_verified and self.remote_time_order_ok is not False

    def errors(self) -> List[str]:
        """Structured error strings for every failed integrity check."""
        problems: List[str] = []
        if not self.chain_verified:
            where = "unknown" if self.tampered_at is None else str(self.tampered_at)
            problems.append(f"oplog-chain-mismatch: first divergence at entry {where}")
        if self.remote_time_order_ok is False:
            problems.append(
                "remote-time-order-violation: remote tier arrivals are not "
                "append-ordered"
            )
        return problems


class ForensicsEngine:
    """Post-attack analysis and recovery over one RSSD device."""

    def __init__(self, rssd: RSSD) -> None:
        self.rssd = rssd
        self._timeline: Optional[OperationTimeline] = None

    # -- evidence ---------------------------------------------------------

    @property
    def timeline(self) -> OperationTimeline:
        """The verified per-LBA timeline (built once, then cached)."""
        if self._timeline is None:
            self._timeline = OperationTimeline.from_oplog(
                self.rssd.oplog, self.rssd.retention
            )
        return self._timeline

    def verify_chain(self) -> ChainStatus:
        """Verify the hash chain and the remote tier's arrival order."""
        segments = self.rssd.oplog.sealed_segments()
        timeline = self.timeline
        return ChainStatus(
            total_entries=timeline.total_entries,
            sealed_segments=len(segments),
            offloaded_segments=sum(1 for s in segments if s.offloaded),
            chain_verified=timeline.chain_verified,
            tampered_at=timeline.tampered_at,
            remote_time_order_ok=self.rssd.remote.verify_time_order(),
        )

    # -- classification ---------------------------------------------------

    def classify(self) -> AttackClassification:
        """Identify the attack pattern, origin and blast radius."""
        profiles = profile_streams(self.rssd.oplog.all_entries())
        return classify_attack(
            self.timeline, profiles, suspect_streams(profiles), page_size=self.rssd.page_size
        )

    # -- recovery ---------------------------------------------------------

    def recovery(self) -> PointInTimeRecovery:
        """The point-in-time recovery service bound to this device."""
        return PointInTimeRecovery(
            ssd=self.rssd.ssd,
            retention=self.rssd.retention,
            oplog=self.rssd.oplog,
            offload=self.rssd.offload,
            timeline=self.timeline,
        )

    def snapshots(self) -> List[Snapshot]:
        """Recoverable points in the evidence chain, oldest first."""
        return self.recovery().snapshots()

    def recover_to(
        self, timestamp_us: int, simulate_fetch: bool = False
    ) -> RecoveredImage:
        """Rebuild the device image as of ``timestamp_us`` (read-only)."""
        return self.recovery().rebuild_image(timestamp_us, simulate_fetch=simulate_fetch)

    # -- the full report --------------------------------------------------

    def investigate(
        self,
        recover_to_us: Optional[int] = None,
        simulate_fetch: bool = False,
        image: Optional[RecoveredImage] = None,
    ) -> ForensicReport:
        """Run the complete analysis and assemble one forensic report.

        ``recover_to_us`` defaults to just before the first malicious
        operation, so the report's recovery section answers "what could
        we get back if we rolled the attack away?".  When no attack is
        identified and no explicit target is given, the recovery section
        is empty (there is nothing to roll back).  Callers that already
        rebuilt an image pass it as ``image`` to avoid a second
        per-LBA materialization; its ``target_us`` wins.
        """
        status = self.verify_chain()
        classification = self.classify()

        target_us: Optional[int] = recover_to_us
        if image is not None:
            target_us = image.target_us
        elif target_us is None and classification.first_malicious_us is not None:
            target_us = classification.first_malicious_us - 1

        if target_us is not None:
            if image is None:
                image = self.recover_to(target_us, simulate_fetch=simulate_fetch)
            recovery_fields = {
                "recovery_target_us": target_us,
                "pages_recovered_local": len(image.recovered_local),
                "pages_recovered_remote": len(image.recovered_remote),
                "pages_unverified": len(image.unverified),
                "pages_lost": image.pages_lost,
                "pages_unmapped": len(image.unmapped),
                "recovery_exact": image.is_exact,
                "lost_lbas": sorted(image.lost),
            }
        else:
            recovery_fields = {
                "recovery_target_us": None,
                "pages_recovered_local": 0,
                "pages_recovered_remote": 0,
                "pages_unverified": 0,
                "pages_lost": 0,
                "pages_unmapped": 0,
                "recovery_exact": True,
                "lost_lbas": [],
            }

        timeline = self.timeline
        return ForensicReport(
            total_entries=status.total_entries,
            sealed_segments=status.sealed_segments,
            offloaded_segments=status.offloaded_segments,
            chain_verified=status.chain_verified,
            tampered_at=status.tampered_at,
            remote_time_order_ok=status.remote_time_order_ok,
            lbas_touched=len(timeline.lbas()),
            gc_relocations=timeline.gc_relocations,
            timeline_span_us=timeline.span_us,
            **classification_fields(classification),
            **recovery_fields,
        )
