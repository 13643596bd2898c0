"""The paper's targeted ablation experiments, on the session lifecycle.

These are the three focused ablations the benchmark suite prints (A1:
offload path throughput per replayed volume, A2: enhanced trim versus
naive and disabled trim handling, A3: local versus remote detection per
attack family).  They predate the :mod:`repro.api` facade and used to
build devices and environments ad hoc; here each variant is an ordinary
:class:`~repro.api.spec.ScenarioSpec` run through a
:class:`~repro.api.session.Session`, with component toggles expressed
through the spec's ``ablation`` field wherever the feature registry
covers them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ssd.geometry import SSDGeometry


# ---------------------------------------------------------------------------
# A1: offload path throughput per replayed volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffloadRow:
    """Offload-path behaviour for one replayed volume."""

    volume: str
    pages_offloaded: int
    raw_mb: float
    compressed_mb: float
    compression_ratio: float
    wire_mb: float
    link_backlog_us: float


def run_offload_ablation(
    volumes: Optional[List[str]] = None,
    geometry: Optional["SSDGeometry"] = None,
    duration_s: float = 0.1,
    time_compression: float = 30_000.0,
    seed: int = 17,
) -> List[OffloadRow]:
    """Replay volumes on RSSD and report what the offload path shipped.

    Each volume runs as an attack-free scenario (``attack="none"``)
    whose workload is the registered ``trace-<volume>`` replay; the
    replay's fixed 30,000x time compression means a non-default
    ``time_compression`` is expressed by scaling the trace duration.
    """
    from repro.api import ScenarioSpec, Session

    volumes = volumes if volumes is not None else ["hm", "src", "email", "usr"]
    rows: List[OffloadRow] = []
    for volume in volumes:
        spec = ScenarioSpec(
            defense="RSSD",
            attack="none",
            workload=f"trace-{volume}",
            device="tiny",
            victim_files=1,
            user_activity_hours=duration_s * (time_compression / 30_000.0),
            recent_edit_fraction=0.0,
            seed=seed,
        )
        session = (
            Session(spec) if geometry is None else Session(spec, geometry=geometry)
        )
        result = session.run()
        rssd = result.defense.rssd  # type: ignore[union-attr]
        rssd.drain_offload_queue()
        stats = rssd.offload.stats
        rows.append(
            OffloadRow(
                volume=volume,
                pages_offloaded=stats.pages_offloaded,
                raw_mb=stats.raw_bytes / 1024**2,
                compressed_mb=stats.compressed_bytes / 1024**2,
                compression_ratio=stats.compression_ratio,
                wire_mb=stats.wire_bytes / 1024**2,
                link_backlog_us=rssd.offload.link_backlog_us,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# A2: enhanced-trim ablation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrimAblationRow:
    """Outcome of the trimming attack under each trim-handling mode."""

    mode: str
    pages_trimmed: int
    recovered_fraction: float
    trim_rejected: bool


def run_trim_ablation(
    geometry: Optional["SSDGeometry"] = None,
    victim_files: int = 16,
) -> List[TrimAblationRow]:
    """Compare enhanced trim against retain-nothing and trim-disabled variants.

    The ``naive`` variant is the registry's ``enhanced-trim`` ablation
    (naive mode plus no trimmed-page retention); the ``disabled``
    variant (reject trims outright) is a measurement-only mode outside
    the registry, applied to the provisioned session directly.
    """
    from repro.api import ScenarioSpec, Session
    from repro.core.trim_handler import TrimMode

    base = ScenarioSpec(
        defense="RSSD",
        attack="trimming-attack",
        workload="idle",
        device="tiny",
        victim_files=victim_files,
        user_activity_hours=0.0,
        seed=23,
    )
    rows: List[TrimAblationRow] = []
    variants = (
        ("enhanced", (), None),
        ("naive", ("enhanced-trim",), None),
        ("disabled", (), TrimMode.DISABLED),
    )
    for label, ablation, forced_mode in variants:
        spec = replace(base, ablation=ablation)
        session = (
            Session(spec) if geometry is None else Session(spec, geometry=geometry)
        )
        session.provision()
        rssd = session.defense.rssd  # type: ignore[union-attr]
        if forced_mode is not None:
            rssd.trim_handler.set_mode(forced_mode)
        result = session.run()
        rows.append(
            TrimAblationRow(
                mode=label,
                pages_trimmed=result.attack_outcome.pages_trimmed,
                recovered_fraction=result.recovery_fraction,
                trim_rejected=rssd.trim_handler.stats.pages_rejected > 0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# A3: local versus offloaded detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionRow:
    """Detection outcomes of the local and remote detectors for one attack."""

    attack: str
    local_detected: bool
    remote_detected: bool
    remote_identified_attacker: bool


def run_detection_ablation(
    attack_names: Optional[List[str]] = None,
    geometry: Optional["SSDGeometry"] = None,
) -> List[DetectionRow]:
    """Run each attack against RSSD and compare the two detectors."""
    from repro.api import ScenarioSpec, Session

    attack_names = attack_names if attack_names is not None else [
        "classic",
        "gc-attack",
        "timing-attack",
        "trimming-attack",
    ]
    rows: List[DetectionRow] = []
    for name in attack_names:
        spec = ScenarioSpec(
            defense="RSSD",
            attack=name,
            workload="idle",
            device="tiny",
            victim_files=24,
            user_activity_hours=0.0,
            seed=23,
        )
        session = (
            Session(spec) if geometry is None else Session(spec, geometry=geometry)
        )
        result = session.run()
        reports = {
            report.detector: report
            for report in result.defense.detection_reports()  # type: ignore[union-attr]
        }
        local = reports["local-window"]
        remote = reports["remote-offloaded"]
        rows.append(
            DetectionRow(
                attack=name,
                local_detected=local.detected,
                remote_detected=remote.detected,
                remote_identified_attacker=(
                    session.env.attacker_stream in remote.suspected_streams  # type: ignore[union-attr]
                ),
            )
        )
    return rows
