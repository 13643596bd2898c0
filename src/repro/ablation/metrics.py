"""Per-feature impact metrics over an ablation artifact.

The study's cells are matched pairs: for every configuration with
feature *F* enabled there may be a sibling identical except that *F* is
disabled (drop-one sweeps pair the full config with each single-feature
config; power-set sweeps pair every subset with its ``subset + {F}``
sibling).  :func:`calculate_metrics` averages the deltas over every such
pair, per attack, so a :class:`FeatureImpact` answers the paper's
question directly: *what does this component buy, against this attack,
holding everything else fixed?*

Deltas are oriented as ``enabled - disabled``: a positive
``recovery_fraction_delta`` means the feature improves recovery, a
positive ``mean_write_latency_delta_us`` means the feature costs write
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ablation.study import AblationArtifact, AblationCellResult


@dataclass(frozen=True)
class FeatureImpact:
    """Mean effect of enabling one feature, against one attack."""

    feature: str
    attack: str
    #: Matched (enabled, disabled) config pairs the means average over.
    pairs: int
    #: Mean recovery-fraction gain from enabling the feature.
    recovery_fraction_delta: float
    #: Mean change in detection rate (1.0 = the feature alone flips
    #: every pair from undetected to detected).
    detected_delta: float
    #: Mean detection-latency change in microseconds, over pairs where
    #: both sides detected; ``None`` when no such pair exists.
    detection_latency_delta_us: Optional[float]
    #: Mean write-amplification cost of the feature.
    write_amplification_delta: float
    #: Mean host write-latency cost in microseconds.
    mean_write_latency_delta_us: float
    #: Mean change in host commands issued (workload-visible overhead).
    host_commands_delta: float
    #: Mean change in retained pages lost before offload.
    data_loss_pages_delta: float


def _pair_cells(
    cells: Sequence[AblationCellResult], feature: str
) -> List[Tuple[AblationCellResult, AblationCellResult]]:
    """Matched (feature-enabled, feature-disabled) pairs among ``cells``.

    Two cells pair when their disabled sets differ exactly by
    ``feature`` -- everything else (attack included; callers group by
    attack first) held fixed.
    """
    by_disabled = {tuple(cell.disabled): cell for cell in cells}
    pairs = []
    for disabled, cell in sorted(by_disabled.items()):
        if feature in disabled:
            continue
        sibling_key = tuple(sorted(disabled + (feature,)))
        sibling = by_disabled.get(sibling_key)
        if sibling is not None:
            pairs.append((cell, sibling))
    return pairs


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def calculate_metrics(artifact: AblationArtifact) -> List[FeatureImpact]:
    """Per-feature, per-attack impact deltas for a completed study.

    Features and attacks with no matched pair are omitted (a power-set
    sweep always has pairs; a degenerate sweep may not).  Output order
    is deterministic: by feature, then attack.
    """
    features = [str(name) for name in artifact.sweep.get("features", [])]
    impacts: List[FeatureImpact] = []
    by_attack: Dict[str, List[AblationCellResult]] = {}
    for cell in artifact.cells:
        by_attack.setdefault(cell.attack, []).append(cell)
    for feature in sorted(features):
        for attack in sorted(by_attack):
            pairs = _pair_cells(by_attack[attack], feature)
            if not pairs:
                continue
            latency_deltas = [
                float(on.detection_latency_us - off.detection_latency_us)
                for on, off in pairs
                if on.detection_latency_us is not None
                and off.detection_latency_us is not None
            ]
            impacts.append(
                FeatureImpact(
                    feature=feature,
                    attack=attack,
                    pairs=len(pairs),
                    recovery_fraction_delta=_mean(
                        [on.recovery_fraction - off.recovery_fraction for on, off in pairs]
                    ),
                    detected_delta=_mean(
                        [float(on.detected) - float(off.detected) for on, off in pairs]
                    ),
                    detection_latency_delta_us=(
                        _mean(latency_deltas) if latency_deltas else None
                    ),
                    write_amplification_delta=_mean(
                        [
                            on.write_amplification - off.write_amplification
                            for on, off in pairs
                        ]
                    ),
                    mean_write_latency_delta_us=_mean(
                        [
                            on.mean_write_latency_us - off.mean_write_latency_us
                            for on, off in pairs
                        ]
                    ),
                    host_commands_delta=_mean(
                        [float(on.host_commands - off.host_commands) for on, off in pairs]
                    ),
                    data_loss_pages_delta=_mean(
                        [
                            float(on.data_loss_pages - off.data_loss_pages)
                            for on, off in pairs
                        ]
                    ),
                )
            )
    return impacts


_IMPACT_HEADERS = (
    "feature",
    "attack",
    "pairs",
    "recovery_delta",
    "detected_delta",
    "detection_latency_delta_us",
    "write_amp_delta",
    "write_latency_delta_us",
    "host_commands_delta",
    "data_loss_delta",
)


def _impact_rows(impacts: Sequence[FeatureImpact]) -> List[List[object]]:
    rows: List[List[object]] = []
    for impact in impacts:
        latency = (
            impact.detection_latency_delta_us
            if impact.detection_latency_delta_us is not None
            else "n/a"
        )
        rows.append(
            [
                impact.feature,
                impact.attack,
                impact.pairs,
                impact.recovery_fraction_delta,
                impact.detected_delta,
                latency,
                impact.write_amplification_delta,
                impact.mean_write_latency_delta_us,
                impact.host_commands_delta,
                impact.data_loss_pages_delta,
            ]
        )
    return rows


def render_impact_csv(impacts: Sequence[FeatureImpact]) -> str:
    """The per-feature impact table as CSV text."""
    from repro.analysis.reporting import format_csv

    return format_csv(_IMPACT_HEADERS, _impact_rows(impacts))


def render_impact_markdown(impacts: Sequence[FeatureImpact]) -> str:
    """The per-feature impact table as a GitHub-flavoured markdown table."""
    from repro.analysis.reporting import format_markdown_table

    return format_markdown_table(_IMPACT_HEADERS, _impact_rows(impacts))


def render_impact_table(impacts: Sequence[FeatureImpact]) -> str:
    """The per-feature impact table as an aligned fixed-width text table."""
    from repro.analysis.reporting import format_table

    return format_table(_IMPACT_HEADERS, _impact_rows(impacts))
