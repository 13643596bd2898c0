"""Component-level ablation framework over the campaign engine.

The paper's claims are about *components* -- selective retention,
NVMe-oE offload, enhanced trim, each in-device detector, the GC policy,
the retention eviction rule -- but the defenses in the capability matrix
are all-or-nothing.  This package makes the components individually
toggleable and measurable:

* :mod:`repro.ablation.registry` declares every toggleable feature and
  knows how to disable it on a live defense instance;
* :mod:`repro.ablation.config` is the immutable enable/disable set that
  rides inside a :class:`~repro.api.spec.ScenarioSpec` (its optional
  ``ablation`` field);
* :mod:`repro.ablation.study` sweeps feature drop-one sets or power-sets
  through the campaign :class:`~repro.campaign.runner.ExperimentRunner`
  with SHA-256 per-cell seeding, bit-identical across the
  sequential/thread/process backends, and emits a versioned JSON
  artifact;
* :mod:`repro.ablation.metrics` turns an artifact into per-feature
  impact deltas (recovery fraction, detection, latency, I/O overhead)
  plus CSV/Markdown reports;
* :mod:`repro.ablation.experiments` hosts the paper's targeted
  offload/trim/detection ablation experiments, ported onto the
  spec-and-session lifecycle.

The ``repro ablate`` CLI subcommand drives all of it.
"""

from repro.ablation.config import AblationConfig
from repro.ablation.experiments import (
    DetectionRow,
    OffloadRow,
    TrimAblationRow,
    run_detection_ablation,
    run_offload_ablation,
    run_trim_ablation,
)
from repro.ablation.metrics import (
    FeatureImpact,
    calculate_metrics,
    render_impact_csv,
    render_impact_markdown,
    render_impact_table,
)
from repro.ablation.registry import (
    FEATURES,
    AblationError,
    Feature,
    apply_ablation,
    feature_names,
    validate_features,
)
from repro.ablation.study import (
    AblationArtifact,
    AblationCellResult,
    AblationStudy,
    run_ablation_cell,
)

__all__ = [
    "FEATURES",
    "AblationArtifact",
    "AblationCellResult",
    "AblationConfig",
    "AblationError",
    "AblationStudy",
    "DetectionRow",
    "Feature",
    "FeatureImpact",
    "OffloadRow",
    "TrimAblationRow",
    "apply_ablation",
    "calculate_metrics",
    "feature_names",
    "render_impact_csv",
    "render_impact_markdown",
    "render_impact_table",
    "run_ablation_cell",
    "run_detection_ablation",
    "run_offload_ablation",
    "run_trim_ablation",
    "validate_features",
]
