"""Detection-quality (ROC) evaluation over campaign cells.

The campaign artifact records whether each defense *eventually* fired;
this module measures how well the underlying detector primitives
separate malicious writes from benign ones.  Each cell of an evasion
grid is executed once with a
:class:`~repro.core.detection.DetectionTraceObserver` attached, then
every detector primitive (absolute entropy, entropy jump, sliding
window) is swept across its threshold grid offline, producing one ROC
curve per (defense, attack, workload, device, detector).

Everything is deterministic: cell seeds derive from the campaign seed,
the sweep is pure arithmetic over the recorded stream, and the artifact
serializes canonically -- so ROC artifacts are bit-identical across
backends and execution orders and can be pinned by a golden file, just
like campaign artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.campaign.grid import CampaignGrid, CellSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.campaign.cache import CacheStats, ResultCache
    from repro.campaign.checkpoint import CheckpointJournal
from repro.campaign.runner import ExperimentRunner
from repro.core.detection import (
    DETECTOR_DEFAULTS,
    DetectionTraceObserver,
    detector_names,
    sweep_detector,
)

#: Bump when the ROC artifact schema changes; readers refuse newer versions.
ROC_ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class RocPoint:
    """One detector threshold's confusion counts over a cell's write stream.

    Rates are stored (not recomputed) so the serialized artifact is
    self-contained and bit-comparable.
    """

    threshold: float
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    true_positive_rate: float
    false_positive_rate: float
    precision: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the point."""
        return {
            "threshold": self.threshold,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "true_negatives": self.true_negatives,
            "false_negatives": self.false_negatives,
            "true_positive_rate": self.true_positive_rate,
            "false_positive_rate": self.false_positive_rate,
            "precision": self.precision,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RocPoint":
        """Rebuild a point from its JSON form."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RocCurve:
    """The full threshold sweep of one detector over one cell.

    ``auc`` is the trapezoidal area under the (FPR, TPR) curve anchored
    at (0,0) and (1,1); ``*_at_default`` report the operating point at
    the detector's deployed threshold; ``defense_detected`` is whether
    the cell's *actual* defense flagged the scenario, for comparing the
    swept primitive against the shipped detector.
    """

    cell_key: str
    defense: str
    attack: str
    workload: str
    device_config: str
    detector: str
    default_threshold: float
    tpr_at_default: float
    fpr_at_default: float
    auc: float
    defense_detected: bool
    samples: int
    points: List[RocPoint] = field(default_factory=list)

    @property
    def curve_key(self) -> str:
        """Stable identifier: cell key plus detector name."""
        return f"{self.cell_key}#{self.detector}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the curve (points in threshold order)."""
        return {
            "cell_key": self.cell_key,
            "defense": self.defense,
            "attack": self.attack,
            "workload": self.workload,
            "device_config": self.device_config,
            "detector": self.detector,
            "default_threshold": self.default_threshold,
            "tpr_at_default": self.tpr_at_default,
            "fpr_at_default": self.fpr_at_default,
            "auc": self.auc,
            "defense_detected": self.defense_detected,
            "samples": self.samples,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RocCurve":
        """Rebuild a curve from its JSON form."""
        payload = dict(data)
        points = [RocPoint.from_dict(point) for point in payload.pop("points", [])]
        return cls(points=points, **payload)  # type: ignore[arg-type]


def auc_from_points(points: Sequence[RocPoint]) -> float:
    """Trapezoidal area under the ROC curve described by ``points``.

    The curve is anchored at (0, 0) and (1, 1); duplicate FPR values
    collapse to their best TPR so the sweep grid's density does not
    change the area.
    """
    best_tpr: Dict[float, float] = {}
    for point in points:
        fpr = point.false_positive_rate
        best_tpr[fpr] = max(best_tpr.get(fpr, 0.0), point.true_positive_rate)
    coords = sorted(best_tpr.items())
    if not coords or coords[0][0] > 0.0:
        coords.insert(0, (0.0, 0.0))
    if coords[-1][0] < 1.0:
        coords.append((1.0, 1.0))
    area = 0.0
    for (fpr_a, tpr_a), (fpr_b, tpr_b) in zip(coords, coords[1:]):
        area += (fpr_b - fpr_a) * (tpr_a + tpr_b) / 2.0
    return area


def run_roc_cell(spec: CellSpec) -> List[RocCurve]:
    """Execute one cell with labelled-op capture and sweep every detector.

    Module-level (and returning plain dataclasses) so process pools can
    pickle it, exactly like :func:`repro.campaign.engine.run_cell`.  The
    cell runs as a ``ScenarioSpec`` + ``Session`` with the
    :class:`~repro.core.detection.DetectionTraceObserver` subscribed to
    the session's event bus -- ROC labelling is an ordinary subscriber.
    """
    from repro.campaign.engine import execute_cell_scenario

    observer = DetectionTraceObserver()
    scenario = execute_cell_scenario(spec, observers=[observer])
    samples = observer.samples(scenario.attack_outcome.malicious_streams)
    curves: List[RocCurve] = []
    for detector in detector_names():
        default_threshold = DETECTOR_DEFAULTS[detector]
        points = [
            RocPoint(
                threshold=threshold,
                true_positives=matrix.true_positives,
                false_positives=matrix.false_positives,
                true_negatives=matrix.true_negatives,
                false_negatives=matrix.false_negatives,
                true_positive_rate=matrix.true_positive_rate,
                false_positive_rate=matrix.false_positive_rate,
                precision=matrix.precision,
            )
            for threshold, matrix in sweep_detector(samples, detector)
        ]
        # The operating point is scored explicitly at the deployed
        # default, so it is correct even if the sweep grid is tuned to
        # no longer contain that exact threshold.
        ((_, default_matrix),) = sweep_detector(
            samples, detector, thresholds=(default_threshold,)
        )
        curves.append(
            RocCurve(
                cell_key=spec.cell_key,
                defense=spec.defense,
                attack=spec.attack,
                workload=spec.workload,
                device_config=spec.device_config,
                detector=detector,
                default_threshold=default_threshold,
                tpr_at_default=default_matrix.true_positive_rate,
                fpr_at_default=default_matrix.false_positive_rate,
                auc=auc_from_points(points),
                defense_detected=scenario.detected,
                samples=len(samples),
                points=points,
            )
        )
    return curves


@dataclass
class RocArtifact:
    """A completed detection-quality run: grid description plus curves.

    Mirrors :class:`~repro.campaign.results.CampaignArtifact`: curves
    are sorted by key, serialization is canonical, and :meth:`diff`
    explains regressions field by field for the golden suite and the
    CI baseline check.
    """

    campaign_seed: int
    grid: Dict[str, object]
    curves: List[RocCurve] = field(default_factory=list)
    version: int = ROC_ARTIFACT_VERSION
    #: Cache accounting for the run that built this artifact; in-memory
    #: provenance only, excluded from serialization and comparison so
    #: warm-cache runs stay bit-identical to cold ones.
    cache_stats: Optional["CacheStats"] = field(
        default=None, compare=False, repr=False
    )
    #: Cells served from a resumed checkpoint journal (provenance only,
    #: excluded from serialization and comparison like ``cache_stats``).
    cells_resumed: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.curves = sorted(self.curves, key=lambda curve: curve.curve_key)

    def curve(self, curve_key: str) -> RocCurve:
        """The curve for one ``cell_key#detector`` (``KeyError`` if absent)."""
        for candidate in self.curves:
            if candidate.curve_key == curve_key:
                return candidate
        raise KeyError(f"no curve named {curve_key!r} in this artifact")

    @property
    def curve_keys(self) -> List[str]:
        """All curve keys, in the sorted artifact order."""
        return [curve.curve_key for curve in self.curves]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: version, seed, grid description, sorted curves."""
        return {
            "version": self.version,
            "campaign_seed": self.campaign_seed,
            "grid": self.grid,
            "curves": [curve.to_dict() for curve in self.curves],
        }

    def to_json(self) -> str:
        """Canonical serialization: stable key order, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RocArtifact":
        """Rebuild an artifact, refusing versions newer than this reader."""
        version = int(data.get("version", -1))
        if version > ROC_ARTIFACT_VERSION:
            raise ValueError(
                f"ROC artifact version {version} is newer than supported "
                f"version {ROC_ARTIFACT_VERSION}"
            )
        return cls(
            campaign_seed=int(data["campaign_seed"]),  # type: ignore[arg-type]
            grid=dict(data.get("grid", {})),  # type: ignore[arg-type]
            curves=[RocCurve.from_dict(curve) for curve in data.get("curves", [])],  # type: ignore[union-attr]
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "RocArtifact":
        """Parse an artifact from its canonical JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the canonical JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "RocArtifact":
        """Read an artifact previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def diff(self, baseline: "RocArtifact") -> List[str]:
        """Human-readable curve-level differences against ``baseline``."""
        differences: List[str] = []
        ours = {curve.curve_key: curve for curve in self.curves}
        theirs = {curve.curve_key: curve for curve in baseline.curves}
        for key in sorted(set(theirs) - set(ours)):
            differences.append(f"missing curve: {key}")
        for key in sorted(set(ours) - set(theirs)):
            differences.append(f"extra curve: {key}")
        for key in sorted(set(ours) & set(theirs)):
            mine, other = ours[key].to_dict(), theirs[key].to_dict()
            for fname in sorted(mine):
                if mine[fname] != other[fname]:
                    differences.append(
                        f"{key}: {fname} {other[fname]!r} -> {mine[fname]!r}"
                    )
        return differences


def run_roc(
    grid: CampaignGrid,
    backend: str = "sequential",
    jobs: int = 0,
    filters: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
    specs: Optional[List[CellSpec]] = None,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable[[int, CellSpec, List[RocCurve]], None]] = None,
) -> RocArtifact:
    """Execute a grid's cells with detection-quality (ROC) capture.

    The same contract as :func:`repro.campaign.engine.run_campaign`:
    every cell runs as a ``ScenarioSpec`` + ``Session`` with the
    labelled-op capture subscribed to the session bus, ``specs``
    overrides the grid expansion, results are assembled
    order-independently, and any backend yields a bit-identical
    artifact.  The ``cache`` / ``journal`` / ``resume`` persistence
    layer comes for free through
    :func:`repro.campaign.cache.map_with_cache` -- one journal record
    per cell, carrying that cell's full curve list; hit/miss accounting
    lands on the artifact's ``cache_stats``.
    """
    from repro.campaign.cache import map_with_cache
    from repro.campaign.checkpoint import build_header, verify_header
    from repro.campaign.engine import cell_spec_hash

    if specs is None:
        specs = grid.cells(filters)
    if runner is None:
        runner = ExperimentRunner(backend=backend, jobs=jobs)
    completed = None
    if journal is not None:
        header = build_header(
            "roc",
            ROC_ARTIFACT_VERSION,
            grid.seed,
            grid.describe(),
            fingerprint=cache.fingerprint if cache is not None else None,
        )
        if resume:
            found, completed = journal.load()
            verify_header(found, header)
            journal.resume()
        else:
            journal.start(header)
    elif resume:
        raise ValueError("resume=True needs a checkpoint journal")
    try:
        per_cell = map_with_cache(
            runner,
            run_roc_cell,
            specs,
            kind="roc-cell",
            artifact_version=ROC_ARTIFACT_VERSION,
            key_fn=lambda spec: spec.cell_key,
            hash_fn=cell_spec_hash,
            encode=lambda curves: [curve.to_dict() for curve in curves],
            decode=lambda payload: [RocCurve.from_dict(curve) for curve in payload],
            cache=cache,
            journal=journal,
            completed=completed,
            after_cell=after_cell,
        )
    finally:
        if journal is not None:
            journal.close()
    curves = [curve for cell_curves in per_cell for curve in cell_curves]
    artifact = RocArtifact(
        campaign_seed=grid.seed, grid=grid.describe(), curves=curves
    )
    artifact.cache_stats = cache.stats if cache is not None else None
    if completed:
        artifact.cells_resumed = sum(
            1 for spec in specs if spec.cell_key in completed
        )
    return artifact
