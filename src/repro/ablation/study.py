"""The ablation study runner and its versioned JSON artifact.

An :class:`AblationStudy` takes one base :class:`~repro.api.spec.ScenarioSpec`,
a set of toggleable features, and an attack axis, and runs every
(attack, ablation-config) cell through the campaign
:class:`~repro.campaign.runner.ExperimentRunner`.  Each cell is an
ordinary spec-and-session run -- the ablation rides inside the spec's
``ablation`` field -- so the per-cell rng streams derive from
``(seed, scenario_key, purpose)`` through SHA-256 exactly like campaign
cells.  ``scenario_key`` deliberately excludes the ablation, so every
config of a scenario sees bit-identical workload and attack streams and
result deltas are attributable purely to the toggled component.

Results reduce to picklable :class:`AblationCellResult` records inside
the worker, and the collected :class:`AblationArtifact` is canonical
JSON (sorted cells, stable key order) -- bit-identical across the
sequential, thread and process backends, pinned by the
``tests/golden/ablation_tiny.json`` golden.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.ablation.config import AblationConfig
from repro.ablation.registry import validate_features

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.spec import ScenarioSpec
    from repro.campaign.cache import CacheStats, ResultCache
    from repro.campaign.checkpoint import CheckpointJournal

#: Bump when the ablation artifact schema changes; readers refuse newer.
ABLATION_ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class AblationCellResult:
    """Scored outcome of one (attack, ablation-config) cell."""

    #: ``scenario_key + "/" + config label`` -- unique within a study.
    cell_key: str
    #: The :attr:`AblationConfig.label` of the cell's config.
    config: str
    #: Feature names disabled in this cell (sorted).
    disabled: List[str]
    attack: str
    # -- recovery ---------------------------------------------------------
    recovery_fraction: float
    defended: bool
    # -- detection --------------------------------------------------------
    detected: bool
    detection_latency_us: Optional[int]
    # -- I/O overhead -----------------------------------------------------
    write_amplification: float
    mean_write_latency_us: float
    mean_read_latency_us: float
    host_commands: int
    flash_pages_programmed: int
    # -- component-level accounting ---------------------------------------
    #: Retained pages destroyed before reaching the remote tier.
    data_loss_pages: int
    #: Pages the offload engine actually shipped to the remote tier.
    pages_offloaded_remote: int
    # -- provenance -------------------------------------------------------
    #: Hex head of the device's oplog hash chain; pins the exact command
    #: stream, which is how backend determinism is asserted.
    oplog_hash: Optional[str]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the cell (field names preserved verbatim)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AblationCellResult":
        """Rebuild a cell from its :meth:`to_dict` form."""
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class AblationArtifact:
    """A completed ablation study: sweep description plus per-cell results."""

    #: The base spec every cell was derived from (its ``to_dict`` form).
    base_spec: Dict[str, object]
    #: The sweep parameters (features, mode, attack axis).
    sweep: Dict[str, object]
    cells: List[AblationCellResult] = field(default_factory=list)
    version: int = ABLATION_ARTIFACT_VERSION
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
        """Sort cells by key so serialization is execution-order independent."""
        self.cells = sorted(self.cells, key=lambda cell: cell.cell_key)

    def cell(self, cell_key: str) -> AblationCellResult:
        """The result for one cell key (raises ``KeyError`` if absent)."""
        for result in self.cells:
            if result.cell_key == cell_key:
                return result
        raise KeyError(f"no cell named {cell_key!r} in this artifact")

    @property
    def cell_keys(self) -> List[str]:
        """All cell keys, in the sorted artifact order."""
        return [result.cell_key for result in self.cells]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: version, base spec, sweep, sorted cells."""
        return {
            "version": self.version,
            "base_spec": self.base_spec,
            "sweep": self.sweep,
            "cells": [result.to_dict() for result in self.cells],
        }

    def to_json(self) -> str:
        """Canonical serialization: stable key order, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AblationArtifact":
        """Rebuild an artifact, refusing versions newer than this reader."""
        version = int(data.get("version", -1))
        if version > ABLATION_ARTIFACT_VERSION:
            raise ValueError(
                f"ablation artifact version {version} is newer than supported "
                f"version {ABLATION_ARTIFACT_VERSION}"
            )
        return cls(
            base_spec=dict(data.get("base_spec", {})),  # type: ignore[arg-type]
            sweep=dict(data.get("sweep", {})),  # type: ignore[arg-type]
            cells=[
                AblationCellResult.from_dict(cell)  # type: ignore[arg-type]
                for cell in data.get("cells", [])  # type: ignore[union-attr]
            ],
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "AblationArtifact":
        """Parse an artifact from its canonical JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the canonical JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "AblationArtifact":
        """Read an artifact previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def diff(self, baseline: "AblationArtifact") -> List[str]:
        """Human-readable field-level differences against ``baseline``.

        Empty when the artifacts agree on every shared cell and neither
        has cells the other lacks.
        """
        differences: List[str] = []
        ours = {cell.cell_key: cell for cell in self.cells}
        theirs = {cell.cell_key: cell for cell in baseline.cells}
        for key in sorted(set(theirs) - set(ours)):
            differences.append(f"missing cell: {key}")
        for key in sorted(set(ours) - set(theirs)):
            differences.append(f"extra cell: {key}")
        for key in sorted(set(ours) & set(theirs)):
            mine, other = ours[key].to_dict(), theirs[key].to_dict()
            for fname in sorted(mine):
                if mine[fname] != other[fname]:
                    differences.append(
                        f"{key}: {fname} {other[fname]!r} -> {mine[fname]!r}"
                    )
        return differences


def _ablation_cell_key(spec: "ScenarioSpec") -> str:
    """The journal/cache key of one ablation cell.

    Matches :attr:`AblationCellResult.cell_key`: the scenario key plus
    the config label (the ablation is deliberately not part of the
    scenario key, so the label disambiguates the variants).
    """
    config = AblationConfig(disabled=spec.ablation)
    return f"{spec.scenario_key}/{config.label}"


def run_ablation_cell(spec: "ScenarioSpec") -> AblationCellResult:
    """Execute one ablation cell and reduce it to a picklable record.

    Module-level (and taking only a picklable
    :class:`~repro.api.spec.ScenarioSpec`) so the process backend can
    ship it to workers; the cell key appends the ablation label to the
    scenario key because the ablation is deliberately not part of the
    scenario key itself.
    """
    from repro.api import Session

    config = AblationConfig(disabled=spec.ablation)
    session = Session(spec)
    result = session.run()
    defense = result.defense
    rssd = getattr(defense, "rssd", None)
    if rssd is not None:
        data_loss_pages = int(rssd.retention.stats.data_loss_pages)
        pages_offloaded_remote = int(rssd.offload.stats.pages_offloaded)
    else:
        data_loss_pages = 0
        pages_offloaded_remote = 0
    return AblationCellResult(
        cell_key=f"{spec.scenario_key}/{config.label}",
        config=config.label,
        disabled=list(config.disabled),
        attack=spec.attack,
        recovery_fraction=result.recovery_fraction,
        defended=result.defended,
        detected=result.detected,
        detection_latency_us=result.detection_latency_us,
        write_amplification=result.write_amplification,
        mean_write_latency_us=result.mean_write_latency_us,
        mean_read_latency_us=result.mean_read_latency_us,
        host_commands=result.host_commands,
        flash_pages_programmed=result.flash_pages_programmed,
        data_loss_pages=data_loss_pages,
        pages_offloaded_remote=pages_offloaded_remote,
        oplog_hash=result.oplog_hash,
    )


@dataclass(frozen=True)
class AblationStudy:
    """A feature sweep over one base scenario.

    ``features`` are the components under study; ``mode`` selects the
    sweep shape (``drop-one`` or ``power-set``, see
    :meth:`AblationConfig.sweep`); ``attacks`` is the attack axis (each
    config runs once per attack).  The base spec's own ``ablation`` and
    explicit per-stream seeds are cleared so every cell derives its rng
    streams from ``(seed, scenario_key)`` uniformly.
    """

    #: The scenario every cell is a variant of.
    base_spec: "ScenarioSpec"
    #: Feature names swept (sorted, unique, registry-validated).
    features: Tuple[str, ...]
    #: Sweep shape: ``"drop-one"`` or ``"power-set"``.
    mode: str = "drop-one"
    #: Attack names to run every config against (defaults to the base
    #: spec's attack).
    attacks: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Canonicalize features/attacks and normalize the base spec."""
        object.__setattr__(self, "features", validate_features(self.features))
        if not self.features:
            raise ValueError("an ablation study needs at least one feature")
        if self.mode not in ("drop-one", "power-set"):
            raise ValueError(
                "unknown sweep mode %r (expected 'drop-one' or 'power-set')"
                % (self.mode,)
            )
        base = replace(
            self.base_spec,
            ablation=(),
            env_seed=None,
            workload_seed=None,
            attack_seed=None,
        )
        object.__setattr__(self, "base_spec", base)
        attacks = tuple(self.attacks) if self.attacks else (base.attack,)
        object.__setattr__(self, "attacks", attacks)

    @classmethod
    def tiny(cls) -> "AblationStudy":
        """The pinned smoke-test study (golden ``ablation_tiny.json``).

        Three features in drop-one mode over two attacks -- 8 cells,
        small enough for CI, large enough to exercise every toggle the
        acceptance gate cares about.
        """
        from repro.api.spec import ScenarioSpec

        base = ScenarioSpec(
            defense="RSSD",
            attack="classic",
            workload="office-edit",
            device="tiny",
            victim_files=8,
            user_activity_hours=2.0,
            seed=107,
        )
        return cls(
            base_spec=base,
            features=("enhanced-trim", "local-detector", "remote-offload"),
            attacks=("classic", "trimming-attack"),
        )

    @property
    def configs(self) -> Tuple[AblationConfig, ...]:
        """The sweep's configs, in deterministic order."""
        return AblationConfig.sweep(self.features, mode=self.mode)

    def specs(self) -> List["ScenarioSpec"]:
        """One fully-specified :class:`ScenarioSpec` per (attack, config) cell."""
        out = []
        for attack in self.attacks:
            for config in self.configs:
                out.append(
                    replace(self.base_spec, attack=attack, ablation=config.disabled)
                )
        return out

    def run(
        self,
        backend: str = "sequential",
        jobs: int = 0,
        cache: Optional["ResultCache"] = None,
        journal: Optional["CheckpointJournal"] = None,
        resume: bool = False,
        after_cell: Optional[Callable] = None,
    ) -> AblationArtifact:
        """Execute every cell through an :class:`ExperimentRunner`.

        The artifact is bit-identical whichever backend runs it: specs
        are picklable, cells are scored in the worker, and the artifact
        sorts its cells by key.  The campaign persistence layer rides
        along unchanged: ``cache`` serves unchanged cells from the
        content-addressed store (each ablation variant hashes
        differently because ``ablation`` is part of the spec's
        canonical JSON), ``journal`` checkpoints each completed cell,
        ``resume=True`` re-runs only what the journal is missing, and
        ``after_cell`` fires after each executed cell becomes durable
        (the fault-injection harness's hook point).
        """
        from repro.campaign.cache import map_with_cache
        from repro.campaign.checkpoint import build_header, verify_header
        from repro.campaign.runner import ExperimentRunner

        runner = ExperimentRunner(backend=backend, jobs=jobs)
        sweep = {
            "features": list(self.features),
            "mode": self.mode,
            "attacks": list(self.attacks),
            "configs": [config.label for config in self.configs],
        }
        completed = None
        if journal is not None:
            header = build_header(
                "ablation",
                ABLATION_ARTIFACT_VERSION,
                self.base_spec.seed,
                {"base_spec": self.base_spec.to_dict(), "sweep": sweep},
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
            cells = map_with_cache(
                runner,
                run_ablation_cell,
                self.specs(),
                kind="ablation-cell",
                artifact_version=ABLATION_ARTIFACT_VERSION,
                key_fn=_ablation_cell_key,
                hash_fn=lambda spec: spec.spec_hash(),
                encode=lambda result: result.to_dict(),
                decode=AblationCellResult.from_dict,
                cache=cache,
                journal=journal,
                completed=completed,
                after_cell=after_cell,
            )
        finally:
            if journal is not None:
                journal.close()
        artifact = AblationArtifact(
            base_spec=self.base_spec.to_dict(),
            sweep=sweep,
            cells=list(cells),
        )
        artifact.cache_stats = cache.stats if cache is not None else None
        if completed:
            artifact.cells_resumed = sum(
                1 for spec in self.specs() if _ablation_cell_key(spec) in completed
            )
        return artifact
