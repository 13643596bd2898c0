"""Campaign execution: thin cell-level wrappers over the scenario facade.

Scenario execution lives in :mod:`repro.api.session`; this module maps
campaign cells onto it.  ``execute_cell_scenario`` turns a picklable
:class:`CellSpec` into a ``ScenarioSpec`` +
:class:`~repro.api.session.Session`, ``run_cell`` reduces the outcome
to a :class:`~repro.campaign.results.CellResult`, and ``run_campaign``
maps cells through the :class:`~repro.campaign.runner.ExperimentRunner`.

The :mod:`repro.api` imports are deliberately function-level: the api
package imports campaign registries and results at module level, so the
campaign package must not import it back while initializing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.campaign.grid import CampaignGrid, CellSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.session import SessionResult
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal
from repro.campaign.results import CampaignArtifact, CellResult
from repro.campaign.runner import ExperimentRunner


def execute_cell_scenario(
    spec: CellSpec, observers: Optional[Sequence[object]] = None
) -> "SessionResult":
    """Execute one cell spec and keep the live scenario objects.

    Builds the cell as a ``ScenarioSpec`` + ``Session`` (the facade
    path); ``run_cell`` reduces the result to a picklable
    :class:`~repro.campaign.results.CellResult`, while the
    ``repro recover`` CLI calls this directly so it can keep
    interrogating the defense (forensics, recovery) after the cell was
    scored.
    """
    from repro.api.session import Session
    from repro.api.spec import ScenarioSpec

    session = Session(ScenarioSpec.from_cell(spec), observers=observers or ())
    return session.run()


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one cell spec (module-level, so process pools can pickle it)."""
    return execute_cell_scenario(spec).to_cell_result()


def cell_spec_hash(spec: CellSpec) -> str:
    """The content hash identifying a cell for the result cache.

    A cell's cache identity is its :class:`~repro.api.spec.ScenarioSpec`
    hash -- the canonical JSON of every name, size and *resolved* seed
    -- so any change to what the cell would execute changes the key,
    and nothing else does.
    """
    from repro.api.spec import ScenarioSpec

    return ScenarioSpec.from_cell(spec).spec_hash()


def run_campaign(
    grid: CampaignGrid,
    backend: str = "sequential",
    jobs: int = 0,
    filters: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
    specs: Optional[List[CellSpec]] = None,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable[[int, CellSpec, CellResult], None]] = None,
) -> CampaignArtifact:
    """Execute a grid and assemble the (order-independent) artifact.

    ``specs`` overrides the grid expansion (the determinism tests use it
    to prove execution order does not matter); the artifact sorts cells
    by key either way.

    The persistence layer is opt-in and changes nothing about the
    artifact's bytes: ``cache`` serves unchanged cells from a
    content-addressed store instead of executing them (accounting on
    the returned artifact's ``cache_stats``), ``journal`` makes every
    completed cell durable the moment it finishes, and ``resume=True``
    reloads the journal -- verifying its header pins *this* grid, seed,
    schema version and code fingerprint -- and re-runs only what is
    missing.  ``after_cell`` fires after each executed cell becomes
    durable (the fault-injection harness's hook point).
    """
    from repro.campaign.cache import map_with_cache
    from repro.campaign.checkpoint import build_header, verify_header
    from repro.campaign.results import ARTIFACT_VERSION

    if specs is None:
        specs = grid.cells(filters)
    if runner is None:
        runner = ExperimentRunner(backend=backend, jobs=jobs)
    completed: Optional[dict] = None
    if journal is not None:
        header = build_header(
            "campaign",
            ARTIFACT_VERSION,
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
        cells = map_with_cache(
            runner,
            run_cell,
            specs,
            kind="campaign-cell",
            artifact_version=ARTIFACT_VERSION,
            key_fn=lambda spec: spec.cell_key,
            hash_fn=cell_spec_hash,
            encode=lambda result: result.to_dict(),
            decode=CellResult.from_dict,
            cache=cache,
            journal=journal,
            completed=completed,
            after_cell=after_cell,
        )
    finally:
        if journal is not None:
            journal.close()
    resumed = (
        sum(1 for spec in specs if spec.cell_key in completed) if completed else 0
    )
    return CampaignArtifact(
        campaign_seed=grid.seed,
        grid=grid.describe(),
        cells=cells,
        cache_stats=cache.stats if cache is not None else None,
        cells_resumed=resumed,
    )
