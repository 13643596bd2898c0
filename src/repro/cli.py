"""Command-line interface: run any of the paper's experiments from a shell.

Examples::

    python -m repro run --spec scenario.json
    python -m repro run --defense RSSD --attack trimming-attack
    python -m repro claims
    python -m repro claims --only T1 A2
    python -m repro campaign --grid tiny
    python -m repro roc --grid tiny
    python -m repro ablate --features enhanced-trim remote-offload

``repro run`` is the universal entry point: one scenario, described by
a :class:`repro.api.ScenarioSpec` (from a JSON file or flags), executed
through a :class:`repro.api.Session`.  The campaign / roc / fleet
subcommands are grid- and fleet-level conveniences over the same path.
``repro claims`` regenerates the paper's evaluation -- Table 1, Figure
2, P1-P4 and the A1-A3 ablations -- from the one table in
:mod:`repro.analysis.claims`, and checks every claim's predicates.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.analysis import claims
from repro.analysis.reporting import format_table


def _cmd_claims(args: argparse.Namespace) -> str:
    """Run, print and check the selected claims; exit 1 if any fails."""
    selected = [
        claim for claim in claims.CLAIMS if not args.only or claim.id in args.only
    ]
    failed = []
    for claim in selected:
        result = claim.run()
        failures = claim.check(result)
        verdict = "\n".join(f"FAIL: {predicate}" for predicate in failures) or "PASS"
        print(f"[{claim.id}] {claim.title}\n{claim.render(result)}\n{verdict}\n", flush=True)
        if failures:
            failed.append(claim.id)
    if failed:
        print(f"{len(failed)} of {len(selected)} claims failed: {', '.join(failed)}")
        raise SystemExit(1)
    return f"all {len(selected)} claims hold"


def _grid_with_overrides(grid, pairs) -> object:
    """Apply non-``None`` CLI override values onto a campaign grid.

    ``replace()`` re-runs ``__post_init__``, so unknown names and
    invalid sizes fail fast here instead of deep inside a pool worker.
    """
    import dataclasses

    overrides = {name: value for name, value in pairs if value is not None}
    return dataclasses.replace(grid, **overrides) if overrides else grid


def _resolve_backend(args: argparse.Namespace) -> str:
    """Pick the concrete backend for ``auto`` (process pool unless --jobs 1)."""
    if args.backend == "auto":
        return "process" if args.jobs != 1 else "sequential"
    return args.backend


def _expand_cells(grid, filters):
    """Expand a grid's cells, refusing to run a silently empty filter.

    When ``--filter`` patterns leave no cells, exits 1 listing which
    patterns matched nothing (and the grid's cell keys) instead of
    letting the run write an empty artifact that looks like success.
    """
    from repro.campaign.grid import filter_specs

    specs = grid.cells(filters)
    if filters and not specs:
        everything = grid.cells()
        unmatched = [
            pattern
            for pattern in filters
            if not filter_specs(everything, [pattern])
        ]
        lines = [
            "error: --filter matched no cells; nothing to run",
            "unmatched patterns: " + ", ".join(unmatched),
            "grid cells:",
        ]
        lines += [f"  {spec.cell_key}" for spec in everything]
        raise SystemExit("\n".join(lines))
    return specs


def _persistence_from_args(args):
    """Build the cache / journal / resume trio from the shared CLI flags.

    ``--cache-dir DIR`` turns on the content-addressed result cache
    (``DIR/cache/``) and the checkpoint journal (``DIR/journal.jsonl``);
    ``--resume DIR`` reuses an existing directory's journal, re-running
    only the cells it is missing; ``--no-cache`` keeps the journal but
    skips cache lookups and stores.  ``REPRO_CRASH_AFTER_CELLS=N`` arms
    the fault-injection hook that hard-exits after the N-th executed
    cell (the kill/resume test harness and the CI ``smoke`` job).
    """
    import os

    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal, crash_hook_from_env

    resume = bool(getattr(args, "resume", None))
    state_dir = getattr(args, "resume", None) or getattr(args, "cache_dir", None)
    cache = journal = None
    if state_dir:
        os.makedirs(state_dir, exist_ok=True)
        if not getattr(args, "no_cache", False):
            cache = ResultCache(os.path.join(state_dir, "cache"))
        journal = CheckpointJournal(os.path.join(state_dir, "journal.jsonl"))
    return cache, journal, resume, crash_hook_from_env()


def _persistence_sections(sections, artifact, cache, resume) -> None:
    """Append the cache/resume accounting lines to the report."""
    if cache is not None and artifact.cache_stats is not None:
        sections.append(f"cache: {artifact.cache_stats.summary()} ({cache.root})")
    if resume:
        resumed = getattr(artifact, "cells_resumed", None)
        if resumed is not None:
            sections.append(f"resume: {resumed} cells restored from the journal")


def _save_and_check_baseline(sections, artifact, args, journal=None) -> str:
    """Shared artifact tail of `campaign` / `roc`: --output and --baseline.

    Appends the save/compare outcome to ``sections`` and returns the
    joined output; a baseline mismatch prints everything and exits 1.
    When a campaign checkpoint ``journal`` is active, the output is
    written through the streaming artifact writer (reading cells back
    from the journal, sorted, one at a time) -- same bytes, bounded
    memory.
    """
    if args.output:
        from repro.campaign.results import CampaignArtifact

        if journal is not None and isinstance(artifact, CampaignArtifact):
            from repro.campaign.results import write_artifact_stream

            write_artifact_stream(
                args.output,
                artifact.campaign_seed,
                artifact.grid,
                journal.iter_payloads_sorted(keys=set(artifact.cell_keys)),
                version=artifact.version,
            )
        else:
            artifact.save(args.output)
        sections.append(f"artifact written to {args.output}")
    if args.baseline:
        baseline = type(artifact).load(args.baseline)
        differences = artifact.diff(baseline)
        if differences:
            sections.append(
                f"BASELINE MISMATCH vs {args.baseline}:\n" + "\n".join(differences)
            )
            print("\n\n".join(sections))
            raise SystemExit(1)
        sections.append(f"baseline match: {args.baseline}")
    return "\n\n".join(sections)


def _cmd_campaign(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import (
        render_campaign_capability,
        render_campaign_forensics,
        render_campaign_overhead,
    )
    from repro.api import run_campaign
    from repro.campaign import CampaignGrid

    grid = _grid_with_overrides(
        CampaignGrid.tiny() if args.grid == "tiny" else CampaignGrid(),
        (
            ("defenses", args.defenses),
            ("attacks", args.attacks),
            ("workloads", args.workloads),
            ("device_configs", args.device_configs),
            ("seed", args.seed),
            ("victim_files", args.victim_files),
        ),
    )
    backend = _resolve_backend(args)
    specs = _expand_cells(grid, args.filter)
    cache, journal, resume, after_cell = _persistence_from_args(args)
    artifact = run_campaign(
        grid,
        backend=backend,
        jobs=args.jobs,
        specs=specs,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )

    sections = [
        f"Campaign: {len(artifact.cells)} cells, seed {grid.seed}, "
        f"backend {backend}, jobs {args.jobs or 'auto'}",
        render_campaign_capability(artifact),
        render_campaign_overhead(artifact),
    ]
    forensics_table = render_campaign_forensics(artifact)
    if forensics_table:
        sections.append(forensics_table)
    _persistence_sections(sections, artifact, cache, resume)
    return _save_and_check_baseline(sections, artifact, args, journal=journal)


def _cmd_roc(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import (
        render_detection_quality,
        render_detection_roc,
    )
    from repro.api import run_roc
    from repro.campaign import CampaignGrid

    grid = _grid_with_overrides(
        CampaignGrid.evasion_tiny()
        if args.grid == "tiny"
        else CampaignGrid.evasion_full(),
        (
            ("defenses", args.defenses),
            ("attacks", args.attacks),
            ("seed", args.seed),
            ("victim_files", args.victim_files),
        ),
    )
    backend = _resolve_backend(args)
    specs = _expand_cells(grid, args.filter)
    cache, journal, resume, after_cell = _persistence_from_args(args)
    artifact = run_roc(
        grid,
        backend=backend,
        jobs=args.jobs,
        specs=specs,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )

    sections = [
        f"Detection quality: {len(artifact.curves)} ROC curves over "
        f"{len({c.cell_key for c in artifact.curves})} cells, seed {grid.seed}, "
        f"backend {backend}, jobs {args.jobs or 'auto'}",
        render_detection_quality(artifact),
    ]
    if not args.quality_only:
        sections.append(render_detection_roc(artifact))
    _persistence_sections(sections, artifact, cache, resume)
    return _save_and_check_baseline(sections, artifact, args)


def _cmd_ablate(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.ablation import (
        AblationError,
        AblationStudy,
        calculate_metrics,
        render_impact_csv,
        render_impact_markdown,
        render_impact_table,
    )
    from repro.analysis.reporting import render_ablation_summary

    study = AblationStudy.tiny()
    base = study.base_spec
    overrides = {
        name: value
        for name, value in (
            ("defense", args.defense),
            ("workload", args.workload),
            ("device", args.device),
            ("victim_files", args.victim_files),
            ("user_activity_hours", args.hours),
            ("seed", args.seed),
        )
        if value is not None
    }
    try:
        if overrides:
            base = dataclasses.replace(base, **overrides)
        study = AblationStudy(
            base_spec=base,
            features=tuple(args.features) if args.features else study.features,
            mode=args.mode,
            attacks=tuple(args.attacks) if args.attacks else study.attacks,
        )
    except (AblationError, KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    backend = _resolve_backend(args)
    cache, journal, resume, after_cell = _persistence_from_args(args)
    artifact = study.run(
        backend=backend,
        jobs=args.jobs,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )
    impacts = calculate_metrics(artifact)

    sections = [
        f"Ablation: {len(artifact.cells)} cells "
        f"({len(study.configs)} configs x {len(study.attacks)} attacks, "
        f"mode {study.mode}), seed {base.seed}, "
        f"backend {backend}, jobs {args.jobs or 'auto'}",
        render_ablation_summary(artifact),
    ]
    if impacts:
        sections.append(render_impact_table(impacts))
    _persistence_sections(sections, artifact, cache, resume)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(render_impact_csv(impacts) + "\n")
        sections.append(f"impact CSV written to {args.csv}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(render_impact_markdown(impacts) + "\n")
        sections.append(f"impact markdown written to {args.markdown}")
    return _save_and_check_baseline(sections, artifact, args)


def _cmd_recover(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_attack_timeline
    from repro.campaign.engine import execute_cell_scenario
    from repro.campaign.grid import CampaignGrid
    from repro.forensics import reference_image
    from repro.sim import format_duration

    if args.apply and args.to is None:
        raise SystemExit("--apply only makes sense with --to (nothing was applied)")
    if args.json and (args.verify_chain or args.list_snapshots):
        raise SystemExit(
            "--json applies to the default report and to --to, not to "
            "--verify-chain or --list-snapshots"
        )
    grid = CampaignGrid.tiny() if args.grid == "tiny" else CampaignGrid()
    matches = [spec for spec in grid.cells() if spec.cell_key == args.cell]
    if not matches:
        known = "\n  ".join(spec.cell_key for spec in grid.cells())
        raise SystemExit(f"unknown cell {args.cell!r}; cells in this grid:\n  {known}")
    scenario = execute_cell_scenario(matches[0])
    engine = scenario.defense.forensics_engine()
    if engine is None:
        raise SystemExit(
            f"cell {args.cell!r} runs on {scenario.defense.name}, which has no "
            "evidence chain; forensics and recovery need an RSSD cell"
        )
    outcome = scenario.attack_outcome
    sections = [
        f"Scenario: {args.cell} (campaign seed {grid.seed}); attack ran "
        f"{format_duration(outcome.start_us)} -> {format_duration(outcome.end_us)}"
    ]

    if args.list_snapshots:
        snapshots = engine.snapshots()
        sections.append(
            format_table(
                ["kind", "segment", "last seq", "timestamp", "entries", "offloaded"],
                [
                    [
                        snap.kind,
                        snap.segment_id if snap.segment_id is not None else "-",
                        snap.last_sequence,
                        format_duration(snap.timestamp_us),
                        snap.entries,
                        snap.offloaded,
                    ]
                    for snap in snapshots
                ],
            )
        )
        sections.append(
            f"{len(snapshots)} recoverable points; any timestamp up to "
            f"{format_duration(engine.timeline.events[-1].timestamp_us)} is a "
            "valid --to target" if engine.timeline.events else "empty log"
        )
        return "\n\n".join(sections)

    if args.verify_chain:
        status = engine.verify_chain()
        sections.append(
            "\n".join(
                [
                    f"entries:            {status.total_entries}",
                    f"sealed segments:    {status.sealed_segments} "
                    f"({status.offloaded_segments} offloaded)",
                    f"chain verified:     {status.chain_verified}",
                    f"remote time order:  {status.remote_time_order_ok}",
                    f"trustworthy:        {status.trustworthy}",
                ]
            )
        )
        errors = status.errors()
        if errors:
            sections.append("INTEGRITY ERRORS:\n" + "\n".join(errors))
            print("\n\n".join(sections))
            raise SystemExit(1)
        return "\n\n".join(sections)

    if args.to is not None:
        if args.to == "pre-attack":
            target_us = outcome.start_us
        else:
            try:
                target_us = int(args.to)
            except ValueError:
                raise SystemExit(
                    f"--to must be an integer microsecond timestamp or "
                    f"'pre-attack', got {args.to!r}"
                )
        image = engine.recover_to(target_us, simulate_fetch=True)
        report = engine.investigate(image=image)
        sections.append(render_attack_timeline(report, engine.timeline))
        reference = reference_image(scenario.recorder.ops, target_us)
        # Same bar as campaign recovery_exact: every page hash-verified
        # AND the image equal to the independent trace-prefix replay.
        exact = image.is_exact and image.matches(reference)
        if exact:
            verdict = "MATCHES exactly"
        elif image.matches(reference):
            verdict = (
                f"matches by coverage only ({len(image.unverified)} pages "
                "recovered without a pinned hash)"
            )
        else:
            verdict = "DIVERGES"
        sections.append(
            f"reference replay of the trace prefix (<= t={target_us}): "
            f"{len(reference)} pages; rebuilt image {verdict}"
        )
        sections.append(
            f"recovery transfer time: {format_duration(int(image.duration_us))}"
        )
        if args.apply and not exact:
            sections.append(
                "refusing --apply: the rebuilt image is not exact; the "
                "device was left untouched"
            )
        elif args.apply:
            written = engine.recovery().apply(image)
            sections.append(f"applied: {written} pages written back to the device")
        if args.json:
            sections.append(report.to_json().rstrip("\n"))
        if not exact:
            print("\n\n".join(sections))
            raise SystemExit(1)
        return "\n\n".join(sections)

    # Default action: the full forensic report (canonical JSON + summary).
    report = engine.investigate()
    sections.append(render_attack_timeline(report, engine.timeline))
    if args.json:
        sections.append(report.to_json().rstrip("\n"))
    return "\n\n".join(sections)


def _expand_spec_paths(values: List[str]) -> List[str]:
    """Expand ``--spec`` operands: files stay, directories become their
    sorted ``*.json`` members.

    A directory with no ``*.json`` files exits 1 -- running nothing
    while claiming success would hide a mistyped path.
    """
    paths: List[str] = []
    for value in values:
        candidate = Path(value)
        if candidate.is_dir():
            matches = sorted(candidate.glob("*.json"))
            if not matches:
                raise SystemExit(
                    f"error: --spec directory {value} contains no *.json files"
                )
            paths.extend(str(match) for match in matches)
        else:
            paths.append(value)
    return paths


def _spec_with_overrides(spec, args: argparse.Namespace):
    """Apply explicit flag overrides onto a loaded spec.

    Anything that changes the scenario key or the master seed also
    drops the stored per-stream seeds, so they re-derive from
    ``(seed, scenario_key)`` -- otherwise the run would silently reuse
    seeds resolved for a different scenario.
    """
    import dataclasses

    overrides = {
        name: value
        for name, value in (
            ("defense", args.defense),
            ("attack", args.attack),
            ("workload", args.workload),
            ("device", args.device),
            ("victim_files", args.victim_files),
            ("seed", args.seed),
        )
        if value is not None and value != getattr(spec, name)
    }
    if overrides.keys() & {"defense", "attack", "workload", "device", "seed"}:
        overrides.update(env_seed=None, workload_seed=None, attack_seed=None)
    return dataclasses.replace(spec, **overrides) if overrides else spec


def _render_session(spec, session, result) -> str:
    """The ``repro run`` report block for one executed scenario."""
    from repro.sim import format_duration

    outcome = result.attack_outcome
    lines = [
        f"Scenario: {spec.scenario_key} (spec hash {spec.spec_hash()[:16]})",
        f"attack ran {format_duration(outcome.start_us)} -> "
        f"{format_duration(outcome.end_us)}, "
        f"{len(outcome.victim_lbas)} victim pages",
        f"recovery:  {result.recovery_fraction:.3f} "
        f"({result.pages_recovered} pages) -> "
        f"{'DEFENDED' if result.defended else 'COMPROMISED'}",
        f"detected:  {result.detected}"
        + (
            f" (latency {format_duration(result.detection_latency_us)})"
            if result.detection_latency_us is not None
            else ""
        ),
        f"overhead:  WA {result.write_amplification:.2f}, "
        f"mean write {result.mean_write_latency_us:.1f}us, "
        f"{result.host_commands} host commands",
    ]
    if result.forensic_pattern is not None:
        lines.append(
            f"forensics: pattern {result.forensic_pattern}, "
            f"exact recovery {result.recovery_exact}, "
            f"blast radius {result.blast_radius_pages} pages"
        )
    counts = ", ".join(
        f"{name}={count}" for name, count in sorted(session.bus.published_counts.items())
    )
    lines.append(f"events:    {counts}")
    return "\n".join(lines)


def _run_pack(args: argparse.Namespace) -> str:
    """The ``repro run --pack`` path: replay a pack against its pins."""
    import json

    from repro.api.spec import SpecValidationError
    from repro.scenarios import ScenarioPack, run_pack

    try:
        pack = ScenarioPack.load(args.pack)
    except (SpecValidationError, ValueError, OSError) as exc:
        raise SystemExit(f"error: cannot load pack {args.pack}: {exc}")
    report = run_pack(pack)
    header = f"Pack: {pack.name} ({len(pack.entries)} entries)"
    if pack.description:
        header += f" -- {pack.description}"
    lines = [header]
    for entry in report.entries:
        status = "ok  " if entry.ok else "FAIL"
        hash_head = str(entry.payload.get("spec_hash", ""))[:16]
        suffix = f" (hash {hash_head})" if hash_head else ""
        lines.append(f"  [{status}] {entry.name}{suffix}")
        for failure in entry.failures:
            lines.append(f"         {failure}")
    passed = sum(1 for entry in report.entries if entry.ok)
    lines.append(f"{passed}/{len(report.entries)} entries ok")
    sections = ["\n".join(lines)]
    if args.output:
        payloads = {entry.name: entry.payload for entry in report.entries}
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payloads, indent=2, sort_keys=True) + "\n")
        sections.append(f"results written to {args.output}")
    output = "\n\n".join(sections)
    if not report.ok:
        print(output)
        raise SystemExit(1)
    return output


def _cmd_run(args: argparse.Namespace) -> str:
    import json

    from repro.api import ScenarioSpec, Session, SpecValidationError

    if args.pack:
        if args.spec:
            raise SystemExit("error: --pack and --spec are mutually exclusive")
        return _run_pack(args)

    spec_paths = _expand_spec_paths(args.spec) if args.spec else []
    if args.emit_spec and len(spec_paths) > 1:
        raise SystemExit(
            f"error: --emit-spec needs exactly one spec, got {len(spec_paths)}"
        )

    if len(spec_paths) > 1:
        # Multi-spec mode: run every spec, report each, exit 1 if any
        # fails (to load, to validate, or to execute).
        sections = []
        results = {}
        failed = []
        for path in spec_paths:
            try:
                spec = _spec_with_overrides(ScenarioSpec.load(path), args)
                session = Session(spec)
                result = session.run()
            except (SpecValidationError, KeyError, ValueError, OSError) as exc:
                failed.append(path)
                sections.append(f"[FAIL] {path}: {exc}")
                continue
            results[path] = result.to_dict()
            sections.append(f"[ok] {path}\n{_render_session(spec, session, result)}")
        sections.append(
            f"{len(spec_paths) - len(failed)}/{len(spec_paths)} specs ok"
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(results, indent=2, sort_keys=True) + "\n")
            sections.append(f"results written to {args.output}")
        output = "\n\n".join(sections)
        if failed:
            print(output)
            raise SystemExit(1)
        return output

    if spec_paths:
        spec = _spec_with_overrides(ScenarioSpec.load(spec_paths[0]), args)
    else:
        spec = ScenarioSpec(
            defense=args.defense or "RSSD",
            attack=args.attack or "classic",
            workload=args.workload or "office-edit",
            device=args.device or "tiny",
            **{
                name: value
                for name, value in (
                    ("victim_files", args.victim_files),
                    ("seed", args.seed),
                )
                if value is not None
            },
        )
    if args.emit_spec:
        spec.save(args.emit_spec)
    if args.no_run:
        sections = [f"validated spec for {spec.scenario_key} (hash {spec.spec_hash()[:16]})"]
        if args.emit_spec:
            sections.append(f"spec written to {args.emit_spec}")
        return "; ".join(sections)

    session = Session(spec)
    result = session.run()
    sections = [_render_session(spec, session, result)]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
        sections.append(f"result written to {args.output}")
    return "\n\n".join(sections)


def _cmd_fuzz(args: argparse.Namespace) -> str:
    import os

    from repro.scenarios import (
        CoverageLedger,
        FuzzConfig,
        PackEntry,
        ScenarioPack,
        run_fuzz,
    )

    config = FuzzConfig.tiny() if args.space == "tiny" else FuzzConfig()
    seed = args.seed if args.seed is not None else 7
    ledger = None
    if args.coverage_ledger and os.path.exists(args.coverage_ledger):
        ledger = CoverageLedger.load(args.coverage_ledger)
    backend = _resolve_backend(args)
    cache, journal, resume, after_cell = _persistence_from_args(args)
    artifact = run_fuzz(
        seed,
        args.budget,
        config,
        backend=backend,
        jobs=args.jobs,
        ledger=ledger,
        toward_uncovered=args.toward_uncovered,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )

    universe = config.universe()
    merged = ledger if ledger is not None else CoverageLedger()
    merged.merge(artifact.ledger)
    sections = [
        f"Fuzz: seed {seed}, budget {args.budget}, space {args.space}, "
        f"backend {backend}, jobs {args.jobs or 'auto'}"
        + (", toward-uncovered" if args.toward_uncovered else ""),
        f"specs: {len(artifact.spec_hashes)} drawn, {len(artifact.cells)} "
        f"distinct executed; rejected draws {artifact.stats['rejected']}, "
        f"guided redraws {artifact.stats['guided_redraws']}",
        format_table(
            ["scenario", "region", "recovery", "defended", "detected", "status"],
            [
                [
                    cell.scenario_key,
                    cell.region,
                    cell.recovery_fraction,
                    cell.defended,
                    cell.detected,
                    cell.status,
                ]
                for cell in artifact.cells
            ],
        ),
        f"coverage: this run {len(artifact.ledger.covered_regions)} regions; "
        f"ledger {len(merged.uncovered(universe))} of {len(universe)} regions "
        f"uncovered ({merged.coverage_fraction(universe):.0%} covered)",
    ]
    if args.coverage_ledger:
        merged.save(args.coverage_ledger)
        sections.append(f"coverage ledger written to {args.coverage_ledger}")
    if args.emit_pack:
        entries = tuple(
            PackEntry(
                name=f"fuzz-{seed}-{cell.spec_hash[:12]}",
                spec=cell.spec,
                expect={
                    "recovery_fraction": cell.recovery_fraction,
                    "defended": cell.defended,
                    "detected": cell.detected,
                    "oplog_hash": cell.oplog_hash,
                    "status": cell.status,
                },
            )
            for cell in artifact.cells
        )
        pack = ScenarioPack(
            name=f"fuzz-seed{seed}",
            description=(
                f"Frozen fuzz session: seed {seed}, budget {args.budget}, "
                f"space {args.space}"
            ),
            entries=entries,
        )
        pack.save(args.emit_pack)
        sections.append(
            f"pack with {len(entries)} pinned entries written to {args.emit_pack}"
        )
    _persistence_sections(sections, artifact, cache, resume)
    return _save_and_check_baseline(sections, artifact, args)


def _cmd_fleet(args: argparse.Namespace) -> str:
    from repro.api import run_fleet
    from repro.ssd.geometry import SSDGeometry
    from repro.workloads.fleet import default_fleet_factories
    from repro.workloads.synthetic import BurstyWorkload

    # The small geometry gives the fleet enough capacity that retention-
    # pinning baselines survive the ingest instead of exhausting flash.
    geometry = SSDGeometry.small()
    seed = args.seed if args.seed is not None else 11
    trace = BurstyWorkload(
        capacity_pages=geometry.exported_pages, seed=seed
    ).generate(args.records)
    report = run_fleet(
        trace,
        factories=default_fleet_factories(geometry=geometry),
        mode="shard" if args.shard else "mirror",
        parallel=args.parallel,
        batched=not args.per_op,
        max_batch_pages=args.max_batch_pages,
        honor_timestamps=False,
    )
    header = (
        f"Fleet replay ({report.mode}, {'batched' if report.batched else 'per-op'}): "
        f"{report.total_records:,} records, "
        f"{report.total_ops_per_second:,.0f} ops/s aggregate\n"
    )
    return header + report.format_table()


def _cmd_lint(args: argparse.Namespace) -> str:
    from repro.lint import (
        BaselineError,
        LayerModel,
        LintConfig,
        apply_baseline,
        lint_paths,
        load_baseline,
        prune_baseline,
        write_baseline,
        write_fingerprint,
    )
    from repro.lint.runner import build_contexts, discover_files

    config = LintConfig(
        layers_path=args.layers,
        fingerprint_path=args.schema_fingerprint,
        check_schemas=not args.no_schema_check,
    )
    paths = [Path(p) for p in args.paths]

    if args.write_schema_fingerprint:
        model = LayerModel.load(args.layers)
        files = discover_files(paths)
        by_module, _, _ = build_contexts(files, model, Path.cwd())
        target = write_fingerprint(by_module, model, args.schema_fingerprint)
        return f"wrote schema fingerprint: {target}"

    findings = lint_paths(paths, config)

    if args.write_baseline:
        if args.baseline is None:
            raise SystemExit("--write-baseline requires --baseline FILE")
        try:
            write_baseline(args.baseline, findings)
        except BaselineError as exc:
            raise SystemExit(f"error: {exc}")
        return f"wrote baseline with {len(findings)} entries: {args.baseline}"

    suppressed: list = []
    stale: list = []
    if args.baseline is not None and args.baseline.exists():
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            raise SystemExit(f"error: {exc}")
        result = apply_baseline(findings, baseline)
        findings, suppressed, stale = result.new, result.suppressed, result.stale
        if args.prune_baseline and stale:
            removed = prune_baseline(args.baseline, result)
            stale_note = f"pruned {removed} stale baseline entries"
            stale = []
        else:
            stale_note = None
    else:
        stale_note = None

    if args.fmt == "json":
        report = json.dumps(
            {
                "findings": [f.to_dict() for f in findings],
                "suppressed": len(suppressed),
                "stale": stale,
            },
            indent=2,
            sort_keys=True,
        )
    else:
        lines = [f.format() for f in findings]
        for entry in stale:
            lines.append(
                f"stale baseline entry: {entry['rule']} {entry['path']}: "
                f"{entry['message']} (use --prune-baseline to drop)"
            )
        if stale_note:
            lines.append(stale_note)
        summary = (
            f"{len(findings)} finding(s)"
            + (f", {len(suppressed)} suppressed" if suppressed else "")
        )
        lines.append(summary)
        report = "\n".join(lines)

    if findings:
        print(report)
        raise SystemExit(1)
    return report


def _parent_parsers() -> dict:
    """Shared parent parsers for flags repeated across subcommands.

    ``campaign`` / ``roc`` / ``run`` / ``fleet`` used to each declare
    their own copies of ``--jobs`` / ``--backend`` / ``--output`` /
    ``--seed``; declaring them once keeps help texts, defaults and types
    in a single place.
    """
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", type=int, default=None,
        help="master seed (every derived per-scenario seed follows from it)",
    )
    parallel = argparse.ArgumentParser(add_help=False)
    parallel.add_argument(
        "--jobs", type=int, default=1, help="parallel workers (0 = all cores)"
    )
    parallel.add_argument(
        "--backend", choices=["auto", "sequential", "thread", "process"], default="auto",
        help="execution backend (auto = process pool when --jobs != 1)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output", default=None, help="write the result/artifact JSON here"
    )
    artifact = argparse.ArgumentParser(add_help=False)
    artifact.add_argument(
        "--baseline", default=None, metavar="ARTIFACT",
        help="diff against a stored artifact; exit 1 on any difference",
    )
    artifact.add_argument(
        "--filter", nargs="*", default=None, metavar="PATTERN",
        help="only run cells whose defense/attack/workload/device key matches",
    )
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache + checkpoint journal directory; "
             "re-runs of unchanged cells are served from the store",
    )
    cache.add_argument(
        "--no-cache", action="store_true",
        help="with --cache-dir/--resume: keep the checkpoint journal but "
             "skip cache lookups and stores",
    )
    cache.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume a killed sweep from DIR's checkpoint journal; only the "
             "missing cells run, and the final artifact is byte-identical "
             "to an uninterrupted run",
    )
    return {
        "seed": seed,
        "parallel": parallel,
        "output": output,
        "artifact": artifact,
        "cache": cache,
    }


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the RSSD paper's experiments from the command line.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parents = _parent_parsers()
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        parents=[parents["seed"], parents["output"]],
        help="Run one scenario through the repro.api Session facade",
        description=(
            "The universal entry point: execute one ScenarioSpec -- loaded "
            "from JSON (--spec) or assembled from flags -- through a "
            "repro.api.Session, and report recovery, detection, overhead, "
            "forensics and the typed event counts."
        ),
    )
    run.add_argument(
        "--spec", action="append", default=None, metavar="SPEC_JSON",
        help="scenario spec JSON (as written by --emit-spec or "
             "ScenarioSpec.save); repeatable, and a directory runs every "
             "*.json inside it -- with several specs, exit 1 if any fails",
    )
    run.add_argument(
        "--pack", default=None, metavar="PACK_JSON",
        help="run every entry of a scenario pack (plain and compound "
             "scenarios) against its pinned expectations; exit 1 on any "
             "mismatch",
    )
    run.add_argument(
        "--defense", default=None,
        help="defense registry name (default RSSD; overrides --spec)",
    )
    run.add_argument(
        "--attack", default=None,
        help="attack registry name (default classic; overrides --spec)",
    )
    run.add_argument(
        "--workload", default=None,
        help="workload registry name (default office-edit; overrides --spec)",
    )
    run.add_argument(
        "--device", default=None,
        help="device-config registry name (default tiny; overrides --spec)",
    )
    run.add_argument("--victim-files", type=int, default=None)
    run.add_argument(
        "--emit-spec", default=None, metavar="SPEC_JSON",
        help="write the (seed-resolved) spec JSON here before running",
    )
    run.add_argument(
        "--no-run", action="store_true",
        help="validate (and with --emit-spec, write) the spec without executing it",
    )
    run.set_defaults(func=_cmd_run)

    fuzz = subparsers.add_parser(
        "fuzz",
        parents=[
            parents["seed"], parents["parallel"], parents["output"],
            parents["cache"],
        ],
        help="Coverage-guided scenario fuzzing over the spec space",
        description=(
            "Walk the registry-validated ScenarioSpec space with a "
            "deterministic seeded fuzzer: every spec is reproducible from "
            "(seed, index), executed cells ride the campaign result cache "
            "and checkpoint journal, and a mergeable coverage ledger tracks "
            "which scenario regions have ever run.  --toward-uncovered "
            "steers new draws at regions the ledger has not seen, and "
            "--emit-pack freezes the session into a runnable scenario pack."
        ),
    )
    fuzz.add_argument(
        "--budget", type=int, default=16,
        help="walk length: how many spec indices to generate and run",
    )
    fuzz.add_argument(
        "--space", choices=["tiny", "full"], default="tiny",
        help="candidate pools (tiny = the CI smoke slice, full = every registry)",
    )
    fuzz.add_argument(
        "--coverage-ledger", default=None, metavar="LEDGER_JSON",
        help="persistent coverage ledger: loaded if present, merged with "
             "this session's coverage, and written back",
    )
    fuzz.add_argument(
        "--toward-uncovered", action="store_true",
        help="redraw specs whose region the ledger already covers "
             "(bounded, deterministic)",
    )
    fuzz.add_argument(
        "--emit-pack", default=None, metavar="PACK_JSON",
        help="freeze the executed cells into a scenario pack with pinned "
             "expectations (runnable via repro run --pack)",
    )
    fuzz.add_argument(
        "--baseline", default=None, metavar="ARTIFACT",
        help="diff against a stored fuzz artifact; exit 1 on any difference",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    claims_parser = subparsers.add_parser(
        "claims",
        help="Regenerate and check the paper's evaluation (Table 1, Figure 2, P1-P4, A1-A3)",
        description=(
            "Run each claim of the paper's evaluation, print its table and "
            "PASS or one FAIL line per failed predicate; exit 1 if any claim "
            "fails.  REPRO_SMOKE=1 runs every claim at its smoke size."
        ),
    )
    claims_parser.add_argument(
        "--only", nargs="+", metavar="ID",
        choices=[claim.id for claim in claims.CLAIMS],
        help="claims to run, in table order (default: all)",
    )
    claims_parser.set_defaults(func=_cmd_claims)

    ablate = subparsers.add_parser(
        "ablate",
        parents=[
            parents["seed"], parents["parallel"], parents["output"], parents["cache"]
        ],
        help="Component-level ablation sweep over one scenario",
    )
    ablate.add_argument(
        "--features", nargs="*", default=None,
        help="defense features to sweep (default: the tiny study's three)",
    )
    ablate.add_argument(
        "--mode", choices=["drop-one", "power-set"], default="drop-one",
        help="sweep shape: full + one config per feature, or every subset",
    )
    ablate.add_argument(
        "--attacks", nargs="*", default=None,
        help="attack axis (default: classic and trimming-attack)",
    )
    ablate.add_argument("--defense", default=None, help="defense under ablation")
    ablate.add_argument("--workload", default=None, help="pre-attack workload name")
    ablate.add_argument("--device", default=None, help="device geometry name")
    ablate.add_argument("--victim-files", type=int, default=None)
    ablate.add_argument(
        "--hours", type=float, default=None, help="pre-attack activity hours"
    )
    ablate.add_argument(
        "--baseline", default=None, metavar="ARTIFACT",
        help="diff against a stored ablation artifact; exit 1 on any difference",
    )
    ablate.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the per-feature impact table as CSV here",
    )
    ablate.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="write the per-feature impact table as markdown here",
    )
    ablate.set_defaults(func=_cmd_ablate)

    campaign = subparsers.add_parser(
        "campaign",
        parents=[
            parents["seed"], parents["parallel"], parents["output"],
            parents["artifact"], parents["cache"],
        ],
        help="Run a defense x attack x workload campaign grid",
        description=(
            "Execute a declarative scenario grid through the campaign engine "
            "with per-cell deterministic seeding, optionally in parallel, and "
            "emit/compare versioned JSON artifacts."
        ),
    )
    campaign.add_argument(
        "--grid", choices=["default", "tiny"], default="default",
        help="base grid (tiny = the CI smoke / golden-run grid)",
    )
    campaign.add_argument("--defenses", nargs="*", default=None, help="override defense rows")
    campaign.add_argument("--attacks", nargs="*", default=None, help="override attack columns")
    campaign.add_argument("--workloads", nargs="*", default=None, help="override workload generators")
    campaign.add_argument("--device-configs", nargs="*", default=None, help="override device geometries")
    campaign.add_argument("--victim-files", type=int, default=None)
    campaign.set_defaults(func=_cmd_campaign)

    roc = subparsers.add_parser(
        "roc",
        parents=[
            parents["seed"], parents["parallel"], parents["output"],
            parents["artifact"], parents["cache"],
        ],
        help="Detection-quality (ROC) sweep of evasive attacks vs defenses",
        description=(
            "Run the adaptive-attack grid with labelled-operation capture and "
            "sweep every detector primitive (absolute entropy, entropy jump, "
            "sliding window) across its thresholds, emitting per-cell ROC "
            "points and AUC / operating-point quality tables.  Deterministic "
            "and bit-identical across backends; artifacts diff like campaign "
            "artifacts."
        ),
    )
    roc.add_argument(
        "--grid", choices=["tiny", "full"], default="tiny",
        help="evasion grid (tiny = the CI smoke / golden-run grid)",
    )
    roc.add_argument("--defenses", nargs="*", default=None, help="override defense rows")
    roc.add_argument("--attacks", nargs="*", default=None, help="override attack columns")
    roc.add_argument("--victim-files", type=int, default=None)
    roc.add_argument(
        "--quality-only", action="store_true",
        help="print only the AUC / operating-point summary, not every ROC point",
    )
    roc.set_defaults(func=_cmd_roc)

    recover = subparsers.add_parser(
        "recover",
        help="Post-attack forensics and point-in-time recovery on a campaign cell",
        description=(
            "Re-execute one campaign cell deterministically, then analyze the "
            "attack from the device's hardware evidence chain: list recoverable "
            "snapshots, verify the chain, classify the attack, and rebuild the "
            "device image as of any timestamp with exact recovered/lost page "
            "sets (checked against an independent replay of the recorded "
            "command stream)."
        ),
    )
    recover.add_argument(
        "--cell", default="RSSD/classic/office-edit/tiny",
        help="campaign cell key to investigate (defense/attack/workload/device)",
    )
    recover.add_argument(
        "--grid", choices=["default", "tiny"], default="tiny",
        help="grid the cell comes from (tiny = the golden-run grid)",
    )
    recover_mode = recover.add_mutually_exclusive_group()
    recover_mode.add_argument(
        "--list-snapshots", action="store_true",
        help="list the recoverable points in the evidence chain and exit",
    )
    recover_mode.add_argument(
        "--verify-chain", action="store_true",
        help="verify the hash chain and remote arrival order; exit 1 on failure",
    )
    recover_mode.add_argument(
        "--to", default=None, metavar="TIMESTAMP",
        help="rebuild the device image as of this microsecond timestamp "
             "(or 'pre-attack'); exit 1 if the rebuild is not exact",
    )
    recover.add_argument(
        "--apply", action="store_true",
        help="with --to: write the rebuilt image back to the device",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="append the canonical JSON forensic report to the output "
             "(the default report and --to; not with --verify-chain or "
             "--list-snapshots)",
    )
    recover.set_defaults(func=_cmd_recover)

    fleet = subparsers.add_parser(
        "fleet",
        parents=[parents["seed"]],
        help="Replay a synthetic trace against a fleet of devices",
    )
    fleet.add_argument("--records", type=int, default=20_000, help="trace length")
    fleet.add_argument("--shard", action="store_true", help="split the trace across devices")
    fleet.add_argument("--parallel", action="store_true", help="replay devices on threads")
    fleet.add_argument("--per-op", action="store_true", help="use the per-op replay loop")
    fleet.add_argument("--max-batch-pages", type=int, default=128)
    fleet.set_defaults(func=_cmd_fleet)

    lint = subparsers.add_parser(
        "lint",
        help="AST-based invariant checks: determinism, layering, "
        "serialization, concurrency",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="report format",
    )
    lint.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file suppressing known findings (add-only)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="create the baseline from current findings (refuses to overwrite)",
    )
    lint.add_argument(
        "--prune-baseline", action="store_true",
        help="rewrite the baseline without stale entries",
    )
    lint.add_argument(
        "--layers", type=Path, default=None,
        help="layer table override (default: packaged layers.toml)",
    )
    lint.add_argument(
        "--schema-fingerprint", type=Path, default=None,
        help="pinned schema fingerprint override",
    )
    lint.add_argument(
        "--write-schema-fingerprint", action="store_true",
        help="regenerate the pinned schema fingerprint and exit",
    )
    lint.add_argument(
        "--no-schema-check", action="store_true",
        help="skip the project-level schema fingerprint comparison",
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments, run the experiment, print its table."""
    parser = build_parser()
    args = parser.parse_args(argv)
    output = args.func(args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
