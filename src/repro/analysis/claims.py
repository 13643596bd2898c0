"""The paper's evaluation as one table of claims.

Each :class:`Claim` row is one result -- Table 1 (T1), Figure 2 (F2),
the measured results P1-P4 and the design ablations A1-A3 -- with the
experiment that measures it, the predicates the paper states about it
and its renderer.  ``repro claims`` and ``benchmarks/test_claims.py``
both read this table, so the report and the check cannot drift.  Sizes
go through :func:`repro.bench.scaled`, so ``REPRO_SMOKE=1`` shrinks
every row at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.ablation.experiments import (
    DetectionRow,
    OffloadRow,
    TrimAblationRow,
    run_detection_ablation,
    run_offload_ablation,
    run_trim_ablation,
)
from repro.analysis.experiments import (
    ForensicsRow,
    LifetimeRow,
    OverheadRow,
    RecoveryRow,
    run_forensics_experiment,
    run_lifetime_experiment,
    run_performance_overhead,
    run_recovery_experiment,
)
from repro.analysis.figures import render_figure2
from repro.analysis.reporting import format_table
from repro.analysis.retention import (
    FigureTwoRow,
    RetentionScenario,
    figure2_rows,
    lookup_volume,
    stale_gb_per_day,
)
from repro.bench import scaled
from repro.campaign import registries
from repro.campaign.engine import run_campaign
from repro.campaign.grid import CampaignGrid
from repro.campaign.results import CellResult
from repro.defenses.matrix import attack_symbol, row_grade
from repro.sim import SimClock

#: What a claim's predicate function yields: ``(statement, held)`` pairs.
Predicates = Iterator[Tuple[str, bool]]


@dataclass(frozen=True)
class Claim:
    """One result of the paper's evaluation: how to measure, check and print it.

    ``run()`` measures the result at the size ``REPRO_SMOKE`` selects;
    ``check(result)`` returns the paper's predicates that failed on it
    (empty when the claim holds); ``render(result)`` is its table.
    """

    id: str
    title: str
    statement: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    render: Callable[[Any], str]


def _failed(predicates: Callable[[Any], Predicates]) -> Callable[[Any], List[str]]:
    """Turn a generator of ``(statement, held)`` pairs into a ``check``."""

    @functools.wraps(predicates)
    def check(result: Any) -> List[str]:
        return [statement for statement, held in predicates(result) if not held]

    return check


def _table(headers: Sequence[str], cells: Callable[[Any], list]) -> Callable[[Any], str]:
    """A renderer printing one table line of ``cells(row)`` per result row."""
    return lambda rows: format_table(headers, [cells(row) for row in rows])


#: The three attacks the paper introduces (Table 1's columns).
NEW_ATTACKS = ("gc-attack", "timing-attack", "trimming-attack")


@dataclass(frozen=True)
class CapabilityTable:
    """Table 1's measurements, rows in :data:`registries.DEFENSES` order.

    ``rows`` maps each defense to its campaign cell per attack;
    ``forensics`` maps it to the defense's ``supports_forensics`` flag.
    """

    rows: Dict[str, Dict[str, CellResult]]
    forensics: Dict[str, bool]

    def grade(self, defense: str) -> str:
        """The defense's ● / ◗ / ❍ recovery grade across every attack."""
        return row_grade(cell.recovery_fraction for cell in self.rows[defense].values())


def _run_t1() -> CapabilityTable:
    grid = CampaignGrid(victim_files=scaled(24, 12))
    rows: Dict[str, Dict[str, CellResult]] = {name: {} for name in grid.defenses}
    for cell in run_campaign(grid).cells:
        rows[cell.defense][cell.attack] = cell
    geometry = registries.DEVICE_CONFIGS[grid.device_configs[0]]()
    forensics = {
        name: registries.DEFENSES[name](geometry, SimClock()).supports_forensics
        for name in grid.defenses
    }
    return CapabilityTable(rows=rows, forensics=forensics)


@_failed
def _check_t1(table: CapabilityTable) -> Predicates:
    cells = table.rows
    shape = [("the 11 registered defenses", set(cells) == set(registries.DEFENSES))]
    for name, row in cells.items():
        shape.append(
            (f"{name} faced classic and the 3 new attacks", set(row) == {"classic", *NEW_ATTACKS})
        )
    yield from shape
    if not all(held for _, held in shape):
        return  # the predicates below read every (defense, attack) cell by name
    for attack in NEW_ATTACKS:
        yield f"RSSD defends {attack}", cells["RSSD"][attack].defended
        yield f"LocalSSD does not defend {attack}", not cells["LocalSSD"][attack].defended
        yield f"LocalSSD recovers < 0.05 after {attack}", (
            cells["LocalSSD"][attack].recovery_fraction < 0.05
        )
        for name in ("Unveil", "CryptoDrop", "ShieldFS", "JFS", "SSDInsider", "RBlocker"):
            yield f"{name} does not defend {attack}", not cells[name][attack].defended
    yield "RSSD's recovery grade is ●", table.grade("RSSD") == "●"
    yield "LocalSSD's recovery grade is ❍", table.grade("LocalSSD") == "❍"
    yield "FlashGuard's recovery grade is ◗", table.grade("FlashGuard") == "◗"
    for name in ("FlashGuard", "TimeSSD"):
        yield f"{name} defends gc-attack", cells[name]["gc-attack"].defended
        for attack in ("timing-attack", "trimming-attack"):
            yield f"{name} does not defend {attack}", not cells[name][attack].defended
    ssdinsider, backup = cells["SSDInsider"], cells["CloudBackup"]
    yield "SSDInsider recovers > 0.5 after classic", ssdinsider["classic"].recovery_fraction > 0.5
    yield "CloudBackup recovers >= 0.5 after timing-attack", (
        backup["timing-attack"].recovery_fraction >= 0.5
    )
    for attack in ("gc-attack", "trimming-attack"):
        yield f"CloudBackup recovers < 0.05 after {attack}", backup[attack].recovery_fraction < 0.05
    yield "gc-attack compromises CloudBackup", backup["gc-attack"].compromised
    yield "timing-attack does not compromise CloudBackup", not backup["timing-attack"].compromised
    yield "only RSSD supports forensics", (
        [name for name, supported in table.forensics.items() if supported] == ["RSSD"]
    )


def _render_t1(table: CapabilityTable) -> str:
    header = (
        f"{'Defense':<12} {'GC':>4} {'Timing':>7} {'Trimming':>9} "
        f"{'Recovery':>9} {'Forensics':>10}"
    )
    lines = [header, "-" * len(header)]
    for defense, cells in table.rows.items():
        gc, timing, trimming = (
            attack_symbol(cells[attack].recovery_fraction) for attack in NEW_ATTACKS
        )
        forensics = "✔" if table.forensics[defense] else "✗"
        lines.append(
            f"{defense:<12} {gc:>4} {timing:>7} {trimming:>9} "
            f"{table.grade(defense):>9} {forensics:>10}"
        )
    return "\n".join(lines)


@_failed
def _check_f2(rows: List[FigureTwoRow]) -> Predicates:
    yield "12 traced volumes", len(rows) == 12
    for row in rows:
        yield f"{row.volume}: RSSD retains >= 200 days", row.rssd_days >= 200.0
        yield f"{row.volume}: LocalSSD retains < 100 days", row.local_days < 100.0
        yield f"{row.volume}: LocalSSD <= LocalSSD+Compr <= RSSD", (
            row.local_days <= row.local_compressed_days <= row.rssd_days
        )
        yield f"{row.volume}: RSSD retains > 2x longer", row.rssd_advantage > 2.0


_render_f2_table = _table(
    ["volume", "LocalSSD (days)", "LocalSSD+Compr (days)", "RSSD (days)"],
    lambda r: [r.volume, r.local_days, r.local_compressed_days, r.rssd_days],
)


@_failed
def _check_p1(rows: List[OverheadRow]) -> Predicates:
    yield "5 fio jobs", len(rows) == 5
    for row in rows:
        yield f"{row.job}: write overhead < 1%", row.write_overhead < 0.01
        yield f"{row.job}: read overhead < 1%", row.read_overhead < 0.01
        if "write" in row.job or "mix" in row.job:
            yield f"{row.job}: RSSD write latency > 0", row.rssd_write_latency_us > 0


@_failed
def _check_p2(rows: List[LifetimeRow]) -> Predicates:
    yield "3 volumes", len(rows) == 3
    for row in rows:
        yield f"{row.volume}: baseline WAF >= 1", row.baseline_waf >= 1.0
        yield f"{row.volume}: RSSD WAF >= 1", row.rssd_waf >= 1.0
        yield f"{row.volume}: WAF overhead < 10%", row.waf_overhead < 0.10
        yield f"{row.volume}: erase overhead < 15%", row.erase_overhead < 0.15


@_failed
def _check_p3(rows: List[RecoveryRow]) -> Predicates:
    yield "attacks: classic and the 3 new attacks", (
        {row.attack for row in rows} == {"classic", *NEW_ATTACKS}
    )
    for row in rows:
        yield f"{row.attack}: no unrecoverable page", row.pages_unrecoverable == 0
        yield f"{row.attack}: recovered fraction is 1", row.recovered_fraction == 1.0
        yield f"{row.attack}: every file recovered", row.files_fully_recovered == row.files_total
        yield f"{row.attack}: recovery < 60 s", row.recovery_seconds < 60.0


def _p4_background_ops() -> List[int]:
    return scaled([200, 1_000, 4_000], [200, 1_000])


@_failed
def _check_p4(rows: List[ForensicsRow]) -> Predicates:
    sizes = [row.background_ops for row in rows]
    yield "one row per background size", sizes == _p4_background_ops()
    for row in rows:
        yield f"{row.background_ops} ops: chain verified", row.chain_verified
        yield f"{row.background_ops} ops: attacker identified", row.attacker_identified
        yield f"{row.background_ops} ops: reconstruction < 10 s", row.reconstruction_seconds < 10.0
    for before, after in zip(rows, rows[1:]):
        step = f"{before.background_ops} -> {after.background_ops} ops"
        yield f"{step}: log entries grow", before.log_entries < after.log_entries
        yield f"{step}: reconstruction time does not shrink", (
            before.reconstruction_seconds <= after.reconstruction_seconds
        )


_A1_VOLUMES = ["hm", "src", "email", "usr"]


@_failed
def _check_a1(rows: List[OffloadRow]) -> Predicates:
    yield "4 volumes", [row.volume for row in rows] == _A1_VOLUMES
    scenario = RetentionScenario()
    for row in rows:
        profile = lookup_volume(row.volume)
        shipped = stale_gb_per_day(profile, scenario) * profile.mean_compress_ratio
        yield f"{row.volume}: pages offloaded", row.pages_offloaded > 0
        yield f"{row.volume}: compression ratio in (0.3, 0.9)", 0.3 < row.compression_ratio < 0.9
        yield f"{row.volume}: compressed MB <= raw MB", row.compressed_mb <= row.raw_mb
        yield f"{row.volume}: compressed stale data < 1% of the link's daily capacity", (
            shipped < scenario.link_capacity_gb_per_day / 100.0
        )
    ratio = {row.volume: row.compression_ratio for row in rows}
    yield "hm compresses better than email", ratio["hm"] < ratio["email"]


@_failed
def _check_a2(rows: List[TrimAblationRow]) -> Predicates:
    mode = {row.mode: row for row in rows}
    yield "enhanced trim trims pages", mode["enhanced"].pages_trimmed > 0
    yield "enhanced trim is not rejected", not mode["enhanced"].trim_rejected
    yield "enhanced trim recovers everything", mode["enhanced"].recovered_fraction == 1.0
    yield "naive trim recovers < 0.5", mode["naive"].recovered_fraction < 0.5
    yield "disabled trim rejects the command", mode["disabled"].trim_rejected


@_failed
def _check_a3(rows: List[DetectionRow]) -> Predicates:
    for row in rows:
        yield f"{row.attack}: remote detector detects", row.remote_detected
        yield f"{row.attack}: remote detector names the attacker", row.remote_identified_attacker
    attack = {row.attack: row for row in rows}
    yield "local detector catches classic", attack["classic"].local_detected
    yield "local detector misses timing-attack", not attack["timing-attack"].local_detected


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        id="T1",
        title="Table 1: defense capability matrix",
        statement="Only RSSD defends the GC, timing and trimming attacks, recovers all "
        "data after every attack and supports trusted post-attack analysis.",
        run=_run_t1,
        check=_check_t1,
        render=_render_t1,
    ),
    Claim(
        id="F2",
        title="Figure 2: data retention time per volume",
        statement="Offloading retains stale data for over 200 days on every traced "
        "volume, far beyond local spare capacity, even with compression.",
        run=figure2_rows,
        check=_check_f2,
        render=lambda rows: _render_f2_table(rows) + "\n\n" + render_figure2(rows),
    ),
    Claim(
        id="P1",
        title="Storage performance overhead",
        statement="RSSD costs under 1% of local storage performance.",
        run=lambda: run_performance_overhead(duration_s=scaled(0.5, 0.25)),
        check=_check_p1,
        render=_table(
            ["job", "write overhead %", "read overhead %"],
            lambda r: [r.job, r.write_overhead * 100, r.read_overhead * 100],
        ),
    ),
    Claim(
        id="P2",
        title="Device lifetime impact",
        statement="RSSD has minimal impact on device lifetime.",
        run=lambda: run_lifetime_experiment(
            volumes=["hm", "src", "usr"], duration_s=scaled(0.1, 0.05)
        ),
        check=_check_p2,
        render=_table(
            ["volume", "baseline WAF", "RSSD WAF", "WAF overhead %", "erase overhead %"],
            lambda r: [r.volume, r.baseline_waf, r.rssd_waf, r.waf_overhead * 100,
                       r.erase_overhead * 100],
        ),
    ),
    Claim(
        id="P3",
        title="Recovery after every attack",
        statement="RSSD restores every victim page and file after every attack, quickly.",
        run=lambda: run_recovery_experiment(victim_files=scaled(24, 12)),
        check=_check_p3,
        render=_table(
            ["attack", "victim pages", "restored", "unrecoverable", "files ok", "recovery s"],
            lambda r: [r.attack, r.victim_pages, r.pages_restored, r.pages_unrecoverable,
                       f"{r.files_fully_recovered}/{r.files_total}", r.recovery_seconds],
        ),
    ),
    Claim(
        id="P4",
        title="Evidence-chain construction",
        statement="RSSD rebuilds a verified evidence chain that identifies the attacker, "
        "at a cost that grows with the logged history.",
        run=lambda: run_forensics_experiment(background_ops_list=_p4_background_ops()),
        check=_check_p4,
        render=_table(
            ["background ops", "log entries", "verified", "attacker found", "reconstruction s"],
            lambda r: [r.background_ops, r.log_entries, r.chain_verified,
                       r.attacker_identified, r.reconstruction_seconds],
        ),
    ),
    Claim(
        id="A1",
        title="Offload path ablation",
        statement="Compressing retained pages keeps offload traffic far below the "
        "network link's capacity.",
        run=lambda: run_offload_ablation(volumes=_A1_VOLUMES, duration_s=scaled(0.1, 0.05)),
        check=_check_a1,
        render=_table(
            ["volume", "pages offloaded", "compression ratio", "wire MB"],
            lambda r: [r.volume, r.pages_offloaded, r.compression_ratio, r.wire_mb],
        ),
    ),
    Claim(
        id="A2",
        title="Enhanced trim ablation",
        statement="Enhanced trim honours the command and keeps the data; commodity trim "
        "loses it, and disabling trim only rejects the command.",
        run=lambda: run_trim_ablation(victim_files=scaled(16, 8)),
        check=_check_a2,
        render=_table(
            ["mode", "pages trimmed", "recovered fraction", "trim rejected"],
            lambda r: [r.mode, r.pages_trimmed, r.recovered_fraction, r.trim_rejected],
        ),
    ),
    Claim(
        id="A3",
        title="Local vs offloaded detection",
        statement="Offloaded detection catches and attributes every attack; the in-device "
        "window detector misses the paced timing attack.",
        run=run_detection_ablation,
        check=_check_a3,
        render=_table(
            ["attack", "local detected", "remote detected", "attacker identified"],
            lambda r: [r.attack, r.local_detected, r.remote_detected,
                       r.remote_identified_attacker],
        ),
    ),
)
