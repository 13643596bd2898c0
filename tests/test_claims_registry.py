"""Tests for the claims registry's predicates and renderers.

``benchmarks/test_claims.py`` runs every claim's experiment and requires
its predicates to hold.  These tests run no experiment: they feed each
``check`` a result shaped like the paper's outcome, which must pass,
and then that result with one measurement broken, which must fail with
the predicate the break violates.  A predicate that cannot fail shows
nothing, so every predicate group is broken here at least once.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.ablation.experiments import DetectionRow, OffloadRow, TrimAblationRow
from repro.analysis import claims
from repro.analysis.experiments import ForensicsRow, LifetimeRow, OverheadRow, RecoveryRow
from repro.analysis.retention import figure2_rows
from repro.campaign import registries
from repro.defenses.matrix import DEFENDED_THRESHOLD
from repro.sim import SimClock
from repro.ssd.geometry import SSDGeometry

ATTACKS = ("classic", *claims.NEW_ATTACKS)

#: Table 1 as the paper reports it: each defense's recovery fraction
#: after the classic, GC, timing and trimming attacks.
PAPER_FRACTIONS = {
    "LocalSSD": (0.0, 0.0, 0.0, 0.0),
    "Unveil": (0.0, 0.0, 0.0, 0.0),
    "CryptoDrop": (0.0, 0.0, 0.0, 0.0),
    "CloudBackup": (1.0, 0.0, 0.71, 0.0),
    "ShieldFS": (1.0, 0.0, 0.0, 0.0),
    "JFS": (1.0, 0.0, 0.0, 0.0),
    "FlashGuard": (1.0, 1.0, 0.0, 0.0),
    "TimeSSD": (1.0, 1.0, 0.0, 0.0),
    "SSDInsider": (1.0, 0.0, 0.0, 0.0),
    "RBlocker": (1.0, 0.0, 0.0, 0.0),
    "RSSD": (1.0, 1.0, 1.0, 1.0),
}

TABLE_1 = """\
Defense        GC  Timing  Trimming  Recovery  Forensics
--------------------------------------------------------
LocalSSD        ✗       ✗         ✗         ❍          ✗
Unveil          ✗       ✗         ✗         ❍          ✗
CryptoDrop      ✗       ✗         ✗         ❍          ✗
CloudBackup     ✗       ✔         ✗         ◗          ✗
ShieldFS        ✗       ✗         ✗         ◗          ✗
JFS             ✗       ✗         ✗         ◗          ✗
FlashGuard      ✔       ✗         ✗         ◗          ✗
TimeSSD         ✔       ✗         ✗         ◗          ✗
SSDInsider      ✗       ✗         ✗         ◗          ✗
RBlocker        ✗       ✗         ✗         ◗          ✗
RSSD            ✔       ✔         ✔         ●          ✔"""


def _cell(fraction, compromised=False):
    """The fields of a campaign cell that Table 1 reads."""
    return SimpleNamespace(
        recovery_fraction=fraction,
        defended=fraction >= DEFENDED_THRESHOLD,
        compromised=compromised,
    )


def _paper_table():
    rows = {
        name: {attack: _cell(f) for attack, f in zip(ATTACKS, fractions)}
        for name, fractions in PAPER_FRACTIONS.items()
    }
    rows["CloudBackup"]["gc-attack"].compromised = True
    return claims.CapabilityTable(
        rows=rows, forensics={name: name == "RSSD" for name in PAPER_FRACTIONS}
    )


def _paper_results():
    """Each claim's result shaped like the paper's outcome."""
    sizes = claims._p4_background_ops()
    return {
        "T1": _paper_table(),
        "F2": figure2_rows(),
        "P1": [
            OverheadRow(job, 100.0, 100.4, 50.0, 50.2)
            for job in ("seq-read", "seq-write", "rand-read", "rand-write", "oltp-mix")
        ],
        "P2": [LifetimeRow(volume, 1.2, 1.25, 100, 110) for volume in ("hm", "src", "usr")],
        "P3": [RecoveryRow(attack, 96, 96, 0, 0.4, 24, 24) for attack in ATTACKS],
        "P4": [
            ForensicsRow(ops, 2 * ops + 300, True, True, 0.01 * (index + 1), 4)
            for index, ops in enumerate(sizes)
        ],
        "A1": [
            OffloadRow("hm", 500, 2.0, 1.0, 0.5, 1.1, 0.0),
            OffloadRow("src", 400, 1.6, 1.0, 0.625, 1.1, 0.0),
            OffloadRow("email", 300, 1.2, 0.96, 0.8, 1.0, 0.0),
            OffloadRow("usr", 200, 0.8, 0.48, 0.6, 0.5, 0.0),
        ],
        "A2": [
            TrimAblationRow("enhanced", 64, 1.0, False),
            TrimAblationRow("naive", 64, 0.0, False),
            TrimAblationRow("disabled", 0, 0.0, True),
        ],
        "A3": [
            DetectionRow("classic", True, True, True),
            DetectionRow("gc-attack", True, True, True),
            DetectionRow("timing-attack", False, True, True),
            DetectionRow("trimming-attack", True, True, True),
        ],
    }


def _claim(claim_id):
    return next(claim for claim in claims.CLAIMS if claim.id == claim_id)


def _set_cell(defense, attack, fraction=None, compromised=None):
    """Break one Table-1 cell: its recovery fraction or its compromised flag."""

    def perturb(table):
        cell = table.rows[defense][attack]
        if fraction is not None:
            cell.recovery_fraction = fraction
            cell.defended = fraction >= DEFENDED_THRESHOLD
        if compromised is not None:
            cell.compromised = compromised
        return table

    return perturb


def _set_row(defense, fraction):
    """Give one defense the same recovery fraction after every attack."""

    def perturb(table):
        for attack in ATTACKS:
            _set_cell(defense, attack, fraction=fraction)(table)
        return table

    return perturb


def _drop_defense(defense):
    def perturb(table):
        del table.rows[defense]
        return table

    return perturb


def _drop_attack(defense, attack):
    def perturb(table):
        del table.rows[defense][attack]
        return table

    return perturb


def _grant_forensics(defense):
    def perturb(table):
        table.forensics[defense] = True
        return table

    return perturb


def _replace(index, **changes):
    """Break one row of a list result."""

    def perturb(rows):
        rows = list(rows)
        rows[index] = dataclasses.replace(rows[index], **changes)
        return rows

    return perturb


def _drop(index):
    def perturb(rows):
        return rows[:index] + rows[index + 1:]

    return perturb


PERTURBATIONS = [
    # -- Table 1 ----------------------------------------------------------
    ("T1", _drop_defense("RBlocker"), "the 11 registered defenses"),
    ("T1", _drop_attack("RSSD", "classic"), "RSSD faced classic and the 3 new attacks"),
    ("T1", _set_cell("RSSD", "trimming-attack", fraction=0.0), "RSSD defends trimming-attack"),
    ("T1", _set_cell("RSSD", "timing-attack", fraction=0.9), "RSSD's recovery grade is ●"),
    ("T1", _set_cell("LocalSSD", "gc-attack", fraction=1.0), "LocalSSD does not defend gc-attack"),
    (
        "T1",
        _set_cell("LocalSSD", "timing-attack", fraction=0.1),
        "LocalSSD recovers < 0.05 after timing-attack",
    ),
    ("T1", _set_cell("LocalSSD", "classic", fraction=0.3), "LocalSSD's recovery grade is ❍"),
    ("T1", _set_cell("ShieldFS", "gc-attack", fraction=1.0), "ShieldFS does not defend gc-attack"),
    ("T1", _set_cell("FlashGuard", "gc-attack", fraction=0.0), "FlashGuard defends gc-attack"),
    ("T1", _set_row("FlashGuard", fraction=0.0), "FlashGuard's recovery grade is ◗"),
    (
        "T1",
        _set_cell("TimeSSD", "timing-attack", fraction=1.0),
        "TimeSSD does not defend timing-attack",
    ),
    (
        "T1",
        _set_cell("SSDInsider", "classic", fraction=0.5),
        "SSDInsider recovers > 0.5 after classic",
    ),
    (
        "T1",
        _set_cell("CloudBackup", "timing-attack", fraction=0.4),
        "CloudBackup recovers >= 0.5 after timing-attack",
    ),
    (
        "T1",
        _set_cell("CloudBackup", "trimming-attack", fraction=0.2),
        "CloudBackup recovers < 0.05 after trimming-attack",
    ),
    (
        "T1",
        _set_cell("CloudBackup", "gc-attack", compromised=False),
        "gc-attack compromises CloudBackup",
    ),
    (
        "T1",
        _set_cell("CloudBackup", "timing-attack", compromised=True),
        "timing-attack does not compromise CloudBackup",
    ),
    ("T1", _grant_forensics("JFS"), "only RSSD supports forensics"),
    # -- Figure 2 ---------------------------------------------------------
    ("F2", _drop(0), "12 traced volumes"),
    ("F2", _replace(0, rssd_days=150.0), "hm: RSSD retains >= 200 days"),
    ("F2", _replace(0, local_days=120.0), "hm: LocalSSD retains < 100 days"),
    ("F2", _replace(0, local_compressed_days=1e6), "hm: LocalSSD <= LocalSSD+Compr <= RSSD"),
    # -- P1-P4 ------------------------------------------------------------
    ("P1", _drop(0), "5 fio jobs"),
    ("P1", _replace(1, rssd_write_latency_us=102.0), "seq-write: write overhead < 1%"),
    ("P1", _replace(2, rssd_read_latency_us=51.0), "rand-read: read overhead < 1%"),
    (
        "P1",
        _replace(4, baseline_write_latency_us=0.0, rssd_write_latency_us=0.0),
        "oltp-mix: RSSD write latency > 0",
    ),
    ("P2", _replace(0, rssd_waf=1.4), "hm: WAF overhead < 10%"),
    ("P2", _replace(1, rssd_erases=120), "src: erase overhead < 15%"),
    ("P2", _replace(2, baseline_waf=0.9, rssd_waf=0.9), "usr: baseline WAF >= 1"),
    ("P3", _drop(0), "attacks: classic and the 3 new attacks"),
    (
        "P3",
        _replace(1, pages_restored=90, pages_unrecoverable=6),
        "gc-attack: no unrecoverable page",
    ),
    ("P3", _replace(2, files_fully_recovered=23), "timing-attack: every file recovered"),
    ("P3", _replace(3, recovery_seconds=61.0), "trimming-attack: recovery < 60 s"),
    ("P4", _drop(0), "one row per background size"),
    ("P4", _replace(0, chain_verified=False), "200 ops: chain verified"),
    ("P4", _replace(1, attacker_identified=False), "1000 ops: attacker identified"),
    ("P4", _replace(0, log_entries=10_000), "200 -> 1000 ops: log entries grow"),
    (
        "P4",
        _replace(0, reconstruction_seconds=5.0),
        "200 -> 1000 ops: reconstruction time does not shrink",
    ),
    # -- A1-A3 ------------------------------------------------------------
    ("A1", _drop(3), "4 volumes"),
    ("A1", _replace(1, pages_offloaded=0), "src: pages offloaded"),
    ("A1", _replace(3, compression_ratio=0.95), "usr: compression ratio in (0.3, 0.9)"),
    ("A1", _replace(2, compressed_mb=2.0), "email: compressed MB <= raw MB"),
    ("A1", _replace(0, compression_ratio=0.85), "hm compresses better than email"),
    ("A2", _replace(0, pages_trimmed=0), "enhanced trim trims pages"),
    ("A2", _replace(0, recovered_fraction=0.9), "enhanced trim recovers everything"),
    ("A2", _replace(1, recovered_fraction=1.0), "naive trim recovers < 0.5"),
    ("A2", _replace(2, trim_rejected=False), "disabled trim rejects the command"),
    ("A3", _replace(1, remote_detected=False), "gc-attack: remote detector detects"),
    (
        "A3",
        _replace(3, remote_identified_attacker=False),
        "trimming-attack: remote detector names the attacker",
    ),
    ("A3", _replace(0, local_detected=False), "local detector catches classic"),
    ("A3", _replace(2, local_detected=True), "local detector misses timing-attack"),
]


class TestRegistry:
    def test_rows_follow_the_papers_order(self):
        ids = [claim.id for claim in claims.CLAIMS]
        assert ids == ["T1", "F2", "P1", "P2", "P3", "P4", "A1", "A2", "A3"]

    def test_rows_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            claims.CLAIMS[0].check = lambda result: []

    def test_only_rssd_reports_forensics_support(self):
        geometry = SSDGeometry.tiny()
        supported = [
            name
            for name, factory in registries.DEFENSES.items()
            if factory(geometry, SimClock()).supports_forensics
        ]
        assert supported == ["RSSD"]


@pytest.mark.parametrize("claim_id", [claim.id for claim in claims.CLAIMS])
def test_the_papers_outcome_passes_every_predicate(claim_id):
    assert _claim(claim_id).check(_paper_results()[claim_id]) == []


@pytest.mark.parametrize(
    "claim_id, perturb, predicate",
    PERTURBATIONS,
    ids=[f"{claim_id}: {predicate}" for claim_id, _, predicate in PERTURBATIONS],
)
def test_a_broken_measurement_fails_the_predicate_it_breaks(claim_id, perturb, predicate):
    assert predicate in _claim(claim_id).check(perturb(_paper_results()[claim_id]))


class TestRender:
    def test_table_1_renders_the_papers_symbols(self):
        assert claims.CLAIMS[0].render(_paper_table()) == TABLE_1

    def test_figure_2_prints_its_table_then_its_bars(self):
        output = _claim("F2").render(figure2_rows())
        table, bars = output.split("\n\n", 1)
        assert table.splitlines()[0].split() == [
            "volume", "LocalSSD", "(days)", "LocalSSD+Compr", "(days)", "RSSD", "(days)"
        ]
        assert len(table.splitlines()) == 2 + 12
        assert "#" in bars and "RSSD" in bars

    @pytest.mark.parametrize("claim_id", ["P1", "P2", "P3", "P4", "A1", "A2", "A3"])
    def test_a_table_prints_one_line_per_row(self, claim_id):
        rows = _paper_results()[claim_id]
        lines = _claim(claim_id).render(rows).splitlines()
        assert len(lines) == 2 + len(rows)
        assert set(lines[1]) <= {"-", " "}
