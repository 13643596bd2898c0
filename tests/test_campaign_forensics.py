"""Campaign-level forensic metrics, integrity surfacing, and the golden report.

Three guarantees are pinned here:

1. RSSD campaign cells carry *exact* recovery and forensic metrics
   (page sets verified against an independent trace replay), while
   evidence-free defenses carry the ``None`` defaults.
2. A remote-tier time-order violation is surfaced as a structured
   error in :class:`~repro.campaign.results.CellResult` instead of
   being silently swallowed (the historical failure mode).
3. The full forensic report for every RSSD cell of the tiny campaign
   grid reproduces ``tests/golden/forensics_tiny.json`` bit-for-bit.
4. ``repro recover`` runs every action on a tiny-grid RSSD cell and
   refuses, with its message, cells that have no evidence chain.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import CampaignGrid, CellResult, run_cell
from repro.campaign.engine import execute_cell_scenario
from repro.cli import main
from repro.forensics import ForensicReport
from repro.nvmeoe import remote as remote_module

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FORENSICS = GOLDEN_DIR / "forensics_tiny.json"
RSSD_CELL = "RSSD/classic/office-edit/tiny"


def tiny_spec(cell_key: str):
    matches = [spec for spec in CampaignGrid.tiny().cells() if spec.cell_key == cell_key]
    assert matches, f"cell {cell_key} not in the tiny grid"
    return matches[0]


class TestCellForensicMetrics:
    def test_rssd_cell_reports_exact_metrics(self):
        result = run_cell(tiny_spec("RSSD/trimming-attack/office-edit/tiny"))
        assert result.forensic_pattern == "encrypt-then-trim"
        assert result.recovery_exact is True
        assert result.exact_pages_lost == 0
        assert result.exact_pages_recovered == result.pages_recovered
        assert result.first_malicious_us is not None
        assert result.blast_radius_pages >= result.victim_pages
        assert result.remote_time_order_ok is True
        assert result.integrity_errors == []

    def test_evidence_free_defense_has_default_forensic_fields(self):
        result = run_cell(tiny_spec("LocalSSD/classic/office-edit/tiny"))
        assert result.forensic_pattern is None
        assert result.recovery_exact is None
        assert result.exact_pages_recovered is None
        assert result.remote_time_order_ok is None
        assert result.integrity_errors == []

    def test_version1_artifact_cells_load_with_defaults(self):
        data = {
            "cell_key": "X/classic/office-edit/tiny",
            "defense": "X",
            "attack": "classic",
            "workload": "office-edit",
            "device_config": "tiny",
            "recovery_fraction": 1.0,
            "defended": True,
            "victim_pages": 4,
            "pages_recovered": 4,
            "detected": False,
            "detection_latency_us": None,
            "compromised": False,
            "attack_duration_us": 10,
            "write_amplification": 1.0,
            "mean_write_latency_us": 14.0,
            "mean_read_latency_us": 60.0,
            "host_commands": 20,
            "flash_pages_programmed": 8,
            "oplog_hash": None,
            "env_seed": 1,
            "workload_seed": 2,
            "attack_seed": 3,
        }
        result = CellResult.from_dict(data)
        assert result.forensic_pattern is None
        assert result.integrity_errors == []


class TestTimeOrderSurfacing:
    def test_remote_time_order_violation_recorded_as_structured_error(self, monkeypatch):
        monkeypatch.setattr(
            remote_module.StorageServer, "verify_time_order", lambda self: False
        )
        result = run_cell(tiny_spec("RSSD/classic/office-edit/tiny"))
        assert result.remote_time_order_ok is False
        assert any(
            "remote-time-order-violation" in error for error in result.integrity_errors
        )

    def test_clean_run_records_no_integrity_errors(self):
        result = run_cell(tiny_spec("RSSD/classic/office-edit/tiny"))
        assert result.remote_time_order_ok is True
        assert result.integrity_errors == []


class TestGoldenForensicReport:
    def _fresh_reports(self) -> dict:
        reports = {}
        for spec in CampaignGrid.tiny().cells():
            if spec.defense != "RSSD":
                continue
            scenario = execute_cell_scenario(spec)
            engine = scenario.defense.forensics_engine()
            reports[spec.cell_key] = engine.investigate(
                recover_to_us=scenario.attack_outcome.start_us
            ).to_dict()
        return reports

    def test_tiny_grid_reproduces_golden_forensic_reports(self, update_golden):
        reports = self._fresh_reports()
        text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN_FORENSICS.write_text(text, encoding="utf-8")
            pytest.skip(f"golden forensic report rewritten: {GOLDEN_FORENSICS}")
        assert GOLDEN_FORENSICS.exists(), (
            "golden forensic report missing; run pytest "
            "tests/test_campaign_forensics.py --update-golden to create it"
        )
        stored = json.loads(GOLDEN_FORENSICS.read_text(encoding="utf-8"))
        assert reports == stored, (
            "forensic reports diverged from tests/golden/forensics_tiny.json "
            "(run --update-golden if intentional)"
        )

    def test_golden_forensic_reports_have_expected_shape(self):
        stored = json.loads(GOLDEN_FORENSICS.read_text(encoding="utf-8"))
        assert set(stored) == {
            "RSSD/classic/office-edit/tiny",
            "RSSD/trimming-attack/office-edit/tiny",
        }
        for cell_key, report in stored.items():
            assert report["chain_verified"] is True
            assert report["remote_time_order_ok"] is True
            assert report["recovery_exact"] is True
            assert report["pages_lost"] == 0 and report["lost_lbas"] == []
            assert report["pattern"] != "none"
        trim = stored["RSSD/trimming-attack/office-edit/tiny"]
        assert trim["pattern"] == "encrypt-then-trim"
        assert trim["trimmed_pages"] > 0


class TestRecoverCommand:
    @staticmethod
    def recover(capsys, *args: str) -> str:
        assert main(["recover", "--grid", "tiny", "--cell", RSSD_CELL, *args]) == 0
        return capsys.readouterr().out

    def test_verify_chain(self, capsys):
        assert "chain verified:     True" in self.recover(capsys, "--verify-chain")

    def test_rebuild_to_pre_attack_matches_exactly(self, capsys):
        assert "MATCHES exactly" in self.recover(capsys, "--to", "pre-attack")

    def test_list_snapshots(self, capsys):
        assert "recoverable points" in self.recover(capsys, "--list-snapshots")

    def test_default_action_ends_in_the_json_report(self, capsys):
        out = self.recover(capsys, "--json")
        report = ForensicReport.from_json(out[out.rindex("\n{") + 1 :])
        assert report.chain_verified
        assert report.malicious_streams

    def test_apply_without_target_exits(self):
        with pytest.raises(SystemExit, match="--apply only makes sense with --to"):
            main(["recover", "--apply"])

    def test_unknown_cell_exits(self):
        with pytest.raises(SystemExit, match="unknown cell 'NoSuch/cell'"):
            main(["recover", "--cell", "NoSuch/cell"])

    def test_cell_without_evidence_chain_exits(self):
        with pytest.raises(
            SystemExit, match="runs on LocalSSD, which has no evidence chain"
        ):
            main(["recover", "--cell", "LocalSSD/classic/office-edit/tiny", "--verify-chain"])
