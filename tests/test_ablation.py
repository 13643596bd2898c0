"""Ablation framework: registry, config, spec field, study, metrics, CLI.

Includes the acceptance gates ISSUE 7 pins down:

* the tiny study is bit-identical across the sequential, thread and
  process backends and reproduces ``tests/golden/ablation_tiny.json``;
* specs without an ablation hash and serialize exactly as they did
  before the field existed (regression-pinned hashes);
* ``repro campaign --filter`` / ``repro roc --filter`` with patterns
  that match nothing exit 1 and name the unmatched patterns.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.ablation import (
    FEATURES,
    AblationArtifact,
    AblationConfig,
    AblationError,
    AblationStudy,
    apply_ablation,
    calculate_metrics,
    compare_configs,
    feature_names,
    render_impact_csv,
    render_impact_markdown,
    run_ablation_cell,
    validate_features,
)
from repro.api import ScenarioSpec, Session, SpecValidationError

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TINY = GOLDEN_DIR / "ablation_tiny.json"


# ---------------------------------------------------------------------------
# Feature registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_registry_names_every_paper_component(self):
        assert feature_names() == sorted(FEATURES)
        assert set(feature_names()) == {
            "selective-retention",
            "remote-offload",
            "enhanced-trim",
            "local-detector",
            "remote-detector",
            "gc-policy",
            "retention-eviction",
        }
        for feature in FEATURES.values():
            assert feature.summary
            assert feature.paper_component

    def test_validate_features_canonicalizes(self):
        assert validate_features(["remote-offload", "enhanced-trim"]) == (
            "enhanced-trim",
            "remote-offload",
        )
        assert validate_features(["enhanced-trim", "enhanced-trim"]) == (
            "enhanced-trim",
        )
        assert validate_features(()) == ()

    def test_validate_features_rejects_unknown_names(self):
        with pytest.raises(AblationError, match="unknown ablation features"):
            validate_features(["warp-drive"])

    def test_apply_ablation_requires_an_rssd_defense(self):
        from repro.defenses.unprotected import UnprotectedSSD
        from repro.sim import SimClock
        from repro.ssd.geometry import SSDGeometry

        defense = UnprotectedSSD(SSDGeometry.tiny(), SimClock())
        with pytest.raises(AblationError, match="RSSD"):
            apply_ablation(defense, ("enhanced-trim",))
        # The empty ablation is a no-op on any defense.
        apply_ablation(defense, ())

    def test_apply_ablation_toggles_the_components(self):
        spec = ScenarioSpec(
            ablation=(
                "selective-retention",
                "remote-offload",
                "enhanced-trim",
                "local-detector",
                "remote-detector",
                "retention-eviction",
            )
        )
        session = Session(spec)
        session.provision()
        rssd = session.defense.rssd
        from repro.core.trim_handler import TrimMode

        assert rssd.retention.retain_overwrites is False
        assert rssd.retention.retain_trimmed is False
        assert rssd.retention.evict_under_pressure is True
        assert rssd.offload.enabled is False
        assert rssd.trim_handler.mode is TrimMode.NAIVE
        assert session.defense.local_detection_enabled is False
        assert session.defense.remote_detection_enabled is False


# ---------------------------------------------------------------------------
# AblationConfig
# ---------------------------------------------------------------------------


class TestConfig:
    def test_label_is_csv_safe(self):
        config = AblationConfig(disabled=("remote-offload", "enhanced-trim"))
        assert config.label == "no-enhanced-trim+no-remote-offload"
        assert "," not in config.label
        assert AblationConfig.full().label == "full"

    def test_without_and_is_enabled(self):
        config = AblationConfig.without("gc-policy")
        assert not config.is_enabled("gc-policy")
        assert config.is_enabled("enhanced-trim")

    def test_drop_one_sweep(self):
        configs = AblationConfig.sweep(("enhanced-trim", "remote-offload"))
        assert [c.label for c in configs] == [
            "full",
            "no-enhanced-trim",
            "no-remote-offload",
        ]

    def test_power_set_sweep(self):
        configs = AblationConfig.sweep(
            ("enhanced-trim", "remote-offload"), mode="power-set"
        )
        assert [c.label for c in configs] == [
            "full",
            "no-enhanced-trim",
            "no-remote-offload",
            "no-enhanced-trim+no-remote-offload",
        ]


# ---------------------------------------------------------------------------
# ScenarioSpec forward/backward compatibility
# ---------------------------------------------------------------------------


class TestSpecCompat:
    #: Pre-PR-7 pinned hashes: the ablation field must not disturb them.
    DEFAULT_SPEC_HASH = (
        "c440c3931bfb43fb5c3a3e98203c03a2c1d3d5d7b201bb60c70982330d768f88"
    )
    TRIM_SPEC_HASH = (
        "f91236a993b6d7d8370f6ccc5e0b8c6046fb508a6a4bed0df5c1c72a7f1c12b7"
    )

    def test_no_ablation_specs_hash_identically_to_pre_pr7(self):
        assert ScenarioSpec().spec_hash() == self.DEFAULT_SPEC_HASH
        spec = ScenarioSpec(
            defense="RSSD",
            attack="trimming-attack",
            workload="idle",
            device="tiny",
            victim_files=8,
            user_activity_hours=2.0,
            seed=101,
        )
        assert spec.spec_hash() == self.TRIM_SPEC_HASH

    def test_old_json_without_ablation_still_loads(self):
        payload = json.loads(ScenarioSpec().to_json())
        assert payload["version"] == 1 and "ablation" not in payload
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt.ablation == ()
        assert rebuilt.to_json() == ScenarioSpec().to_json()

    def test_ablated_spec_round_trips(self):
        spec = ScenarioSpec(ablation=("remote-offload", "enhanced-trim"))
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.ablation == ("enhanced-trim", "remote-offload")
        assert rebuilt.to_json() == spec.to_json()

    def test_ablation_changes_hash_but_not_scenario_key(self):
        plain = ScenarioSpec()
        ablated = ScenarioSpec(ablation=("enhanced-trim",))
        assert ablated.spec_hash() != plain.spec_hash()
        assert ablated.scenario_key == plain.scenario_key
        # Identical rng streams: deltas are attributable to the toggle.
        assert ablated.resolved_env_seed == plain.resolved_env_seed
        assert ablated.resolved_attack_seed == plain.resolved_attack_seed

    def test_spec_rejects_unknown_ablation_features(self):
        with pytest.raises(ValueError, match="unknown ablation features"):
            ScenarioSpec(ablation=("flux-capacitor",))

    def test_validation_error_names_field_and_version(self):
        payload = ScenarioSpec().to_dict()
        payload["version"] = 99
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict(payload)
        assert excinfo.value.version == 99
        assert excinfo.value.field is None

        payload = ScenarioSpec().to_dict()
        payload["gpu_count"] = 8
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict(payload)
        assert excinfo.value.field == "gpu_count"

        payload = ScenarioSpec(ablation=("enhanced-trim",)).to_dict()
        payload["ablation"] = "enhanced-trim"
        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict(payload)
        assert excinfo.value.field == "ablation"

    def test_ablated_specs_cannot_become_campaign_cells(self):
        with pytest.raises(ValueError, match="ablation"):
            ScenarioSpec(ablation=("enhanced-trim",)).to_cell()


# ---------------------------------------------------------------------------
# AblationStudy: determinism and golden
# ---------------------------------------------------------------------------


class TestStudy:
    def test_tiny_study_shape(self):
        study = AblationStudy.tiny()
        assert len(study.specs()) == 8
        labels = [config.label for config in study.configs]
        assert labels[0] == "full" and len(labels) == 4

    def test_study_rejects_bad_inputs(self):
        base = ScenarioSpec()
        with pytest.raises(ValueError, match="at least one feature"):
            AblationStudy(base_spec=base, features=())
        with pytest.raises(ValueError, match="sweep mode"):
            AblationStudy(base_spec=base, features=("gc-policy",), mode="random")

    def test_study_normalizes_the_base_spec(self):
        base = ScenarioSpec(ablation=("gc-policy",), env_seed=1, seed=9)
        study = AblationStudy(base_spec=base, features=("enhanced-trim",))
        assert study.base_spec.ablation == ()
        assert study.base_spec.env_seed is None

    def test_artifact_is_bit_identical_across_backends(self):
        study = AblationStudy.tiny()
        sequential = study.run(backend="sequential").to_json()
        threaded = study.run(backend="thread", jobs=4).to_json()
        process = study.run(backend="process", jobs=2).to_json()
        assert sequential == threaded == process

    def test_tiny_study_reproduces_golden_artifact(self, update_golden):
        artifact = AblationStudy.tiny().run(backend="sequential")
        text = artifact.to_json()
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN_TINY.write_text(text, encoding="utf-8")
            pytest.skip(f"golden artifact rewritten: {GOLDEN_TINY}")
        assert GOLDEN_TINY.exists(), (
            "golden artifact missing; run pytest tests/test_ablation.py "
            "--update-golden to create it"
        )
        stored = GOLDEN_TINY.read_text(encoding="utf-8")
        if text != stored:
            differences = artifact.diff(AblationArtifact.from_json(stored))
            pytest.fail(
                "ablation artifact diverged from tests/golden/ablation_tiny.json "
                "(run --update-golden if intentional):\n" + "\n".join(differences)
            )

    def test_golden_artifact_shows_component_deltas(self):
        artifact = AblationArtifact.load(str(GOLDEN_TINY))
        assert artifact.cell_keys == sorted(artifact.cell_keys)
        full = artifact.cell("RSSD/trimming-attack/office-edit/tiny/full")
        no_trim = artifact.cell(
            "RSSD/trimming-attack/office-edit/tiny/no-enhanced-trim"
        )
        assert full.recovery_fraction > no_trim.recovery_fraction
        no_offload = artifact.cell(
            "RSSD/classic/office-edit/tiny/no-remote-offload"
        )
        assert no_offload.pages_offloaded_remote == 0
        assert artifact.cell("RSSD/classic/office-edit/tiny/full").pages_offloaded_remote > 0

    def test_artifact_refuses_newer_versions(self):
        artifact = AblationArtifact.load(str(GOLDEN_TINY))
        payload = artifact.to_dict()
        payload["version"] = artifact.version + 1
        with pytest.raises(ValueError, match="newer than supported"):
            AblationArtifact.from_dict(payload)

    def test_artifact_diff_is_field_precise(self):
        artifact = AblationArtifact.load(str(GOLDEN_TINY))
        tweaked = AblationArtifact.from_json(artifact.to_json())
        cell = tweaked.cells[0]
        tweaked.cells[0] = type(cell).from_dict(
            {**cell.to_dict(), "recovery_fraction": 0.123}
        )
        differences = tweaked.diff(artifact)
        assert len(differences) == 1 and "recovery_fraction" in differences[0]
        assert artifact.diff(AblationArtifact.from_json(artifact.to_json())) == []

    def test_run_ablation_cell_matches_the_golden(self):
        spec = replace(
            AblationStudy.tiny().base_spec,
            attack="trimming-attack",
            ablation=("enhanced-trim",),
        )
        cell = run_ablation_cell(spec)
        golden = AblationArtifact.load(str(GOLDEN_TINY)).cell(cell.cell_key)
        assert cell == golden


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    @pytest.fixture(scope="class")
    def artifact(self):
        return AblationArtifact.load(str(GOLDEN_TINY))

    def test_calculate_metrics_pairs_every_feature(self, artifact):
        impacts = calculate_metrics(artifact)
        seen = {(impact.feature, impact.attack) for impact in impacts}
        assert seen == {
            (feature, attack)
            for feature in ("enhanced-trim", "local-detector", "remote-offload")
            for attack in ("classic", "trimming-attack")
        }
        assert all(impact.pairs == 1 for impact in impacts)

    def test_enhanced_trim_buys_recovery_under_trimming(self, artifact):
        by_key = {
            (impact.feature, impact.attack): impact
            for impact in calculate_metrics(artifact)
        }
        trim = by_key[("enhanced-trim", "trimming-attack")]
        assert trim.recovery_fraction_delta > 0.5

    def test_compare_configs(self, artifact):
        deltas = compare_configs(artifact, "full", "no-remote-offload")
        assert set(deltas) == {"classic", "trimming-attack"}
        assert deltas["classic"]["pages_offloaded_remote"] > 0
        with pytest.raises(KeyError):
            compare_configs(artifact, "full", "no-such-config")

    def test_reports_render(self, artifact):
        impacts = calculate_metrics(artifact)
        csv = render_impact_csv(impacts)
        assert csv.splitlines()[0].startswith("feature,attack,pairs")
        markdown = render_impact_markdown(impacts)
        assert markdown.startswith("| feature | attack |")


# ---------------------------------------------------------------------------
# CLI: ablate subcommand and the empty-filter bugfix
# ---------------------------------------------------------------------------


class TestCli:
    def test_ablate_subcommand_runs_and_checks_baseline(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "ablation.json"
        csv = tmp_path / "ablation.csv"
        main(
            [
                "ablate",
                "--output", str(out),
                "--csv", str(csv),
                "--baseline", str(GOLDEN_TINY),
            ]
        )
        stdout = capsys.readouterr().out
        assert "baseline match" in stdout
        assert AblationArtifact.load(str(out)).to_json() == GOLDEN_TINY.read_text(
            encoding="utf-8"
        )
        assert csv.read_text(encoding="utf-8").startswith("feature,attack")

    def test_ablate_rejects_unknown_features(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["ablate", "--features", "warp-drive"])

    @pytest.mark.parametrize("command", ["campaign", "roc"])
    def test_empty_filter_exits_nonzero_and_names_patterns(
        self, command, capsys, tmp_path
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    command,
                    "--grid", "tiny",
                    "--filter", "no-such-defense/*",
                    "--output", str(tmp_path / "out.json"),
                ]
            )
        message = str(excinfo.value)
        assert "matched no cells" in message
        assert "no-such-defense/*" in message

    def test_matching_filter_still_runs(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "out.json"
        main(
            [
                "campaign",
                "--grid", "tiny",
                "--filter", "LocalSSD/classic/*",
                "--output", str(out),
            ]
        )
        capsys.readouterr()
        from repro.campaign import CampaignArtifact

        artifact = CampaignArtifact.load(str(out))
        assert artifact.cell_keys == ["LocalSSD/classic/office-edit/tiny"]
