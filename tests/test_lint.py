"""The ``repro lint`` invariant checker: rules, baseline, self-check.

Fixture trees under ``tests/lint_fixtures/`` are laid out as fake
``src/repro`` packages so module resolution and layer lookup work on
them exactly as on the real tree.  Each rule family gets a positive
fixture (violations caught) and a negative one (clean code passes);
the schema and baseline lifecycles run against generated trees in
``tmp_path``; and the self-check asserts ``repro lint src/`` is clean
with **no** baseline, which is what the CI lint job enforces.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    BaselineError,
    FileContext,
    LayerModel,
    LintConfig,
    apply_baseline,
    lint_paths,
    load_baseline,
    module_name_for,
    prune_baseline,
    write_baseline,
    write_fingerprint,
)
from repro.lint.runner import build_contexts, discover_files
from repro.lint.serialization import check_schemas

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def run_fixture(case: str) -> list:
    """Lint one fixture tree (schema comparison off: no schemas there)."""
    config = LintConfig(root=FIXTURES / case, check_schemas=False)
    return lint_paths([FIXTURES / case], config)


def rules_for(findings: list, path_part: str) -> list:
    """The rule IDs reported against paths containing ``path_part``."""
    return [f.rule for f in findings if path_part in f.path]


# -- determinism rules -------------------------------------------------------


class TestDeterminismRules:
    def test_bad_fixture_catches_every_rule(self):
        findings = run_fixture("determinism")
        rules = rules_for(findings, "bad_determinism")
        assert rules.count("REPRO-D101") == 3  # random(), seed(), Random()
        assert "REPRO-D102" in rules  # np.random.seed
        assert rules.count("REPRO-D103") == 2  # time.time, datetime.now
        assert rules.count("REPRO-D104") == 3  # list(set), for-over-set, listdir
        assert "REPRO-D105" in rules  # module-level rng

    def test_good_fixture_is_clean(self):
        findings = run_fixture("determinism")
        assert rules_for(findings, "good_determinism") == []

    def test_seeded_wall_clock_violation_fails_the_run(self, tmp_path):
        # The acceptance check: drop time.time() into a sim-layer module
        # and the lint run must go red.
        kernel = tmp_path / "src" / "repro" / "ssd" / "kernel.py"
        kernel.parent.mkdir(parents=True)
        kernel.write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        config = LintConfig(root=tmp_path, check_schemas=False)
        findings = lint_paths([tmp_path], config)
        assert [f.rule for f in findings] == ["REPRO-D103"]
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path), "--no-schema-check"])
        assert excinfo.value.code == 1


# -- layering rules ----------------------------------------------------------


class TestLayeringRules:
    def test_upward_edge_is_l201(self):
        findings = run_fixture("layering")
        assert rules_for(findings, "bad_upward") == ["REPRO-L201"]

    def test_module_level_deferred_edge_is_l202(self):
        findings = run_fixture("layering")
        assert rules_for(findings, "bad_deferred") == ["REPRO-L202"]

    def test_function_level_and_type_checking_edges_pass(self):
        findings = run_fixture("layering")
        assert rules_for(findings, "good_deferred") == []


# -- serialization rules -----------------------------------------------------


SCHEMA_MODULE = '''"""Fixture schema module."""

from dataclasses import dataclass, field
from typing import Optional

SPEC_VERSION = {version}


@dataclass(frozen=True)
class Inner:
    """Nested dataclass reachable from the root."""

    depth: int = 0


@dataclass(frozen=True)
class RootSpec:
    """Root of the serialized object graph."""

    name: str = "x"
    inner: Optional[Inner] = None
{extra}    diagnostics: dict = field(default_factory=dict, compare=False)
'''

SCHEMA_LAYERS = """
schema = 1

[layers.api]
modules = ["repro.api"]
imports = []
deferred = []
deterministic = true
sim = true

[[schemas]]
name = "root_spec"
module = "repro.api.spec"
root = "RootSpec"
version_const = "SPEC_VERSION"
"""


class TestSchemaFingerprint:
    def make_tree(self, tmp_path: Path, version: int, extra: str = "") -> dict:
        spec = tmp_path / "src" / "repro" / "api" / "spec.py"
        spec.parent.mkdir(parents=True, exist_ok=True)
        spec.write_text(
            SCHEMA_MODULE.format(version=version, extra=extra), encoding="utf-8"
        )
        layers = tmp_path / "layers.toml"
        layers.write_text(SCHEMA_LAYERS, encoding="utf-8")
        model = LayerModel.load(layers)
        files = discover_files([tmp_path / "src"])
        by_module, _, _ = build_contexts(files, model, tmp_path)
        return {"model": model, "contexts": by_module, "layers": layers}

    def test_fingerprint_roundtrip_is_clean(self, tmp_path):
        tree = self.make_tree(tmp_path, version=1)
        pin = tmp_path / "fingerprint.json"
        write_fingerprint(tree["contexts"], tree["model"], pin)
        assert check_schemas(tree["contexts"], tree["model"], pin) == []

    def test_field_added_without_bump_is_s301(self, tmp_path):
        tree = self.make_tree(tmp_path, version=1)
        pin = tmp_path / "fingerprint.json"
        write_fingerprint(tree["contexts"], tree["model"], pin)
        drifted = self.make_tree(tmp_path, version=1, extra="    added: int = 0\n")
        findings = check_schemas(drifted["contexts"], drifted["model"], pin)
        assert [f.rule for f in findings] == ["REPRO-S301"]
        assert "SPEC_VERSION" in findings[0].message

    def test_field_added_with_bump_is_s302_until_regenerated(self, tmp_path):
        tree = self.make_tree(tmp_path, version=1)
        pin = tmp_path / "fingerprint.json"
        write_fingerprint(tree["contexts"], tree["model"], pin)
        bumped = self.make_tree(tmp_path, version=2, extra="    added: int = 0\n")
        findings = check_schemas(bumped["contexts"], bumped["model"], pin)
        assert [f.rule for f in findings] == ["REPRO-S302"]
        write_fingerprint(bumped["contexts"], bumped["model"], pin)
        assert check_schemas(bumped["contexts"], bumped["model"], pin) == []

    def test_compare_false_fields_are_not_schema(self, tmp_path):
        tree = self.make_tree(tmp_path, version=1)
        pin = tmp_path / "fingerprint.json"
        write_fingerprint(tree["contexts"], tree["model"], pin)
        payload = json.loads(pin.read_text(encoding="utf-8"))
        fields = payload["schemas"]["root_spec"]["classes"]["repro.api.spec.RootSpec"]
        assert "diagnostics" not in fields
        assert fields == ["inner", "name"]
        # reachability followed the Inner annotation
        assert "repro.api.spec.Inner" in payload["schemas"]["root_spec"]["classes"]

    def test_missing_fingerprint_file_is_s302(self, tmp_path):
        tree = self.make_tree(tmp_path, version=1)
        findings = check_schemas(
            tree["contexts"], tree["model"], tmp_path / "absent.json"
        )
        assert [f.rule for f in findings] == ["REPRO-S302"]

    def test_json_dump_fixtures(self):
        findings = run_fixture("serialization")
        assert rules_for(findings, "bad_json") == ["REPRO-S303", "REPRO-S303"]
        assert rules_for(findings, "good_json") == []


# -- concurrency rules -------------------------------------------------------


class TestConcurrencyRules:
    def test_bad_fixture(self):
        findings = run_fixture("concurrency")
        rules = rules_for(findings, "bad_pool")
        assert rules.count("REPRO-C401") == 3  # lambda, nested def, cached lambda
        assert rules.count("REPRO-C402") == 2  # dict and set module state

    def test_good_fixture(self):
        findings = run_fixture("concurrency")
        assert rules_for(findings, "good_pool") == []


# -- baseline lifecycle ------------------------------------------------------


class TestBaselineLifecycle:
    def setup_tree(self, tmp_path: Path) -> Path:
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "determinism", tree)
        return tree

    def lint(self, tree: Path) -> list:
        return lint_paths([tree], LintConfig(root=tree, check_schemas=False))

    def test_baseline_suppresses_known_findings(self, tmp_path):
        tree = self.setup_tree(tmp_path)
        findings = self.lint(tree)
        assert findings
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, findings)
        result = apply_baseline(self.lint(tree), load_baseline(baseline))
        assert result.new == []
        assert len(result.suppressed) == len(findings)
        assert result.stale == []

    def test_baseline_refuses_overwrite(self, tmp_path):
        tree = self.setup_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, self.lint(tree))
        with pytest.raises(BaselineError):
            write_baseline(baseline, [])

    def test_baseline_survives_line_drift(self, tmp_path):
        tree = self.setup_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, self.lint(tree))
        bad = tree / "src" / "repro" / "ssd" / "bad_determinism.py"
        bad.write_text(
            "# pushed down two lines\n# by this header\n"
            + bad.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        result = apply_baseline(self.lint(tree), load_baseline(baseline))
        assert result.new == []
        assert result.stale == []

    def test_stale_entries_reported_and_pruned(self, tmp_path):
        tree = self.setup_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, self.lint(tree))
        bad = tree / "src" / "repro" / "ssd" / "bad_determinism.py"
        source = bad.read_text(encoding="utf-8")
        bad.write_text(
            source.replace("return time.time()  # REPRO-D103: wall clock",
                           "return 0.0"),
            encoding="utf-8",
        )
        result = apply_baseline(self.lint(tree), load_baseline(baseline))
        assert result.new == []
        assert len(result.stale) == 1
        assert result.stale[0]["rule"] == "REPRO-D103"
        removed = prune_baseline(baseline, result)
        assert removed == 1
        rerun = apply_baseline(self.lint(tree), load_baseline(baseline))
        assert rerun.stale == []
        assert rerun.new == []

    def test_new_finding_is_not_suppressed(self, tmp_path):
        tree = self.setup_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, self.lint(tree))
        good = tree / "src" / "repro" / "ssd" / "good_determinism.py"
        good.write_text(
            good.read_text(encoding="utf-8")
            + "\n\ndef fresh():\n    import time\n    return time.time()\n",
            encoding="utf-8",
        )
        result = apply_baseline(self.lint(tree), load_baseline(baseline))
        assert [f.rule for f in result.new] == ["REPRO-D103"]


# -- CLI surface -------------------------------------------------------------


class TestCliSurface:
    def test_json_format(self, tmp_path, capsys):
        tree = tmp_path / "src" / "repro" / "ssd"
        tree.mkdir(parents=True)
        (tree / "bad.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        with pytest.raises(SystemExit):
            main([
                "lint", str(tmp_path), "--format", "json", "--no-schema-check",
            ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REPRO-D103"
        assert payload["suppressed"] == 0

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        tree = tmp_path / "src" / "repro" / "ssd"
        tree.mkdir(parents=True)
        (tree / "ok.py").write_text(
            '"""Clean module."""\n\nVALUE = 1\n', encoding="utf-8"
        )
        assert main(["lint", str(tmp_path), "--no-schema-check"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


# -- self-check and layer-table pins -----------------------------------------


class TestSelfCheck:
    def test_src_is_clean_with_no_baseline(self):
        findings = lint_paths(
            [REPO_ROOT / "src"], LintConfig(root=REPO_ROOT)
        )
        assert findings == [], "\n".join(f.format() for f in findings)


class TestLayersToml:
    def test_every_repro_package_has_a_layer(self):
        model = LayerModel.load()
        src = REPO_ROOT / "src" / "repro"
        for pkg in sorted(p.name for p in src.iterdir() if p.is_dir()):
            if pkg == "__pycache__":
                continue
            assert model.layer_of(f"repro.{pkg}") is not None, pkg

    def test_layer_imports_reference_known_layers(self):
        model = LayerModel.load()
        for layer in model.layers.values():
            for name in tuple(layer.imports) + tuple(layer.deferred):
                assert name in model.layers, f"{layer.name} -> {name}"

    def test_schema_table_matches_real_modules(self):
        model = LayerModel.load()
        for spec in model.schemas:
            path = REPO_ROOT / "src" / Path(*spec.module.split("."))
            source = path.with_suffix(".py").read_text(encoding="utf-8")
            assert f"class {spec.root}" in source, spec.name
            assert spec.version_const in source, spec.name

    def test_architecture_doc_points_at_the_table(self):
        doc = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "layers.toml" in doc

    def test_fallback_parser_agrees_with_tomllib(self):
        from repro.lint.layers import DEFAULT_LAYERS_PATH, _parse_toml_subset

        tomllib = pytest.importorskip("tomllib")
        text = DEFAULT_LAYERS_PATH.read_text(encoding="utf-8")
        assert _parse_toml_subset(text) == tomllib.loads(text)


class TestContext:
    def test_module_name_for(self):
        assert (
            module_name_for(Path("/x/src/repro/ssd/kernel.py")) == "repro.ssd.kernel"
        )
        assert module_name_for(Path("/x/src/repro/api/__init__.py")) == "repro.api"
        assert module_name_for(Path("/x/other/thing.py")) is None

    def test_resolve_through_aliases(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from datetime import datetime\n"
            "x = np.random.seed\n"
            "y = datetime.now\n"
        )
        ctx = FileContext(tmp_path / "m.py", source)
        import ast

        assigns = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.Assign)]
        assert ctx.resolve(assigns[0].value) == "numpy.random.seed"
        assert ctx.resolve(assigns[1].value) == "datetime.datetime.now"
