"""Tests for the command-line interface and ASCII figure rendering."""

import dataclasses

import pytest

from repro.analysis import claims
from repro.analysis.figures import render_bars, render_figure2
from repro.analysis.retention import figure2_rows
from repro.cli import build_parser, main


class TestRenderBars:
    def test_basic_rendering(self):
        output = render_bars(["a", "bb"], [1.0, 2.0], width=10, unit=" d")
        lines = output.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert lines[1].count("#") > lines[0].count("#")
        assert " d" in lines[0]

    def test_scaling_against_max_value(self):
        output = render_bars(["x"], [5.0], max_value=10.0, width=10)
        assert output.count("#") == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0], width=2)
        assert render_bars([], []) == ""

    def test_figure2_rendering_contains_every_volume(self):
        rows = figure2_rows(volumes=["hm", "src"])
        output = render_figure2(rows)
        assert "hm" in output and "src" in output
        assert "RSSD" in output and "LocalSSD" in output
        assert render_figure2([]) == ""


class TestCLI:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_claims_accepts_every_registered_id(self):
        ids = [claim.id for claim in claims.CLAIMS]
        args = build_parser().parse_args(["claims", "--only", *ids])
        assert args.only == ids

    def test_claims_rejects_an_unknown_id_listing_the_known_ones(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["claims", "--only", "T9"])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err
        for claim in claims.CLAIMS:
            assert f"'{claim.id}'" in message

    def test_a_failing_predicate_exits_1_and_names_it(self, monkeypatch, capsys):
        figure2 = next(claim for claim in claims.CLAIMS if claim.id == "F2")
        failing = dataclasses.replace(
            figure2, run=list, check=lambda rows: ["every volume retains forever"]
        )
        monkeypatch.setattr(
            claims, "CLAIMS", tuple(failing if c.id == failing.id else c for c in claims.CLAIMS)
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["claims", "--only", failing.id])
        assert exit_info.value.code == 1
        output = capsys.readouterr().out
        assert f"[{failing.id}]" in output
        assert "FAIL: every volume retains forever" in output

    def test_claims_prints_the_trim_ablation(self, capsys):
        assert main(["claims", "--only", "A2"]) == 0
        output = capsys.readouterr().out
        assert "[A2]" in output and "PASS" in output
        assert "enhanced" in output and "naive" in output
