"""Self-test of the benchmark harness, in smoke mode.

Runs every workload untraced once and traced twice, each in its own
``REPRO_SMOKE=1`` subprocess, and checks the output contract: every
metric ``BENCHMARK.json`` declares is emitted with its unit, the
correctness checks pass, every traced boundary fires on the workload it
is assigned to (a ``from x import f`` alias would bypass its wrapper),
and repeated runs agree on the simulation digest and work counters.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("replay-bursty", "cell-trace-hm", "campaign-table1")

sys.path.insert(0, HERE)
from tracer import BOUNDARIES  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(tmp_path, workload, trace, tag):
    out = tmp_path / f"{workload}-{trace}-{tag}.json"
    env = dict(os.environ, REPRO_SMOKE="1")
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seconds", "0.1",
         "--trace", str(trace), "--json", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, "r", encoding="utf-8") as handle:
        record = json.load(handle)["runs"][0]
    return last, record


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    return {
        (workload, trace, tag): _run(tmp_path, workload, trace, tag)
        for workload in WORKLOADS
        for trace, tag in ((0, "a"), (1, "a"), (1, "b"))
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_declared_metrics_emitted_with_units(runs, trace, section):
    declared = {entry["name"]: entry["unit"] for entry in _declared()[section]}
    for workload in WORKLOADS:
        last, _ = runs[(workload, trace, "a")]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        emitted = {name: value["unit"] for name, value in last["metrics"].items()}
        assert emitted == declared, workload
        assert all(isinstance(value["value"], (int, float)) for value in last["metrics"].values())


def test_end_to_end_metrics_are_positive(runs):
    for workload in WORKLOADS:
        last, _ = runs[(workload, 0, "a")]
        assert all(value["value"] > 0 for value in last["metrics"].values()), workload


def test_every_boundary_fires_on_its_workload(runs):
    for workload in WORKLOADS:
        _, record = runs[(workload, 1, "a")]
        boundaries = record["trace_report"]["boundaries"]
        silent = [
            target
            for target, _, assigned, _ in BOUNDARIES
            if workload in assigned and boundaries[target]["calls"] == 0
        ]
        assert not silent, f"{workload}: boundaries never called: {silent}"


def test_runs_agree_on_digest_and_counters(runs):
    for workload in WORKLOADS:
        _, untraced = runs[(workload, 0, "a")]
        _, first = runs[(workload, 1, "a")]
        _, second = runs[(workload, 1, "b")]
        assert untraced["sim_digest"] == first["sim_digest"] == second["sim_digest"], workload
        assert first["counters"] and first["counters"] == second["counters"], workload


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "replay-bursty",
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
