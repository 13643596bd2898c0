"""Examples smoke suite: every ``examples/*.py`` script must run clean.

The examples are the first code a new user executes; this suite keeps
them working against the current ``repro.api`` surface.  ``REPRO_SMOKE=1`` shrinks the long
recovery walkthrough to one small scenario, mirroring the benchmark
suite's smoke convention.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_every_example_is_covered():
    """New examples must be added to the smoke run, not forgotten."""
    assert EXAMPLES == [
        "forensic_investigation.py",
        "quickstart.py",
        "ransomware_recovery.py",
        "retention_planning.py",
        "scenario_session.py",
    ]


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_SMOKE"] = "1"
    # The examples must be clean citizens of the new facade: a
    # DeprecationWarning raised anywhere (library frames included) is a
    # hard failure, not a suppressed default-filter line.
    env["PYTHONWARNINGS"] = "error::DeprecationWarning"
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{example} failed (exit {completed.returncode}):\n"
        f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    )
    assert completed.stdout.strip(), f"{example} printed nothing"
