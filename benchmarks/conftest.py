"""Shared configuration for the benchmark suite.

``test_claims.py`` regenerates every result of the paper's evaluation
from :data:`repro.analysis.claims.CLAIMS` and requires its predicates to
hold; ``test_replay_throughput.py`` gates the batched replay path.  Run
with ``pytest benchmarks/ -s`` to see the tables inline.  All workload
sizes go through :mod:`repro.bench` (``SMOKE`` / ``scaled``), so
``REPRO_SMOKE=1`` shrinks the whole suite consistently.

**Perf-trajectory emission.**  Benchmarks that measure throughput
record their numbers through the :func:`bench_record` fixture; when
``REPRO_BENCH_EMIT`` is set, the session-finish hook hands the recorded
entries to :mod:`bench_emit`, which appends them to the versioned
``BENCH_<name>.json`` files at the repository root.
"""

import os
import sys

import pytest

#: Results recorded by benchmark tests this session: name -> entry dict.
_RECORDED = {}


@pytest.fixture
def bench_record():
    """Record a benchmark's measured numbers for BENCH_*.json emission.

    ``bench_record("replay", {...})`` stages an entry; nothing is
    written unless ``REPRO_BENCH_EMIT`` is set when the session ends
    (``1`` writes next to the repository root, any other value is used
    as the output directory).
    """

    def recorder(name, entry):
        _RECORDED[name] = dict(entry)

    return recorder


def pytest_sessionfinish(session, exitstatus):
    """Emit recorded benchmark entries into versioned BENCH_*.json files."""
    target = os.environ.get("REPRO_BENCH_EMIT", "")
    if not _RECORDED or target in ("", "0"):
        return
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    import bench_emit

    out_dir = os.path.dirname(here) if target == "1" else target
    for name, entry in _RECORDED.items():
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        stamped = dict(entry)
        stamped.update(bench_emit.environment_stamp())
        bench_emit.update_bench_file(path, bench_emit.mode_name(), stamped)
