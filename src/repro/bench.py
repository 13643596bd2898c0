"""Benchmark size scaling shared by the suite, the claims and the emit pipeline.

Every file under ``benchmarks/`` and every row of
:mod:`repro.analysis.claims` sizes its workload through this module so
that ``REPRO_SMOKE=1`` (set by CI on shared runners) shrinks the whole
suite consistently instead of each caller re-reading the environment
with its own convention.  The module lives in the package rather than
in ``benchmarks/conftest.py`` because the claims registry, the
standalone ``benchmarks/bench_emit.py`` emitter and ad-hoc profiling
scripts need the same flag without pytest's conftest import machinery.
Standard library only, so every layer may import it.
"""

from __future__ import annotations

import os

#: True when the suite should run the reduced smoke-mode workloads.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def scaled(full, smoke):
    """Pick the full-run or smoke-run value of a benchmark size knob.

    Usage: ``TRACE_OPS = scaled(100_000, 10_000)``.
    """
    return smoke if SMOKE else full
