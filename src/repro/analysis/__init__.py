"""Experiment harnesses, the claims registry and reporting.

Each function in :mod:`repro.analysis.experiments` regenerates one of
the paper's results.  :mod:`repro.analysis.claims` is the one table of
the paper's evaluation: every row (Table 1, Figure 2, P1-P4, A1-A3)
holds the experiment call, the paper's predicates and a renderer, and
drives both ``repro claims`` and ``benchmarks/test_claims.py``.
:mod:`repro.analysis.retention` holds the analytic retention-time model
behind Figure 2.
"""

from repro.analysis.retention import (
    FigureTwoRow,
    RetentionScenario,
    figure2_rows,
    retention_days_local,
    retention_days_local_compressed,
    retention_days_rssd,
)
from repro.analysis.reporting import format_csv, format_markdown_table, format_table
from repro.analysis.stats import mean, median, relative_overhead

__all__ = [
    "FigureTwoRow",
    "RetentionScenario",
    "figure2_rows",
    "format_csv",
    "format_markdown_table",
    "format_table",
    "mean",
    "median",
    "relative_overhead",
    "retention_days_local",
    "retention_days_local_compressed",
    "retention_days_rssd",
]
