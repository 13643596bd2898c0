"""AST-based invariant checker for the repro codebase (``repro lint``).

Four rule families run over a shared per-file analysis context:

* **Determinism** (``REPRO-D1xx``) -- unseeded randomness, wall-clock
  reads, set-ordering hazards in simulation layers.
* **Layering** (``REPRO-L2xx``) -- import edges must follow the layer
  DAG in ``layers.toml`` (generated from ARCHITECTURE.md); deferred
  edges only inside functions.
* **Serialization** (``REPRO-S3xx``) -- schema roots must not change
  serialized fields without a version bump (checked against the pinned
  ``schema_fingerprint.json``); artifact JSON must sort its keys.
* **Concurrency** (``REPRO-C4xx``) -- pickle-unsafe callables handed
  to the process pool; module-level mutable state in sim layers.

The CLI surface is ``repro lint [paths] --format text|json --baseline
lint_baseline.json``; baselines are add-only (see
:mod:`repro.lint.baseline`).
"""

from repro.lint.baseline import (
    BaselineError,
    BaselineResult,
    apply_baseline,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.lint.context import FileContext, module_name_for
from repro.lint.findings import Finding, sort_findings
from repro.lint.layers import LayerModel
from repro.lint.runner import LintConfig, discover_files, lint_paths
from repro.lint.serialization import fingerprint_schemas, write_fingerprint

__all__ = [
    "BaselineError",
    "BaselineResult",
    "FileContext",
    "Finding",
    "LayerModel",
    "LintConfig",
    "apply_baseline",
    "discover_files",
    "fingerprint_schemas",
    "lint_paths",
    "load_baseline",
    "module_name_for",
    "prune_baseline",
    "sort_findings",
    "write_baseline",
    "write_fingerprint",
]
