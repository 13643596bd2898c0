"""Layering rules (REPRO-L2xx).

The layer DAG in ``layers.toml`` is the machine-readable form of
ARCHITECTURE.md's import-layering prose.  These rules walk every
``import``/``from`` statement and flag:

* ``REPRO-L201`` -- an import edge the DAG forbids entirely.
* ``REPRO-L202`` -- a ``deferred``-only edge taken at module level
  (e.g. ``campaign/`` importing ``repro.api`` outside a function body
  or ``TYPE_CHECKING`` block).
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.layers import LayerModel


def check_file(ctx: FileContext, model: LayerModel) -> List[Finding]:
    """Run every layering rule over one file context."""
    if ctx.module is None or ctx.layer is None:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            findings.extend(_check_import(node, ctx, model))
    return findings


def _check_import(
    node: ast.AST, ctx: FileContext, model: LayerModel
) -> List[Finding]:
    """Layer-edge checks for one import statement."""
    findings: List[Finding] = []
    deferred_position = not ctx.at_module_level(node) or ctx.in_type_checking(node)
    for target in ctx.import_targets(node):
        if target != "repro" and not target.startswith("repro."):
            continue
        findings.extend(
            _check_edge(node, ctx, model, target, deferred_position)
        )
    return findings


def _check_edge(
    node: ast.AST,
    ctx: FileContext,
    model: LayerModel,
    target: str,
    deferred_position: bool,
) -> List[Finding]:
    """REPRO-L201/L202 for one resolved import target."""
    source_layer = ctx.layer
    target_layer = model.layer_of(target)
    if source_layer is None or target_layer is None:
        return []
    if target_layer.name == source_layer.name:
        return []
    if target_layer.name in source_layer.imports:
        return []
    if target_layer.name in source_layer.deferred:
        if deferred_position:
            return []
        return [
            _finding(
                ctx, node, "REPRO-L202",
                f"layer '{source_layer.name}' may import layer "
                f"'{target_layer.name}' ({target}) only inside a function "
                "body or TYPE_CHECKING block; move this import into the "
                "function that uses it",
            )
        ]
    if model.exception_for(ctx.module or "", target) is not None:
        return []
    return [
        _finding(
            ctx, node, "REPRO-L201",
            f"layer '{source_layer.name}' must not import layer "
            f"'{target_layer.name}' ({target}); see the layer DAG in "
            "src/repro/lint/layers.toml",
        )
    ]


def _finding(ctx: FileContext, node: ast.AST, rule: str, message: str) -> Finding:
    """Build a finding at ``node``'s location."""
    return Finding(
        path=ctx.rel_path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule,
        message=message,
    )
