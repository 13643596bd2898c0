"""Orchestration: file discovery, context building, rule dispatch.

:func:`lint_paths` is the single entry point used by the CLI and the
tests.  It walks the requested paths, builds one :class:`FileContext`
per Python file, runs every per-file rule family over each context,
then runs the project-level schema check (which needs all contexts at
once to follow cross-module reachability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint import concurrency, determinism, layering, serialization
from repro.lint.context import FileContext
from repro.lint.findings import Finding, sort_findings
from repro.lint.layers import LayerModel

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}
)


@dataclass
class LintConfig:
    """Everything a lint run needs besides the paths themselves."""

    #: Repo root used to relativize reported paths (cwd by default).
    root: Optional[Path] = None
    #: Layer table override (the packaged ``layers.toml`` by default).
    layers_path: Optional[Path] = None
    #: Pinned schema fingerprint override.
    fingerprint_path: Optional[Path] = None
    #: Disable the project-level schema fingerprint comparison.
    check_schemas: bool = True
    #: Rule-family toggles (all on by default).
    families: Sequence[str] = field(
        default_factory=lambda: (
            "determinism", "layering", "serialization", "concurrency"
        )
    )


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Python files under the given paths, deterministically ordered."""
    files: List[Path] = []
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in SKIP_DIRS for part in candidate.parts):
                continue
            files.append(candidate)
    unique = sorted(set(files))
    return unique


def build_contexts(
    files: Sequence[Path], model: LayerModel, root: Path
) -> "tuple[Dict[str, FileContext], List[FileContext], List[Finding]]":
    """Parse every file; returns (module map, all contexts, parse errors)."""
    by_module: Dict[str, FileContext] = {}
    contexts: List[FileContext] = []
    errors: List[Finding] = []
    for path in files:
        rel = _rel_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path, source, rel_path=rel, model=model)
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(
                Finding(
                    path=rel, line=line, col=0, rule="REPRO-P001",
                    message=f"file does not parse: {exc}",
                )
            )
            continue
        contexts.append(ctx)
        if ctx.module is not None:
            by_module[ctx.module] = ctx
    return by_module, contexts, errors


def _rel_path(path: Path, root: Path) -> str:
    """POSIX path of ``path`` relative to ``root`` when possible."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path], config: Optional[LintConfig] = None
) -> List[Finding]:
    """Run every enabled rule family over the given paths."""
    config = config or LintConfig()
    root = config.root or Path.cwd()
    model = LayerModel.load(config.layers_path)
    files = discover_files([Path(p) for p in paths])
    by_module, contexts, findings = build_contexts(files, model, root)
    families = set(config.families)
    for ctx in contexts:
        if "determinism" in families:
            findings.extend(determinism.check_file(ctx))
        if "layering" in families:
            findings.extend(layering.check_file(ctx, model))
        if "serialization" in families:
            findings.extend(serialization.check_json_dump(ctx))
        if "concurrency" in families:
            findings.extend(concurrency.check_file(ctx))
    if "serialization" in families and config.check_schemas:
        findings.extend(
            serialization.check_schemas(
                by_module, model, config.fingerprint_path
            )
        )
    return sort_findings(findings)
