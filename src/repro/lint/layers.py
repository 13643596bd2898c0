"""Layer DAG loading and module-to-layer resolution.

The layer table lives in ``layers.toml`` next to this module -- the
machine-readable form of ARCHITECTURE.md's import-layering prose.  The
loader prefers :mod:`tomllib` (Python 3.11+) and falls back to a
minimal parser for the restricted TOML subset the table uses (string
and boolean scalars, string arrays, ``[a.b]`` tables and ``[[a]]``
arrays of tables), so the checker runs on every supported interpreter
without new dependencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised on 3.9/3.10 only
    _toml = None

#: Default layer table shipped with the package.
DEFAULT_LAYERS_PATH = Path(__file__).with_name("layers.toml")


@dataclass(frozen=True)
class Layer:
    """One layer: its module prefixes and what it may import."""

    #: Layer name (referenced by other layers' ``imports`` lists).
    name: str
    #: Dotted module prefixes belonging to this layer.
    modules: Tuple[str, ...]
    #: Layers importable at module level (own layer always allowed).
    imports: Tuple[str, ...] = ()
    #: Layers importable only inside functions or TYPE_CHECKING blocks.
    deferred: Tuple[str, ...] = ()
    #: Whether determinism rules (REPRO-D*) apply to this layer.
    deterministic: bool = True
    #: Whether simulation-state rules (REPRO-C402 / REPRO-S303) apply.
    sim: bool = False


@dataclass(frozen=True)
class ExceptionEdge:
    """One documented import edge the layer table would otherwise forbid."""

    #: Exact module the edge originates from.
    from_module: str
    #: Dotted prefix the edge may reach.
    to_prefix: str
    #: Why the edge is allowed (rendered in ``repro lint`` messages).
    reason: str = ""


@dataclass(frozen=True)
class SchemaSpec:
    """One serialized schema root guarded by the pinned fingerprint."""

    #: Short schema name used as the fingerprint key.
    name: str
    #: Module defining the root class and version constant.
    module: str
    #: Root dataclass of the serialized object graph.
    root: str
    #: Module-level version constant that must be bumped on field drift.
    version_const: str


@dataclass(frozen=True)
class LayerModel:
    """The loaded layer DAG plus exception and schema tables."""

    #: Layers by name.
    layers: Dict[str, Layer] = field(default_factory=dict)
    #: Documented extra edges.
    exceptions: Tuple[ExceptionEdge, ...] = ()
    #: Serialized schema roots.
    schemas: Tuple[SchemaSpec, ...] = ()

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "LayerModel":
        """Load a layer table (the packaged ``layers.toml`` by default)."""
        data = _load_toml(path or DEFAULT_LAYERS_PATH)
        layers: Dict[str, Layer] = {}
        for name, raw in data.get("layers", {}).items():
            layers[name] = Layer(
                name=name,
                modules=tuple(raw.get("modules", ())),
                imports=tuple(raw.get("imports", ())),
                deferred=tuple(raw.get("deferred", ())),
                deterministic=bool(raw.get("deterministic", True)),
                sim=bool(raw.get("sim", False)),
            )
        exceptions = tuple(
            ExceptionEdge(
                from_module=raw["from"],
                to_prefix=raw["to"],
                reason=raw.get("reason", ""),
            )
            for raw in data.get("exceptions", ())
        )
        schemas = tuple(
            SchemaSpec(
                name=raw["name"],
                module=raw["module"],
                root=raw["root"],
                version_const=raw["version_const"],
            )
            for raw in data.get("schemas", ())
        )
        return cls(
            layers=layers,
            exceptions=exceptions,
            schemas=schemas,
        )

    def layer_of(self, module: str) -> Optional[Layer]:
        """Resolve a dotted module name to its layer (longest prefix wins)."""
        best: Optional[Layer] = None
        best_len = -1
        for layer in self.layers.values():
            for prefix in layer.modules:
                if module == prefix or module.startswith(prefix + "."):
                    if len(prefix) > best_len:
                        best, best_len = layer, len(prefix)
        return best

    def exception_for(
        self, from_module: str, target: str
    ) -> Optional[ExceptionEdge]:
        """The documented exception edge covering this import, if any."""
        for edge in self.exceptions:
            if from_module == edge.from_module and (
                target == edge.to_prefix or target.startswith(edge.to_prefix + ".")
            ):
                return edge
        return None


# -- minimal TOML subset parser (fallback when tomllib is absent) ----------

_SECTION_RE = re.compile(r"^\[(\[)?\s*([A-Za-z0-9_.\-]+)\s*\]?\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_\-]+)\s*=\s*(.*)$")


def _parse_scalar(text: str) -> object:
    """Parse one TOML scalar from the restricted subset."""
    text = text.strip()
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"unsupported TOML scalar in layers table: {text!r}")


def _parse_array(text: str) -> List[object]:
    """Parse a (possibly multiline-joined) TOML array of scalars."""
    inner = text.strip()[1:-1].strip()
    if not inner:
        return []
    return [_parse_scalar(part) for part in re.split(r"\s*,\s*", inner) if part]


def _parse_toml_subset(text: str) -> Dict[str, object]:
    """Parse the restricted TOML subset ``layers.toml`` is written in."""
    root: Dict[str, object] = {}
    current: Dict[str, object] = root
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line or line.startswith("#"):
            continue
        section = _SECTION_RE.match(line)
        if section:
            is_array = line.startswith("[[")
            dotted = section.group(2).split(".")
            node: Dict[str, object] = root
            for part in dotted[:-1]:
                node = node.setdefault(part, {})  # type: ignore[assignment]
            leaf = dotted[-1]
            if is_array:
                entries = node.setdefault(leaf, [])
                current = {}
                entries.append(current)  # type: ignore[union-attr]
            else:
                current = node.setdefault(leaf, {})  # type: ignore[assignment]
            continue
        match = _KEY_RE.match(line)
        if not match:
            raise ValueError(f"unparseable layers.toml line: {line!r}")
        key, value = match.group(1), match.group(2).strip()
        if value.startswith("["):
            while value.count("[") > value.count("]") or not value.rstrip().endswith(
                "]"
            ):
                value += " " + lines[index].split("#", 1)[0].strip()
                index += 1
            current[key] = _parse_array(value)
        else:
            current[key] = _parse_scalar(value.split("#", 1)[0])
    return root


def _load_toml(path: Path) -> Dict[str, object]:
    """Load a TOML file via tomllib or the fallback subset parser."""
    text = path.read_text(encoding="utf-8")
    if _toml is not None:
        return _toml.loads(text)
    return _parse_toml_subset(text)  # pragma: no cover - 3.9/3.10 fallback
