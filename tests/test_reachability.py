"""Reachability gate: every definition in ``src/repro`` serves an entry point.

The roots are what a user can run or import on purpose:

* every name in ``src/repro/cli.py``, ``src/repro/__main__.py`` and every
  ``.py`` file under ``examples/`` and ``benchmarks/``;
* the entries of ``repro.__all__`` and ``repro.api.__all__``;
* the module-level statements of every ``src/repro`` module that are not
  definitions, imports or docstrings (registry updates and the like).

Tests are not roots.  A body *names* an identifier through a ``Name``, an
``Attribute``, an import alias, or an identifier token inside a string
constant that is not a docstring (so ``getattr(obj, "name")`` and the
tracer's ``"module:Class.method"`` boundaries count).

Reachability is a fixpoint over names:

* a module-level function, class or assignment is reached when a reached
  body names it;
* a reached class brings its bases, decorators and non-method body;
* a method of a reached class is reached when a reached body names it,
  when it is a dunder, or when its class is exported by one of the two
  ``__all__`` lists (the semver-promised surface).

Matching is by name, so it errs on the side of keeping code: a dead
definition that shares a name with live code survives, never the reverse.

Two assertions hold the tree to it:

1. the unreached module-level definitions are exactly :data:`KEPT`;
2. every method of a reached class is reached, or is named somewhere in
   ``src/``, ``examples/``, ``benchmarks/`` or ``tests/`` outside its own
   definition.  Tests may keep a method alive -- a counter, a lookup or an
   inverse is how a test observes a live path -- but not a module-level
   definition, which has no live path to observe.
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).parent.parent

#: Unreached module-level definitions kept on purpose: qualified name
#: (``module:name``) to a one-line reason.
KEPT: Dict[str, str] = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def python_files(directory: Path) -> List[Path]:
    return sorted(p for p in directory.rglob("*.py") if "lint_fixtures" not in p.parts)


def module_name(path: Path, repo_root: Path = REPO_ROOT) -> str:
    parts = path.relative_to(repo_root / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def docstring_ids(tree: ast.AST) -> Set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _FUNCTIONS) and node.body:
            if is_docstring(node.body[0]):
                ids.add(id(node.body[0].value))
    return ids


def names_in(nodes, docstrings: Set[int]) -> Iterator[Tuple[str, int]]:
    """Every identifier ``nodes`` name, with its line number."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, node.lineno
            elif isinstance(node, ast.alias):
                for part in node.name.split(".") + [node.asname or ""]:
                    if part:
                        yield part, getattr(node, "lineno", 0)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                for token in _IDENTIFIER.findall(node.value):
                    yield token, node.lineno


def defined_names(node: ast.stmt) -> List[str]:
    if isinstance(node, (ast.ClassDef,) + _FUNCTIONS):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def module_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, looking inside ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, ast.If):
            yield ast.Expr(node.test)
            yield from module_statements(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from module_statements(
                node.body + [s for h in node.handlers for s in h.body] + node.orelse + node.finalbody
            )
        else:
            yield node


@dataclass
class Definition:
    qualname: str
    name: str
    path: Path
    node: ast.stmt
    docstrings: Set[int]
    methods: List[ast.stmt] = field(default_factory=list)

    def class_body(self) -> List[ast.AST]:
        """What a reached class brings with it: all but its methods."""
        node = self.node
        if not isinstance(node, ast.ClassDef):
            return [node]
        rest = [s for s in node.body if not isinstance(s, _FUNCTIONS)]
        return node.bases + node.keywords + node.decorator_list + rest


@dataclass
class Scan:
    definitions: List[Definition]
    reached: Set[str]  # qualnames, methods as ``module:Class.method``
    source_names: Dict[str, List[Tuple[Path, int]]]


def exported_names(exporting_modules: List[Path]) -> Set[str]:
    names = set()
    for path in exporting_modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and "__all__" in defined_names(node):
                names.update(ast.literal_eval(node.value))
    return names


def scan(repo_root: Path = REPO_ROOT) -> Scan:
    """Reachability of every definition under ``repo_root/src/repro``."""
    src = repo_root / "src" / "repro"
    root_files = [src / "cli.py", src / "__main__.py"]
    root_dirs = [repo_root / "examples", repo_root / "benchmarks"]
    naming_dirs = [repo_root / "src", repo_root / "tests"] + root_dirs

    definitions: List[Definition] = []
    reached_names: Set[str] = set()
    for path in root_files + [p for d in root_dirs for p in python_files(d)]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached_names.update(name for name, _ in names_in([tree], docstring_ids(tree)))
    exported = exported_names([src / "__init__.py", src / "api" / "__init__.py"])
    reached_names |= exported

    for path in python_files(src):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = docstring_ids(tree)
        module = module_name(path, repo_root)
        for node in module_statements(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or is_docstring(node):
                continue
            if not isinstance(node, _DEFINITIONS):
                reached_names.update(name for name, _ in names_in([node], docstrings))
                continue
            for name in defined_names(node):
                if name == "__all__":
                    continue
                definition = Definition(f"{module}:{name}", name, path, node, docstrings)
                if isinstance(node, ast.ClassDef):
                    definition.methods = [s for s in node.body if isinstance(s, _FUNCTIONS)]
                definitions.append(definition)

    reached: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition.qualname not in reached and definition.name in reached_names:
                reached.add(definition.qualname)
                reached_names.update(n for n, _ in names_in(definition.class_body(), definition.docstrings))
                changed = True
            if definition.qualname not in reached:
                continue
            for method in definition.methods:
                key = f"{definition.qualname}.{method.name}"
                if key in reached:
                    continue
                if (
                    method.name in reached_names
                    or (method.name.startswith("__") and method.name.endswith("__"))
                    or definition.name in exported
                ):
                    reached.add(key)
                    reached_names.update(n for n, _ in names_in([method], definition.docstrings))
                    changed = True

    source_names: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for directory in naming_dirs:
        for path in python_files(directory):
            if path.resolve() == Path(__file__).resolve():
                continue  # the synthetic trees below name made-up identifiers
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, line in names_in([tree], docstring_ids(tree)):
                source_names[name].append((path, line))
    return Scan(definitions, reached, source_names)


def unreached_definitions(reach: Scan) -> Dict[str, int]:
    """Unreached module-level definitions not in :data:`KEPT`, with their line."""
    return {
        d.qualname: d.node.lineno
        for d in reach.definitions
        if d.qualname not in reach.reached and d.qualname not in KEPT
    }


def unnamed_methods(reach: Scan) -> List[str]:
    """Unreached methods of reached classes that nothing names outside
    their own definition."""
    unnamed = []
    for definition in reach.definitions:
        if definition.qualname not in reach.reached:
            continue
        for method in definition.methods:
            if f"{definition.qualname}.{method.name}" in reach.reached:
                continue
            span = range(method.lineno, method.end_lineno + 1)
            outside = [
                (where, line)
                for where, line in reach.source_names.get(method.name, [])
                if not (where == definition.path and line in span)
            ]
            if not outside:
                unnamed.append(f"{definition.qualname}.{method.name} (line {method.lineno})")
    return unnamed


@pytest.fixture(scope="module")
def reach() -> Scan:
    return scan()


def test_every_module_level_definition_is_reached_or_kept(reach):
    unreached = unreached_definitions(reach)
    assert not unreached, (
        "module-level definitions that no entry point reaches -- delete it, "
        "or add it to KEPT with a reason:\n  "
        + "\n  ".join(f"{name} (line {line})" for name, line in sorted(unreached.items()))
    )


def test_kept_definitions_are_unreached_and_carry_a_reason(reach):
    qualnames = {d.qualname for d in reach.definitions}
    for name, reason in KEPT.items():
        assert name in qualnames, f"KEPT names {name}, which no longer exists"
        assert name not in reach.reached, f"KEPT names {name}, which an entry point reaches"
        assert reason.strip(), f"KEPT entry {name} has no reason"


def test_every_method_of_a_reached_class_is_reached_or_named(reach):
    unnamed = unnamed_methods(reach)
    assert not unnamed, (
        "methods that no entry point reaches and nothing names outside "
        "their own definition -- delete them:\n  " + "\n  ".join(unnamed)
    )


# -- the scan's rules, on synthetic trees -----------------------------------


def scan_tree(root: Path, files: Dict[str, str], exported: Tuple[str, ...] = ()) -> Scan:
    """Scan a minimal repository holding ``files`` (paths relative to ``root``)."""
    tree = {
        "src/repro/__init__.py": f"__all__ = {list(exported)!r}\n",
        "src/repro/api/__init__.py": "__all__ = []\n",
        "src/repro/cli.py": "",
        "src/repro/__main__.py": "",
    }
    tree.update(files)
    for relative, text in tree.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return scan(root)


def test_scan_follows_names_from_the_cli_through_a_chain(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/cli.py": "from repro.mod import first\nfirst()\n",
        "src/repro/mod.py": """
            def first():
                return second()

            def second():
                return THIRD

            THIRD = 3

            def orphan():
                return first()
        """,
    })
    assert {"repro.mod:first", "repro.mod:second", "repro.mod:THIRD"} <= reach.reached
    assert unreached_definitions(reach) == {"repro.mod:orphan": 10}


def test_string_constants_name_identifiers_but_docstrings_do_not(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/cli.py": """
            import repro.mod
            getattr(repro.mod, "by_getattr")()
            BOUNDARY = "repro.mod:Probe.on_op"
        """,
        "src/repro/mod.py": """
            \"\"\"Mentions only_in_docstrings.\"\"\"

            def by_getattr():
                \"\"\"Calls only_in_docstrings.\"\"\"

            def only_in_docstrings():
                pass

            class Probe:
                def on_op(self):
                    pass

                def off_op(self):
                    pass
        """,
    })
    assert {"repro.mod:by_getattr", "repro.mod:Probe", "repro.mod:Probe.on_op"} <= reach.reached
    assert "repro.mod:Probe.off_op" not in reach.reached
    assert set(unreached_definitions(reach)) == {"repro.mod:only_in_docstrings"}


def test_module_level_statements_are_roots(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/registry.py": """
            REGISTRY = {}

            def handler():
                pass

            def setup():
                pass

            def fallback():
                pass

            REGISTRY.update(handler=handler)

            try:
                setup()
            except ImportError:
                fallback()
        """,
    })
    assert unreached_definitions(reach) == {}
    assert {"repro.registry:REGISTRY", "repro.registry:fallback"} <= reach.reached


def test_a_reached_class_brings_its_bases_body_and_dunders(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/cli.py": "from repro.mod import Child\nChild()\n",
        "src/repro/mod.py": """
            class Base:
                pass

            class Child(Base):
                limit = LIMIT

                def __init__(self):
                    self.ready = True

                def unused(self):
                    pass

            LIMIT = 4
        """,
    })
    assert {"repro.mod:Base", "repro.mod:LIMIT", "repro.mod:Child.__init__"} <= reach.reached
    assert "repro.mod:Child.unused" not in reach.reached
    assert unnamed_methods(reach) == ["repro.mod:Child.unused (line 11)"]


def test_every_method_of_an_exported_class_is_reached(tmp_path):
    reach = scan_tree(
        tmp_path,
        {"src/repro/mod.py": "class Facade:\n    def promised(self):\n        pass\n"},
        exported=("Facade",),
    )
    assert {"repro.mod:Facade", "repro.mod:Facade.promised"} <= reach.reached
    assert unnamed_methods(reach) == []


def test_tests_name_methods_but_do_not_reach_definitions(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/cli.py": "from repro.mod import Live\n",
        "src/repro/mod.py": """
            def only_tests_call():
                pass

            class Live:
                def observed(self):
                    pass
        """,
        "tests/test_mod.py": """
            from repro.mod import Live, only_tests_call

            only_tests_call()
            Live().observed()
        """,
    })
    assert "repro.mod:Live.observed" not in reach.reached
    assert unnamed_methods(reach) == []
    assert set(unreached_definitions(reach)) == {"repro.mod:only_tests_call"}


def test_a_method_that_only_names_itself_is_reported(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/cli.py": "from repro.mod import Live\n",
        "src/repro/mod.py": """
            class Live:
                def recurse(self, depth):
                    return self.recurse(depth - 1) if depth else 0
        """,
    })
    assert unnamed_methods(reach) == ["repro.mod:Live.recurse (line 3)"]


def test_examples_and_benchmarks_are_roots(tmp_path):
    reach = scan_tree(tmp_path, {
        "src/repro/mod.py": "def for_examples():\n    pass\n\ndef for_benchmarks():\n    pass\n",
        "examples/demo.py": "from repro.mod import for_examples\n",
        "benchmarks/suite/bench.py": "from repro.mod import for_benchmarks\n",
    })
    assert unreached_definitions(reach) == {}


def test_import_aliases_name_every_dotted_part():
    tree = ast.parse("import repro.core.oplog as log\nfrom repro.ssd import SSD as Device\n")
    names = {name for name, _ in names_in([tree], docstring_ids(tree))}
    assert {"repro", "core", "oplog", "log", "SSD", "Device"} <= names


def test_module_names_follow_the_package_layout(tmp_path):
    src = tmp_path / "src" / "repro"
    assert module_name(src / "__init__.py", tmp_path) == "repro"
    assert module_name(src / "ssd" / "__init__.py", tmp_path) == "repro.ssd"
    assert module_name(src / "ssd" / "ftl.py", tmp_path) == "repro.ssd.ftl"
