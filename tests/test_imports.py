"""Three rules that deleting code breaks most often, checked with `ast`.

No linter ships with the project.  First, no module of `seqtypes` but
`__init__.py`, and no module of the tests, imports a name it never uses.  A
name counts as used when it appears as a name anywhere in the module, in
code or in a string annotation such as `"SeqType"`.  `__init__.py` is left
out: its imports are the package's API.  Second, every private module-level name (a `_`-prefixed
def, class or constant) is referenced somewhere in the package outside its
own definition: as a name, an attribute or an imported name.  Third, every
module-level def, class and assigned name (a constant or a type alias) is
referenced outside its own definition in the package, the tests, the
benchmark or a word of the README, so a second path or an alias does not
outlive its last reader.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seqtypes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import binds, with the line of the import."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def nodes(tree: ast.AST, skip: ast.AST | None = None) -> Iterator[ast.AST]:
    """Every node of the tree but those of the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def name_uses(node: ast.AST) -> Iterator[str]:
    """The names one node uses: its own, or those of a string annotation."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            annotation = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        yield from (n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))


def references(tree: ast.AST, skip: ast.AST | None = None) -> Iterator[str]:
    """Every used name, attribute and imported name, once per occurrence."""
    for node in nodes(tree, skip):
        yield from name_uses(node)
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    return {name for node in nodes(tree, skip) for name in name_uses(node)}


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The used names plus every attribute and imported name."""
    return set(references(tree, skip))


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((name, line) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .positions import EPS, Position\nfrom typing import Optional\n\nx: 'Position' = EPS\n"
    assert unused_imports(source) == [("Optional", 2)]


def definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The module-level defs, classes and assigned names (constants and type
    aliases) but dunder names, each with its defining statement."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(n, node) for n in names if not n.startswith("__")]
    return out


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The definitions whose names start with one underscore."""
    return [(n, node) for n, node in definitions(tree) if n.startswith("_")]


def unreferenced_names(
    sources: dict[str, str],
    select: Callable[[ast.Module], list[tuple[str, ast.stmt]]],
    outside: frozenset[str] = frozenset(),
) -> list[tuple[str, str, int]]:
    """(module, name, line) of every name that `select` picks from a module
    and that neither `outside` nor any module references outside the name's
    own definition.  Each tree is walked once, and each definition once: a
    name is referenced outside a definition when the module holds it more
    often than the definition does."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = {module: Counter(references(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(c.keys() for m, c in counts.items() if m != module))
        for name, node in select(tree):
            if name not in elsewhere and counts[module][name] == Counter(references(node))[name]:
                out.append((module, name, node.lineno))
    return sorted(out)


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    return unreferenced_names(sources, private_definitions)


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_every_definition_is_referenced_somewhere():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        outside |= referenced_names(ast.parse(path.read_text()))
    assert unreferenced_names(sources, definitions, frozenset(outside)) == []


def test_a_definition_named_only_outside_the_package_counts():
    sources = {
        "a.py": "def helper():\n    return helper()\n\n\nclass Shown:\n    pass\n",
        "b.py": (
            "def caller():\n    return 1\n\n\n"
            "Step = tuple[int, int]\nPath = tuple[Step, ...]\nLIMIT: int = 3\n"
        ),
    }
    assert unreferenced_names(sources, definitions) == [
        ("a.py", "Shown", 5), ("a.py", "helper", 1),
        ("b.py", "LIMIT", 7), ("b.py", "Path", 6), ("b.py", "caller", 1),
    ]
    named = frozenset({"Shown", "caller", "LIMIT"})
    assert unreferenced_names(sources, definitions, named) == [
        ("a.py", "helper", 1), ("b.py", "Path", 6)
    ]


def test_an_unreferenced_private_name_is_found():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n\n\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
            "_LIMIT = 3\n_ATTR = 4\n__version__ = '0'\n"
        ),
        "b.py": "from . import a\nfrom .a import _used\n\nx = _used() + a._ATTR\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", "_LIMIT", 9), ("a.py", "_recursive", 5)]
