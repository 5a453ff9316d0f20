"""No module of `seqtypes` but `__init__.py` imports a name it never uses.

No linter ships with the project, so this test checks the one rule that
deleting code breaks most often.  A name counts as used when it appears as
a name anywhere in the module, in code or in a string annotation such as
`"SeqType"`.  `__init__.py` is left out: its imports are the package's API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqtypes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def used_names(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            out.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))
    return out


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((name, line) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .positions import EPS, Position\nfrom typing import Optional\n\nx: 'Position' = EPS\n"
    assert unused_imports(source) == [("Optional", 2)]
