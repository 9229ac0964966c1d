"""Every module-level import in the package is used.

A name bound by an import at the top level of a module must be read
somewhere in that module (code, annotations or doctests aside) or be
listed in its ``__all__``.  ``__init__.py`` exists to re-export, and
``from __future__`` imports bind nothing, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weylkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for every top-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            while isinstance(node, ast.Attribute):
                node = node.value
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def test_every_module_is_scanned():
    assert {p.name for p in MODULES} >= {
        "charring.py", "coxeter.py", "hecke.py", "cli.py", "lcf.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = _used(tree) | _exported(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in keep)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nx = d\n")
    keep = _used(tree) | _exported(tree)
    assert sorted(n for n in _imported_names(tree) if n not in keep) == [
        "b", "os"]
