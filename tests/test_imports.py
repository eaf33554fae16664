"""Every module-level import of the package is used in its module, and only
the command-line module reads or writes files."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shrinktarget"
# __init__.py imports only to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom fractions import Fraction\nos.sep\n") == [
        "Fraction (line 2)"]


FILE_CALLS = ("open", "read_text", "write_text")


def file_io(source: str) -> list[str]:
    """The csv/json imports and the file calls (open, read_text, write_text)
    of a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in ("csv", "json")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            found.append(node.module)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in FILE_CALLS:
                found.append(f"{name}() (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_does_file_io(path):
    """The library computes; cli.py writes every artifact and reads every input."""
    assert file_io(path.read_text()) == []


def test_file_io_is_found():
    assert file_io("import csv, os\nfrom json import dump\nopen('x')\nP.write_text('')\n") == [
        "csv", "json", "open() (line 3)", "write_text() (line 4)"]


def _defined(stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt) -> set[str]:
    """Every name, attribute and imported name a statement mentions."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (one leading underscore) of the
    modules in `sources` that no other statement of any of them mentions:
    a name used only inside its own definition, or only by tests, is dead."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    refs = [_referenced(stmt) for _, stmt in stmts]
    return [f"{module}: {name}" for i, (module, stmt) in enumerate(stmts)
            for name in _defined(stmt)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(refs) if j != i)]


def test_private_names_are_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_found():
    sources = {"a.py": "_LIMIT = 3\ndef _walk(n):\n    return _walk(n - 1)\n"
                       "def _kept():\n    return _LIMIT\n__all__ = []\n",
               "b.py": "from .a import _kept\n"}
    assert unreferenced_private_names(sources) == ["a.py: _walk"]
