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
