"""Line trace of the package under its tests: which src/ lines no test runs.

    python tools/linetrace.py                      # the whole tests/ suite
    python tools/linetrace.py tests/test_scan.py   # any pytest arguments

Runs pytest in this process with a `sys.settrace` tracer (standard library
only; `coverage` is not needed) that records the lines executed in
`src/shrinktarget/*.py`, then prints every executable line that never ran,
as `path:line: source`, and on the last line the count.  Executable lines
are the line starts of each module's compiled code objects, less docstrings.
Tracing makes the suite several times slower, so this script is not part of
the Tier-1 tests.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shrinktarget"


def executable_lines(path: Path) -> set[int]:
    """The line starts of the module's code objects, less its docstrings."""
    source = path.read_text()
    lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    seen: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - seen.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            unrun += 1
    print(f"unrun lines: {unrun} (pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
