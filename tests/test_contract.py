"""The package's no-float contract, checked on its source.

Every decision is made on integers and Fractions, and numpy arrays only
ever hold integers.  The check fails on a float literal, a float(...) call,
a math function that is not integer-valued, and a numpy floating dtype,
constant or float-valued function.  ALLOWED names the exceptions by module
and source text.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shrinktarget"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, source text): floats that only format a value for display
ALLOWED = {("construct.py", "float(sup_hi)")}
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}
# numpy functions, other than ufuncs, that return floats on integer input
NP_FLOAT_FUNCS = {"average", "finfo", "geomspace", "interp", "linspace", "logspace",
                  "mean", "median", "nanmean", "percentile", "quantile", "std", "var"}


def _np_float(name: str) -> bool:
    obj = getattr(np, name, None)
    if isinstance(obj, np.ufunc):  # no integer or boolean output loop
        return not any(t.split("->")[1][0] in "?bBhHiIlLqQ" for t in obj.types)
    if isinstance(obj, type):
        return issubclass(obj, np.inexact)
    return isinstance(obj, float) or name in NP_FLOAT_FUNCS


def _float_dtype(node) -> bool:
    """dtype=float, dtype="f8", .astype(complex) and the like."""
    if isinstance(node, ast.Name):
        return node.id in ("float", "complex")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return np.dtype(node.value).kind in "fc"
        except TypeError:
            return False
    return False


def float_uses(source: str, module: str = "<snippet>") -> list[str]:
    """The float uses of `source` outside ALLOWED, as "line: text"."""
    tree = ast.parse(source)
    aliases = {}  # local name -> "math" or "numpy"
    found = []

    def flag(node):
        text = ast.get_source_segment(source, node)
        if (module, text) not in ALLOWED:
            found.append((node.lineno, node.col_offset, text))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in ("math", "numpy"):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            for a in node.names:
                if (a.name not in INT_MATH if node.module == "math" else _np_float(a.name)):
                    flag(node)
        elif isinstance(node, ast.ImportFrom):  # numpy as bound by _scan
            aliases.update((a.asname or a.name, "numpy") for a in node.names if a.name == "np")
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and node.value.args and isinstance(node.value.args[0], ast.Constant)
              and node.value.args[0].value in ("math", "numpy")):  # np = _lazy("numpy")
            aliases.update((t.id, node.value.args[0].value)
                           for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            flag(node)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
                flag(node)
            elif (any(k.arg == "dtype" and _float_dtype(k.value) for k in node.keywords)
                  or (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                      and node.args and _float_dtype(node.args[0]))):
                flag(node)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            if (node.attr not in INT_MATH if aliases[node.value.id] == "math"
                    else _np_float(node.attr)):
                flag(node)
    return [f"{line}: {text}" for line, _col, text in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_the_package(path):
    assert float_uses(path.read_text(), path.name) == []


def test_allowed_uses_are_still_there():
    """Every ALLOWED entry names a use that exists, so the list cannot go
    stale and later cover a new use by accident."""
    for module, text in ALLOWED:
        assert text in (PACKAGE / module).read_text()
        assert float_uses((PACKAGE / module).read_text(), "<other>")


def test_float_uses_are_found():
    snippet = "\n".join([
        "import math",
        "import numpy as np",
        "from math import sqrt",
        "x = 0.5 + 2j",
        "y = float(3) + math.log(2) + math.gcd(4, 6) + math.isqrt(9)",
        "a = np.arange(3, dtype=np.uint64) + np.sqrt(4) + np.pi",
        "b = np.zeros(3, dtype='f8').astype(float) + np.float64(1) + np.mean(a)",
        "c = np.minimum(a, np.negative(a)) + np.zeros(3, dtype=np.int64)",
        "ok = isinstance(x, float)",
    ])
    assert float_uses(snippet) == [
        "3: from math import sqrt",
        "4: 0.5", "4: 2j",
        "5: float(3)", "5: math.log",
        "6: np.sqrt", "6: np.pi",
        "7: np.zeros(3, dtype='f8')", "7: np.zeros(3, dtype='f8').astype(float)",
        "7: np.float64", "7: np.mean",
    ]


def test_float_uses_are_found_through_the_lazy_numpy_binding():
    """_scan binds numpy as `np = _lazy("numpy")` and orbit imports that
    name: both count as numpy, so the check still reads every np.* use of
    the package."""
    snippet = "\n".join([
        'np = _lazy("numpy")',
        "a = np.sqrt(4) + np.arange(3)",
        "from ._scan import _d64, np as xp",
        "b = xp.float64(1) + xp.uint64(2) + _d64.pi",
    ])
    assert float_uses(snippet) == ["2: np.sqrt", "4: xp.float64"]
    for module in ("_scan.py", "orbit.py"):
        source = (PACKAGE / module).read_text()
        assert float_uses(source + "\nnp.float64(1)\n", module) == [
            f"{len(source.splitlines()) + 2}: np.float64"]
