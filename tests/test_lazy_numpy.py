"""numpy is bound once, in _scan, and loads at the first scan or orbit call:
importing the package and its exact-only work (the construction, window
bounds, the transcript series) never load it.  The package root imports
orbit at the first use of one of its names, so that work never loads orbit
either."""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path
from textwrap import dedent

import pytest

import shrinktarget
from shrinktarget import _scan, orbit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shrinktarget"
TRANSCRIPT = ROOT / "tests" / "data" / "const75_h2_depth3.txt"

COLD = dedent("""\
    import json, sys
    from fractions import Fraction
    sys.path.insert(0, sys.argv[1])
    import shrinktarget, shrinktarget.cli
    from shrinktarget import _scan, bestapprox, cli, construct, criteria, orbit

    def numpy_modules():  # numpy 1.x and 2.x both load numpy.* submodules
        return sorted(m for m in sys.modules if m.startswith("numpy."))

    a = lambda n: 33
    state = construct.build_theta(a, construct.minimal_heights(a, 1, 6), 3)
    criteria.window_bound(state.refined_theta(), state.linear_witnesses(), Fraction(2), 1)
    code = cli.main(["criteria", "--config", sys.argv[2], "--out", sys.argv[3]])
    before = numpy_modules()
    bestapprox.best_simultaneous(state.theta, 1000)
    print(json.dumps({"code": code, "before": before, "after": len(numpy_modules()),
                      "one": _scan.np is orbit.np is sys.modules["numpy"]}))
""")


def test_exact_work_in_a_cold_process_leaves_numpy_unloaded(tmp_path):
    """A fresh interpreter imports the package and the CLI, builds a
    depth-3 construction, takes its window bound and runs the thm5 series
    of a transcript without loading numpy; the first scan loads it, as the
    one module that _scan and orbit both hold."""
    cfg = tmp_path / "thm5.cfg"
    cfg.write_text(f"command=criteria\nseries=thm5\ntranscript={TRANSCRIPT}\nn_terms=3\n")
    run = subprocess.run([sys.executable, "-c", COLD, str(ROOT / "src"), str(cfg),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["code"] == 0 and (tmp_path / "out" / "series.csv").is_file()
    assert got["before"] == []
    assert got["after"] > 0 and got["one"]


COLD_ROOT = dedent("""\
    import json, sys
    from fractions import Fraction
    sys.path.insert(0, sys.argv[1])
    import shrinktarget
    from shrinktarget import construct, criteria

    a = lambda n: (n + 3) ** 4
    state = construct.build_theta(a, construct.minimal_heights(a, 1, 12), 10)
    criteria.window_bound(state.refined_theta(), state.linear_witnesses(), Fraction(2), 1)
    construct.verify_construction(state, 0)
    before = sorted(m for m in sys.modules if m == "shrinktarget.orbit" or m.startswith("numpy."))
    orbit = shrinktarget.orbit  # the attribute loads the module, as it did when eager
    from shrinktarget import hit_census
    print(json.dumps({"before": before, "after": orbit is sys.modules["shrinktarget.orbit"]
                      and hit_census is orbit.hit_census}))
""")


def test_exact_work_in_a_cold_process_leaves_orbit_unloaded():
    """A fresh interpreter imports the package, builds a depth-10 poly:4
    construction, takes its window bound and verifies its structure with
    neither orbit nor numpy loaded; `shrinktarget.orbit` and importing an
    orbit name load orbit."""
    run = subprocess.run([sys.executable, "-c", COLD_ROOT, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got == {"before": [], "after": True}


def test_every_exported_name_resolves_at_the_package_root():
    assert all(getattr(shrinktarget, name) is not None for name in shrinktarget.__all__)
    assert shrinktarget.orbit is orbit and shrinktarget.hit_census is orbit.hit_census
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        shrinktarget.no_such_name


def test_lazy_binds_a_loaded_module_as_it_is():
    assert _scan._lazy("numpy") is sys.modules["numpy"]
    assert _scan.np is orbit.np is sys.modules["numpy"]


def test_lazy_runs_a_module_at_its_first_attribute_access(monkeypatch):
    """A module not yet imported is registered at once and runs only when
    an attribute is read: here colorsys, which imports nothing.  A missing
    module fails as its import would."""
    monkeypatch.setitem(sys.modules, "colorsys", None)  # restored afterwards
    monkeypatch.delitem(sys.modules, "colorsys")
    module = _scan._lazy("colorsys")
    assert sys.modules["colorsys"] is module
    assert type(module) is not types.ModuleType  # not run yet
    assert module.rgb_to_hsv(0, 0, 0) == (0, 0, 0)
    assert type(module) is types.ModuleType
    with pytest.raises(ModuleNotFoundError, match="No module named 'shrinktarget_absent'"):
        _scan._lazy("shrinktarget_absent")


def _numpy_bindings(path: Path) -> list[str]:
    """The imports of numpy in a module, and its string constants 'numpy'
    (the one binding is `np = _lazy("numpy")` in _scan)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append(f"from {node.module}")
        elif isinstance(node, ast.Constant) and node.value == "numpy":
            found.append("'numpy'")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_bound_in_one_place(path):
    assert _numpy_bindings(path) == (["'numpy'"] if path.name == "_scan.py" else [])
