"""The benchmark's own modules find what they use in the package.

`perfbench/spans.py` wraps each seam through `owner.__dict__[attr]`, so a
seam that is renamed or removed breaks every traced benchmark run, and
`perfbench/gen.py` imports package names for every set-up.  Both modules
are loaded from their files, as the benchmark loads them.
"""

import importlib.util
from pathlib import Path

from shrinktarget import _scan, bestapprox, cli, construct, criteria, exact, orbit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_seam_is_an_attribute_of_its_owner():
    st = {"_scan": _scan, "bestapprox": bestapprox, "cli": cli, "construct": construct,
          "criteria": criteria, "exact": exact, "orbit": orbit}
    seams = load("spans").seams(st)
    assert seams
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _name, _work in seams
               if attr not in owner.__dict__ or not callable(owner.__dict__[attr])]
    assert missing == []


def test_generator_imports_resolve():
    """gen.py imports `construct`, `criteria` and `roots.iroot_ceil` at load
    time; a name the package drops fails here, not in the benchmark."""
    assert load("gen").WORKLOADS == ("approx", "transfer", "census", "window")
