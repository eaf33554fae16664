"""The benchmark tracer's seams exist in the package.

`perfbench/spans.py` wraps each seam through `owner.__dict__[attr]`, so a
seam that is renamed or removed breaks every traced benchmark run.  The
tracer module is loaded from its file, as the benchmark loads it.
"""

import importlib.util
from pathlib import Path

from shrinktarget import _scan, bestapprox, cli, construct, criteria, exact, orbit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_seam_is_an_attribute_of_its_owner():
    st = {"_scan": _scan, "bestapprox": bestapprox, "cli": cli, "construct": construct,
          "criteria": criteria, "exact": exact, "orbit": orbit}
    seams = load_spans().seams(st)
    assert seams
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _name, _work in seams
               if attr not in owner.__dict__ or not callable(owner.__dict__[attr])]
    assert missing == []
