"""Spans around the module seams of shrinktarget, recorded from outside.

``Tracer.install()`` replaces each seam name with a timing wrapper in the
namespace its caller looks it up in, and ``uninstall()`` restores the
originals.  A span records name, job id, parent span, start, end and a
work count taken from the call's arguments and return value.

Hot leaf seams (the ``roots`` functions bound in ``orbit``, ``criteria`` and
``construct``; ``CertifiedScalar.compare``; ``orbit.dist_nearest_int``) run up
to a few hundred thousand times per job, so they are kept as per-parent
aggregates (calls, busy seconds) instead of one span per call.  Leaves call
no other seam, so a parent's child time is still the plain sum of its
children's durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

INT64_LINE = 1 << 62  # multiplier * denominator at or above this: big_den


def _records(args, kwargs, result):
    return {"records": len(result)}


def _terms(args, kwargs, result):
    return {"terms": len(result.terms)}


def _cells(dim, h):
    return (2 * h + 1) ** dim if dim in (2, 3) else 0


def _sim_work(args, kwargs, result):
    theta, q_max = args[0], args[1]
    recs, den, zero = result
    walked = recs[-1][0] if zero else q_max
    cls = "big_den" if q_max * den >= INT64_LINE else "small_den"
    return {"multipliers": walked, "class": cls}


def _lin_min_work(args, kwargs, result):
    theta, h = args[0], args[1]
    return {"cells": _cells(theta.dim, h), "dim": theta.dim}


def _lin_rec_work(args, kwargs, result):
    theta, h_max = args[0], args[1]
    recs, _den, zero = result
    return {"cells": _cells(theta.dim, recs[-1][0] if zero else h_max),
            "dim": theta.dim}


def _base_work(args, kwargs, result):
    return {"multipliers": args[1] - 1}


def _census_work(args, kwargs, result):
    cfg = args[0]
    return {"steps": cfg.samples * cfg.n_max,
            "class": "64" if cfg.precision_bits == 64 else "big"}


def _window_work(args, kwargs, result):
    cfg, (lo, hi) = args[0], args[1]
    return {"sample_steps": cfg.samples * (hi - lo),
            "class": "64" if cfg.precision_bits == 64 else "big"}


def _levels_work(args, kwargs, result):
    return {"levels_scanned": sum(1 for c in result.checks
                                  if "brute force" in c.name and c.passed is not None)}


def seams(st):
    """(owner, attribute, span name, work function | "leaf") for every seam.

    st maps module names to the imported shrinktarget modules.
    """
    cli, bestapprox, criteria = st["cli"], st["bestapprox"], st["criteria"]
    construct, orbit, scan, exact = st["construct"], st["orbit"], st["_scan"], st["exact"]
    out = [
        (cli, "main", "cli.main", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "emit_plot_data", "cli.emit", None),
        (cli, "write_census_csv", "cli.emit", None),
        (cli, "write_summary_json", "cli.emit", None),
        (bestapprox, "best_simultaneous", "bestapprox.best_simultaneous", _records),
        (bestapprox, "best_linear", "bestapprox.best_linear", _records),
        (criteria, "transfer_check", "criteria.transfer_check", None),
        (criteria, "window_bound", "criteria.window_bound", None),
        (criteria, "type_evidence", "criteria.type_evidence", None),
        (cli, "build_theta", "construct.build_theta", None),
        (construct, "build_theta", "construct.build_theta", None),
        (cli, "verify_construction", "construct.verify_construction", _levels_work),
        (cli, "hit_census", "orbit.hit_census", _census_work),
        (cli, "bc_window_estimate", "orbit.bc_window_estimate", _window_work),
        (scan, "simultaneous_scan", "_scan.simultaneous_scan", _sim_work),
        (scan, "linear_min", "_scan.linear_min", _lin_min_work),
        (scan, "linear_records", "_scan.linear_records", _lin_rec_work),
        (scan, "all_greater_than_baseline", "_scan.all_greater_than_baseline", _base_work),
        (exact.CertifiedScalar, "compare", "exact.compare", "leaf"),
        (orbit, "dist_nearest_int", "exact.dist_nearest_int", "leaf"),
        (criteria, "pow_enclosure", "roots.criteria", "leaf"),
        (construct, "iroot", "roots.construct", "leaf"),
    ]
    for name in ("series_thm5", "series_prop32", "series_lemma22", "dyadic_condition_iii"):
        out.append((criteria, name, f"criteria.{name}", _terms))
    for name in ("iroot", "log2_enclosure", "sqrt_upper"):
        out.append((orbit, name, "roots.orbit", "leaf"))
    return out


class Tracer:
    """In-memory spans for one traced pass (or one traced set-up)."""

    def __init__(self, label: str):
        self.label = label
        self.spans = []    # [name, job, parent, start, end, work]
        self.leaves = {}   # (parent, name) -> [calls, busy_s]
        self.stack = []
        self.job = None
        self._saved = []

    def install(self, st) -> None:
        for owner, attr, name, work in seams(st):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            wrap = self._leaf(fn, name) if work == "leaf" else self._span(fn, name, work)
            setattr(owner, attr, wrap)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _span(self, fn, name, work):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result
        return wrapper

    def _leaf(self, fn, name):
        leaves, stack = self.leaves, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (stack[-1] if stack else -1, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
        return wrapper

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its children (spans and leaf
        aggregates) cover."""
        child = [0.0] * len(self.spans)
        for name, job, parent, t0, t1, work in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (parent, _name), (_calls, busy) in self.leaves.items():
            if parent >= 0:
                child[parent] += busy
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, fh) -> None:
        for i, (name, job, parent, t0, t1, work) in enumerate(self.spans):
            fh.write(json.dumps({"trace": self.label, "id": i, "name": name, "job": job,
                                 "parent": parent, "start": t0, "end": t1,
                                 "work": work}) + "\n")
        for (parent, name), (calls, busy) in sorted(self.leaves.items()):
            job = self.spans[parent][1] if parent >= 0 else None
            fh.write(json.dumps({"trace": self.label, "leaf": name, "job": job,
                                 "parent": parent, "calls": calls,
                                 "busy_s": busy}) + "\n")


PER_LAYER = (
    "_scan.sim.big_den.multipliers", "_scan.sim.big_den.busy_s",
    "_scan.sim.big_den.multipliers_per_s",
    "_scan.sim.small_den.multipliers", "_scan.sim.small_den.busy_s",
    "_scan.sim.small_den.multipliers_per_s",
    "_scan.base.multipliers", "_scan.base.busy_s", "_scan.base.multipliers_per_s",
    "_scan.lin.d2.cells", "_scan.lin.d2.busy_s", "_scan.lin.d2.cells_per_s",
    "_scan.lin.d3.cells", "_scan.lin.d3.busy_s", "_scan.lin.d3.cells_per_s",
    "exact.compare.calls", "exact.compare.busy_s", "exact.recheck_ratio",
    "orbit.census.64.steps", "orbit.census.64.busy_s", "orbit.census.64.steps_per_s",
    "orbit.census.big.steps", "orbit.census.big.busy_s", "orbit.census.big.steps_per_s",
    "orbit.window.64.sample_steps", "orbit.window.64.busy_s",
    "orbit.window.64.sample_steps_per_s",
    "orbit.window.big.sample_steps", "orbit.window.big.busy_s",
    "orbit.window.big.sample_steps_per_s",
    "orbit.exact_rechecks", "orbit.recheck_ratio", "orbit.inconclusive",
    "roots.orbit.calls", "roots.orbit.busy_s", "roots.orbit.calls_per_s",
    "roots.criteria.calls", "roots.criteria.busy_s", "roots.criteria.calls_per_s",
    "roots.construct.calls", "roots.construct.busy_s", "roots.construct.calls_per_s",
    "construct.build.calls", "construct.build.busy_s",
    "construct.verify.self_s", "construct.verify.levels_scanned",
    "bestapprox.records", "bestapprox.self_s", "criteria.terms", "criteria.self_s",
    "cli.parse_s", "cli.emit_s", "cli.self_s",
    "_scan.self_s", "construct.self_s", "orbit.self_s", "roots.self_s", "exact.self_s",
    "bench.self_s", "trace.batch_s", "trace.overhead_ratio",
)


def _rate(count, busy):
    return count / busy if busy > 0 else 0.0


# Layer that owns each span's self time; every other span belongs to the
# module named before the first dot.
_SELF_KEY = {"cli.main": "cli.self_s", "cli.parse_config": "cli.parse_s",
             "cli.emit": "cli.emit_s"}
SELF_KEYS = ("cli.self_s", "cli.parse_s", "cli.emit_s", "bestapprox.self_s",
             "criteria.self_s", "construct.self_s", "orbit.self_s", "_scan.self_s",
             "roots.self_s", "exact.self_s", "bench.self_s")


def layer_metrics(tr: Tracer, batch_s: float, setup: Tracer) -> dict:
    """Per-layer metrics of one traced pass.  The *.self_s values partition
    batch_s: bench.self_s is the pass time outside every cli.main span."""
    m = defaultdict(float)
    for key in SELF_KEYS:
        m[key] = 0.0
    selfs = tr.self_times()
    for (name, _job, parent, t0, t1, work), own in zip(tr.spans, selfs):
        dur = t1 - t0
        m[_SELF_KEY.get(name, name.split(".")[0] + ".self_s")] += own
        if name == "cli.main":
            m["bench.self_s"] -= dur
        if work is None:
            continue
        if name == "_scan.simultaneous_scan":
            m[f"_scan.sim.{work['class']}.multipliers"] += work["multipliers"]
            m[f"_scan.sim.{work['class']}.busy_s"] += dur
        elif name == "_scan.all_greater_than_baseline":
            m["_scan.base.multipliers"] += work["multipliers"]
            m["_scan.base.busy_s"] += dur
        elif name in ("_scan.linear_min", "_scan.linear_records") and work["cells"]:
            m[f"_scan.lin.d{work['dim']}.cells"] += work["cells"]
            m[f"_scan.lin.d{work['dim']}.busy_s"] += dur
        elif name == "orbit.hit_census":
            m[f"orbit.census.{work['class']}.steps"] += work["steps"]
            m[f"orbit.census.{work['class']}.busy_s"] += dur
        elif name == "orbit.bc_window_estimate":
            m[f"orbit.window.{work['class']}.sample_steps"] += work["sample_steps"]
            m[f"orbit.window.{work['class']}.busy_s"] += dur
        elif name == "construct.verify_construction":
            m["construct.verify.levels_scanned"] += work["levels_scanned"]
            m["construct.verify.self_s"] += dur
        elif "records" in work:
            m["bestapprox.records"] += work["records"]
        elif "terms" in work:
            m["criteria.terms"] += work["terms"]
    for name, _job, parent, t0, t1, _work in tr.spans:
        if name == "_scan.all_greater_than_baseline" and parent >= 0 \
                and tr.spans[parent][0] == "construct.verify_construction":
            m["construct.verify.self_s"] -= t1 - t0
    for (_parent, name), (calls, busy) in tr.leaves.items():
        layer = name.split(".")[0]
        m[f"{layer}.self_s"] += busy
        if name == "exact.compare":
            m["exact.compare.calls"] += calls
            m["exact.compare.busy_s"] += busy
        elif name == "exact.dist_nearest_int":
            m["orbit.exact_rechecks"] += calls
        else:
            m[f"{name}.calls"] += calls
            m[f"{name}.busy_s"] += busy
    m["bench.self_s"] += batch_s
    for name, _job, _parent, t0, t1, _work in setup.spans:
        if name == "construct.build_theta":
            m["construct.build.calls"] += 1
            m["construct.build.busy_s"] += t1 - t0

    for cls in ("big_den", "small_den"):
        m[f"_scan.sim.{cls}.multipliers_per_s"] = _rate(
            m[f"_scan.sim.{cls}.multipliers"], m[f"_scan.sim.{cls}.busy_s"])
    m["_scan.base.multipliers_per_s"] = _rate(m["_scan.base.multipliers"],
                                              m["_scan.base.busy_s"])
    for d in ("d2", "d3"):
        m[f"_scan.lin.{d}.cells_per_s"] = _rate(m[f"_scan.lin.{d}.cells"],
                                                m[f"_scan.lin.{d}.busy_s"])
    for cls in ("64", "big"):
        m[f"orbit.census.{cls}.steps_per_s"] = _rate(
            m[f"orbit.census.{cls}.steps"], m[f"orbit.census.{cls}.busy_s"])
        m[f"orbit.window.{cls}.sample_steps_per_s"] = _rate(
            m[f"orbit.window.{cls}.sample_steps"], m[f"orbit.window.{cls}.busy_s"])
    for caller in ("orbit", "criteria", "construct"):
        m[f"roots.{caller}.calls_per_s"] = _rate(m[f"roots.{caller}.calls"],
                                                 m[f"roots.{caller}.busy_s"])
    scanned = (m["_scan.sim.big_den.multipliers"] + m["_scan.sim.small_den.multipliers"]
               + m["_scan.base.multipliers"] + m["_scan.lin.d2.cells"]
               + m["_scan.lin.d3.cells"])
    m["exact.recheck_ratio"] = m["exact.compare.calls"] / scanned if scanned else 0.0
    steps = (m["orbit.census.64.steps"] + m["orbit.census.big.steps"]
             + m["orbit.window.64.sample_steps"] + m["orbit.window.big.sample_steps"])
    m["orbit.recheck_ratio"] = m["orbit.exact_rechecks"] / steps if steps else 0.0
    m["trace.batch_s"] = batch_s
    return dict(m)
