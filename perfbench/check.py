"""Correctness checks on the artifacts of one job, run outside timed regions.

``check_job`` returns the artifact digests (every file but manifest.json,
whose elapsed_s changes from run to run) and a list of problems: an
unexpected exit code, or a broken invariant that an acceptance gate asserts
on the same kind of output.  Exact arithmetic here is independent of the
package: the checks recompute what they compare from the job's inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def read_config(path: Path) -> dict:
    pairs = (ln.split("=", 1) for ln in path.read_text().splitlines() if "=" in ln)
    return {k.strip(): v.strip() for k, v in pairs}


def _dist_int(x: Fraction) -> Fraction:
    r = x - (x.numerator // x.denominator)
    return min(r, 1 - r)


def _dec12(x: Fraction) -> str:
    """Decimal truncated toward zero at 12 places (the CSV's format)."""
    sign = "-" if x < 0 else ""
    scaled = abs(x).numerator * 10 ** 12 // x.denominator
    whole, frac = divmod(scaled, 10 ** 12)
    return f"{sign}{whole}.{frac:012d}"


def _theta(cfg: dict):
    coords = [Fraction(c) for c in cfg["theta"].split(",")]
    return coords, Fraction(cfg.get("radius", "0"))


def _check_simultaneous(rows, coords, radius, problems):
    """Recompute every record's certified error and assert the two-sided
    sandwich of gates 01 and 02 between consecutive records."""
    dim = len(coords)
    prev = None
    for row in rows:
        q = int(row["height"])
        center = max(_dist_int(q * c) for c in coords)
        lo, hi = center - q * radius, center + q * radius
        if (row["error_lo"], row["error_hi"]) != (_dec12(lo), _dec12(hi)):
            problems.append(f"record q={q}: error bounds differ from recomputation")
        if radius == 0 and row["error_exact"] != str(center):
            problems.append(f"record q={q}: exact error differs from recomputation")
        if prev is not None:
            pq, plo, phi, pcenter = prev
            if q <= pq or center >= pcenter:
                problems.append(f"records {pq}, {q} are not strictly improving")
            if plo < Fraction(1, pq + q):
                problems.append(f"sandwich lower bound fails at q={pq}")
            if phi ** dim * q > 1:
                problems.append(f"sandwich upper bound fails at q={pq}")
        prev = (q, lo, hi, center)


def _check_linear(rows, coords, problems):
    prev = None
    for row in rows:
        w = [int(c) for c in row["witness"].split()]
        center = _dist_int(sum(c * t for c, t in zip(w, coords)))
        if max(abs(c) for c in w) != int(row["height"]) or row["error_exact"] != str(center):
            problems.append(f"linear record {w} differs from recomputation")
        if prev is not None and (int(row["height"]) <= prev[0] or center >= prev[1]):
            problems.append(f"linear records at heights {prev[0]}, {row['height']} "
                            f"are not strictly improving")
        prev = (int(row["height"]), center)


def _invariants(job, cfg, out: Path, problems):
    cmd, want = job["command"], job["check"]
    if cmd == "approx":
        with open(out / "approx.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            problems.append("no approximation records")
        coords, radius = _theta(cfg)
        if cfg.get("mode") == "linear":
            _check_linear(rows, coords, problems)
        else:
            _check_simultaneous(rows, coords, radius, problems)
    elif cmd == "transfer":
        doc = json.loads((out / "transfer.json").read_text())
        if len(doc["rows"]) != want["rows"] or not all(r["holds"] for r in doc["rows"]):
            problems.append("transfer inequality rows missing or not holding")
    elif cmd == "criteria":
        doc = json.loads((out / "series.json").read_text())
        if doc["terms"] != want["terms"] \
                or Fraction(doc["partial_sum_lo"]) > Fraction(doc["partial_sum_hi"]):
            problems.append("series report has wrong term count or inverted enclosure")
    elif cmd == "verify":
        lines = (out / "verify_report.txt").read_text().splitlines()
        if any(ln.startswith("[FAIL]") for ln in lines):
            problems.append("verify report has a [FAIL] line")
        if not any(ln.startswith("[PASS]") and "brute force" in ln for ln in lines):
            problems.append("verify report scanned no level")
    elif cmd == "simulate" and "window" in cfg:
        doc = json.loads((out / "window_estimate.json").read_text())
        bound = Fraction(want.get("bound_hi") or want["union_bound"])
        if doc["inconclusive"] != 0 or doc["samples"] != want["samples"]:
            problems.append("window estimate inconclusive or sample count differs")
        if Fraction(doc["fraction"]) > bound + Fraction(doc["confidence_radius"]):
            problems.append("window hit fraction exceeds the measure bound")
    elif cmd == "simulate":
        doc = json.loads((out / "summary.json").read_text())
        with open(out / "census.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if doc["aggregates"]["inconclusive_total"] != 0 or len(rows) != want["samples"]:
            problems.append("census inconclusive or sample count differs")


def check_job(job: dict, inputs: Path, out: Path, code) -> tuple[dict, list[str]]:
    """(digests, problems) for one executed job."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not out.is_dir():
        return {}, problems + ["no output directory"]
    found = digests(out)
    if code == 0:
        try:
            _invariants(job, read_config(inputs / job["config"]), out, problems)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"artifact unreadable: {type(exc).__name__}: {exc}")
    return found, problems
