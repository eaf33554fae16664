"""Seeded workload generator for the shrinktarget benchmark.

``generate(workload, seed, out_dir)`` writes everything one benchmark run
feeds to the program: transcripts (``transcripts/*.txt``), one key=value
config per job (``configs/<job>.cfg``) and the job list (``jobs.json``).
The same (workload, seed) pair gives byte-identical files; configs name
transcripts by paths relative to ``out_dir``, so jobs run with ``out_dir`` as
the working directory.

Each job entry carries the facts the correctness check needs (dimension,
expected term counts, window measure bounds); the program never sees them.

Run as a script to time a set-up the way ``run.py`` does:
``python3 perfbench/gen.py --workload approx --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from shrinktarget import construct, criteria  # noqa: E402
from shrinktarget.roots import iroot_ceil  # noqa: E402

WORKLOADS = ("approx", "transfer", "census", "window")

# Job counts per workload.  With the sizes below, one pass of a job list
# takes 4.5-6 s (approx: 20 s, most of it the verify job) on a 2-core Xeon
# VM at the commit that introduced the benchmark; perfbench/README.md lists
# the measured per-job times.
APPROX_BIG_DEN = 14       # pure-Python simultaneous walk (q*den >= 2^62)
APPROX_SMALL_DEN = 14     # numpy simultaneous walk, 30-34 bit denominators
TRANSFER_D3 = 8
TRANSFER_D2 = 8
LINEAR_D2 = 8
LINEAR_D3 = 6
CRITERIA_SEEDED = 6
CRITERIA_POLY = 4
CENSUS_64 = 24
CENSUS_BIG = 12
WINDOW_EARLY = 8
WINDOW_LATE_64 = 8
WINDOW_LATE_BIG = 14


# ---------------------------------------------------------------------------
# vectors


def _const(a):
    return lambda n: a


def _poly(p):
    return lambda n: (n + 3) ** p


def _build(a_fn, depth):
    return construct.build_theta(a_fn, construct.minimal_heights(a_fn, 1, depth + 2),
                                 depth)


def _sqrt_convergents(n):
    """Convergents p/q of frac(sqrt(n)) for a non-square n (endless)."""
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    while True:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p, q


def quadratic_convergent(rng, min_bits):
    """(p/q, radius): the first convergent of frac(sqrt(n)) with q >= 2^min_bits
    for a random non-square n, with the certified radius 1/(q q')."""
    while True:
        n = rng.randrange(2, 400)
        if math.isqrt(n) ** 2 != n:
            break
    conv = _sqrt_convergents(n)
    for p, q in conv:
        if q.bit_length() > min_bits:
            _p2, q2 = next(conv)
            return Fraction(p, q), Fraction(1, q * q2)


def seeded_exact(rng, dim, bits_lo, bits_hi):
    m = rng.randrange(1 << bits_lo, 1 << bits_hi)
    return [Fraction(rng.randrange(1, m), m) for _ in range(dim)]


def _vec(coords):
    return ",".join(str(c) for c in coords)


def _delta_choices(dim):
    return (Fraction(dim), Fraction(2 * dim + 1, 2), Fraction(2 * dim))


# ---------------------------------------------------------------------------
# writer


class _Study:
    def __init__(self, out: Path):
        self.out = out
        self.jobs = []
        self.transcripts = set()
        (out / "configs").mkdir(parents=True, exist_ok=True)
        (out / "transcripts").mkdir(parents=True, exist_ok=True)

    def transcript(self, name, state):
        if name not in self.transcripts:
            (self.out / "transcripts" / f"{name}.txt").write_text(state.to_text())
            self.transcripts.add(name)
        return f"transcripts/{name}.txt"

    def add(self, command, cls, keys, **check):
        job_id = f"j{len(self.jobs):03d}"
        lines = [f"command={command}"] + [f"{k}={v}" for k, v in keys.items()]
        cfg = f"configs/{job_id}.cfg"
        (self.out / cfg).write_text("\n".join(lines) + "\n")
        self.jobs.append({"id": job_id, "command": command, "class": cls,
                          "config": cfg, "check": check})

    def finish(self, workload, seed):
        with open(self.out / "jobs.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed, "jobs": self.jobs},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


def _spread(count, lo, hi):
    """count sizes evenly spaced over [lo, hi].  Sizes, and the classes they
    pair with, depend on the job index only: seeds change the vectors and
    starts, not the amount or mix of work."""
    return [lo + (hi - lo) * (2 * i + 1) // (2 * count) for i in range(count)]


# ---------------------------------------------------------------------------
# workloads


def _approx(rng, st):
    big = []
    for i in range(APPROX_BIG_DEN):
        if i % 2 == 0:
            # denominators of 63 (depth 2) to 140 bits (depth 6)
            state = _build(_const(rng.randrange(33, 40)), 2 + i // 2 % 5)
            theta = state.refined_theta()
            big.append((list(theta.coords), theta.radius))
        else:
            center, radius = quadratic_convergent(rng, 63 + 19 * (i // 2 % 5))
            big.append(([center], radius))
    for (coords, radius), limit in zip(big, _spread(APPROX_BIG_DEN, 150_000, 450_000)):
        st.add("approx", "big_den",
               {"theta": _vec(coords), "radius": radius, "mode": "simultaneous",
                "limit": limit}, dim=len(coords))
    for i, limit in enumerate(_spread(APPROX_SMALL_DEN, 2_000_000, 6_000_000)):
        coords = seeded_exact(rng, 1 + i % 3, 30, 34)
        st.add("approx", "small_den",
               {"theta": _vec(coords), "mode": "simultaneous", "limit": limit},
               dim=len(coords))
    # the verifier's level-0 brute force walks q < q_1 = 20,699,712 of the
    # a = 33 build on 63-83 bit denominators: the same job for every seed
    path = st.transcript("bounded_a33_d3", _build(_const(33), 3))
    st.add("verify", "verify", {"transcript": path, "bruteforce_depth": 1})


def _transfer(rng, st):
    hs3 = (2, 3, 11, 37, 97)
    for i in range(TRANSFER_D3):
        coords = seeded_exact(rng, 3, 7, 13)
        hs = (hs3[i % len(hs3)], 143, 250) if i % 4 == 3 else (hs3[i % len(hs3)], 143)
        st.add("transfer", "transfer_d3",
               {"theta": _vec(coords), "h": ",".join(map(str, hs)),
                "budget": 2 * 10 ** 9}, dim=3, rows=len(hs))
    for i, h in enumerate(_spread(TRANSFER_D2, 400, 2000)):
        coords = seeded_exact(rng, 2, 7, 13)
        hs = ((3, 5, 17, 59)[i % 4], 143, h)
        st.add("transfer", "transfer_d2",
               {"theta": _vec(coords), "h": ",".join(map(str, hs))},
               dim=2, rows=len(hs))
    for h in _spread(LINEAR_D2, 600, 2000):
        coords = seeded_exact(rng, 2, 30, 34)
        st.add("approx", "linear_d2",
               {"theta": _vec(coords), "mode": "linear", "limit": h}, dim=2)
    for h in _spread(LINEAR_D3, 15, 30):
        coords = seeded_exact(rng, 3, 30, 34)
        st.add("approx", "linear_d3",
               {"theta": _vec(coords), "mode": "linear", "limit": h}, dim=3)
    for i, k in enumerate(_spread(CRITERIA_SEEDED, 300, 600)):
        dim = 1 + i % 2
        coords = seeded_exact(rng, dim, 11, 16)
        if i % 3 == 2:
            st.add("criteria", "dyadic", {"series": "dyadic", "theta": _vec(coords),
                                          "k_max": k // 50}, terms=k // 50)
        else:
            st.add("criteria", "lemma22",
                   {"series": "lemma22", "theta": _vec(coords), "k_max": k,
                    "delta": dim}, terms=k)
    path = st.transcript("poly4_d50", _build(_poly(4), 50))
    for i, n in enumerate(_spread(CRITERIA_POLY, 40, 50)):
        series = ("thm5", "prop32")[i % 2]
        st.add("criteria", series, {"series": series, "transcript": path,
                                    "n_terms": n}, terms=n)


def _orbit_source(rng, st, kind):
    """(config keys naming theta, dim): a refined bounded build or poly:4
    build (d = 2) or a Pell-type convergent (d = 1)."""
    if kind == "bounded":
        a, depth = rng.randrange(33, 40), rng.randrange(3, 7)
        path = st.transcript(f"bounded_a{a}_d{depth}", _build(_const(a), depth))
        return {"transcript": path, "refined": 1}, 2
    if kind == "poly":
        depth = rng.randrange(4, 7)
        path = st.transcript(f"poly4_d{depth}", _build(_poly(4), depth))
        return {"transcript": path, "refined": 1}, 2
    center, _radius = quadratic_convergent(rng, rng.randrange(140, 200))
    return {"theta": center}, 1


def _census(rng, st):
    """Theta kind, delta and size cycle with the job index."""
    for cls, count, bits, (lo, hi), samples in (
            ("census_64", CENSUS_64, 64, (800_000, 2_400_000), 30),
            ("census_big", CENSUS_BIG, 128, (20_000, 32_000), 4)):
        for i, steps in enumerate(_spread(count, lo, hi)):
            keys, dim = _orbit_source(rng, st, ("bounded", "poly", "pell")[i % 3])
            delta = _delta_choices(dim)[i // 3 % 3]
            if bits > 64 and delta.numerator <= 2:
                # the bigint engine's threshold root is a Newton iteration
                # for p >= 3 in delta = p/q and about 3x cheaper otherwise
                steps *= 3
            st.add("simulate", cls,
                   dict(keys, delta=delta, n_max=steps // samples, samples=samples,
                        seed=rng.randrange(2 ** 32), precision_bits=bits),
                   samples=samples)


def _window(rng, st):
    # early windows: d = 2 only (in d = 1, and at delta = 2d, every start
    # hits within a few steps); delta = 5/2 keeps every time below 1025 on
    # the per-sample classification path, delta = 2 only those below 257
    for i in range(WINDOW_EARLY):
        keys, dim = _orbit_source(rng, st, ("bounded", "poly")[i % 2])
        delta = (Fraction(2), Fraction(5, 2))[i // 2 % 2]
        samples = 250 if delta == 2 else 75
        lo = rng.randrange(80, 121)
        hi = lo + rng.randrange(1500, 2500)
        st.add("simulate", "window_early",
               dict(keys, delta=delta, n_max=hi, samples=samples,
                    seed=rng.randrange(2 ** 32), precision_bits=64,
                    window=f"{lo},{hi}"),
               samples=samples, union_bound=str(_union_bound(dim, delta, lo, hi)))
    # late windows: the certified integer range of window n of a poly:p
    # build (criteria.window_bound), cut to a prefix of the given length
    late = [(1, 64, WINDOW_LATE_64, 1_000_000, 250),
            (2, 160, WINDOW_LATE_BIG // 2, 1000, 160),
            (3, 160, WINDOW_LATE_BIG - WINDOW_LATE_BIG // 2, 1000, 160)]
    for n, bits, count, length, samples in late:
        for i in range(count):
            p, depth = (4, 5)[i % 2], rng.randrange(5, 7)
            state = _build(_poly(p), depth)
            path = st.transcript(f"poly{p}_d{depth}", state)
            wb = criteria.window_bound(state.refined_theta(), state.linear_witnesses(),
                                       Fraction(2), n)
            lo, end = wb.integer_window()
            hi = min(end + 1, lo + length)
            st.add("simulate", f"window_late_{'64' if bits == 64 else 'big'}",
                   {"transcript": path, "refined": 1, "delta": 2, "n_max": hi,
                    "samples": samples, "seed": rng.randrange(2 ** 32),
                    "precision_bits": bits, "window": f"{lo},{hi}"},
                   samples=samples, bound_hi=str(wb.bound.hi))


def _union_bound(dim, delta, lo, hi):
    """Upper bound on the measure of the union over l in [lo, hi) of the
    balls B(-l theta, l^(-1/delta)): min(1, sum of (2 r_l)^dim), with each
    r_l = l^(-1/delta) rounded up on a 2^-64 grid."""
    p, q = delta.numerator, delta.denominator
    total = Fraction(0)
    for l in range(lo, hi):
        # smallest t with (t/2^64)^p >= l^-q
        t = iroot_ceil(-((-(1 << (64 * p))) // l ** q), p)
        total += Fraction(2 * t, 1 << 64) ** dim
        if total >= 1:
            return Fraction(1)
    return total


_GENERATORS = {"approx": _approx, "transfer": _transfer, "census": _census,
               "window": _window}


def generate(workload: str, seed: int, out_dir) -> list[dict]:
    """Write the inputs of one run into out_dir; returns the job list."""
    rng = random.Random(f"{workload}:{seed}")
    st = _Study(Path(out_dir))
    _GENERATORS[workload](rng, st)
    st.finish(workload, seed)
    return st.jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
