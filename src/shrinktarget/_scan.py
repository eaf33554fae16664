"""Internal scan engines.

Ground truth for approximation minima is brute force: walk every candidate
multiplier q (or every lattice vector in a sup-norm box) and take certified
minima.  All decisions use integer arithmetic over a common denominator D of
the vector's coordinates: the distance of q*theta to the lattice is the
integer D_q = max_i min(q*p_i mod D, D - q*p_i mod D) over D.  No floats
anywhere.

Multiplier scans (simultaneous records, baseline domination) run one numpy
engine for every D: a 64-bit fixed-point filter, then an exact re-check of
its survivors.  With P_i = floor(p_i * 2^64 / D), the position q*P_i wraps
mod 2^64 and a_q = max_i min(x, 2^64 - x) is the filter's distance.  Since
0 <= q*p_i*2^64/D - q*P_i < q and the distance is 1-Lipschitz,
|a_q - 2^64 * D_q / D| < q_max =: E.  A multiplier is kept ("hot") when a_q
could still satisfy the exact walk's test: a_q <= (running fixed-point
minimum) + fast + 2E for records, a_q <= fast + E for baseline domination,
with every exact bound rounded up to fixed point.  The exact running minimum
is within E of the fixed-point one, so the hot set contains every multiplier
the exact walk would look at; each hot q gets its exact D_q from Python ints
and goes through the exact logic, and every other q provably changes
nothing.

Certified bookkeeping: with a coordinate radius r, the distance attached to
multiplier q carries radius q*r (the lattice distance is 1-Lipschitz), and a
comparison between candidates q, q' is conclusive when the center gap exceeds
D*r*(q+q').  A cheap uniform integer margin covers almost every comparison;
the rare close calls are re-checked exactly, and a genuine overlap raises
PrecisionError naming the offending pair.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import DomainError, PrecisionError, ResourceError
from .exact import CertifiedScalar, CertifiedVector, Verdict

DEFAULT_BUDGET = 10**8
_NP_LIMIT = 1 << 62
_PY_ENUM_CAP = 6 * 10**6  # pure-python box enumeration ceiling
_CHUNK = 1 << 20  # multipliers per fixed-point block


def scan_data(theta: CertifiedVector) -> tuple[tuple[int, ...], int, Fraction]:
    nums, d = theta.common_denominator()
    return tuple(n % d for n in nums), d, theta.radius


def _margin(r: Fraction, d: int, scale: int) -> int:
    """Integer upper bound for D * r * scale (0 when r == 0)."""
    if r == 0 or scale <= 0:
        return 0
    v = r * d * scale
    return -((-v.numerator) // v.denominator)


def _order(dist_a: int, mult_a: int, dist_b: int, mult_b: int,
           den: int, r: Fraction) -> Verdict:
    """Certified order of two distances over den whose radii are mult*r."""
    if r == 0:
        return (Verdict.LESS if dist_a < dist_b
                else Verdict.EQUAL if dist_a == dist_b else Verdict.GREATER)
    a = CertifiedScalar(Fraction(dist_a, den), mult_a * r)
    b = CertifiedScalar(Fraction(dist_b, den), mult_b * r)
    return a.compare(b)


def _dist(nums, den: int, q: int) -> int:
    """Exact integer distance D_q of q*theta to the lattice, over den."""
    return max(min(m, den - m) for m in (q * p % den for p in nums))


def _fp_up(x: int, den: int) -> int:
    """ceil(x * 2^64 / den): an exact distance bound in fixed-point units."""
    return -((-x << 64) // den)


def _fp_blocks(nums, den: int, q_max: int):
    """Yield (q0, a) for blocks of multipliers q0, q0+1, ... <= q_max, where
    a holds the fixed-point distances a_q (uint64, each within q_max of
    2^64 * D_q / den)."""
    steps = [np.uint64((p << 64) // den) for p in nums]
    for q0 in range(1, q_max + 1, _CHUNK):
        qs = np.arange(q0, min(q0 + _CHUNK, q_max + 1), dtype=np.uint64)
        a = None
        for s in steps:
            x = qs * s  # wraps mod 2^64
            np.minimum(x, np.negative(x), out=x)
            a = x if a is None else np.maximum(a, x, out=a)
        yield q0, a


# ---------------------------------------------------------------------------
# simultaneous scans: candidates are integer multipliers 1..q_max


def simultaneous_scan(theta: CertifiedVector, q_max: int, *,
                      budget: int = DEFAULT_BUDGET, records: bool = True):
    """Walk q = 1..q_max tracking the running certified minimum of the
    distance from q*theta to the lattice.

    Returns (record list [(q, dist_int)], den, zero_terminated).  With
    records=False only the final minimum is kept (one-element list).
    A record is a strict running-min improvement; an exact zero value is
    emitted and terminates the walk when theta is exact.
    """
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    if q_max > budget:
        raise ResourceError(f"scan of {q_max} multipliers exceeds budget {budget}")
    nums, den, r = scan_data(theta)
    fast = _margin(r, den, 2 * q_max)
    exact = r == 0
    # fixed-point slack: the margin plus q_max for a_q and q_max for the
    # running minimum it is compared with
    slack = _fp_up(fast, den) + 2 * q_max
    best_d = -1
    best_q = 0
    out = []
    for q0, a in _fp_blocks(nums, den, q_max):
        if slack >= 1 << 63:  # degenerate radius: a_q <= 2^63 is always hot
            hot = range(len(a))
        else:
            # seed <= 2^63 and slack < 2^63, so seed + slack fits in uint64
            seed = np.uint64(_fp_up(best_d, den) if best_q else 1 << 63)
            lim = np.empty_like(a)
            lim[0] = seed
            np.minimum(np.minimum.accumulate(a[:-1]), seed, out=lim[1:])
            lim += np.uint64(slack)
            hot = np.flatnonzero(a <= lim).tolist()
        for i in hot:
            q = q0 + i
            dq = _dist(nums, den, q)
            if best_q == 0:
                best_d, best_q = dq, q
                out.append((q, dq))
                if best_d == 0 and exact:
                    return out, den, True
                continue
            if dq > best_d + fast:
                continue
            v = _order(dq, q, best_d, best_q, den, r)
            if v is Verdict.INCONCLUSIVE:
                raise PrecisionError(
                    f"cannot order |{q}*theta| against |{best_q}*theta| at radius {r}")
            if v is Verdict.LESS:
                best_d, best_q = dq, q
                if records:
                    out.append((q, dq))
                else:
                    out[-1] = (q, dq)
                if best_d == 0 and exact:
                    return out, den, True
    return out, den, False


# ---------------------------------------------------------------------------
# linear scans: candidates are nonzero integer vectors with sup-norm <= h.
# Sign symmetry lets us walk only the canonical half (first nonzero
# coordinate positive); ties are broken by lexicographic order, so witnesses
# are deterministic.


def _box_count(h: int, dim: int) -> int:
    return (2 * h + 1) ** dim


def _check_linear_budget(h, dim, budget):
    if h < 1:
        raise DomainError("box radius must be >= 1")
    if _box_count(h, dim) > budget:
        raise ResourceError(
            f"box scan of {_box_count(h, dim)} candidates exceeds budget {budget}")


def _py_canonical_shells(h, dim):
    """Yield (norm, [points]) for the canonical half box, shells ascending,
    lexicographic order inside a shell."""
    if _box_count(h, dim) > _PY_ENUM_CAP:
        raise ResourceError(
            f"pure-python enumeration of {_box_count(h, dim)} candidates refused; "
            "no integer fast path applies to this input")
    shells: dict[int, list[tuple[int, ...]]] = {}
    for pt in itertools.product(range(-h, h + 1), repeat=dim):
        for c in pt:
            if c > 0:
                break
            if c < 0:
                pt = None
                break
        if pt is None or not any(pt):
            continue
        shells.setdefault(max(abs(c) for c in pt), []).append(pt)
    for s in range(1, h + 1):
        yield s, sorted(shells.get(s, ()))


def _np_linear_rows(nums, den, h, dim):
    """Yield (s1, dist_row) for the canonical half box.

    dim == 2: one row per s1 in 0..h, each row indexed by s2 = -h..h
    (invalid cells masked to den, which exceeds any true distance).
    dim == 3: one row per (s1,) with a (2h+1)x(2h+1) grid over (s2, s3).
    """
    axes = [(np.arange(-h, h + 1, dtype=np.int64) * p) % den for p in nums]
    if dim == 2:
        a1, a2 = axes
        for s1 in range(0, h + 1):
            g = (a1[h + s1] + a2) % den
            row = np.minimum(g, den - g)
            if s1 == 0:
                row = row.copy()
                row[: h + 1] = den  # s2 <= 0 not canonical when s1 == 0
            yield (s1,), row
    elif dim == 3:
        a1, a2, a3 = axes
        base = (a2[:, None] + a3[None, :]) % den
        for s1 in range(0, h + 1):
            g = (a1[h + s1] + base) % den
            grid = np.minimum(g, den - g)
            if s1 == 0:
                grid = grid.copy()
                grid[:h, :] = den             # s2 < 0, and s2 == 0 ...
                grid[h, : h + 1] = den        # ... with s3 <= 0, not canonical
            yield (s1,), grid
    else:
        raise DomainError("numpy path only handles dim 2 or 3")


def _np_linear_ok(nums, den, h, fast=0):
    return (den > 1 and h * (den - 1) < _NP_LIMIT
            and 3 * den + fast < _NP_LIMIT)


def linear_min(theta: CertifiedVector, h: int, *, budget: int = DEFAULT_BUDGET):
    """Certified min of |<delta, theta>| over nonzero |delta|_sup <= h.

    Returns (CertifiedScalar, witness tuple).  Witness is the lexicographically
    first canonical minimizer of the center values.
    """
    dim = theta.dim
    _check_linear_budget(h, dim, budget)
    nums, den, r = scan_data(theta)
    if dim == 1:
        recs, den_, zero = simultaneous_scan(theta, h, budget=budget, records=False)
        q, dist = recs[-1]
        return CertifiedScalar(Fraction(dist, den_), q * r), (q,)
    if dim in (2, 3) and _np_linear_ok(nums, den, h, _margin(r, den, 2 * dim * h)):
        best = None
        best_at = None
        for head, row in _np_linear_rows(nums, den, h, dim):
            i = int(np.argmin(row))
            v = int(row.flat[i])
            if best is None or v < best:
                best = v
                best_at = head + np.unravel_index(i, row.shape)
        witness = _np_head_to_point(best_at, h, dim)
        if r != 0:
            fast = _margin(r, den, 2 * dim * h)
            for head, row in _np_linear_rows(nums, den, h, dim):
                for i in np.nonzero(row.ravel() <= best + fast)[0].tolist():
                    pt = _np_head_to_point(head + np.unravel_index(i, row.shape), h, dim)
                    if pt == witness:
                        continue
                    v = _order(int(row.flat[i]), _l1(pt), best, _l1(witness), den, r)
                    if v is Verdict.INCONCLUSIVE:
                        raise PrecisionError(
                            f"cannot order <{pt},theta> against <{witness},theta> at radius {r}")
        return CertifiedScalar(Fraction(best, den), _l1(witness) * r), witness
    # generic python walk (tie-break matches the numpy path: lexicographically
    # first canonical minimizer, not first-shell-first)
    best = None
    witness = None
    close = []
    for _s, pts in _py_canonical_shells(h, dim):
        for pt in pts:
            g = sum(c * p for c, p in zip(pt, nums)) % den
            dd = g if 2 * g < den else den - g
            if best is None or (dd, pt) < (best, witness):
                best, witness = dd, pt
            close.append((dd, pt))
    if r != 0:
        fast = _margin(r, den, 2 * dim * h)
        for dd, pt in close:
            if dd <= best + fast and pt != witness:
                v = _order(dd, _l1(pt), best, _l1(witness), den, r)
                if v is Verdict.INCONCLUSIVE:
                    raise PrecisionError(
                        f"cannot order <{pt},theta> against <{witness},theta> at radius {r}")
    return CertifiedScalar(Fraction(best, den), _l1(witness) * r), witness


def _l1(pt) -> int:
    return sum(abs(c) for c in pt)


def _np_head_to_point(idx, h, dim):
    v = tuple(int(c) for c in idx)
    if dim == 2:
        return (v[0], v[1] - h)
    return (v[0], v[1] - h, v[2] - h)


def linear_records(theta: CertifiedVector, h_max: int, *, budget: int = DEFAULT_BUDGET):
    """Strictly improving minima of |<delta, theta>| by increasing sup-norm
    shell.  Returns (records [(norm, witness, dist_int)], den, zero_terminated).
    """
    dim = theta.dim
    _check_linear_budget(h_max, dim, budget)
    nums, den, r = scan_data(theta)
    if dim == 1:
        recs, den_, zero = simultaneous_scan(theta, h_max, budget=budget)
        return [(q, (q,), dist) for q, dist in recs], den_, zero
    if dim == 2 and _np_linear_ok(nums, den, h_max, _margin(r, den, 4 * h_max)):
        return _np_linear_records_2d(nums, den, r, h_max)
    exact = r == 0
    out = []
    best_d = None
    best_pt = None
    for s, pts in _py_canonical_shells(h_max, dim):
        sh_best = None
        sh_pt = None
        for pt in pts:
            g = sum(c * p for c, p in zip(pt, nums)) % den
            dd = g if 2 * g < den else den - g
            if sh_best is None or dd < sh_best:
                sh_best, sh_pt = dd, pt
        if sh_best is None:
            continue
        if best_d is None:
            best_d, best_pt = sh_best, sh_pt
            out.append((s, sh_pt, sh_best))
        else:
            v = _order(sh_best, _l1(sh_pt), best_d, _l1(best_pt), den, r)
            if v is Verdict.INCONCLUSIVE:
                raise PrecisionError(
                    f"cannot order <{sh_pt},theta> against <{best_pt},theta> at radius {r}")
            if v is Verdict.LESS:
                best_d, best_pt = sh_best, sh_pt
                out.append((s, sh_pt, sh_best))
        if best_d == 0 and exact:
            return out, den, True
    return out, den, False


def _np_linear_records_2d(nums, den, r, h_max):
    p1, p2 = nums
    a2 = (np.arange(-h_max, h_max + 1, dtype=np.int64) * p2) % den
    exact = r == 0
    out = []
    best_d = None
    best_pt = None

    def consider(dd, pt, s):
        nonlocal best_d, best_pt
        if best_d is None:
            best_d, best_pt = dd, pt
            out.append((s, pt, dd))
            return
        v = _order(dd, _l1(pt), best_d, _l1(best_pt), den, r)
        if v is Verdict.INCONCLUSIVE:
            raise PrecisionError(
                f"cannot order <{pt},theta> against <{best_pt},theta> at radius {r}")
        if v is Verdict.LESS:
            best_d, best_pt = dd, pt
            out.append((s, pt, dd))

    fast = 0 if exact else _margin(r, den, 4 * h_max)
    for s in range(1, h_max + 1):
        # canonical shell: (0, s); (t, ±s) for 1 <= t < s; (s, -s..s)
        faces = []
        g = (s * p2) % den
        faces.append((min(g, den - g), (0, s)))
        if s > 1:
            ts = np.arange(1, s, dtype=np.int64)
            for s2 in (s, -s):
                g = (ts * p1 + (s2 * p2) % den) % den
                row = np.minimum(g, den - g)
                i = int(np.argmin(row))
                faces.append((int(row[i]), (1 + i, s2)))
        g = ((s * p1) % den + a2[h_max - s: h_max + s + 1]) % den
        row = np.minimum(g, den - g)
        i = int(np.argmin(row))
        faces.append((int(row[i]), (s, i - s)))
        sh_best, sh_pt = min(faces, key=lambda f: (f[0], f[1]))
        if best_d is None or sh_best < best_d + fast or (not exact and sh_best <= best_d + fast):
            consider(sh_best, sh_pt, s)
        if best_d == 0 and exact:
            return out, den, True
    return out, den, False


# ---------------------------------------------------------------------------
# baseline-domination scan (used by construction verification)


def all_greater_than_baseline(theta: CertifiedVector, q_hi: int, base_q: int,
                              exceptions: set[int], *, budget: int = DEFAULT_BUDGET):
    """Check |q*theta| > |base_q*theta| for every 1 <= q < q_hi outside
    `exceptions`.  Returns (violations, exception_report) where
    exception_report maps each scanned exception q to 'greater', 'leq' or
    'unresolved' (its empirical status, never enforced).

    Raises PrecisionError if some non-excepted comparison is inconclusive.
    """
    if q_hi - 1 > budget:
        raise ResourceError(f"scan of {q_hi - 1} multipliers exceeds budget {budget}")
    nums, den, r = scan_data(theta)
    base_dist = _dist(nums, den, base_q)
    fast = base_dist + _margin(r, den, q_hi + base_q)
    lim = _fp_up(fast, den) + q_hi  # a_q is within q_hi - 1 of the exact value
    violations = []
    report = {}
    for q0, a in _fp_blocks(nums, den, q_hi - 1):
        hot = (range(len(a)) if lim >= 1 << 63
               else np.flatnonzero(a <= np.uint64(lim)).tolist())
        for i in hot:
            q = q0 + i
            dist = _dist(nums, den, q)
            if dist > fast or q == base_q:
                continue
            v = _order(dist, q, base_dist, base_q, den, r)
            if q in exceptions:
                report[q] = {Verdict.GREATER: "greater", Verdict.LESS: "leq",
                             Verdict.EQUAL: "leq"}.get(v, "unresolved")
            elif v is Verdict.INCONCLUSIVE:
                raise PrecisionError(
                    f"comparison of |{q}*theta| with |{base_q}*theta| inconclusive; "
                    "extend the construction depth for a smaller radius")
            elif v is not Verdict.GREATER:
                violations.append(q)
    for q in exceptions:
        if 0 < q < q_hi and q not in report:
            # excepted multiplier never fell inside the fast margin: it is
            # conclusively greater
            report[q] = "greater"
    return violations, report
