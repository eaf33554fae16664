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
could still satisfy the exact walk's test: a_q <= min(seed, running
fixed-point minimum) + fast + 2E for records, seed the exact record at the
block start (2^63 before the first), and a_q <= fast + E for baseline
domination, with every exact bound rounded up to fixed point.  The exact
running minimum is within E of the fixed-point one, so the hot set contains
every multiplier the exact walk would look at; each hot q gets its exact D_q
from Python ints and goes through the exact logic, and every other q
provably changes nothing.  Blocks double, [k, 2k), up to _BLOCK multipliers,
and are filtered coordinate first: for L < 2^63, min(x, -x) <= L exactly
when x = q*P_1 lies in the circular range [-L, L].  Once per scan the ramp
x_i = i*P_1, i < _RAMP, is sorted as keys: x_i with its low bits replaced by
i.  A block of n multipliers from q0 is ceil(n / _RAMP) copies of the ramp,
copy j shifted by (q0 + j*_RAMP)*P_1, so its survivors lie in one range of
keys per copy, found by binary search (the keys are stored twice over, so a
range that wraps past 2^64 is one slice).  The truncated keys give a
superset, the test a_q <= L on every coordinate makes it exact, and the
survivors are re-sorted by offset; when the ranges would hold n candidates
or more, the block takes every multiplier instead.  The other coordinates
and the running minimum only see the candidates.
Records take L = seed + fast + 2E: a q with a_q > L cannot lower
min(seed, .), and every survivor has a_q <= L, so a survivor is hot exactly
when a_q <= (running minimum of the survivors up to q) + fast + 2E.

Linear scans (linear_min, linear_records) take the nonzero integer vectors s
with |s|_sup <= h, first nonzero coordinate positive, and
D(s) = min(g, D - g) for g = <s, p> mod D.  The same filter puts cell s at
the wrapping position sum s_i*P_i with |a(s) - 2^64 * D(s) / D| <= E := d*h.
The positions of the tails (s_2, ..., s_d) are sorted once; head s_1 >= 1
then finds its nearest cells by np.searchsorted around -s_1*P_1 on the circle,
and s_1 = 0 takes the canonical tails alone.  A minimum: the least filter
distance a_min is within E of 2^64 * min D / D, so every exact minimizer has
a(s) <= a_min + 2E, and every cell within the fast margin of it has a(s) <=
a_min + 2E + ceil(fast * 2^64 / D); these candidates come from two range
queries per head, are put back in lexicographic order, get their exact D,
and the witness is the lexicographically first minimizer.  Records run
shells in doubling blocks (H/2, H]: the running record is the minimum over
the box of radius H/2, a shell whose minimum exceeds it by more than the
fast margin is conclusively greater, so the block only needs the cells with
a(s) <= ceil((record + fast) * 2^64 / D) + E.  Ties: a minimum's witness is
the lexicographically first minimizer of the whole box; a record is set by
the first shell that improves on the last one, with its lexicographically
first minimizer, and a later shell with an equal minimum sets none.  With a
radius, after each shell's record decision every other cell of the shell
within the fast margin of the record in force is ordered against it, as
linear_min orders the cells near its witness.

Certified bookkeeping: with a coordinate radius r, the distance attached to
multiplier q carries radius q*r (the lattice distance is 1-Lipschitz), and a
comparison between candidates q, q' is conclusive when the center gap exceeds
D*r*(q+q').  A cheap uniform integer margin covers almost every comparison;
the rare close calls are re-checked exactly, and a genuine overlap raises
PrecisionError naming the offending pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, PrecisionError, ResourceError
from .exact import CertifiedScalar, CertifiedVector, Verdict

DEFAULT_BUDGET = 10**8
_NP_LIMIT = 1 << 62
_CHUNK = 1 << 20  # linear cells per fixed-point block
_BLOCK = 1 << 16  # widest block of multipliers
_RAMP = 1 << 14  # sorted ramp entries: a block is up to _BLOCK / _RAMP copies


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


class _Multipliers:
    """The fixed-point distances a_q of the multipliers 1..q_max, in doubling
    blocks [1, 1], [2, 3], [4, 7], ..., at most _BLOCK wide."""

    def __init__(self, nums, den: int, q_max: int):
        self.q_max = q_max
        self.steps = [np.uint64((p << 64) // den) for p in nums]
        self.m = min(_RAMP, (q_max + 1) // 2)  # every block has n <= (q_max + 1) // 2

    @cached_property
    def keys(self):
        """The ramp x_i = i*P_1, i < m, as sorted keys (x_i with its low bits
        replaced by i), twice over so that a circular range is one slice."""
        i = np.arange(self.m, dtype=np.uint64)
        keys = i * self.steps[0]
        keys &= np.uint64((1 << 64) - _RAMP)  # clear the low bits
        keys |= i
        keys.sort()
        return np.concatenate([keys, keys])

    def blocks(self):
        """Yield (q0, n): the multipliers q0, ..., q0 + n - 1."""
        q0 = 1
        while q0 <= self.q_max:
            n = min(q0, _BLOCK, self.q_max + 1 - q0)
            yield q0, n
            q0 += n

    def _candidates(self, q0: int, n: int, limit: int):
        """The offsets i < n, unsorted, of a superset of the multipliers whose
        first coordinate is within limit < 2^63."""
        m, step, keys = self.m, int(self.steps[0]), self.keys
        head = keys[:m]
        parts = []
        for j in range(0, n, _RAMP):
            # the copy from offset j holds q = q0 + j + i; its survivors have
            # x_i in [lo, hi = lo + 2*limit] on the circle, so their keys lie
            # between lo with its low bits cleared and hi with them set
            lo = (-(q0 + j) * step - limit) % (1 << 64)
            hi = lo + 2 * limit
            s = int(head.searchsorted(np.uint64(lo & -_RAMP)))
            e = int(head.searchsorted(np.uint64(hi % (1 << 64) | (_RAMP - 1)), "right"))
            if hi >> 64:  # wraps past 2^64: on into the second copy of the keys
                e = min(e + m, s + m)
            i = keys[s:e] & np.uint64(_RAMP - 1)
            if j:
                i += np.uint64(j)
            parts.append(i)
        i = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return i[i < n] if n < len(parts) * m else i

    def hits(self, q0: int, n: int, limit: int):
        """(i, a): the offsets i < n, ascending, with a_{q0+i} <= limit, and
        those a_{q0+i}.  Below 2^63 a range query in the sorted ramp gives
        a superset, which the test on every coordinate makes exact."""
        limit = min(limit, 1 << 63)  # every a_q <= 2^63
        # each copy's range covers a share 2*limit / 2^64 of its m keys: when
        # the candidates would number n or more, take every multiplier
        dense = limit * self.m * -(-n // _RAMP) >= n << 63
        i = np.arange(n, dtype=np.uint64) if dense else self._candidates(q0, n, limit)
        qs = i + np.uint64(q0)
        a = np.uint64(0)
        for s in self.steps:
            x = qs * s  # wraps mod 2^64
            a = np.maximum(a, np.minimum(x, np.negative(x), out=x), out=x)
        keep = a <= np.uint64(limit)
        i, a = i[keep], a[keep]
        if not dense:
            o = i.argsort()
            i, a = i[o], a[o]
        return i, a


# ---------------------------------------------------------------------------
# simultaneous scans: candidates are integer multipliers 1..q_max


def simultaneous_scan(theta: CertifiedVector, q_max: int, *,
                      budget: int = DEFAULT_BUDGET):
    """Walk q = 1..q_max tracking the running certified minimum of the
    distance from q*theta to the lattice.

    Returns (record list [(q, dist_int)], den, zero_terminated).  A record is
    a strict running-min improvement, so the last record is the minimum over
    1..q_max with its least multiplier; an exact zero value is emitted and
    terminates the walk when theta is exact.
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
    # an exact scan stops at q = den at the latest, where D_q = 0
    mult = _Multipliers(nums, den, min(q_max, den) if exact else q_max)
    for q0, n in mult.blocks():
        if slack >= 1 << 63:  # degenerate radius: a_q <= 2^63 is always hot
            hot = range(n)
        else:
            seed = _fp_up(best_d, den) if best_q else 1 << 63
            idx, a = mult.hits(q0, n, seed + slack)
            # a running minimum <= 2^63 plus slack < 2^63 fits in uint64
            hot = idx[a <= np.minimum.accumulate(a) + np.uint64(slack)].tolist()
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
                out.append((q, dq))
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


class _LinearBox:
    """The canonical half of the box |s|_sup <= h, filtered in 64-bit fixed
    point through one sorted list of the tails (s_2, ..., s_d).

    Cell s has the key s_1 * T + t, where t is the lexicographic index of its
    tail among the T = (2h+1)^(d-1) tails, so key order is lexicographic
    order; with s_1 = 0 only the tails t > T // 2 (first nonzero coordinate
    positive) are canonical.
    """

    def __init__(self, nums, den: int, h: int):
        self.nums, self.den, self.h = nums, den, h
        self.E = len(nums) * h  # |filter distance - 2^64 * D / den| <= E
        steps = [np.uint64((p << 64) // den) for p in nums]
        side = np.arange(-h, h + 1).astype(np.uint64)  # s mod 2^64
        x = np.zeros(1, dtype=np.uint64)
        for step in steps[1:]:
            x = (x[:, None] + side * step).ravel()
        self.T = len(x)
        self.head0 = np.minimum(x, np.negative(x))[self.T // 2 + 1:]
        self.order = np.argsort(x)
        self.sorted = x[self.order]
        # cell (s_1, t) with s_1 >= 1 has filter distance |x_t - y| on the
        # circle, y = -s_1*P_1
        self.y = np.negative(np.arange(1, h + 1, dtype=np.uint64) * steps[0])

    def filter_min(self) -> int:
        """Least filter distance over the canonical cells: for each head the
        circular nearest neighbour of y in the sorted tails."""
        i = np.searchsorted(self.sorted, self.y)
        up = self.sorted[i % self.T] - self.y
        dn = self.y - self.sorted[i - 1]
        a = np.minimum(np.minimum(up, np.negative(up)), np.minimum(dn, np.negative(dn)))
        return int(min(a.min(), self.head0.min()))

    def scan(self, limit: int):
        """Yield (cells, dists): the canonical cells whose filter distance is
        at most limit, in lexicographic order and in chunks of about _CHUNK
        cells, with their exact integer distances D over den."""
        T, h = self.T, self.h
        first = T // 2 + 1
        if limit >= 1 << 63:  # every cell
            starts = np.zeros((h, 2), dtype=np.int64)
            stops = np.zeros((h, 2), dtype=np.int64)
            stops[:, 0] = T
            keys = np.arange(first, T)
        else:
            # the tails within limit of y: [y - limit, y + limit] on the
            # circle, one or two index ranges of the sorted list
            lim = np.uint64(limit)
            lo, hi = self.y - lim, self.y + lim
            i0 = np.searchsorted(self.sorted, lo, "left")
            i1 = np.searchsorted(self.sorted, hi, "right")
            wrap = lo > hi
            starts = np.stack([i0, np.zeros_like(i0)], axis=1)
            stops = np.stack([np.where(wrap, T, i1), np.where(wrap, i1, 0)], axis=1)
            keys = first + np.flatnonzero(self.head0 <= lim)
        if len(keys):
            yield self._exact(keys)
        lens = stops - starts
        cum = np.cumsum(lens.sum(axis=1))
        k = 0
        while k < h:
            base = int(cum[k - 1]) if k else 0
            k1 = max(k + 1, min(h, int(np.searchsorted(cum, base + _CHUNK)) + 1))
            st, ln = starts[k:k1].ravel(), lens[k:k1].ravel()
            pos = np.repeat(st - (np.cumsum(ln) - ln), ln) + np.arange(int(cum[k1 - 1]) - base)
            keys = np.repeat(np.arange(k + 1, k1 + 1) * T, lens[k:k1].sum(axis=1))
            keys += self.order[pos]
            keys.sort()
            if len(keys):
                yield self._exact(keys)
            k = k1

    def _exact(self, keys):
        s1, t = np.divmod(keys, self.T)
        tail = np.unravel_index(t, (2 * self.h + 1,) * (len(self.nums) - 1))
        cells = np.stack([s1, *tail], axis=1)
        cells[:, 1:] -= self.h
        if self.E * self.den < _NP_LIMIT:  # |<s, p>| < 2^62: int64 is exact
            g = cells @ np.array(self.nums, dtype=np.int64) % self.den
        else:
            g = cells.astype(object) @ np.array(self.nums, dtype=object) % self.den
        return cells, np.minimum(g, self.den - g)


def _l1(pt) -> int:
    return sum(abs(c) for c in pt)


def _order_cells(dist_a: int, pt_a, dist_b: int, pt_b, den: int, r: Fraction) -> Verdict:
    """Certified order of <pt_a, theta> against <pt_b, theta>; PrecisionError
    when it is inconclusive."""
    v = _order(dist_a, _l1(pt_a), dist_b, _l1(pt_b), den, r)
    if v is Verdict.INCONCLUSIVE:
        raise PrecisionError(
            f"cannot order <{pt_a},theta> against <{pt_b},theta> at radius {r}")
    return v


def linear_min(theta: CertifiedVector, h: int, *, budget: int = DEFAULT_BUDGET):
    """Certified min of |<delta, theta>| over nonzero |delta|_sup <= h.

    Returns (CertifiedScalar, witness tuple).  Witness is the lexicographically
    first canonical minimizer of the center values.
    """
    dim = theta.dim
    _check_linear_budget(h, dim, budget)
    nums, den, r = scan_data(theta)
    if dim == 1:
        recs, den_, zero = simultaneous_scan(theta, h, budget=budget)
        q, dist = recs[-1]
        return CertifiedScalar(Fraction(dist, den_), q * r), (q,)
    fast = _margin(r, den, 2 * dim * h)
    box = _LinearBox(nums, den, h)
    # every minimizer lies within 2E of the least filter distance
    lim = box.filter_min() + 2 * box.E
    best = witness = None
    for cells, dist in box.scan(lim):
        i = int(np.argmin(dist))
        if best is None or dist[i] < best:
            best, witness = int(dist[i]), tuple(cells[i].tolist())
    if r != 0:
        for cells, dist in box.scan(lim + _fp_up(fast, den)):
            for i in np.flatnonzero(dist <= best + fast).tolist():
                pt = tuple(cells[i].tolist())
                if pt != witness:
                    _order_cells(int(dist[i]), pt, best, witness, den, r)
    return CertifiedScalar(Fraction(best, den), _l1(witness) * r), witness


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
    fast = _margin(r, den, 2 * dim * h_max)
    exact = r == 0
    out = []
    best_d = None
    best_pt = None
    lo = 0
    while lo < h_max:
        # shells lo < s <= hi; best_d is the minimum over the box of radius
        # lo, and a shell whose minimum exceeds best_d + fast is conclusively
        # greater, so only the cells within that limit matter
        hi = min(2 * lo, h_max) or 1
        box = _LinearBox(nums, den, hi)
        limit = 1 << 63 if best_d is None else _fp_up(best_d + fast, den) + box.E
        shells = {}
        kept = []
        for cells, dist in box.scan(limit):
            norm = np.abs(cells).max(axis=1)
            keep = norm > lo
            if best_d is not None:
                keep &= dist <= best_d + fast
            norm, cells, dist = norm[keep], cells[keep], dist[keep]
            if not exact:
                kept.append((norm, cells, dist))
            idx = np.lexsort((dist, norm))  # stable: lexicographic among ties
            for i in idx[np.flatnonzero(np.diff(norm[idx], prepend=-1))].tolist():
                s = int(norm[i])
                if s not in shells or dist[i] < shells[s][0]:
                    shells[s] = (int(dist[i]), tuple(cells[i].tolist()))
        if kept:  # only with a radius
            k_norm, k_cells, k_dist = (np.concatenate(a) for a in zip(*kept))
        for s in sorted(shells):
            sh_best, sh_pt = shells[s]
            if best_d is None:
                best_d, best_pt = sh_best, sh_pt
                out.append((s, sh_pt, sh_best))
            elif _order_cells(sh_best, sh_pt, best_d, best_pt, den, r) is Verdict.LESS:
                best_d, best_pt = sh_best, sh_pt
                out.append((s, sh_pt, sh_best))
            if best_d == 0 and exact:
                return out, den, True
            if exact:
                continue
            # every other cell of the shell within the fast margin of the
            # record in force may reach below the record's enclosure: order
            # each against it, in lexicographic order
            for i in np.flatnonzero((k_norm == s) & (k_dist <= best_d + fast)).tolist():
                pt = tuple(k_cells[i].tolist())
                if pt != best_pt:
                    _order_cells(int(k_dist[i]), pt, best_d, best_pt, den, r)
        lo = hi
    return out, den, False


# ---------------------------------------------------------------------------
# baseline-domination scan (used by construction verification)


def all_greater_than_baseline(theta: CertifiedVector, q_hi: int, base_q: int,
                              exceptions: set[int]):
    """Check |q*theta| > |base_q*theta| for every 1 <= q < q_hi outside
    `exceptions`.  Returns (violations, exception_report) where
    exception_report maps each scanned exception q to 'greater', 'leq' or
    'unresolved' (its empirical status, never enforced).

    Raises PrecisionError if some non-excepted comparison is inconclusive.
    """
    if q_hi - 1 > DEFAULT_BUDGET:
        raise ResourceError(
            f"scan of {q_hi - 1} multipliers exceeds budget {DEFAULT_BUDGET}")
    nums, den, r = scan_data(theta)
    base_dist = _dist(nums, den, base_q)
    fast = base_dist + _margin(r, den, q_hi + base_q)
    lim = _fp_up(fast, den) + q_hi  # a_q is within q_hi - 1 of the exact value
    violations = []
    report = {}
    mult = _Multipliers(nums, den, q_hi - 1)
    for q0, n in mult.blocks():
        for i in mult.hits(q0, n, lim)[0].tolist():
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
