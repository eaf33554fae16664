"""Internal scan engines.

Ground truth for approximation minima is brute force: walk every candidate
multiplier q (or every lattice vector in a sup-norm box) and take certified
minima.  All decisions use integer arithmetic over a common denominator D of
the vector's coordinates: the distance of q*theta to the lattice is the
integer D_q = max_i min(q*p_i mod D, D - q*p_i mod D) over D (exact._dist).
No floats anywhere.

Multiplier scans (simultaneous records, baseline domination) run one numpy
engine for every D: a 64-bit fixed-point filter, then an exact re-check of
its survivors.  With P_i = floor(p_i * 2^64 / D), the position q*P_i wraps
mod 2^64 and a_q = max_i min(x, 2^64 - x) is the filter's distance.  Since
0 <= q*p_i*2^64/D - q*P_i < q and the distance is 1-Lipschitz,
|a_q - 2^64 * D_q / D| < q_max =: E.  A multiplier is kept ("hot") when a_q
could still satisfy the exact walk's test: for records,
a_q <= min(2^63, min_{q' < q} a_q') + fast + 2E, and for baseline
domination a_q <= fast + E, with every exact bound rounded up to fixed
point.  The exact record is at most every earlier D_q', and each D_q' lies
within E of its a_q', so the hot set contains every multiplier the exact
walk would look at; each hot q gets its exact D_q from Python ints and goes
through the exact logic, and every other q provably changes nothing.  The
multipliers are filtered coordinate first: for L < 2^63, min(x, -x) <= L
exactly when x = q*P_1 lies in the circular range [-L, L].  The ramp
x_i = i*P_1, i < m = min(_RAMP, (q_max + 1) // 2), is one _Ramp per scan,
and the multipliers are copies of it, copy c shifted by (1 + c*m)*P_1: a
run of whole copies is one range per copy, all in one query (see
_Multipliers._run).  The test a_q <= L on every coordinate makes the
superset exact; the other coordinates and the running minimum only see the
candidates.  Both scans read the survivors run by run from
_Multipliers.walk, each run at the L read as it comes up; the baseline's L
is fixed.  Records take L = min(low + fast + 2E, 2^63), low the least a_q
before the run (2^63 before the first): a q with a_q > L is not hot,
and every survivor has a_q <= L, so a survivor is hot exactly when
a_q <= (running minimum of the run's survivors up to q) + fast + 2E.

Linear scans (linear_min, linear_records) take the nonzero integer vectors s
with |s|_sup <= h, first nonzero coordinate positive, and
D(s) = min(g, D - g) for g = <s, p> mod D.  The same filter puts cell s at
the wrapping position sum s_i*P_i with |a(s) - 2^64 * D(s) / D| <= E := d*h.
The tails (s_2, ..., s_d) are one _Ramp; each head s_1 = 0..h takes the
range [y - L, y + L] around y = -s_1*P_1, all heads in one query, and the
canonical cells are kept.  A range may add cells less than 2^bits past L,
which change nothing: each gets its exact D, and every minimizer, witness
and cell re-checked below lies within L.  A minimum: by the box
principle two of the (h+1)^d cells of {0..h}^d have values within
1/(h+1)^d on the circle, and their difference is a nonzero cell of the box,
so every exact minimizer has a(s) <= L := floor(2^64 / (h+1)^d) + E, every
cell within the fast margin of it has a(s) <= L + ceil(fast * 2^64 / D),
and the witness is the lexicographically first minimizer.  Records run
shells in doubling blocks (H/2, H]: the running record is the minimum over
the box of radius H/2, a shell whose minimum exceeds it by more than the
fast margin is conclusively greater, so the block only needs the cells with
a(s) <= ceil((record + fast) * 2^64 / D) + E.  It keeps those of its shells
within the fast margin and sorts them once, stably, by shell: each shell is
one run in lexicographic order, whose first least D is its lexicographically
first minimizer.  Ties: a minimum's witness is the lexicographically first
minimizer of the whole box; a record is set by the first shell that improves
on the last one, with that minimizer, and a later shell with an equal
minimum sets none.  After each shell's record decision the other cells of
its run within the fast margin of the record in force are ordered against
it in lexicographic order (_order_near), as linear_min orders the cells near
its witness.

Certified bookkeeping is theta's exact._Frame: the distance of multiplier q
carries radius q*r (the lattice distance is 1-Lipschitz), that of cell s
radius |s|_1*r.  Its margin ceil(D*r*scale), for the largest summed weight,
is the fast margin a candidate must lie within to matter; the few that do
are ordered by compare of their enclosures, and a genuine overlap raises
PrecisionError naming the offending pair.  bestapprox values each record's
integer distance over D by the frame the scan built (_Frame.of).
"""

from __future__ import annotations

import importlib.util
import sys
from functools import cached_property

from .errors import DomainError, PrecisionError, ResourceError
from .exact import CertifiedVector, Verdict, _dist, _Frame, _l1

DEFAULT_BUDGET = 10**8
_NP_LIMIT = 1 << 62
_CHUNK = 1 << 20  # linear cells per fixed-point block
_RAMP = 1 << 14  # sorted ramp entries, and the words of a run of ramp copies


def _lazy(name: str):
    """The module `name` without running it yet: the one in sys.modules when
    it is loaded, else one that importlib.util.LazyLoader runs on its first
    attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # as `import name` fails
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# the package's one numpy binding (orbit imports it from here): numpy loads
# at the first scan or orbit call, so exact-only work never pays its import
np = _lazy("numpy")


def _fp_up(x: int, den: int) -> int:
    """ceil(x * 2^64 / den): an exact distance bound in fixed-point units."""
    return -((-x << 64) // den)


def _d64(positions) -> np.ndarray:
    """Largest |pos| over the coordinates' uint64 (or uint32) positions, each
    read as signed: the distance to 0 on the circle, where |-2^63| wraps back
    to 2^63 (|-2^31| to 2^31).  Overwrites the positions."""
    d = None
    for pos in positions:
        signed = pos.view(f"i{pos.itemsize}")
        np.abs(signed, out=signed)
        d = pos if d is None else np.maximum(d, pos, out=d)
    return d


class _Ramp:
    """Steps i < n at uint64 positions x_i on the circle of 2^64, sorted as
    words: x_i with its low `bits` bits replaced by i (n <= 2^bits).

    The range query of every scan engine: a circular range [lo, lo + width]
    of positions holds the words from lo with its low bits cleared to
    lo + width with them set, so every step whose position lies in it and
    only steps within 2^bits - 1 of it.  The widened range must not reach
    around the circle: width <= 2^64 - 2^(bits+1) ([y - L, y + L] with
    L <= reach = 2^63 - 2^bits), or the whole circle, width 2^64 - 1 from a
    lo with its low bits clear.
    """

    def __init__(self, positions, bits: int):
        """Takes over the uint64 array positions as its words."""
        self.mask = np.uint64((1 << bits) - 1)
        self.reach = (1 << 63) - (1 << bits)
        self.words = words = positions
        words &= ~self.mask
        words |= np.arange(len(words), dtype=np.uint64)
        words.sort()
        self.index = words.astype(np.uint32)
        self.index &= np.uint32(self.mask)

    def ranges(self, lo, width: int):
        """(r, s, e) for the ranges [lo[j], lo[j] + width] (lo uint64): r,
        ascending, the places j whose first word on the circle from lo with
        its low bits cleared lies within width + 2^(bits+1) - 2 of it (so
        every range holding a word), whose upper ends alone are searched, and
        the slices [s, e) of the sorted words their ranges hold; a place
        p >= n stands for p - n, so a range across 2^64 is one slice."""
        low = lo & ~self.mask
        s = self.words.searchsorted(low)
        first = self.words.take(s, mode="wrap")
        first -= low
        r = np.flatnonzero(first <= np.uint64(min(width + 2 * int(self.mask), 2**64 - 1)))
        lo = lo[r]
        hi = lo + np.uint64(width)
        hi |= self.mask  # below lo where the range wraps past 2^64
        return r, s[r], self.words.searchsorted(hi, "right") + len(self.words) * (hi < lo)

    def gather(self, r, s, e):
        """(r, i): the steps i of the slices [s, e) of ranges(), slice by
        slice, each with the place r of its range (both uint32)."""
        lens = e - s
        cum = np.cumsum(lens)
        pos = np.arange(cum[-1] if len(cum) else 0, dtype=np.int32)
        pos += np.repeat((s - (cum - lens)).astype(np.int32), lens)
        return np.repeat(r.astype(np.uint32), lens), self.index.take(pos, mode="wrap")


class _Multipliers:
    """The fixed-point distances a_q of the multipliers 1..q_max, as copies of
    one ramp of m multipliers, copy c holding 1 + c*m, ..., (c + 1)*m: walk
    reads the survivors of one run of whole copies at a time (_run)."""

    def __init__(self, nums, den: int, q_max: int):
        self.q_max = q_max
        self.steps = [np.uint64((p << 64) // den) for p in nums]
        # no longer than two copies need to cover 1..q_max: a short scan sorts less
        self.m = min(_RAMP, (q_max + 1) // 2)

    @cached_property
    def ramp(self):
        """The ramp x_i = i*P_1, i < m, as a _Ramp of 14-bit indices."""
        return _Ramp(np.arange(self.m, dtype=np.uint64) * self.steps[0],
                     _RAMP.bit_length() - 1)

    def walk(self, limit):
        """Yield (q, a) for each run with survivors, in order: its
        multipliers q (uint64), ascending, with a_q <= limit(), and those
        a_q.  limit() is read once per run, as the run comes up."""
        q0 = 1
        while q0 <= self.q_max:
            q0, q, a = self._run(q0, limit())
            if len(q):
                yield q, a

    def _run(self, q0: int, limit: int):
        """(end, q, a): a run of whole copies from the copy start q0 to
        end - 1 (the last copy ends at q_max); its multipliers q (uint64),
        ascending, with a_q <= limit, and those a_q.  It queries the first
        copy, then as many more as would hold about 2*_RAMP words at that
        density (_RAMP at most: offsets stay below 2^32), and takes the most
        copies whose ranges hold at most _RAMP words (one at least: a copy's
        range holds at most m <= _RAMP): about _RAMP candidates however they
        cluster.  It takes every multiplier where the ranges hold as many,
        or past the ramp's reach."""
        limit = min(limit, 1 << 63)  # every a_q <= 2^63
        m, left = self.m, self.q_max + 1 - q0
        if limit > (1 << 63) - _RAMP:  # past the ramp's reach: every multiplier
            n, dense = min(_RAMP // m * m, left), True
        else:
            r, s, e = self._ranges(q0, 1, limit)
            more = min(-(-left // m) - 1, _RAMP, 2 * _RAMP // max(int((e - s).sum()), 1))
            if more:
                r2, s2, e2 = self._ranges(q0 + m, more, limit)
                r, s, e = (np.concatenate(p) for p in ((r, r2 + 1), (s, s2), (e, e2)))
            cum = np.zeros(1 + more, dtype=np.intp)  # the words of the copies up to each
            cum[r] = e - s
            np.cumsum(cum, out=cum)
            k = int(np.searchsorted(cum, _RAMP, "right"))
            n = min(k * m, left)
            dense = cum[k - 1] >= n
        if dense:
            i = np.arange(n, dtype=np.uint32)
        else:  # gather the ranges of the run's copies in one pass
            j = np.searchsorted(r, k)
            c, i = self.ramp.gather(r[:j], s[:j], e[:j])
            c *= np.uint32(m)
            i += c
            if n % m:  # the last copy ends at q_max
                i = i[i < n]
        q = i + np.uint64(q0)
        a = _d64(q * st for st in self.steps)  # the positions wrap mod 2^64
        keep = a <= np.uint64(limit)
        q, a = q[keep], a[keep]
        if not dense:
            o = q.argsort()
            q, a = q[o], a[o]
        return q0 + n, q, a

    def _ranges(self, start: int, copies: int, limit: int):
        """The ramp's ranges (r, s, e) of its copies from the multiplier
        start on, for a limit within its reach.  Copy c holds
        q = start + c*m + i; its survivors have x_i in [lo, lo + 2*limit] on
        the circle."""
        m = self.m
        lo = np.arange(start, start + copies * m, m, dtype=np.uint64)
        lo *= self.steps[0]  # wraps mod 2^64
        np.negative(lo, out=lo)
        lo -= np.uint64(limit)
        return self.ramp.ranges(lo, 2 * limit)


# ---------------------------------------------------------------------------
# simultaneous scans: candidates are integer multipliers 1..q_max


def simultaneous_scan(theta: CertifiedVector, q_max: int, *,
                      budget: int = DEFAULT_BUDGET):
    """Walk q = 1..q_max tracking the running certified minimum of the
    distance from q*theta to the lattice.

    Returns (records [(q, (q,), dist_int)], den, zero_terminated): each
    record is the (height, witness, dist_int) of linear_records, whose d = 1
    records these are.  A record is a strict running-min improvement, so the
    last record is the minimum over 1..q_max with its least multiplier; an
    exact zero value is emitted and terminates the walk when theta is exact.
    """
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    if q_max > budget:
        raise ResourceError(f"scan of {q_max} multipliers exceeds budget {budget}")
    frame = _Frame.of(theta)
    nums, den = frame.nums, frame.den
    fast = frame.margin(2 * q_max)
    exact = frame.r == 0
    # fixed-point slack: the margin plus q_max for a_q and q_max for the
    # running minimum it is compared with
    slack = _fp_up(fast, den) + 2 * q_max
    best_d = -1
    best_q = 0
    out = []
    low = 1 << 63  # the least a_q yielded so far
    # an exact scan stops at q = den at the latest, where D_q = 0
    mult = _Multipliers(nums, den, min(q_max, den) if exact else q_max)

    def limit():  # the filter limit of a run: a q above it is not hot
        return min(low + slack, 1 << 63)

    for qs, a in mult.walk(limit):
        low = min(low, int(a.min()))
        if slack < 1 << 63:  # else a degenerate radius: every a_q <= 2^63 is hot
            # a running minimum <= 2^63 plus slack < 2^63 fits in uint64
            qs = qs[a <= np.minimum.accumulate(a) + np.uint64(slack)]
        for q in qs.tolist():
            dq = _dist(nums, den, q)
            if best_q:  # a record must beat the running minimum
                if dq > best_d + fast:
                    continue
                v = frame.order(dq, q, best_d, best_q)
                if v is Verdict.INCONCLUSIVE:
                    raise PrecisionError(f"cannot order |{q}*theta| against "
                                         f"|{best_q}*theta| at radius {frame.r}")
                if v is not Verdict.LESS:
                    continue
            best_d, best_q = dq, q
            out.append((q, (q,), dq))
            if best_d == 0 and exact:
                return out, den, True
    return out, den, False


# ---------------------------------------------------------------------------
# linear scans: candidates are nonzero integer vectors with sup-norm <= h.
# Sign symmetry lets us walk only the canonical half (first nonzero
# coordinate positive); ties are broken by lexicographic order, so witnesses
# are deterministic.


def _check_linear_budget(h, dim, budget):
    """At d = 1 the scan is simultaneous_scan, which charges its h multipliers."""
    if h < 1:
        raise DomainError("box radius must be >= 1")
    cells = (2 * h + 1) ** dim
    if dim > 1 and cells > budget:
        raise ResourceError(f"box scan of {cells} candidates exceeds budget {budget}")


class _LinearBox:
    """The canonical half of the box |s|_sup <= h, filtered in 64-bit fixed
    point through one _Ramp of the tails (s_2, ..., s_d).

    Cell s has the key s_1 * T + t, where t is the lexicographic index of its
    tail among the T = (2h+1)^(d-1) tails, so key order is lexicographic
    order, and the canonical cells (first nonzero coordinate positive) are
    the keys > T // 2.  The heads s_1 = 0..h each take one range of the
    ramp, all in one query.
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
        self.ramp = _Ramp(x, (self.T - 1).bit_length())  # tail t has index t
        # cell (s_1, t) has filter distance |x_t - y|, y = -s_1*P_1
        self.y = np.negative(np.arange(h + 1, dtype=np.uint64) * steps[0])

    def scan(self, limit: int):
        """Yield (cells, dists), in lexicographic order and in chunks of about
        _CHUNK cells: the canonical cells whose filter distance is at most
        limit (and some less than 2^bits past it, see _Ramp), with their
        exact integer distances D over den."""
        T = self.T
        if limit > self.ramp.reach:  # every cell: each head takes the circle
            lo, width = np.zeros(len(self.y), dtype=np.uint64), 2**64 - 1
        else:  # the tails within limit of y: [y - limit, y + limit]
            lo, width = self.y - np.uint64(limit), 2 * limit
        r, s, e = self.ramp.ranges(lo, width)  # head s_1 = r
        cum = np.cumsum(e - s)
        k = 0
        while k < len(r):
            base = int(cum[k - 1]) if k else 0
            k1 = max(k + 1, min(len(r), int(np.searchsorted(cum, base + _CHUNK)) + 1))
            head, t = self.ramp.gather(r[k:k1], s[k:k1], e[k:k1])
            keys = head.astype(np.int64) * T + t
            keys.sort()
            keys = keys[keys.searchsorted(T // 2, "right"):]  # the canonical cells
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


def _order_cells(frame: _Frame, dist_a: int, pt_a, dist_b: int, pt_b) -> Verdict:
    """Certified order of <pt_a, theta> against <pt_b, theta>; PrecisionError
    when it is inconclusive."""
    v = frame.order(dist_a, _l1(pt_a), dist_b, _l1(pt_b))
    if v is Verdict.INCONCLUSIVE:
        raise PrecisionError(
            f"cannot order <{pt_a},theta> against <{pt_b},theta> at radius {frame.r}")
    return v


def _order_near(frame: _Frame, cells, dist, best: int, pt, fast: int):
    """Order against pt, whose distance is best, every other cell within the
    fast margin of it, in the given (lexicographic) order: PrecisionError
    names the first cell whose order is inconclusive."""
    for i in np.flatnonzero(dist <= best + fast).tolist():
        c = tuple(cells[i].tolist())
        if c != pt:
            _order_cells(frame, int(dist[i]), c, best, pt)


def linear_min(theta: CertifiedVector, h: int, *, budget: int = DEFAULT_BUDGET):
    """Certified min of |<delta, theta>| over nonzero |delta|_sup <= h.

    Returns (CertifiedScalar, witness tuple).  Witness is the lexicographically
    first canonical minimizer of the center values.
    """
    dim = theta.dim
    _check_linear_budget(h, dim, budget)
    frame = _Frame.of(theta)
    if dim == 1:  # the last record: the least multiplier of the minimum
        _q, witness, best = simultaneous_scan(theta, h, budget=budget)[0][-1]
    else:
        fast = frame.margin(2 * dim * h)
        box = _LinearBox(frame.nums, frame.den, h)
        # pigeonhole: two of the (h+1)^d cells of {0..h}^d have form values
        # within 1/(h+1)^d on the circle, and their difference is a cell of
        # the box, so every minimizer has a(s) <= 2^64 / (h+1)^d + E
        lim = (1 << 64) // (h + 1) ** dim + box.E
        best = witness = None
        for cells, dist in box.scan(lim):
            i = int(np.argmin(dist))
            if best is None or dist[i] < best:
                best, witness = int(dist[i]), tuple(cells[i].tolist())
        if frame.r:
            for cells, dist in box.scan(lim + _fp_up(fast, frame.den)):
                _order_near(frame, cells, dist, best, witness, fast)
    return frame.value(best, _l1(witness)), witness


def linear_records(theta: CertifiedVector, h_max: int, *, budget: int = DEFAULT_BUDGET):
    """Strictly improving minima of |<delta, theta>| by increasing sup-norm
    shell.  Returns (records [(norm, witness, dist_int)], den, zero_terminated).
    """
    dim = theta.dim
    _check_linear_budget(h_max, dim, budget)
    if dim == 1:
        return simultaneous_scan(theta, h_max, budget=budget)
    frame = _Frame.of(theta)
    nums, den = frame.nums, frame.den
    fast = frame.margin(2 * dim * h_max)
    exact = frame.r == 0
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
        parts = []  # the block's candidates, chunk by chunk, in lexicographic order
        for cells, dist in box.scan(limit):
            norm = np.abs(cells).max(axis=1)
            keep = norm > lo
            if best_d is not None:
                keep &= dist <= best_d + fast
            parts.append((norm[keep], cells[keep], dist[keep]))
        # parts is not empty: the record's own cell lies within the limit
        norm, cells, dist = (np.concatenate(p) for p in zip(*parts))
        o = np.argsort(norm, kind="stable")  # each shell one run, still lexicographic
        norm, cells, dist = norm[o], cells[o], dist[o]
        cuts = np.flatnonzero(np.diff(norm, prepend=-1, append=-1)).tolist()
        for a, b in zip(cuts, cuts[1:]):  # the run [a, b) of one shell
            i = a + int(np.argmin(dist[a:b]))  # the lexicographically first minimizer
            s, sh_best, sh_pt = int(norm[i]), int(dist[i]), tuple(cells[i].tolist())
            if best_d is None or _order_cells(
                    frame, sh_best, sh_pt, best_d, best_pt) is Verdict.LESS:
                best_d, best_pt = sh_best, sh_pt
                out.append((s, sh_pt, sh_best))
            if best_d == 0 and exact:
                return out, den, True
            # every other cell of the shell within the fast margin of the
            # record in force may reach below the record's enclosure: order
            # each against it, in lexicographic order
            _order_near(frame, cells[a:b], dist[a:b], best_d, best_pt, fast)
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
    frame = _Frame.of(theta)
    nums, den = frame.nums, frame.den
    base_dist = _dist(nums, den, base_q)
    fast = base_dist + frame.margin(q_hi + base_q)
    lim = _fp_up(fast, den) + q_hi  # a_q is within q_hi - 1 of the exact value
    violations = []
    report = {}
    for qs, _a in _Multipliers(nums, den, q_hi - 1).walk(lambda: lim):
        for q in qs.tolist():
            dist = _dist(nums, den, q)
            if dist > fast or q == base_q:
                continue
            v = frame.order(dist, q, base_dist, base_q)
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
