"""Internal scan engines against brute-force references.

The multiplier scans are checked against `oracle_simultaneous` and
`oracle_baseline`: the plain per-q walks, with every decision made on exact
integers, that the fixed-point engine must reproduce record for record and
error for error, and the survivor walk of `_Multipliers` is checked run by
run against `oracle_copy_hits`, a walk over the ramp copies of one run, one
query per copy.  The linear scans are checked the same way against
`oracle_linear_min` and `oracle_linear_records`, walks over every canonical
cell of the box, shell by shell.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shrinktarget import _scan
from shrinktarget._scan import (_RAMP, DEFAULT_BUDGET, _LinearBox, _Multipliers, _Ramp,
                                all_greater_than_baseline, linear_min, linear_records,
                                simultaneous_scan)
from shrinktarget.bestapprox import best_linear, linear_error
from shrinktarget.errors import DomainError, PrecisionError, ResourceError
from shrinktarget.exact import (CertifiedScalar, CertifiedVector, Verdict, _Frame,
                                dist_nearest_int, dist_nearest_lattice)

F = Fraction


def brute_simultaneous(coords, q_max):
    """Reference: all q whose lattice distance beats every smaller q."""
    out, best = [], None
    for q in range(1, q_max + 1):
        d = dist_nearest_lattice([q * c for c in coords])
        if best is None or d < best:
            out.append((q, d))
            best = d
            if d == 0:
                break
    return out


def brute_linear_min(coords, h):
    dim = len(coords)
    best = None
    for delta in itertools.product(range(-h, h + 1), repeat=dim):
        if all(c == 0 for c in delta):
            continue
        d = dist_nearest_int(sum(a * c for a, c in zip(delta, coords)))
        if best is None or d < best:
            best = d
    return best


small_coord = st.fractions(min_value=0, max_value=1).filter(
    lambda f: f.denominator <= 997)


@settings(deadline=None, max_examples=25)
@given(st.lists(small_coord, min_size=1, max_size=2), st.integers(1, 60))
def test_simultaneous_scan_matches_bruteforce(coords, q_max):
    theta = CertifiedVector(coords)
    records, den, _exact_zero = simultaneous_scan(theta, q_max)
    got = [(q, F(num, den)) for q, _w, num in records]
    assert got == brute_simultaneous(coords, q_max)
    assert all(w == (q,) for q, w, _num in records)


@settings(deadline=None, max_examples=25)
@given(st.lists(small_coord, min_size=1, max_size=2), st.integers(1, 8))
def test_linear_min_matches_bruteforce(coords, h):
    theta = CertifiedVector(coords)
    value, witness = linear_min(theta, h)
    assert value.value == brute_linear_min(coords, h)
    # the witness must achieve the reported distance
    achieved = dist_nearest_int(
        sum(a * c for a, c in zip(witness, coords)))
    assert achieved == value.value


def test_linear_records_signs_canonical():
    theta = CertifiedVector((F(2, 7), F(3, 11)))
    records, _den, _flag = linear_records(theta, 12)
    assert records, "expected at least one record"
    for _h, delta, _num in records:
        first = next(c for c in delta if c != 0)
        assert first > 0, "leading nonzero coordinate must be positive"


def test_linear_records_first_is_one_over_77():
    # <(1,-1), (2/7, 3/11)> = 1/77: the smallest error at height 1
    theta = CertifiedVector((F(2, 7), F(3, 11)))
    records, den, _ = linear_records(theta, 1)
    h, delta, num = records[0]
    assert (h, delta, F(num, den)) == (1, (1, -1), F(1, 77))


def test_budget_guard_trips():
    """And an empty scan is a DomainError: no multiplier, or a box radius
    below 1."""
    theta = CertifiedVector((F(2, 7), F(3, 11), F(5, 13)))
    with pytest.raises(ResourceError):
        linear_min(theta, 10**6)
    assert DEFAULT_BUDGET == 10**8
    with pytest.raises(DomainError, match="q_max must be >= 1"):
        simultaneous_scan(theta, 0)
    with pytest.raises(DomainError, match="box radius must be >= 1"):
        linear_min(theta, 0)


def test_all_greater_than_baseline_detects_smaller():
    # 2/7: q=3 gives 1/7 < 2/7 and q=4 gives 1/7 <= 2/7 as well
    theta = CertifiedVector((F(2, 7),))
    offenders, _ = all_greater_than_baseline(theta, 6, 1, exceptions=set())
    assert offenders == [3, 4]
    offenders, noted = all_greater_than_baseline(theta, 6, 1, exceptions={3})
    assert offenders == [4] and 3 in noted
    offenders, _ = all_greater_than_baseline(theta, 2, 1, exceptions=set())
    assert offenders == []


# --- exact per-q walks: the oracle for the multiplier scans --------------------


def _verdict(dist_a, mult_a, dist_b, mult_b, den, r):
    a = CertifiedScalar(F(dist_a, den), mult_a * r)
    b = CertifiedScalar(F(dist_b, den), mult_b * r)
    return a.compare(b)


def _walk(nums, den, q_hi):
    """Yield (q, D_q) for q = 1..q_hi - 1, D_q the exact integer distance."""
    ms = [0] * len(nums)
    for q in range(1, q_hi):
        dist = 0
        for i, p in enumerate(nums):
            m = ms[i] + p
            if m >= den:
                m -= den
            ms[i] = m
            dist = max(dist, m if (m << 1) < den else den - m)
        yield q, dist


def oracle_simultaneous(theta, q_max, records=True):
    """simultaneous_scan as a plain walk over every q."""
    frame = _Frame(theta)
    nums, den, r = frame.nums, frame.den, frame.r
    fast = frame.margin(2 * q_max)
    exact = r == 0
    best_d, best_q, out = -1, 0, []
    for q, dist in _walk(nums, den, q_max + 1):
        if best_q and dist > best_d + fast:
            continue
        if best_q == 0:
            best_d, best_q = dist, q
            out.append((q, (q,), dist))
        elif dist < best_d or (not exact and dist <= best_d + fast):
            v = _verdict(dist, q, best_d, best_q, den, r)
            if v is Verdict.INCONCLUSIVE:
                raise PrecisionError(
                    f"cannot order |{q}*theta| against |{best_q}*theta| at radius {r}")
            if v is Verdict.LESS:
                best_d, best_q = dist, q
                if records:
                    out.append((q, (q,), dist))
                else:
                    out[-1] = (q, (q,), dist)
        if best_d == 0 and exact:
            return out, den, True
    return out, den, False


def oracle_baseline(theta, q_hi, base_q, exceptions):
    """all_greater_than_baseline as a plain walk over every q."""
    frame = _Frame(theta)
    nums, den, r = frame.nums, frame.den, frame.r
    base_dist = max(min(base_q * p % den, -base_q * p % den) for p in nums)
    fast = base_dist + frame.margin(q_hi + base_q)
    violations, report = [], {}
    for q, dist in _walk(nums, den, q_hi):
        if dist > fast or q == base_q:
            continue
        v = _verdict(dist, q, base_dist, base_q, den, r)
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
            report[q] = "greater"
    return violations, report


def outcome(fn, *args, **kwargs):
    """Result of fn, or the PrecisionError text it raised; reports are
    compared with their key order."""
    try:
        res = fn(*args, **kwargs)
    except PrecisionError as exc:
        return "PrecisionError", str(exc)
    if isinstance(res[1], dict):
        return res[0], list(res[1].items())
    return res


def _near(x):
    return st.integers(-40, 40).map(lambda k: x + k)


# denominators: 1, small (exact zero termination), 2^60..2^140, around the
# uint64 word (2^63, 2^64); _straddle adds the int64 overflow line of q*p
DENS = st.one_of(st.just(1), st.integers(2, 600), st.integers(2**60, 2**140),
                 _near(2**63), _near(2**64))
Q_MAX = st.one_of(st.integers(1, 30), st.integers(300, 1500))


@st.composite
def _radius(draw, den):
    kind = draw(st.sampled_from(["exact", "exact", "tiny", "close", "huge"]))
    if kind == "exact":
        return F(0)
    if kind == "huge":  # degenerate: every comparison is inconclusive
        return F(1, draw(st.integers(2, 50)))
    bits = den.bit_length() + (16 if kind == "tiny" else 0)
    return F(1, 2 ** max(1, bits - draw(st.integers(0, 24))))


@st.composite
def _theta_for(draw, den, q_max, dim=None):
    # numerators uniform in [0, den) (plain integer draws crowd the ends of
    # the range, where q*theta stays near 0 and every scan is one record),
    # with the odd edge value; the first one is a unit so den is exact
    rnd = draw(st.randoms(use_true_random=True))
    edges = [0, 1, den - 1, den // 2]
    nums = [draw(st.sampled_from(edges)) if draw(st.integers(0, 5)) == 0
            else rnd.randrange(den) for _ in range(dim or draw(st.integers(1, 3)))]
    while den > 1 and math.gcd(nums[0], den) != 1:
        nums[0] = rnd.randrange(1, den)
    theta = CertifiedVector([F(p, den) for p in nums], draw(_radius(den)))
    assert _Frame(theta).den == den
    return theta, q_max


@st.composite
def _scan_case(draw):
    return draw(_theta_for(draw(DENS), draw(Q_MAX)))


@st.composite
def _straddle(draw):
    """q_max*(den - 1) within a few units of 2^62, on either side: the
    largest q*p_i of the scan at the edge of exact int64 arithmetic."""
    q_max = draw(Q_MAX)
    den = max(2, (1 << 62) // q_max + 1 + draw(st.integers(-3, 3)))
    return draw(_theta_for(den, q_max))


CASES = st.one_of(_scan_case(), _straddle())


@settings(deadline=None, max_examples=150)
@given(CASES)
# the radii 11 r = 55/629 of |6 theta| = 5/37 and |5 theta| = 2/37 exceed
# their gap 3/37 = 51/629, which a fast margin of only q_max multipliers skips
@example((CertifiedVector((F(7, 37),), F(5, 629)), 6))
def test_simultaneous_scan_matches_oracle(case):
    theta, q_max = case
    got = outcome(simultaneous_scan, theta, q_max)
    assert got == outcome(oracle_simultaneous, theta, q_max)
    # the last record is the running minimum that a minimum-only walk keeps
    final = outcome(oracle_simultaneous, theta, q_max, records=False)
    assert final == (got if got[0] == "PrecisionError" else (got[0][-1:], *got[1:]))


@settings(deadline=None, max_examples=150)
@given(CASES, st.data())
def test_all_greater_than_baseline_matches_oracle(case, data):
    theta, q_hi = case
    base_q = data.draw(st.integers(1, q_hi + 3))
    exceptions = (set(range(q_hi)) if data.draw(st.integers(0, 7)) == 0
                  else set(data.draw(st.lists(st.integers(0, q_hi + 3), max_size=6))))
    assert (outcome(all_greater_than_baseline, theta, q_hi, base_q, exceptions)
            == outcome(oracle_baseline, theta, q_hi, base_q, exceptions))


def test_exact_theta_terminates_at_zero():
    theta = CertifiedVector((F(3, 7), F(5, 11)))
    got = simultaneous_scan(theta, 10**6)
    assert got == oracle_simultaneous(theta, 10**6)
    assert got[2] and got[0][-1] == (77, (77,), 0)
    assert simultaneous_scan(CertifiedVector((F(0),)), 5) == ([(1, (1,), 0)], 1, True)


def test_scans_cross_ramp_copies_on_big_denominator():
    # a 2^64-size prime denominator with a radius, over eight full ramp copies
    den = 2**64 - 59
    theta = CertifiedVector((F(7640891576956012809, den),), F(1, 2**90))
    q_max = 8 * _RAMP + 300
    assert simultaneous_scan(theta, q_max) == oracle_simultaneous(theta, q_max)
    recs, _den, _zero = simultaneous_scan(theta, q_max)
    base_q = recs[-2][0]
    exceptions = {recs[-1][0], 4 * _RAMP + 7}
    assert (all_greater_than_baseline(theta, q_max, base_q, exceptions)
            == oracle_baseline(theta, q_max, base_q, exceptions))


def _filter_value(nums, den, q):
    """The engine's fixed-point distance a_q, from Python ints."""
    one = 1 << 64
    return max(min(x, one - x) for x in (q * ((p << 64) // den) % one for p in nums))


def _filter_values(nums, den, q_max):
    """a_q for q = 1..q_max in one uint64 pass over every multiplier: the
    walk's range queries must give what this gives."""
    q = np.arange(1, q_max + 1, dtype=np.uint64)
    a = np.zeros(q_max, dtype=np.uint64)
    for p in nums:
        x = q * np.uint64((p << 64) // den)  # wraps mod 2^64
        a = np.maximum(a, np.minimum(x, np.negative(x)))
    return a


def _copies(mult):
    """(q0, n) for each copy of the ramp: q0 = 1 + c*m, the last ending at q_max."""
    return [(q0, min(mult.m, mult.q_max + 1 - q0)) for q0 in range(1, mult.q_max + 1, mult.m)]


def _check_walk(nums, den, q_max, limit, copy):
    """_Multipliers.walk at a fixed limit: its yields are ascending and
    disjoint, each after the one before, and together exactly the
    q <= q_max with a_q <= limit, with those a_q; the a_q of the ramp copy
    (q0, n) are checked against Python ints."""
    got_q, got_a, last = [], [], 0
    for q, a in _Multipliers(nums, den, q_max).walk(lambda: limit):
        qs = q.tolist()
        assert qs and qs == sorted(set(qs)) and last < qs[0] and len(a) == len(q)
        last = qs[-1]
        got_q += qs
        got_a += a.tolist()
    values = _filter_values(nums, den, q_max)
    want = np.flatnonzero(values <= min(limit, 2**63))
    assert got_q == (want + 1).tolist() and got_a == values[want].tolist()
    q0, n = copy
    assert values[q0 - 1:q0 - 1 + n].tolist() == [_filter_value(nums, den, q)
                                                  for q in range(q0, q0 + n)]


LIMITS = st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64]),
                   st.integers(0, 63).flatmap(lambda b: st.integers(0, 2**b - 1)))


@settings(deadline=None, max_examples=120)
@given(DENS, st.integers(1, 4), st.sampled_from([1, 2, 600, 4 * _RAMP - 1, 4 * _RAMP,
                                                 12 * _RAMP + 5]), LIMITS, st.data())
def test_filter_hits_are_the_multipliers_within_the_limit(den, dim, q_max, limit, data):
    """_Multipliers.walk at a fixed limit against a pass over every q: the
    survivors are exactly the q with a_q <= limit (_check_walk), in whole
    ramp copies and in a short last one, with a drawn copy's a_q from
    Python ints."""
    theta, _q = data.draw(_theta_for(den, q_max, dim))
    nums = _Frame(theta).nums
    copies = _copies(_Multipliers(nums, den, q_max))
    assert copies[0][0] == 1 and sum(n for _q0, n in copies) == q_max
    _check_walk(nums, den, q_max, limit, data.draw(st.sampled_from(copies)))


@settings(deadline=None, max_examples=150)
@given(DENS, st.integers(1, 3),
       st.sampled_from([_RAMP - 1, _RAMP, _RAMP + 1, 2 * _RAMP + 3, 4 * _RAMP,
                        8 * _RAMP + 5]),
       st.sampled_from(["drawn", "edge", "wrap"]), LIMITS, st.data())
def test_ramp_index_hits_match_the_filter_values(den, dim, q_max, kind, limit, data):
    """_Multipliers.walk against a pass over every q, where the sorted ramp
    matters: q_max around one and a few copies of it (8 * _RAMP + 5 has
    eight full copies and a short last one), denominators up to _RAMP (the
    ramp repeats and its keys tie), near 2^63 and 2^64 and beyond.  In a
    drawn ramp copy an "edge" limit puts a survivor's first coordinate on
    an end of its range, and a "wrap" limit makes the copy's range cross
    2^64."""
    rnd = data.draw(st.randoms(use_true_random=True))
    nums = [rnd.randrange(den) for _ in range(dim)]
    q0, n = data.draw(st.sampled_from(_copies(_Multipliers(nums, den, q_max))))
    if kind == "edge":
        # q's largest coordinate first, and the limit at its value
        q = q0 + data.draw(st.integers(0, n - 1))
        nums.sort(key=lambda p: -_filter_value([p], den, q))
        limit = _filter_value(nums, den, q)
    elif kind == "wrap":
        # the copy's first multiplier q0, with q0*P_1 within the limit of 0
        nums[0] = den * data.draw(st.integers(1, q0)) // q0 % den
        near = _filter_value(nums[:1], den, q0) + limit % (1 << 40)
        limit = min(max(near, _filter_value(nums, den, q0)), 2**63 - 1)
    _check_walk(nums, den, q_max, limit, (q0, n))


@st.composite
def _ramp_case(draw):
    """(positions, bits, los, width): a ramp and ranges of one width.  The
    index widths are the multiplier ramp's 14, the window grid's 16 and an
    odd 5, a d = 2 box's tails at h = 8.  Positions are multiples of a step
    over a denominator up to 600 (tied words), grid keys << 16, or drawn;
    ranges are one key (width 0), narrow, as wide as allowed, or the whole
    circle from a lo with its low bits clear, and lie anywhere, at a
    position, or across 2^64."""
    bits = draw(st.sampled_from([5, 14, 16]))
    n = draw(st.integers(1, min(1 << bits, 1000)))
    kind = draw(st.sampled_from(["tied", "grid", "drawn"]))
    rnd = draw(st.randoms(use_true_random=True))
    if kind == "tied":
        den = draw(st.integers(1, 600))
        step = (rnd.randrange(den) << 64) // den
        pos = [i * step % 2**64 for i in range(n)]
    elif kind == "grid":
        pos = [rnd.randrange(draw(st.sampled_from([4, 2**20, 2**48]))) << 16 for _ in range(n)]
    else:
        pos = [rnd.randrange(2**64) for _ in range(n)]
    widest = 2**64 - 2**(bits + 1)
    width = draw(st.one_of(st.sampled_from([0, 1, widest, 2**64 - 1]),
                           st.integers(0, 2**draw(st.integers(0, 63)))))
    los = []
    for _ in range(draw(st.integers(1, 12))):
        where = draw(st.sampled_from(["any", "at", "wrap"]))
        lo = rnd.randrange(2**64)
        if where == "at":
            lo = (rnd.choice(pos) + draw(st.integers(-3, 3))) % 2**64
        elif where == "wrap":
            lo = (2**64 - min(width, widest) // 2 - draw(st.integers(0, 5))) % 2**64
        los.append(lo & -(1 << bits) if width == 2**64 - 1 else lo)
    return pos, bits, los, width if width == 2**64 - 1 else min(width, widest)


@settings(deadline=None, max_examples=200)
@given(_ramp_case())
def test_ramp_ranges_match_a_circular_filter(case):
    """_Ramp.ranges and gather against a brute-force filter of the words on
    the circle: each range [lo, lo + width] gives, in word order from lo,
    exactly the steps whose word lies between lo with its low bits cleared
    and lo + width with them set.  So it holds every step whose position is
    in the range, and only steps whose position is within 2^bits - 1 of
    it, the two bounds of the docstring; the whole circle holds each step
    once, and the listed ranges include every range that holds a step."""
    pos, bits, los, width = case
    mask = (1 << bits) - 1
    ramp = _Ramp(np.array(pos, dtype=np.uint64), bits)
    r, s, e = ramp.ranges(np.array(los, dtype=np.uint64), width)
    assert r.tolist() == sorted(set(r.tolist())) and (e >= s).all()
    place, steps = ramp.gather(r, s, e)
    words = np.array([x & ~mask | i for i, x in enumerate(pos)], dtype=np.uint64)
    x = np.array(pos, dtype=np.uint64)
    for j, lo in enumerate(los):
        first, last = lo & ~mask, (lo + width) % 2**64 | mask
        rel = words - np.uint64(first)  # mod 2^64
        want = np.flatnonzero(rel <= np.uint64((last - first) % 2**64))
        want = want[np.argsort(rel[want])].tolist()
        got = steps[place == j].tolist()
        assert got == want
        if width == 2**64 - 1:
            assert sorted(got) == list(range(len(pos)))
            continue
        inside = np.flatnonzero(x - np.uint64(lo) <= np.uint64(width))
        assert set(inside.tolist()) <= set(got)
        assert (x[got] - np.uint64((lo - mask) % 2**64) <= np.uint64(width + 2 * mask)).all()
    assert set(place.tolist()) <= set(r.tolist())


def test_linear_box_tails_are_an_odd_width_ramp():
    """A d = 2 box at h = 8 packs its 17 tails with 5 index bits.  A scan at
    any limit returns, in lexicographic order, every canonical cell whose
    filter distance is at most the limit, and only cells less than 2^5 past
    it (every cell past the ramp's reach)."""
    nums, den = [5871239457, 11234567891], 2**34 - 41
    box = _LinearBox(nums, den, 8)
    assert box.T == 17 and int(box.ramp.mask) == 31
    steps = [(p << 64) // den for p in nums]
    value = {}
    for c in itertools.product(range(-8, 9), repeat=2):
        if c > (0, 0):
            v = (c[0] * steps[0] + c[1] * steps[1]) % 2**64
            value[c] = min(v, 2**64 - v)
    for limit in (0, 2**40, 2**58, box.ramp.reach, box.ramp.reach + 1, 2**63 - 1):
        cells = [tuple(c) for chunk, _d in box.scan(limit) for c in chunk.tolist()]
        assert cells == sorted(cells)
        assert {c for c, v in value.items() if v <= limit} <= set(cells)
        assert all(value[c] < limit + 32 for c in cells)


def oracle_copy_hits(mult, q0, n, limit):
    """The hits of the multipliers q0, ..., q0 + n - 1 from a copy start q0
    by the per-copy walk: one query of the sorted ramp (a single range of
    _Ramp.ranges, read by _Ramp.gather) for each copy, then the test on
    every coordinate."""
    limit = min(limit, 1 << 63)
    m, step, ramp = mult.m, int(mult.steps[0]), mult.ramp
    if limit > ramp.reach:
        i = np.arange(n, dtype=np.uint64)
    else:
        parts = []
        for j in range(0, n, m):
            lo = (-(q0 + j) * step - limit) % (1 << 64)
            found = ramp.ranges(np.array([lo], dtype=np.uint64), 2 * limit)
            parts.append(ramp.gather(*found)[1].astype(np.uint64) + np.uint64(j))
        i = np.concatenate(parts)
        i = np.sort(i[i < n])
    qs = i + np.uint64(q0)
    a = np.zeros(len(i), dtype=np.uint64)
    for s in mult.steps:
        x = qs * s
        a = np.maximum(a, np.minimum(x, np.negative(x)))
    keep = a <= np.uint64(limit)
    return i[keep], a[keep]


def _held(mult, q0, limit):
    """The words that the range of the copy from q0 holds at a limit within
    the ramp's reach, from a query of that one range."""
    lo = (-q0 * int(mult.steps[0]) - limit) % (1 << 64)
    found = mult.ramp.ranges(np.array([lo], dtype=np.uint64), 2 * limit)
    return len(mult.ramp.gather(*found)[1])


def oracle_run_end(mult, q0, limit):
    """The end of the run from the copy start q0, copy by copy: past the
    ramp's reach _RAMP // m copies; else the first copy and as many more as
    would hold 2*_RAMP words at its density (_RAMP at most), of which the
    most whose ranges hold at most _RAMP words together."""
    limit = min(limit, 1 << 63)
    m, left = mult.m, mult.q_max + 1 - q0
    if limit > mult.ramp.reach:
        return q0 + min(_RAMP // m * m, left)
    held = _held(mult, q0, limit)
    k = 1
    for c in range(1, 1 + min(-(-left // m) - 1, _RAMP, 2 * _RAMP // max(held, 1))):
        held += _held(mult, q0 + c * m, limit)
        if held > _RAMP:
            break
        k += 1
    return q0 + min(k * m, left)


def _spy_runs(runs):
    """A stand-in for _Multipliers._run that checks each run against the
    per-copy oracles and appends (q0, end, limit, q) to runs."""
    run = _Multipliers._run

    def spy(mult, q0, limit):
        res = end, q, a = run(mult, q0, limit)
        assert (q0 - 1) % mult.m == 0 and end == oracle_run_end(mult, q0, limit) > q0
        want_i, want_a = oracle_copy_hits(mult, q0, end - q0, limit)
        assert (q - np.uint64(q0)).tolist() == want_i.tolist()
        assert a.tolist() == want_a.tolist()
        runs.append((q0, end, limit, q.tolist()))
        return res
    return spy


@settings(deadline=None, max_examples=150)
@given(DENS, st.integers(1, 3), st.sampled_from([600, _RAMP + 1, 12 * _RAMP + 5]),
       st.integers(1, 8), st.sampled_from(["drawn", "wrap"]), LIMITS, st.data())
def test_runs_match_the_per_block_oracle(den, dim, q_max, k, kind, limit, data):
    """The walk against the per-copy oracles run by run, with a limit that
    falls at every k-th read: each run (a spy on _run) reads a limit of its
    own, holds whole copies from a copy start to the end of its rule
    (oracle_run_end), and has the survivors of oracle_copy_hits at that
    limit; the runs tile 1..q_max, and the walk yields the survivors of
    each run that has some.  12 * _RAMP + 5 ends in a short last copy;
    denominators up to 600 make the ramp's keys tie; a "wrap" vector puts
    the range of a drawn copy across 2^64."""
    rnd = data.draw(st.randoms(use_true_random=True))
    nums = [rnd.randrange(den) for _ in range(dim)]
    mult = _Multipliers(nums, den, q_max)
    if kind == "wrap":
        # a copy start q with q*P_1 within the limit of 0
        q = data.draw(st.sampled_from(_copies(mult)))[0]
        nums[0] = den * data.draw(st.integers(1, q)) // q % den
        limit = min(_filter_value(nums[:1], den, q) + limit % (1 << 40), 2**63 - 1)
        mult = _Multipliers(nums, den, q_max)
    reads, runs = [], []

    def falling():
        if not reads:
            reads.append(limit)
        elif len(reads) % k == 0:
            reads.append(data.draw(st.integers(0, reads[-1])))
        else:
            reads.append(reads[-1])
        return reads[-1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Multipliers, "_run", _spy_runs(runs))
        got = [q.tolist() for q, _a in mult.walk(falling)]
    assert [lim for _q0, _end, lim, _q in runs] == reads
    assert runs[0][0] == 1 and runs[-1][1] == q_max + 1
    assert all(end == nxt for (_q, end, *_r), (nxt, *_s) in zip(runs, runs[1:]))
    assert got == [q for *_r, q in runs if q]


@pytest.mark.parametrize("q_max, limit, ends", [
    (_RAMP, (1 << 63) - _RAMP, [_RAMP + 1]),
    (2 * _RAMP, (1 << 63) - _RAMP, [_RAMP + 1, 2 * _RAMP + 1]),
    (_RAMP, 1 << 63, [_RAMP + 1]),
    (2 * _RAMP + 1, 1 << 63, [_RAMP + 1, 2 * _RAMP + 1, 2 * _RAMP + 2])],
    ids=["halves-at-reach", "copies-at-reach", "halves-past-reach", "short-past-reach"])
def test_runs_hold_at_most_the_ramp(q_max, limit, ends):
    """At the ramp's reach every copy's range holds all m of its words: the
    two copies of m = _RAMP / 2 hold _RAMP words and are one run, and a
    copy of m = _RAMP is a run of its own.  Past the reach a run takes
    every multiplier of _RAMP // m copies."""
    den = 2**64 - 59
    mult = _Multipliers([7640891576956012809], den, q_max)
    if limit <= mult.ramp.reach:
        assert all(_held(mult, q0, limit) == mult.m for q0, _n in _copies(mult))
    runs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Multipliers, "_run", _spy_runs(runs))
        list(mult.walk(lambda: limit))
    assert [end for _q0, end, *_r in runs] == ends


def _hot_records(theta, q_max):
    """The multipliers simultaneous_scan re-checks exactly, from Python ints:
    q is hot when a_q <= min(2^63, a_q' for every q' < q) + slack, slack the
    margin plus 2*q_max, up to the zero of an exact theta."""
    frame = _Frame(theta)
    nums, den = frame.nums, frame.den
    recs, _den, zero = oracle_simultaneous(theta, q_max)
    slack = -((-frame.margin(2 * q_max) << 64) // den) + 2 * q_max
    hot, low = [], 1 << 63
    for q in range(1, q_max + 1):
        a = _filter_value(nums, den, q)
        if a <= low + slack:
            hot.append(q)
        low = min(low, a)
    return [q for q in hot if not zero or q <= recs[-1][0]]


def _rechecked(scan, *args):
    """The multipliers whose exact distance scan(*args) computes, in order."""
    seen, dist = [], _scan._dist

    def logged(nums, den, q):
        seen.append(q)
        return dist(nums, den, q)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_scan, "_dist", logged)
        scan(*args)
    return seen


@settings(deadline=None, max_examples=60)
@given(_scan_case())
def test_records_recheck_the_specified_hot_set(case):
    """The records re-check exactly the multipliers of the hot-set rule: a
    value within the slack of the least one before it, capped at 2^63."""
    theta, q_max = case
    try:
        expected = _hot_records(theta, q_max)
    except PrecisionError:
        return
    assert _rechecked(simultaneous_scan, theta, q_max) == expected


# an exact theta that reaches no zero, and one with a radius
EDGE_THETAS = [CertifiedVector((F(1414213562373095048, 2**61 - 1),
                                F(1732050807568877293, 2**61 - 1))),
               CertifiedVector((F(7640891576956012809, 2**64 - 59),
                                F(3141592653589793238, 2**64 - 59)), F(1, 2**96))]


@pytest.mark.parametrize("q_max", [_RAMP - 1, _RAMP + 1, 2 * _RAMP - 1, 2 * _RAMP + 1,
                                   4 * _RAMP - 1, 4 * _RAMP, 4 * _RAMP + 1, 8 * _RAMP + 1])
@pytest.mark.parametrize("theta", EDGE_THETAS, ids=["exact", "radius"])
def test_scans_at_ramp_copy_ends(theta, q_max):
    """Both multiplier scans against their oracles where q_max is a whole
    number of ramp copies or one off it, with the records' and the
    baseline's hot sets.  Below 2 * _RAMP the ramp has (q_max + 1) // 2
    entries, and the scan is two copies, the last one short by one or
    none."""
    got = simultaneous_scan(theta, q_max)
    assert got == oracle_simultaneous(theta, q_max)
    assert _rechecked(simultaneous_scan, theta, q_max) == _hot_records(theta, q_max)
    recs = got[0]
    base_q = recs[-2][0]
    exceptions = {recs[-1][0], q_max - 1}
    assert (all_greater_than_baseline(theta, q_max, base_q, exceptions)
            == oracle_baseline(theta, q_max, base_q, exceptions))
    frame = _Frame(theta)
    nums, den = frame.nums, frame.den
    fast = max(min(base_q * p % den, -base_q * p % den) for p in nums) + frame.margin(
        q_max + base_q)
    lim = -((-fast << 64) // den) + q_max
    hot = [q for q in range(1, q_max) if _filter_value(nums, den, q) <= lim]
    assert _rechecked(all_greater_than_baseline, theta, q_max, base_q,
                      exceptions) == [base_q, *hot]


@pytest.mark.parametrize("theta", EDGE_THETAS, ids=["exact", "radius"])
def test_runs_read_the_least_value_before_them(theta):
    """A record scan queries each run at min(2^63, low + slack), low the
    least a_q before the run: the first run takes every multiplier at 2^63,
    and records land past the first copy of a later run, whose limit they
    do not lower.  The re-checks are still the hot set and the records the
    oracle's."""
    q_max = 12 * _RAMP + 5
    frame = _Frame(theta)
    nums, den = frame.nums, frame.den
    slack = -((-frame.margin(2 * q_max) << 64) // den) + 2 * q_max
    runs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Multipliers, "_run", _spy_runs(runs))
        got = simultaneous_scan(theta, q_max)
    assert got == oracle_simultaneous(theta, q_max)
    low = np.minimum.accumulate(_filter_values(nums, den, q_max)).tolist()
    assert [lim for _q0, _end, lim, _q in runs] == [
        min(2**63, (low[q0 - 2] if q0 > 1 else 2**63) + slack) for q0, *_r in runs]
    assert runs[0][2] == 2**63 > runs[1][2]
    assert any(q0 + _RAMP <= q < end for q, *_r in got[0] for q0, end, *_r in runs[1:])
    assert _rechecked(simultaneous_scan, theta, q_max) == _hot_records(theta, q_max)


# the unit of the scan memory bounds below: 2^16 uint64 words
_BLOCK = 1 << 16


def test_scan_memory_does_not_grow_with_the_range():
    """Peak traced allocation (numpy reports its buffers to tracemalloc) of a
    d = 3 record scan and a baseline scan on a 34-bit denominator: ten times
    the multipliers take at most twice the memory, and both stay within a
    few blocks of uint64."""
    den = 2**34 - 41
    theta = CertifiedVector([F(p, den) for p in (5871239457, 11234567891, 3141592653)])
    base_q = simultaneous_scan(theta, 10**7)[0][-1][0]
    peaks = {}
    for q_max in (10**6, 10**7):
        for name, scan, args in (("records", simultaneous_scan, (theta, q_max)),
                                 ("baseline", all_greater_than_baseline,
                                  (theta, q_max, base_q, set()))):
            tracemalloc.start()
            try:
                scan(*args)
                peaks[name, q_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for name in ("records", "baseline"):
        assert peaks[name, 10**7] <= 2 * peaks[name, 10**6]
    assert max(peaks.values()) < 4 * _BLOCK * 8


def test_scan_memory_on_a_clustered_first_coordinate():
    """Peak traced allocation where the first coordinate is 1/3: every third
    multiplier passes the first-coordinate range query at any limit, so a
    run must be cut by the candidates its copies actually hold."""
    den = 3 * (2**40 + 15)
    theta = CertifiedVector([F(1, 3), F(1555555555553, den)])
    base_q = simultaneous_scan(theta, 10**7)[0][-1][0]
    peaks = []
    for q_max in (10**6, 10**7):
        for scan, args in ((simultaneous_scan, (theta, q_max)),
                           (all_greater_than_baseline, (theta, q_max, base_q, set()))):
            tracemalloc.start()
            try:
                scan(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 4 * _BLOCK * 8


@pytest.mark.parametrize("den", [2**63 - 25, 2**63 + 29, 2**64 - 59, 2**64 + 13,
                                 2**100 + 277, 2**140 + 1])
def test_one_unit_ties_on_big_denominators(den):
    # a baseline tie: |1*theta| = |2*theta| = x
    x = den // 2 - 3
    x -= x % 2
    tie = CertifiedVector((F(x // 2, den), F(x, den)))
    assert all_greater_than_baseline(tie, 3, 1, set()) == ([2], {})
    assert all_greater_than_baseline(tie, 3, 1, {2}) == ([], {2: "leq"})
    # a record by one unit of 1/den: |1*theta| = x at position x (a_1 rounds
    # down), |2*theta| = x - 1 at position den - x + 1 (a_2 rounds up); from
    # 2^64 on, pick one where a_2 > a_1, which only the slack recovers
    for k in range(3, 400):
        x = den // 2 - k
        nums = ((den - x + 1) // 2, x)
        if (den - x) % 2 and (den < 2**64 - 59
                              or _filter_value(nums, den, 2) > _filter_value(nums, den, 1)):
            break
    else:
        raise AssertionError("no filter inversion found")
    step = CertifiedVector([F(p, den) for p in nums])
    recs, den_, _zero = simultaneous_scan(step, 2)
    assert den_ == den and [(q, x - d) for q, _w, d in recs] == [(1, 0), (2, 1)]
    for theta in (tie, step):
        for q_max in (2, 50):
            assert simultaneous_scan(theta, q_max) == oracle_simultaneous(theta, q_max)
            assert (all_greater_than_baseline(theta, q_max, 1, set())
                    == oracle_baseline(theta, q_max, 1, set()))


# --- exact per-shell walks: the oracle for the linear scans --------------------


def canonical_shells(h, dim):
    """Yield (norm, [points]) for the canonical half box (first nonzero
    coordinate positive), shells ascending, lexicographic inside a shell."""
    shells = {}
    for pt in itertools.product(range(-h, h + 1), repeat=dim):
        lead = next((c for c in pt if c), 0)
        if lead > 0:
            shells.setdefault(max(abs(c) for c in pt), []).append(pt)
    for s in range(1, h + 1):
        yield s, sorted(shells[s])


def _form_dist(nums, den, pt):
    g = sum(c * p for c, p in zip(pt, nums)) % den
    return min(g, den - g)


def _l1(pt):
    return sum(abs(c) for c in pt)


def oracle_linear_min(theta, h):
    """linear_min as a walk over every canonical cell: the lexicographically
    first minimizer, then every cell within the fast margin ordered against
    it, in lexicographic order."""
    frame = _Frame(theta)
    nums, den, r = frame.nums, frame.den, frame.r
    cells = sorted(pt for _s, pts in canonical_shells(h, theta.dim) for pt in pts)
    dists = [_form_dist(nums, den, pt) for pt in cells]
    best = min(dists)
    witness = cells[dists.index(best)]
    fast = frame.margin(2 * theta.dim * h)
    for dd, pt in zip(dists, cells):
        if r != 0 and dd <= best + fast and pt != witness:
            if _verdict(dd, _l1(pt), best, _l1(witness), den, r) is Verdict.INCONCLUSIVE:
                raise PrecisionError(
                    f"cannot order <{pt},theta> against <{witness},theta> at radius {r}")
    return (best, _l1(witness) * r, den), witness


def oracle_linear_records(theta, h_max):
    """linear_records as a walk over every shell: the shell's
    lexicographically first minimizer ordered against the running record,
    then, with a radius, every other cell of the shell within the fast
    margin of the record in force ordered against it, in lexicographic
    order."""
    frame = _Frame(theta)
    nums, den, r = frame.nums, frame.den, frame.r
    fast = frame.margin(2 * theta.dim * h_max)
    out, best_d, best_pt = [], None, None
    for s, pts in canonical_shells(h_max, theta.dim):
        dists = [(_form_dist(nums, den, pt), pt) for pt in pts]
        sh_best, sh_pt = min(dists)
        if best_d is None:
            best_d, best_pt = sh_best, sh_pt
            out.append((s, sh_pt, sh_best))
        else:
            v = _verdict(sh_best, _l1(sh_pt), best_d, _l1(best_pt), den, r)
            if v is Verdict.INCONCLUSIVE:
                raise PrecisionError(
                    f"cannot order <{sh_pt},theta> against <{best_pt},theta> at radius {r}")
            if v is Verdict.LESS:
                best_d, best_pt = sh_best, sh_pt
                out.append((s, sh_pt, sh_best))
        if best_d == 0 and r == 0:
            return out, den, True
        for dd, pt in dists:
            if r != 0 and dd <= best_d + fast and pt != best_pt:
                if _verdict(dd, _l1(pt), best_d, _l1(best_pt), den, r) is Verdict.INCONCLUSIVE:
                    raise PrecisionError(
                        f"cannot order <{pt},theta> against <{best_pt},theta> at radius {r}")
    return out, den, False


def _linear_min_out(theta, h):
    value, witness = linear_min(theta, h)
    frame = _Frame(theta)
    nums, den = frame.nums, frame.den
    return (value.value * den, value.radius, den), witness


H_MAX = {2: 40, 3: 9, 4: 4}


@st.composite
def _linear_case(draw):
    """(theta, h): d = 2..4 over tie-heavy, 30-34-bit, word-size and
    multi-word denominators, or with h*(den - 1) or d*h*(den - 1) (the
    int64 limit of the exact re-check) within a few units of 2^62."""
    dim = draw(st.sampled_from([2, 3, 4]))
    h = draw(st.integers(1, H_MAX[dim]))
    kind = draw(st.sampled_from(["tie", "tie", "mid", "word", "multi", "straddle"]))
    if kind == "tie":
        den = draw(st.one_of(st.just(1), st.integers(2, 2**13)))
    elif kind == "mid":
        den = draw(st.integers(2**30, 2**34))
    elif kind == "word":
        den = draw(_near(2**64))
    elif kind == "multi":
        den = draw(st.integers(2**65, 2**140))
    else:
        scale = h * draw(st.sampled_from([1, dim]))
        den = (1 << 62) // scale + 1 + draw(st.integers(-3, 3))
    return draw(_theta_for(den, h, dim))[0], h


@settings(deadline=None, max_examples=200)
@given(_linear_case())
def test_linear_min_matches_oracle(case):
    theta, h = case
    assert outcome(_linear_min_out, theta, h) == outcome(oracle_linear_min, theta, h)


@settings(deadline=None, max_examples=200)
@given(_linear_case())
def test_linear_records_matches_oracle(case):
    theta, h = case
    assert outcome(linear_records, theta, h) == outcome(oracle_linear_records, theta, h)


def test_linear_records_order_every_cell_near_the_record():
    """theta = (1/10, 4/5 - 10^-6) with radius 10^-5: shell 1 has its minimum
    at (1, 0), and (1, 1) is within the radius of it.  At theta + (r, r),
    inside the ball, (1, 1) gives 99981/10^6, below the lower end 9999/10^5
    of the (1, 0) enclosure, so no scan may certify that record.

    theta = (3904, 2368)/7185 with radius 2/18681: the minimum of the box of
    radius 8 and the record of shell 8 is 38/7185 at (8, 5), and neither
    (3, -8) at 47/7185 nor (8, 2) at 43/7185 can be ordered against it.  The
    near cells are ordered lexicographically, not by distance, so every scan
    names (3, -8).

    theta = (499, 489)/1001 with radius 3/4004: the fast margin is 3/1001,
    and the corner (1, 1) at 13/1001 lies exactly that far above the minimum
    10/1001 at (1, -1).  Their enclosures touch, so a cell at the margin
    itself is one to order."""
    for coords, radius, h, near, record in [
            ((F(1, 10), F(4, 5) - F(1, 10**6)), F(1, 10**5), 1, (1, 1), (1, 0)),
            ((F(3904, 7185), F(2368, 7185)), F(2, 18681), 8, (3, -8), (8, 5)),
            ((F(499, 1001), F(489, 1001)), F(3, 4004), 1, (1, 1), (1, -1))]:
        theta = CertifiedVector(coords, radius)
        text = f"cannot order <{near},theta> against <{record},theta> at radius {radius}"
        for scan in (linear_records, oracle_linear_records, best_linear, linear_error):
            with pytest.raises(PrecisionError) as exc:
                scan(theta, h)
            assert str(exc.value) == text


@st.composite
def _corner_case(draw):
    """(theta, h): d = 2, 3 on denominators up to 2^20, with a radius of
    k/(den*m): from 64 units of 1/den, where most shells have a cell within
    the radius of their minimum, down to far below one unit."""
    dim = draw(st.sampled_from([2, 3]))
    h = draw(st.integers(1, 8 if dim == 2 else 3))
    den = draw(st.one_of(st.integers(2, 300), st.integers(2, 2**20)))
    nums = draw(st.lists(st.integers(0, den - 1), min_size=dim, max_size=dim))
    radius = F(draw(st.integers(1, 64)), den * draw(st.integers(1, 2**12)))
    return CertifiedVector([F(p, den) for p in nums], radius), h


@settings(deadline=None, max_examples=200)
@given(_corner_case())
def test_linear_records_hold_at_every_corner(case):
    """Every theta' within the radius lies in the certified records: at each
    corner theta + r*sigma, sigma in {-1, 1}^d, the exact minimum of
    |<delta, theta'>|_Z over the box of radius s is at least the lower end of
    the record in force at s."""
    theta, h = case
    try:
        recs, den, _zero = linear_records(theta, h)
    except PrecisionError:
        return
    r = theta.radius
    floors = {}  # s -> lower end of the record in force at s
    for s in range(1, h + 1):
        for height, pt, dist in recs:
            if height <= s:
                floors[s] = F(dist, den) - _l1(pt) * r
    for sigma in itertools.product((-1, 1), repeat=theta.dim):
        corner = [c + r * e for c, e in zip(theta.coords, sigma)]
        least = None
        for s, pts in canonical_shells(h, theta.dim):
            shell = min(dist_nearest_int(sum(c * t for c, t in zip(pt, corner)))
                        for pt in pts)
            least = shell if least is None else min(least, shell)
            assert least >= floors[s], (sigma, s)


def test_linear_ties_pick_lexicographic_first():
    # den 7: every residue is hit about (2h+1)^3 / 14 times in the box
    theta = CertifiedVector((F(2, 7), F(3, 7), F(6, 7)))
    for h in (1, 2, 5, 12):
        assert _linear_min_out(theta, h) == oracle_linear_min(theta, h)
        assert linear_records(theta, h) == oracle_linear_records(theta, h)
    assert linear_min(theta, 12)[1] == (0, 0, 7)  # 7 * 6/7 = 6
    # (3, -1) and (3, 0) both give 1/29 in shell 3, which shares a block with
    # shell 4: the record is the lexicographically first of them
    theta = CertifiedVector((F(10, 29), F(2, 29)))
    assert linear_records(theta, 4) == ([(1, (0, 1), 2), (3, (3, -1), 1)], 29, False)
    assert linear_records(theta, 5) == oracle_linear_records(theta, 5)


@pytest.mark.parametrize("dim,den,h,records,refused", [
    (4, 2**31 - 1, 24, False, False),   # 49^4 cells
    (4, 2**31 - 1, 24, True, False),
    (4, 2**31 - 1, 25, False, True),    # 51^4 cells
    (4, 2**31 - 1, 25, True, True),
    (3, 2**31 - 1, 91, False, False),   # 183^3 cells: the d = 3 rows took it
    (3, 2**31 - 1, 90, True, False),    # 181^3 cells
    (3, 2**31 - 1, 91, True, True),
    (3, 2**61 + 1, 90, False, False),
    (3, 2**61 + 1, 91, False, True),    # h*(den - 1) >= 2^62
    (2, 1, 1224, True, False),          # 2449^2 cells
    (2, 1, 1225, True, True),           # den = 1 had no rows
    (2, 2**64 + 13, 1225, False, True),
])
def test_former_enumeration_cap_edges_answered(dim, den, h, records, refused):
    """The edges of the removed 6*10^6-cell enumeration cap, which refused
    the boxes marked `refused`: every one is answered now.  These thetas
    reach an exact zero in a small shell, so the records are the oracle's
    zero-terminated records at that shell, and the minimum is 0 at the
    lexicographically first canonical zero, which a walk in the oracle's
    order meets within the first witness[0] + 1 rows."""
    theta = CertifiedVector([F(1 + 7 * i, den) for i in range(dim)])
    frame = _Frame(theta)
    nums, den = frame.nums, frame.den
    if records:
        small = next(r for r in map(oracle_linear_records, [theta] * 8, range(1, 9))
                     if r[2])
        assert linear_records(theta, h) == small
        return
    value, witness = linear_min(theta, h)
    assert value.value == 0 and _form_dist(nums, den, witness) == 0
    cells = itertools.product(range(witness[0] + 1), *[range(-h, h + 1)] * (dim - 1))
    assert witness == next(pt for pt in cells if next((c for c in pt if c), 0) > 0
                           and _form_dist(nums, den, pt) == 0)


def test_linear_budget_edge(monkeypatch):
    """The scan budget counts the nominal (2h+1)^d box at d = 2 and 3: one
    cell over it is refused before the box is built, and the budget itself
    is answered."""
    thetas = [CertifiedVector((F(2, 7), F(3, 11))), CertifiedVector((F(2, 7), F(3, 11), F(5, 13)))]
    for theta in thetas:
        cells = 21 ** theta.dim  # h = 10
        answers = linear_min(theta, 10, budget=cells), linear_records(theta, 10, budget=cells)
        assert answers == (linear_min(theta, 10), linear_records(theta, 10))

    def no_work(*args):
        raise AssertionError("the scan started before refusing")
    monkeypatch.setattr("shrinktarget._scan._LinearBox", no_work)
    for theta in thetas:
        cells = 21 ** theta.dim
        for scan in (linear_min, linear_records):
            with pytest.raises(ResourceError, match=f" {cells} candidates exceeds budget"):
                scan(theta, 10, budget=cells - 1)


def test_linear_budget_at_d1_counts_multipliers(monkeypatch):
    """At d = 1 both linear scans are simultaneous_scan, so the budget
    counts its h multipliers, not the 2h + 1 cells of the box: h = 60 is
    answered at budget 60 (121 cells), 61 is refused before any work, and
    a radius below 1 stays a DomainError of the box."""
    theta = CertifiedVector((F(2, 7),))
    records = simultaneous_scan(theta, 60, budget=100)
    assert linear_records(theta, 60, budget=100) == records
    assert linear_records(theta, 60, budget=60) == records
    assert linear_min(theta, 60, budget=60) == linear_min(theta, 60)

    def no_work(*args):
        raise AssertionError("the scan started before refusing")
    monkeypatch.setattr("shrinktarget._scan._Multipliers", no_work)
    for scan in (linear_min, linear_records):
        with pytest.raises(ResourceError, match="scan of 61 multipliers exceeds budget 60"):
            scan(theta, 61, budget=60)
        with pytest.raises(DomainError, match="box radius must be >= 1"):
            scan(theta, 0, budget=60)


def test_simultaneous_budget_edge(monkeypatch):
    """The scan budget counts the multipliers 1..q_max: one over it is
    refused before the multipliers are built, and the budget itself is
    answered."""
    theta = CertifiedVector((F(3, 1000003), F(7, 1000003)))
    assert simultaneous_scan(theta, 1000, budget=1000) == simultaneous_scan(theta, 1000)

    def no_work(*args):
        raise AssertionError("the scan started before refusing")
    monkeypatch.setattr("shrinktarget._scan._Multipliers", no_work)
    with pytest.raises(ResourceError, match="scan of 1001 multipliers exceeds budget 1000"):
        simultaneous_scan(theta, 1001, budget=1000)


@pytest.mark.parametrize("den", [2**64 - 59, 2**65 + 11, 2**66 + 3])
def test_linear_record_by_one_unit_past_the_rounded_limit(den):
    # theta = (t - m, m)/den with 2t = -(m - 1): shell 1 has its minimum m
    # at (0, 1), and (2, 2) beats it by one unit of 1/den in shell 2; pick
    # an m whose filter distance at (2, 2) lies above ceil(m * 2^64 / den),
    # so that only the E slack of the block limit keeps the record
    one = 1 << 64
    for m in range(den // 40 * 2, den // 40 * 2 + 800, 2):  # m even
        t = (den - m + 1) // 2
        nums = ((t - m) % den, m)
        x = 2 * sum((p << 64) // den for p in nums) % one
        if min(x, one - x) > -((-m << 64) // den):
            break
    else:
        raise AssertionError("no rounding past the limit found")
    theta = CertifiedVector([F(p, den) for p in nums])
    assert linear_records(theta, 2) == ([(1, (0, 1), m), (2, (2, 2), m - 1)], den, False)
    assert linear_records(theta, 6) == oracle_linear_records(theta, 6)
