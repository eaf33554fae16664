"""Series criteria, transfer inequality, type evidence, window bounds."""

from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget.bestapprox import best_linear, best_simultaneous, linear_profile
from shrinktarget.construct import build_theta, minimal_heights
from shrinktarget.criteria import (SeriesReport, _sup_norm,
                                   dyadic_condition_iii, series_lemma22, series_prop32,
                                   series_thm5, transfer_check, type_evidence, window_bound)
from shrinktarget.errors import (DegenerateInputError, DomainError, PrecisionError,
                                 ResourceError)
from shrinktarget.exact import (CertifiedScalar, CertifiedVector, as_vector,
                                certified_dist_nearest_lattice, certified_form_dist,
                                dist_nearest_int, rational)
from shrinktarget.roots import pow_enclosure

F = Fraction


def pell_theta(bits=140):
    p, q = 0, 1
    pp, qq = 1, 2
    while qq < 2 ** bits:
        p, pp = pp, p + 2 * pp
        q, qq = qq, q + 2 * qq
    return CertifiedVector((F(pp, qq),))


def const33_state(depth=5):
    a = lambda n: 33
    return build_theta(a, minimal_heights(a, 1, depth + 3), depth)


# --- transfer inequality ----------------------------------------------------

def test_transfer_dimension_two_exact_values():
    theta = as_vector(("2/7", "3/7"))
    rep = transfer_check(theta, 6)
    assert rep.constant == F(1, 6)
    # C h^d = 6, C h^(d-1) = 1, so the right side is eps_s(6) = |3 theta|
    assert rep.rhs.value == F(2, 7)
    assert rep.holds


def test_transfer_dimension_one():
    rep = transfer_check(pell_theta(), 4)
    assert rep.dimension == 1 and rep.constant == F(1, 4)
    assert rep.holds


def test_transfer_small_h_rejected():
    with pytest.raises(DomainError, match="no multiplier available"):
        transfer_check(as_vector(("2/7", "3/11", "5/13")), 1)
    with pytest.raises(DomainError, match="^h must be >= 1$"):
        transfer_check(as_vector(("2/7",)), 0)


def test_transfer_holds_on_assorted_exact_vectors():
    fixtures = [
        ("3/8", "5/11"), ("1/97", "13/29"), ("7/19", "2/23"),
        ("114/339", "17/120"),
    ]
    for coords in fixtures:
        theta = as_vector(coords)
        for h in (3, 4, 7, 10):
            assert transfer_check(theta, h).holds, (coords, h)


# --- series of Thm 5 style --------------------------------------------------

def test_series_thm5_construction_terms_bracketed():
    """Terms on the constructed vector sit in the proven per-term bracket:
    t^3 in [3/(32 a), 10/a] with a = 33."""
    state = const33_state()
    rep = series_thm5(state.refined_theta(), state.linear_witnesses(), 5)
    assert len(rep.terms) == 5
    for _n, t in rep.terms:
        assert t.lo ** 3 >= F(3, 32 * 33)
        assert t.hi ** 3 <= F(10, 33)


def test_series_thm5_empty_and_errors():
    theta = as_vector(("2/7",))
    assert series_thm5(theta, [(1,), (3,)], 0).terms == ()
    with pytest.raises(DomainError):
        series_thm5(as_vector(("2/7", "3/11")), [(1, 0), (0, 1)], 1)
    with pytest.raises(DegenerateInputError):
        series_thm5(theta, [(7,), (10,)], 1)
    with pytest.raises(DomainError, match="^term count must be >= 0$"):
        series_thm5(theta, [(1,), (3,)], -1)


def test_series_thm5_sub_sequence_never_increases_terms():
    """Swapping each vector for the best linear approximation of no greater
    height can only shrink every term (checked on exact squares, d = 1)."""
    theta = pell_theta()
    x_seq = [(3,), (7,), (18,), (44,)]
    records = best_linear(theta, 44)
    swapped = []
    for (x,) in x_seq:
        best = max((r for r in records if r.height <= x),
                   key=lambda r: r.height)
        swapped.append(best.witness)
    base = series_thm5(theta, x_seq, 3)
    sub = series_thm5(theta, swapped, 3)
    x = theta.coords[0]
    for i in range(3):
        # t_i^2 = |X_{i+1}| * ||<X_i, theta>|| exactly in dimension one
        t2_base = abs(x_seq[i + 1][0]) * dist_nearest_int(x_seq[i][0] * x)
        t2_sub = abs(swapped[i + 1][0]) * dist_nearest_int(swapped[i][0] * x)
        assert t2_sub <= t2_base
        # and the reported enclosures bracket those exact squares
        assert base.terms[i][1].lo ** 2 <= t2_base <= base.terms[i][1].hi ** 2
        assert sub.terms[i][1].lo ** 2 <= t2_sub <= sub.terms[i][1].hi ** 2


# --- Lemma 2.2 / 2.3 and the dyadic form ------------------------------------

def test_series_lemma22_terms_match_bruteforce_eps():
    theta = pell_theta()
    x = theta.coords[0]
    rep = series_lemma22(theta, 16, F(1))
    assert len(rep.terms) == 16
    for k, t in rep.terms:
        eps = min(dist_nearest_int(j * x) for j in range(1, k + 1))
        # t = k^-1 (k eps)^(1/2)  =>  t^2 = eps / k exactly
        assert t.lo ** 2 <= F(eps, k) <= t.hi ** 2


def test_series_lemma22_single_term_and_bad_delta():
    theta = pell_theta()
    rep = series_lemma22(theta, 1, F(2))
    assert len(rep.terms) == 1
    with pytest.raises(DomainError):
        series_lemma22(theta, 4, F(1, 2))
    with pytest.raises(DomainError, match="^k_max must be >= 1$"):
        series_lemma22(theta, 0, F(2))


def test_series_lemma22_root_order_bound(monkeypatch):
    """Each term is a root of order p + q: 129/127 (order 256) is answered,
    129/128 (order 257) is refused before the error profile is built; it
    took 0.69 s at k_max = 100, and 10001/10000 did not finish in 300 s."""
    theta = CertifiedVector((F(2, 7), F(3, 11)))
    rep = series_lemma22(theta, 8, F(129, 127))
    assert len(rep.terms) == 8
    assert rep.terms == oracle_series_lemma22(theta, 8, F(129, 127)).terms

    def refuse(*_args):
        raise AssertionError("error profile built before the root order check")
    monkeypatch.setattr("shrinktarget.criteria.linear_profile", refuse)
    for delta in (F(129, 128), F(10001, 10000), F(256)):
        with pytest.raises(ResourceError, match="p \\+ q"):
            series_lemma22(theta, 100, delta)


def test_dyadic_condition_terms_for_two_sevenths():
    rep = dyadic_condition_iii(as_vector(("2/7",)), 2)
    (n0, t0), (n1, t1) = rep.terms
    assert (n0, n1) == (0, 1)
    assert t0.lo ** 2 <= F(2, 7) <= t0.hi ** 2
    assert t1.lo ** 2 <= F(4, 7) <= t1.hi ** 2
    with pytest.raises(DomainError, match="^term count must be >= 0$"):
        dyadic_condition_iii(as_vector(("2/7",)), -1)


def test_dyadic_and_lemma22_sums_bracket_each_other():
    """The two equivalent conditions control each other with the explicit
    constants 2^(d/(d+1)) and 2^-(1+d/(d+1)) on matched ranges (d = 1)."""
    theta = pell_theta()
    n_blocks = 5
    s_iv = series_lemma22(theta, 2 ** n_blocks - 1, F(1)).partial_sums[-1]
    iii = dyadic_condition_iii(theta, n_blocks + 1)
    s_iii = iii.partial_sums[n_blocks - 1]          # terms 0..n_blocks-1
    s_iii_shifted = iii.partial_sums[-1] - iii.terms[0][1]  # terms 1..n_blocks
    r2_lo, r2_hi = pow_enclosure(F(2), F(2), 1, 2)  # sqrt(2) enclosure
    assert s_iv.lo <= r2_hi * s_iii.hi
    assert s_iv.hi >= s_iii_shifted.lo / (2 * r2_hi)


# --- Prop 3.2 style series ---------------------------------------------------

def test_series_prop32_terms_bracketed_by_height_identity():
    """On the constructed vector, t_n^6 = q_n eps^2 with eps within
    [h_n/(2 q_n), 3 h_n/(2 q_n)], so t_n^6 lands in [h_n^2/(4q_n), 9h_n^2/(4q_n)]."""
    state = const33_state()
    rep = series_prop32(state.refined_theta(), state.denominators, 4)
    for n, t in rep.terms:
        q, h = state.denominators[n], state.heights[n]
        assert t.lo ** 6 >= F(h * h, 4 * q)
        assert t.hi ** 6 <= F(9 * h * h, 4 * q)


def test_series_prop32_single_and_errors():
    theta = pell_theta()
    rep = series_prop32(theta, (1, 2), 1)
    assert len(rep.terms) == 1
    with pytest.raises(DomainError):
        series_prop32(theta, (3, 2), 1)
    with pytest.raises(DomainError, match="^term count must be >= 0$"):
        series_prop32(theta, (1, 2), -1)
    with pytest.raises(DomainError, match="^denominators must be positive$"):
        series_prop32(theta, (0, 2), 1)


def test_series_report_shape():
    rep = series_lemma22(pell_theta(), 8, F(1))
    assert len(rep.partial_sums) == len(rep.terms)
    for a, b in zip(rep.partial_sums, rep.partial_sums[1:]):
        assert b.hi >= a.lo  # non-decreasing within certification
    assert "no convergence claim" in rep.verdict
    with pytest.raises(DomainError, match=r"^no terms with index in \[9, 20\]$"):
        rep.window_sum(9, 20)


# --- diophantine type evidence ----------------------------------------------

def test_type_evidence_pell_liminf_bounded_below():
    """Bounded partial quotients keep q_n |q_n theta| away from zero."""
    _up, down = type_evidence(pell_theta(), F(0), "simultaneous", 6)
    assert down.kind == "liminf"
    assert len(down.samples) == 6
    for _n, v in down.samples:
        assert v.lo >= F(1, 3)
    assert down.positive_inf


def test_type_evidence_empty_depth():
    up, down = type_evidence(pell_theta(), F(0), "simultaneous", 0)
    assert up.samples == () and down.samples == ()


def test_type_evidence_doubles_the_scan_height():
    """F_61/F_62 has 12 records up to 256, so 14 records take two doublings
    (records at 377 and 610); the samples are those of the records up to
    1024, each scaled by an exact height (d = 1, tau = 0)."""
    fib = [0, 1]
    while len(fib) < 63:
        fib.append(fib[-1] + fib[-2])
    theta = F(fib[61], fib[62])
    up, down = type_evidence(theta, F(0), "simultaneous", 13)
    recs = best_simultaneous(theta, 1024)
    assert up.samples == tuple((n, recs[n].value * recs[n + 1].height) for n in range(13))
    assert down.samples == tuple((n, recs[n].value * recs[n].height) for n in range(13))


def test_type_evidence_stops_at_an_exact_lattice_hit():
    """And, before any scan, a negative tau or depth and an unknown mode
    are refused."""
    with pytest.raises(DegenerateInputError, match="exact lattice hit after 2 records"):
        type_evidence(F(1, 7), F(0), "simultaneous", 10)
    for tau, mode, depth, message in ((F(-1), "linear", 3, "tau must be >= 0"),
                                      (F(0), "linear", -1, "depth must be >= 0"),
                                      (F(0), "both", 3, "mode must be")):
        with pytest.raises(DomainError, match=message):
            type_evidence(pell_theta(), tau, mode, depth)


# --- window bounds ------------------------------------------------------------

def test_window_bound_edges_satisfy_defining_power_identity():
    """L_n^(delta+1) = (|X_n| / eps_{n-1})^delta; checked at delta = 2 by
    cubing the certified enclosure."""
    state = const33_state()
    wb = window_bound(state.refined_theta(), state.linear_witnesses(), F(2), 1)
    x1 = max(abs(c) for c in state.linear_witnesses()[1])
    # eps_0 enclosure from the refined vector
    from shrinktarget.exact import certified_form_dist
    eps0 = certified_form_dist(state.linear_witnesses()[0],
                               state.refined_theta())
    target = (F(x1) / eps0.hi) ** 2, (F(x1) / eps0.lo) ** 2
    assert wb.l_lower.lo ** 3 <= target[1]
    assert wb.l_lower.hi ** 3 >= target[0]
    lo, hi = wb.integer_window()
    assert isinstance(lo, int) and isinstance(hi, int) and lo <= hi


def test_window_bound_zero_eps_rejected():
    """And every other refusal of window_bound: delta < 1, a window index
    below 1, too few vectors, a zero vector, and a form distance whose
    enclosure reaches 0; a window with no certified integer has no
    integer_window."""
    x_seq = [(2, 1), (3, 1), (4, 1)]
    with pytest.raises(DegenerateInputError):
        window_bound(as_vector(("2/7", "3/7")), x_seq, F(2), 1)
    for theta, xs, delta, n, error, message in (
            (as_vector(("2/7", "3/11")), x_seq, F(1, 2), 1, DomainError, "delta must be"),
            (as_vector(("2/7", "3/11")), x_seq, F(2), 0, DomainError, "window index"),
            (as_vector(("2/7", "3/11")), x_seq, F(2), 2, DomainError,
             "window 2 needs 4 vectors, got 3"),
            (as_vector(("2/7", "3/11")), [(2, 1), (0, 0), (4, 1)], F(2), 1, DomainError,
             "zero vector has no norm record"),
            (CertifiedVector((F(2, 7), F(3, 7)), F(1, 10**6)), x_seq, F(2), 1,
             PrecisionError, "form distance at step 0 not conclusively positive")):
        with pytest.raises(error, match=message):
            window_bound(theta, xs, delta, n)
    wb = window_bound(as_vector(("2/7", "3/11")), x_seq, F(2), 1)
    with pytest.raises(DomainError, match="no certified integers"):
        replace(wb, l_upper=wb.l_lower).integer_window()


# --- the four series against their interval-product formulation -------------
#
# The oracles below are the series as they were computed before each term was
# formed from the exact endpoints of its base interval: the base went through
# CertifiedScalar interval products, its root through `_pow_cs`, and the
# partial sums through CertifiedScalar additions.

def _pow_cs(x, num, den):
    lo, hi = pow_enclosure(x.lo, x.hi, num, den)
    return CertifiedScalar.from_bounds(lo, hi)


def _assemble(label, terms):
    sums = tuple(accumulate(t for _n, t in terms))
    verdict = (f"partial sums up to {len(terms)} terms; no convergence claim"
               if terms else "empty report")
    return SeriesReport(label, tuple(terms), sums, verdict)


def oracle_series_thm5(theta, x_seq, n_terms):
    theta = as_vector(theta)
    d = theta.dim
    x_seq = [tuple(int(c) for c in x) for x in x_seq]
    if n_terms < 0:
        raise DomainError("term count must be >= 0")
    if n_terms and len(x_seq) < n_terms + 1:
        raise DomainError(f"{n_terms} terms need {n_terms + 1} vectors, got {len(x_seq)}")
    norms = [_sup_norm(x) for x in x_seq]
    for a, b in zip(norms, norms[1:]):
        if b <= a:
            raise DomainError("vector norms must be strictly increasing")
    terms = []
    for n in range(n_terms):
        eps = certified_form_dist(x_seq[n], theta)
        if eps.is_exact and eps.value == 0:
            raise DegenerateInputError(
                f"<X_{n}, theta> is exactly an integer; the series degenerates")
        base = eps * CertifiedScalar.exact(F(norms[n + 1]) ** d)
        terms.append((n, _pow_cs(base, 1, d + 1)))
    return _assemble("vector-sequence series", terms)


def oracle_series_lemma22(theta, k_max, delta):
    theta = as_vector(theta)
    delta = rational(delta)
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    prof = linear_profile(theta, k_max)
    p, q = delta.numerator, delta.denominator
    terms = []
    for k in range(1, k_max + 1):
        base = prof.value(k) * CertifiedScalar.exact(F(1, k))
        terms.append((k, _pow_cs(base, q, p + q)))
    return _assemble(f"harmonic weighted-error series (delta={delta})", terms)


def oracle_dyadic_condition_iii(theta, n_max):
    theta = as_vector(theta)
    d = theta.dim
    if n_max < 0:
        raise DomainError("term count must be >= 0")
    terms = []
    if n_max:
        prof = linear_profile(theta, 2 ** (n_max - 1))
        for n in range(n_max):
            base = prof.value(2 ** n) * CertifiedScalar.exact(F(2) ** (n * d))
            terms.append((n, _pow_cs(base, 1, d + 1)))
    return _assemble("dyadic weighted-error series", terms)


def oracle_series_prop32(theta, q_seq, n_terms):
    theta = as_vector(theta)
    d = theta.dim
    q_seq = [int(q) for q in q_seq]
    if n_terms < 0:
        raise DomainError("term count must be >= 0")
    if n_terms and len(q_seq) < n_terms + 1:
        raise DomainError(f"{n_terms} terms need {n_terms + 1} denominators")
    if any(q <= 0 for q in q_seq):
        raise DomainError("denominators must be positive")
    for a, b in zip(q_seq, q_seq[1:]):
        if b <= a:
            raise DomainError("denominator sequence must be strictly increasing")
    terms = []
    for n in range(1, n_terms + 1):
        eps = certified_dist_nearest_lattice(q_seq[n - 1], theta)
        base = CertifiedScalar.from_bounds(eps.lo ** d, eps.hi ** d) \
            * CertifiedScalar.exact(F(q_seq[n]))
        terms.append((n, _pow_cs(base, 1, d * (d + 1))))
    return _assemble("simultaneous-denominator series", terms)


def _outcome(fn, *args):
    """The report, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except (DomainError, DegenerateInputError, PrecisionError) as exc:
        return type(exc), str(exc)


@st.composite
def thetas(draw):
    """d = 1..3 rational coordinates over a common denominator up to 2^300,
    with radius 0 or a positive radius that may exceed a lattice distance."""
    d = draw(st.integers(1, 3))
    den = draw(st.integers(1, 2 ** draw(st.integers(1, 300))))
    coords = [F(draw(st.integers(0, den)), den) for _ in range(d)]
    radius = draw(st.one_of(
        st.just(F(0)),
        st.builds(F, st.integers(1, 1000),
                  st.sampled_from([10 ** 3, 10 ** 6, 2 ** 40, 2 ** 100]))))
    return CertifiedVector(coords, radius)


def _increasing(draw, length):
    """`length` strictly increasing positive ints below 50, 10^6 or 2^64."""
    top = draw(st.sampled_from([50, 10 ** 6, 2 ** 64]))
    return sorted(draw(st.sets(st.integers(1, top), min_size=length, max_size=length)))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_series_thm5_matches_oracle(data):
    theta = data.draw(thetas())
    length = data.draw(st.integers(1, 5))
    x_seq = []
    for norm in _increasing(data.draw, length):
        vec = [data.draw(st.integers(-norm, norm)) for _ in range(theta.dim)]
        vec[data.draw(st.integers(0, theta.dim - 1))] = norm * data.draw(st.sampled_from([1, -1]))
        x_seq.append(tuple(vec))
    n_terms = length - 1 + data.draw(st.integers(0, 1))  # length: too few vectors
    assert (_outcome(series_thm5, theta, x_seq, n_terms)
            == _outcome(oracle_series_thm5, theta, x_seq, n_terms))


@settings(deadline=None, max_examples=100)
@given(thetas(), st.sampled_from(range(1, 25)),
       st.one_of(st.integers(1, 4), st.fractions(1, 5, max_denominator=6)))
def test_series_lemma22_matches_oracle(theta, k_max, delta):
    assert (_outcome(series_lemma22, theta, k_max, delta)
            == _outcome(oracle_series_lemma22, theta, k_max, delta))


@settings(deadline=None, max_examples=100)
@given(thetas(), st.sampled_from(range(6)))
def test_dyadic_condition_iii_matches_oracle(theta, n_max):
    assert (_outcome(dyadic_condition_iii, theta, n_max)
            == _outcome(oracle_dyadic_condition_iii, theta, n_max))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_series_prop32_matches_oracle(data):
    """Equal to the oracle except where a term's lower lattice distance is
    negative: that raises "invalid base interval" at every d, where the
    oracle squared it into a false lower bound at even d."""
    theta = data.draw(thetas())
    length = data.draw(st.integers(1, 5))
    q_seq = _increasing(data.draw, length)
    n_terms = length - 1 + data.draw(st.integers(0, 1))
    got = _outcome(series_prop32, theta, q_seq, n_terms)
    want = _outcome(oracle_series_prop32, theta, q_seq, n_terms)
    negative = n_terms < length and any(
        certified_dist_nearest_lattice(q, theta).lo < 0 for q in q_seq[:n_terms])
    if negative:
        assert got == (DomainError, "invalid base interval")
        assert want == got if theta.dim % 2 else isinstance(want, SeriesReport)
    else:
        assert got == want


def test_series_prop32_negative_lower_distance_rejected():
    """theta = (1/5, 2/5) lies in the ball, where the term is 0; the squared
    interval product certified [0.236425, 0.236584] at this radius."""
    theta = CertifiedVector((F(1, 5) + F(1, 10 ** 6), F(2, 5) + F(1, 10 ** 6)), F(1, 1000))
    assert certified_dist_nearest_lattice(5, theta).lo < 0
    with pytest.raises(DomainError, match="^invalid base interval$"):
        series_prop32(theta, [5, 7], 1)
    rep = oracle_series_prop32(theta, [5, 7], 1)
    assert F(236425, 10 ** 6) < rep.terms[0][1].lo < rep.terms[0][1].hi < F(236585, 10 ** 6)
