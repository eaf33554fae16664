"""Best simultaneous / best linear approximations and their error functions.

The ground truth throughout is the exhaustive scan over all candidates; the
continued-fraction identities double-check dimension one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget.bestapprox import (ErrorProfile, best_linear, best_simultaneous,
                                     continued_fraction, linear_error,
                                     linear_profile, simultaneous_error)
from shrinktarget.construct import build_theta, minimal_heights
from shrinktarget.errors import (DomainError, PrecisionError, ResourceError)
from shrinktarget.exact import (CertifiedVector, as_vector, certified_dist_nearest_lattice,
                                certified_form_dist, dist_nearest_int, dist_nearest_lattice)

F = Fraction

# denominators of the convergents of sqrt(2)-1 = [0; 2, 2, 2, ...]
PELL_Q = [1, 2, 5, 12, 29, 70, 169, 408, 985, 2378]


def pell_theta(bits=120):
    """A convergent of sqrt(2)-1 deep enough to act as the irrational."""
    p, q = 0, 1
    pp, qq = 1, 2
    while qq < 2 ** bits:
        p, pp = pp, p + 2 * pp
        q, qq = qq, q + 2 * qq
    return CertifiedVector((F(pp, qq),))


def test_eps_s_examples():
    theta = as_vector(("2/7",))
    assert simultaneous_error(theta, 3).value == F(1, 7)
    assert simultaneous_error(theta, 1).value == F(2, 7)
    with pytest.raises(DomainError):
        simultaneous_error(theta, F(1, 2))


def test_eps_l_dimension_two_height_one():
    theta = as_vector(("2/7", "3/7"))
    # scan over the 8 nonzero integer vectors with sup-norm 1
    assert linear_error(theta, 1).value == F(1, 7)


def test_eps_l_equals_eps_s_in_dimension_one():
    """In d = 1 both scans are one: the same records and the same
    enclosures, theta's radius weighted by the witness q on either path."""
    golden = CertifiedVector((F(6180339887, 10**10),), F(1, 10**14))
    for theta in (as_vector(("2/7",)), golden):
        for h in (1, 2, 3, 5, 100):
            eps_l, eps_s = linear_error(theta, h), simultaneous_error(theta, h)
            assert (eps_l.lo, eps_l.hi) == (eps_s.lo, eps_s.hi)
            assert best_linear(theta, h) == best_simultaneous(theta, h)
    records = best_simultaneous(golden, 100)
    assert [r.height for r in records] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert [r.value.radius for r in records] == [r.height * golden.radius for r in records]


def test_eps_l_budget_guard():
    theta = as_vector(("2/7", "3/11", "5/13"))
    with pytest.raises(ResourceError):
        linear_error(theta, 10**6)


def test_best_simultaneous_pell_denominators():
    records = best_simultaneous(pell_theta(), 100)
    assert [r.height for r in records] == [1, 2, 5, 12, 29, 70]


def test_best_simultaneous_rational_terminates_at_zero():
    records = best_simultaneous(as_vector(("2/7",)), 20)
    assert [r.height for r in records] == [1, 3, 7]
    assert [r.value.value for r in records] == [F(2, 7), F(1, 7), F(0)]
    # nothing after the exact hit
    assert records[-1].value.value == 0


def test_best_simultaneous_empty_range():
    assert best_simultaneous(as_vector(("2/7",)), 0) == []


def test_best_linear_dimension_one():
    records = best_linear(as_vector(("2/7",)), 3)
    assert [(r.height, r.value.value) for r in records] == \
        [(1, F(2, 7)), (3, F(1, 7))]


def test_best_linear_empty():
    assert best_linear(as_vector(("2/7",)), 0) == []


def test_records_are_certified_by_their_witnesses():
    """Each record's enclosure is the certified distance of its witness: the
    radius weight is |delta|_1 for a linear record, not its height, and q
    for a simultaneous one."""
    theta = CertifiedVector((F(6180339887, 10**10), F(4142135624, 10**10)), F(1, 10**16))
    linear = best_linear(theta, 30)
    assert any(sum(map(abs, r.witness)) != r.height for r in linear)
    assert [r.value for r in linear] == [certified_form_dist(r.witness, theta) for r in linear]
    records = best_simultaneous(theta, 1000)
    assert len(records) > 3
    assert [r.value for r in records] == [
        certified_dist_nearest_lattice(r.height, theta) for r in records]


def test_best_linear_finds_construction_witnesses():
    """The first construction triplets are genuine best linear approximations."""
    a = lambda n: 33
    state = build_theta(a, minimal_heights(a, 1, 5), 3)
    witnesses = state.linear_witnesses()
    records = best_linear(state.theta, state.heights[1])
    reported = {r.witness for r in records}
    for w in witnesses[:2]:
        canon = w if next(c for c in w if c) > 0 else tuple(-c for c in w)
        assert canon in reported


def test_record_monotonicity_and_sandwich():
    """Witnesses strictly increase, values strictly decrease, and consecutive
    simultaneous records satisfy (q_n + q_{n+1})^-1 <= |q_n theta| <= q_{n+1}^(-1/d)."""
    theta = pell_theta()
    records = best_simultaneous(theta, 3000)
    for a, b in zip(records, records[1:]):
        assert a.height < b.height
        assert a.value.value > b.value.value
        v = a.value.value
        assert F(1, a.height + b.height) <= v
        assert v ** 1 <= F(1, b.height) or v ** 1 * b.height <= 1


def test_profiles_are_step_functions_of_records():
    theta = as_vector(("2/7",))
    prof = ErrorProfile(best_simultaneous(theta, 7), 7)
    assert prof.value(1).value == F(2, 7)
    assert prof.value(3).value == F(1, 7)
    assert prof.value(6).value == F(1, 7)   # constant between witnesses
    assert prof.value(7).value == 0
    lin = linear_profile(as_vector(("2/7", "3/7")), 4)
    assert lin.value(1).value == F(1, 7)


@pytest.mark.parametrize("first, h, message", [
    (8, None, "empty record list"),
    (1, 8, "height 8 beyond scanned range 7"),
    (3, 2, "no record at or below height 2"),
], ids=["empty", "beyond-range", "below-first-record"])
def test_profile_refuses_heights_it_cannot_answer(first, h, message):
    """A profile of the records of height `first` or more, scanned to 7."""
    recs = [r for r in best_simultaneous(as_vector(("2/7",)), 7) if r.height >= first]
    with pytest.raises(DomainError, match=f"^{message}$"):
        ErrorProfile(recs, 7).value(h)


def test_profile_matches_pointwise_error():
    theta = as_vector(("3/8", "2/5"))
    prof = ErrorProfile(best_simultaneous(theta, 30), 30)
    for h in (1, 4, 7, 19, 30):
        assert prof.value(h).value == simultaneous_error(theta, h).value


def test_continued_fraction_examples():
    cf = continued_fraction(F(1, 3))
    assert cf.quotients == (3,)
    assert cf.convergents == ((1, 3),)
    assert cf.convergent(-1) == F(1, 3)

    cf = continued_fraction(F(7, 10))
    assert cf.quotients == (1, 2, 3)
    assert cf.convergents == ((1, 1), (2, 3), (7, 10))
    assert cf.convergent(-1) == F(7, 10)

    with pytest.raises(DomainError):
        continued_fraction(F(3, 2))


@given(st.fractions(min_value=0, max_value=1).filter(
    lambda f: 0 < f < 1 and f.denominator <= 10**6))
def test_continued_fraction_determinant_identity(x):
    cf = continued_fraction(x)
    convs = ((0, 1),) + cf.convergents
    for (p0, q0), (p1, q1) in zip(convs, convs[1:]):
        assert p1 * q0 - p0 * q1 in (1, -1)
    # recurrence q_{k+1} = a_{k+1} q_k + q_{k-1}
    qs = [1] + [q for _, q in cf.convergents]
    for k in range(1, len(cf.quotients)):
        prev = qs[k - 1] if k >= 1 else 0
        assert qs[k + 1] == cf.quotients[k] * qs[k] + prev


@settings(deadline=None, max_examples=20)
@given(st.fractions(min_value=0, max_value=1).filter(
    lambda f: 0 < f < 1 and f.denominator <= 5000))
def test_dimension_one_witnesses_are_cf_denominators(x):
    """Before exact termination, best simultaneous witnesses are exactly the
    continued fraction denominators (with the height-1 record prepended when
    a_1 > 1)."""
    theta = CertifiedVector((x,))
    records = best_simultaneous(theta, x.denominator)
    cf = continued_fraction(x)
    denominators = [q for _, q in cf.convergents]
    heights = [r.height for r in records]
    # every cf denominator up to the bound must appear among the witnesses
    for q in denominators:
        if q <= x.denominator:
            assert q in heights


def test_inconclusive_radius_raises_precision_error():
    fat = CertifiedVector((F(2, 7),), F(1, 4))
    with pytest.raises(PrecisionError):
        best_simultaneous(fat, 10)


def _records_or_error(fn, theta, h, witnesses=True):
    """(height, witness, value) of each record, or the PrecisionError text;
    without witnesses, (height, value) or the bare error."""
    try:
        return [(r.height, r.witness, r.value) if witnesses else (r.height, r.value)
                for r in fn(theta, h)]
    except PrecisionError as exc:
        return str(exc) if witnesses else "PrecisionError"


@st.composite
def _torus_case(draw):
    """theta in d = 1..3 over small or 60-70-bit denominators, with radius 0
    or 2^-60..2^-70, a height for each record scan and an integer shift."""
    d = draw(st.integers(1, 3))
    den = draw(st.one_of(st.integers(2, 400), st.integers(2 ** 60, 2 ** 70)))
    coords = [F(draw(st.integers(0, den - 1)), den) for _ in range(d)]
    radius = draw(st.sampled_from([F(0), F(0), F(1, 2 ** 60), F(1, 2 ** 70)]))
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return CertifiedVector(coords, radius), shift, draw(st.integers(1, 200)), \
        draw(st.integers(1, {1: 60, 2: 10, 3: 3}[d]))


@settings(deadline=None, max_examples=60)
@given(_torus_case())
def test_records_are_invariant_under_torus_symmetries(case):
    """theta -> -theta and theta -> theta + k (k integer) change no record,
    witness or error; reversing the coordinates changes no record height or
    value (a linear witness may be another minimizer of a tie)."""
    theta, shift, q_max, h_max = case
    r = theta.radius
    negated = CertifiedVector([-c for c in theta.coords], r)
    shifted = CertifiedVector([c + k for c, k in zip(theta.coords, shift)], r)
    reversed_ = CertifiedVector(theta.coords[::-1], r)
    for fn, h in ((best_simultaneous, q_max), (best_linear, h_max)):
        want = _records_or_error(fn, theta, h)
        assert _records_or_error(fn, negated, h) == want
        assert _records_or_error(fn, shifted, h) == want
        assert (_records_or_error(fn, reversed_, h, witnesses=False)
                == _records_or_error(fn, theta, h, witnesses=False))
