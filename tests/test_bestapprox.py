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
from shrinktarget.exact import (CertifiedVector, as_vector, dist_nearest_int,
                                dist_nearest_lattice)

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
    theta = as_vector(("2/7",))
    for h in (1, 2, 3, 5):
        assert linear_error(theta, h).value == simultaneous_error(theta, h).value


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
