"""Exact rationals, lattice points, certified scalars."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shrinktarget import criteria
from shrinktarget.errors import DomainError, PrecisionError
from shrinktarget.exact import (CertifiedScalar, CertifiedVector,
                                LatticePoint3, Verdict, _distances_to_z, as_vector,
                                certified_dist_nearest_lattice,
                                certified_form_dist, dist_nearest_int,
                                dist_nearest_lattice, is_primitive,
                                projective_distance, rational)

F = Fraction


def test_rational_parses_fraction_and_decimal_strings():
    assert rational("3/7") == F(3, 7)
    assert rational("0.125") == F(1, 8)
    assert rational("-2.5") == F(-5, 2)
    assert rational(4) == F(4)
    assert rational(F(9, 12)) == F(3, 4)  # canonicalized


def test_rational_rejects_garbage_and_floats():
    with pytest.raises(DomainError):
        rational("abc")
    with pytest.raises(DomainError):
        rational(0.1)  # floats are never accepted silently


# --- nearest-integer distances -------------------------------------------

def test_dist_nearest_int_values():
    assert dist_nearest_int(F(7, 3)) == F(1, 3)
    assert dist_nearest_int(F(1, 2)) == F(1, 2)
    assert dist_nearest_int(F(-5, 4)) == F(1, 4)
    assert dist_nearest_int(F(0)) == 0


@given(st.fractions(), st.integers(min_value=-50, max_value=50))
def test_dist_nearest_int_periodic_and_even(x, k):
    d = dist_nearest_int(x)
    assert 0 <= d <= F(1, 2)
    assert dist_nearest_int(x + k) == d
    assert dist_nearest_int(-x) == d


def test_dist_nearest_lattice():
    assert dist_nearest_lattice((F(7, 3), F(1, 4))) == F(1, 3)
    assert dist_nearest_lattice((0, 0, 0)) == 0
    assert dist_nearest_lattice((F(1, 2), F(1, 5))) == F(1, 2)
    with pytest.raises(DomainError):
        dist_nearest_lattice(())


# --- lattice points and the wedge ----------------------------------------

def test_wedge_basis_identity():
    e1, e2 = LatticePoint3(1, 0, 0), LatticePoint3(0, 1, 0)
    assert e1.wedge(e2).as_tuple() == (0, 0, 1)


def test_wedge_self_vanishes():
    p = LatticePoint3(1, 1, 33)
    assert p.wedge(p).is_zero


def test_wedge_hand_example():
    # (1,1,33) x (0,0,1) = (1*1-33*0, 33*0-1*1, 1*0-1*0)
    assert LatticePoint3(1, 1, 33).wedge(LatticePoint3(0, 0, 1)).as_tuple() \
        == (1, -1, 0)


coord = st.integers(min_value=-10**6, max_value=10**6)
points = st.builds(LatticePoint3, coord, coord, coord)
nonzero_points = points.filter(lambda p: not p.is_zero)


@given(points, points)
def test_wedge_norm_bound(p, q):
    """Sup-norm of a cross product is at most 2 |P| |Q|."""
    assert p.wedge(q).norm <= 2 * p.norm * q.norm


@given(points, points)
def test_wedge_antisymmetric_and_orthogonal(p, q):
    w = p.wedge(q)
    assert q.wedge(p).as_tuple() == w.scale(-1).as_tuple()
    assert w.dot(p) == 0 and w.dot(q) == 0


def test_is_primitive():
    assert not is_primitive(LatticePoint3(2, 4, 6))
    assert is_primitive(LatticePoint3(1, -1, 0))
    with pytest.raises(DomainError):
        is_primitive(LatticePoint3(0, 0, 0))
    with pytest.raises(DomainError, match="lattice coordinates must be ints"):
        LatticePoint3(1, 2.0, 3)


# --- projective distance ---------------------------------------------------

def test_projective_distance_examples():
    p = LatticePoint3(1, 1, 33)
    assert projective_distance(p, p) == 0
    assert projective_distance(LatticePoint3(1, 0, 0),
                               LatticePoint3(0, 1, 0)) == 1
    # |(0,0,1) x (1,1,33)| = |(-1,1,0)| = 1, norms 1 and 33
    assert projective_distance(LatticePoint3(0, 0, 1), p) == F(1, 33)
    with pytest.raises(DomainError):
        projective_distance(LatticePoint3(0, 0, 0), p)


@given(nonzero_points, nonzero_points)
def test_projective_distance_symmetric(p, q):
    assert projective_distance(p, q) == projective_distance(q, p)


@given(nonzero_points, nonzero_points, nonzero_points)
def test_projective_quasi_triangle(p, q, r):
    """d(P,R) <= d(P,Q) + 2 d(Q,R)."""
    assert projective_distance(p, r) <= \
        projective_distance(p, q) + 2 * projective_distance(q, r)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20))
def test_projective_matches_affine_distance_when_z_dominates(x, y, x2, y2):
    """With |z| >= 2 max(|x|,|y|) on both points, the projective metric is
    the sup distance of the affine points (x/z, y/z)."""
    z = 2 * max(abs(x), abs(y)) + 1
    z2 = 2 * max(abs(x2), abs(y2)) + 1
    p, q = LatticePoint3(x, y, z), LatticePoint3(x2, y2, z2)
    affine = max(abs(F(x, z) - F(x2, z2)), abs(F(y, z) - F(y2, z2)))
    assert projective_distance(p, q) == affine


# --- certified layer --------------------------------------------------------

def test_certified_dist_nearest_lattice_exact_input():
    theta = CertifiedVector((F(2, 7),))
    got = certified_dist_nearest_lattice(1, theta)
    assert got.value == F(2, 7) and got.radius == 0 and got.is_exact


def test_certified_dist_nearest_lattice_radius_scales():
    theta = CertifiedVector((F(2, 7),), F(1, 1000))
    got = certified_dist_nearest_lattice(3, theta)
    assert got.value == F(1, 7)
    assert got.radius == F(3, 1000)


def test_certified_dist_nearest_lattice_rejects_zero_multiplier():
    with pytest.raises(DomainError):
        certified_dist_nearest_lattice(0, CertifiedVector((F(2, 7),)))


@pytest.mark.parametrize("call, message", [
    (lambda t: certified_form_dist((1, 2, 3), t),
     "form vector and theta have different dimensions"),
    (lambda t: certified_dist_nearest_lattice(F(2), t), "multiplier must be an int"),
    (lambda t: certified_dist_nearest_lattice(0, t), "multiplier must be nonzero"),
], ids=["form-dimension", "lattice-not-int", "lattice-zero"])
def test_distances_to_z_refuse_bad_arguments(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(CertifiedVector((F(2, 7), F(3, 7))))


def test_certified_form_dist():
    theta = CertifiedVector((F(2, 7), F(3, 7)))
    assert certified_form_dist((1, -1), theta).value == F(1, 7)


def oracle_distance(value, weight, radius):
    """The Fraction formula of the distance rule before it gave integer ends
    over L: [|value|_Z - w r, |value|_Z + w r] as a CertifiedScalar."""
    return CertifiedScalar(dist_nearest_int(value), weight * radius)


@st.composite
def radius_thetas(draw):
    """d = 1..3 coordinates over a common denominator up to 2^300, with
    radius 0 or a radius whose denominator may share factors with it and
    which may exceed a distance (a negative lower end)."""
    d = draw(st.integers(1, 3))
    den = draw(st.integers(1, 2 ** draw(st.integers(1, 300))))
    coords = [F(draw(st.integers(-den, 2 * den)), den) for _ in range(d)]
    radius = draw(st.one_of(
        st.just(F(0)),
        st.builds(F, st.integers(1, 2 ** 64), st.integers(1, 2 ** 400)),
        st.builds(lambda n, k: F(n, den * k), st.integers(1, 1000), st.integers(1, 2 ** 64))))
    return CertifiedVector(coords, radius)


@settings(deadline=None, max_examples=300)
@given(radius_thetas(), st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=3, max_size=3),
       st.integers(-2 ** 70, 2 ** 70).filter(bool))
@example(CertifiedVector((F(1, 100),), F(1, 50)), [3, 0, 0], 1)
@example(CertifiedVector((F(2, 7), F(3, 7)), F(1, 7 * 2 ** 70)), [1, -1, 0], 7)
def test_distance_ends_over_l_are_the_fraction_formula(theta, delta, q):
    """_distances_to_z gives each end as an integer over L = lcm(den, radius
    denominator); over L they are the old formula's ends, negative lower ends
    included, and the public functions return them as they did."""
    delta = delta[:theta.dim]
    form, lattice, big_l = _distances_to_z(theta)
    den = theta.common_denominator()[1]
    assert big_l == math.lcm(den, theta.radius.denominator)
    value = sum(c * x for c, x in zip(delta, theta.coords))
    want = oracle_distance(value, sum(map(abs, delta)), theta.radius)
    lo, hi = form(delta)
    assert (F(lo, big_l), F(hi, big_l)) == (want.lo, want.hi)
    assert certified_form_dist(delta, theta) == want
    # the farthest coordinate's distance lies in [0, 1/2], its own distance to Z
    farthest = max(dist_nearest_int(q * x) for x in theta.coords)
    want = oracle_distance(farthest, abs(q), theta.radius)
    lo, hi = lattice(q)
    assert (F(lo, big_l), F(hi, big_l)) == (want.lo, want.hi)
    assert certified_dist_nearest_lattice(q, theta) == want


@pytest.mark.parametrize("theta", [
    CertifiedVector((F(1, 100),), F(1, 50)),
    CertifiedVector((F(1, 100), F(1, 2)), F(1, 50)),
    CertifiedVector((F(0),), F(417, 500000)),
], ids=["d1", "d2", "d1-zero"])
def test_every_series_refuses_a_negative_lower_distance(theta):
    """<e_1, theta>, 2 theta and the error profile's record at height 1 have
    negative lower distances here, and every series raises before a root:
    thm5 and prop32 on the integer ends over L, lemma22 and dyadic on the
    record's ends."""
    one = (1,) + (0,) * (theta.dim - 1)
    assert certified_form_dist(one, theta).lo < 0
    assert certified_dist_nearest_lattice(2, theta).lo < 0
    for call in (lambda: criteria.series_thm5(theta, [one, (3,) * theta.dim], 1),
                 lambda: criteria.series_prop32(theta, [2, 3], 1),
                 lambda: criteria.series_lemma22(theta, 1, 2),
                 lambda: criteria.series_lemma22(theta, 1, F(3, 2)),
                 lambda: criteria.dyadic_condition_iii(theta, 1)):
        with pytest.raises(DomainError, match="^invalid base interval$"):
            call()


def test_compare_three_valued():
    a = CertifiedScalar(F(1, 3), F(1, 4))
    b = CertifiedScalar(F(1, 2), F(1, 4))
    assert a.compare(b) is Verdict.INCONCLUSIVE
    assert CertifiedScalar(F(1, 3)).compare(CertifiedScalar(F(2, 3))) is Verdict.LESS
    with pytest.raises(PrecisionError):
        a.require_compare(b)


def test_certified_scalar_interval_arithmetic():
    a = CertifiedScalar(F(1, 2), F(1, 10))
    b = CertifiedScalar(F(3), F(1, 5))
    s = a + b
    assert (s.lo, s.hi) == (F(1, 2) + 3 - F(3, 10), F(1, 2) + 3 + F(3, 10))
    prod = a * b
    candidates = [lo * ro for lo in (a.lo, a.hi) for ro in (b.lo, b.hi)]
    assert prod.lo == min(candidates) and prod.hi == max(candidates)


def test_certified_scalar_constructors_validate():
    with pytest.raises(DomainError):
        CertifiedScalar(F(1), F(-1))
    c = CertifiedScalar.from_bounds(F(1, 3), F(1, 2))
    assert c.lo == F(1, 3) and c.hi == F(1, 2)
    assert CertifiedScalar.exact(F(5, 9)).is_exact


def test_certified_vector_validation():
    with pytest.raises(DomainError):
        CertifiedVector(())
    with pytest.raises(DomainError):
        CertifiedVector((F(1, 2),), -1)
    v = as_vector(("2/7", "3/11"))
    assert v.dim == 2 and v.coords == (F(2, 7), F(3, 11))
    assert v == CertifiedVector((F(2, 7), F(3, 11)), 0) and hash(v) == hash(as_vector(v.coords))
    with pytest.raises(AttributeError):  # frozen
        v.radius = F(1)
    nums, den = v.common_denominator()
    assert [F(n, den) for n in nums] == list(v.coords)
