"""Integer roots and certified enclosures for fractional powers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shrinktarget.errors import DomainError
from shrinktarget.roots import (_iroot_from, _log2_units, _root_units, iroot, iroot_ceil,
                                log2_enclosure, nth_root_enclosure, pow_enclosure,
                                sqrt_upper)

F = Fraction


def test_iroot_small_cases():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(10**30, 2) == 10**15
    assert iroot_ceil(26, 3) == 3
    assert iroot_ceil(27, 3) == 3


@given(st.integers(min_value=0, max_value=10**40), st.integers(2, 7))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=0, max_value=2**4096), st.sampled_from((2, 4, 6)))
@example(2 ** 4096, 2)
@example(2 ** 4096 - 1, 4)
@example((3 ** 500) ** 6 - 1, 6)
def test_even_iroot_is_floor_root_of_large_numbers(n, k):
    """Even orders go through math.isqrt (order 2 directly): the orbit's
    level ladder takes one square root per level when delta = p/2."""
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=1, max_value=10**40), st.integers(1, 7),
       st.one_of(st.integers(0, 3), st.integers(0, 10**25)))
def test_iroot_descends_from_any_start_above_the_root(n, k, extra):
    r = iroot(n, k)
    assert _iroot_from(n, k, r + extra) == r


@given(st.integers(min_value=0, max_value=10**40), st.integers(2, 7))
def test_iroot_ceil_is_ceiling_root(n, k):
    r = iroot_ceil(n, k)
    assert (r - 1) ** k < n <= r ** k or (n == 0 and r == 0)


def test_iroot_rejects_negative():
    with pytest.raises(DomainError):
        iroot(-1, 2)
    with pytest.raises(DomainError, match="root of a negative rational"):
        nth_root_enclosure(-1, 3)
    for x, k in ((2, 0), (2, -1), (0, 0)):  # root orders below 1, before any work
        with pytest.raises(DomainError, match="root order must be positive"):
            nth_root_enclosure(x, k)
        with pytest.raises(DomainError, match="root order must be positive"):
            iroot(x, k)


@given(st.fractions(min_value=Fraction(1, 10**12), max_value=Fraction(10**12)),
       st.integers(2, 5))
def test_nth_root_enclosure_brackets(x, k):
    lo, hi = nth_root_enclosure(x, k)
    assert 0 <= lo <= hi
    assert lo ** k <= x <= hi ** k
    # relative width respects the default tolerance (with slack for rounding)
    if lo > 0:
        assert (hi - lo) / lo <= Fraction(1, 2**60)


def oracle_root_units(x, k, rel_bits=64):
    """The loop of nth_root_enclosure before it called _root_units: (t, m)
    with x^(1/k) in [t/2^m, (t+1)/2^m], for a rational x > 0 and k >= 2."""
    mag = x.numerator.bit_length() - x.denominator.bit_length()
    m = rel_bits + 2 + max(0, -(mag // k) + 1)
    while True:
        s = 1 << m
        t = iroot(x.numerator * s**k // x.denominator, k)
        if t >> rel_bits:
            return t, m
        m += rel_bits - t.bit_length() + 2


@st.composite
def _scale_edge_bases(draw):
    """(x, k) with bit lengths of numerator and denominator (up to 15000)
    differing by -1 mod k, where the first scale moves.  One of the two is a
    power of two and the other odd, so the pair is coprime with those bit
    lengths; `near` puts the odd one next to a power of two."""
    k = draw(st.integers(2, 256))
    den_bits = draw(st.integers(1, 15000))
    j = draw(st.integers(-((den_bits - 2) // k), (15001 - den_bits) // k))
    num_bits = den_bits + j * k - 1
    near = draw(st.booleans())

    def odd(bits):
        if bits == 1:
            return 1
        low = 1 if near else 2 * draw(st.integers(0, 2 ** (bits - 2) - 1)) + 1
        return 2 ** (bits - 1) + low
    if draw(st.booleans()):
        return F(odd(num_bits), 2 ** (den_bits - 1)), k
    return F(2 ** (num_bits - 1), odd(den_bits)), k


_BIG = st.integers(1, 2**15000)


@settings(deadline=None, max_examples=150)
@given(st.one_of(_scale_edge_bases(),
                 st.tuples(st.builds(F, _BIG, _BIG), st.integers(2, 256)),
                 st.tuples(st.fractions(min_value=F(1, 2**64), max_value=F(2**64)).filter(bool),
                           st.integers(2, 256))),
       st.sampled_from([32, 64]))
@example((F(1), 2), 64)
@example((F(2**255 - 1, 2**255), 256), 64)
@example((F(2**13999 - 1, 2**13999 + 1), 255), 32)
def test_root_units_match_the_enclosure_loop(base, rel_bits):
    x, k = base
    t, m = _root_units(x.numerator, x.denominator, k, rel_bits)
    assert (t, m) == oracle_root_units(x, k, rel_bits)
    assert nth_root_enclosure(x, k, rel_bits) == (F(t, 2**m), F(t + 1, 2**m))


@settings(deadline=None, max_examples=100)
@given(st.builds(F, _BIG, _BIG), st.integers(2, 256))
def test_zero_and_point_ends_take_the_enclosure_loop(x, k):
    """A zero end is 0 without a root; a point takes one root for both ends."""
    t, m = oracle_root_units(x, k)
    assert nth_root_enclosure(0, k) == (0, 0)
    assert pow_enclosure(x, x, 1, k) == (F(t, 2**m), F(t + 1, 2**m))
    assert pow_enclosure(0, x, 1, k) == (0, F(t + 1, 2**m))
    assert pow_enclosure(0, 0, 1, k) == (0, 0)


def test_nth_root_enclosure_exact_cube():
    lo, hi = nth_root_enclosure(Fraction(27), 3)
    assert lo <= 3 <= hi
    assert nth_root_enclosure(Fraction(2, 3), 1) == (Fraction(2, 3), Fraction(2, 3))


@given(st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**9)))
def test_pow_enclosure_brackets_two_thirds_power(x):
    lo, hi = pow_enclosure(x, x, 2, 3)
    assert lo ** 3 <= x ** 2 <= hi ** 3


def test_pow_enclosure_monotone_in_interval():
    lo1, hi1 = pow_enclosure(Fraction(1, 4), Fraction(1, 2), 1, 2)
    assert lo1 ** 2 <= Fraction(1, 4) and hi1 ** 2 >= Fraction(1, 2)


@pytest.mark.parametrize("num", [0, -1])
def test_pow_enclosure_refuses_exponents_below_one(num):
    with pytest.raises(DomainError, match="num >= 1"):
        pow_enclosure(F(1, 2), F(2), num, 3)


def test_sqrt_upper_dominates():
    for x in (Fraction(2), Fraction(1, 3), Fraction(10**8), Fraction(0)):
        u = sqrt_upper(x)
        assert u * u >= x


def test_log2_enclosure_exact_powers():
    lo, hi = log2_enclosure(Fraction(8))
    assert lo <= 3 <= hi
    lo, hi = log2_enclosure(Fraction(1, 4))
    assert lo <= -2 <= hi


@given(st.fractions(min_value=Fraction(1, 10**15), max_value=Fraction(10**15)))
def test_log2_enclosure_brackets(x):
    if x <= 0:
        return
    lo, hi = log2_enclosure(x)
    assert lo <= hi
    # float log2 as an oracle, with slack far above float error but far
    # below any real enclosure defect
    import math
    ref = math.log2(x.numerator) - math.log2(x.denominator)
    assert float(lo) - 1e-6 <= ref <= float(hi) + 1e-6


def oracle_log2_enclosure(x, frac_bits=32):
    """log2_enclosure with Fraction digit sums and a Fraction mantissa: the
    reference the integer form must match exactly."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / F(2**e) if e >= 0 else x * F(2**-e)
    if m < 1:
        m *= 2
        e -= 1
    p = frac_bits + 8
    one, two = 1 << p, 2 << p
    a = m.numerator * one // m.denominator
    b = -((-m.numerator * one) // m.denominator)
    lo = hi = F(0)
    for i in range(1, frac_bits + 1):
        w = F(1, 1 << i)
        a = (a * a) >> p
        if a >= two:
            a >>= 1
            lo += w
        b = -((-(b * b)) >> p)
        if b >= two:
            b = (b + 1) >> 1
            hi += w
    return e + lo, e + hi + F(2, 1 << frac_bits)


_POW2_NEAR = st.builds(lambda k, s, inv: F(2**k + s) if not inv else F(1, 2**k + s),
                       st.integers(1, 256), st.sampled_from([-1, 0, 1]), st.booleans())


@given(st.one_of(st.integers(1, 2**256).map(F),
                 st.fractions(min_value=F(1, 2**200), max_value=F(2**200)).filter(bool),
                 st.builds(F, st.integers(1, 2**256), st.integers(1, 2**256)),
                 _POW2_NEAR),
       st.sampled_from([0, 1, 8, 32, 33, 64]))
@example(F(1), 32)
@example(F(3), 32)
@example(F(1, 3), 32)
@example(F(2**200), 32)
@example(F(1, 2**70), 32)
def test_log2_enclosure_matches_oracle(x, frac_bits):
    assert log2_enclosure(x, frac_bits) == oracle_log2_enclosure(x, frac_bits)
    assert log2_enclosure(x) == oracle_log2_enclosure(x)


def test_log2_enclosure_rejects_nonpositive():
    with pytest.raises(DomainError):
        log2_enclosure(Fraction(0))


_INT_NEAR_POW2 = st.builds(lambda k, s: 2**k + s, st.integers(1, 256),
                           st.sampled_from([-1, 0, 1]))


@given(st.one_of(st.integers(1, 2**256), _INT_NEAR_POW2, _POW2_NEAR,
                 st.fractions(min_value=F(1, 2**200), max_value=F(2**200)).filter(bool),
                 st.builds(F, st.integers(1, 2**256), st.integers(1, 2**256))))
@example(1)
@example(F(1, 3))
@example(F(2**200))
def test_log2_units_are_the_enclosure_ends_over_2_32(x):
    ends = oracle_log2_enclosure(F(x))
    assert log2_enclosure(x) == ends
    for up in (False, True):
        assert _log2_units(x, 32, up) == ends[up] * 2**32


@given(st.one_of(st.integers(1, 10**40), st.integers(1, 2**800),
                 st.integers(1, 400).map(lambda k: 2**k - 1),
                 st.integers(1, 400).map(lambda k: 2**k)),
       st.integers(1, 6))
def test_even_order_iroot_matches_newton_descent(n, j):
    """iroot takes order 2j through math.isqrt; Newton descent from the
    bit-length start is the reference."""
    k = 2 * j
    assert iroot(n, k) == _iroot_from(n, k, 1 << -(-n.bit_length() // k))
    r = 1 + n % 1000
    assert iroot(r**k, k) == r and iroot(r**k - 1, k) == r - 1
