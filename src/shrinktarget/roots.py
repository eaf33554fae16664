"""Certified radicals and logarithms over exact rationals.

Irrational values (k-th roots, base-2 logarithms) never appear as floats;
each is returned as a rational enclosure [lo, hi] whose width is controlled
by an explicit bit count.  All internal work is integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .exact import rational

_MAX_ROOT_ORDER = 256  # the largest root order a delta = p/q may ask for: bounds their cost

__all__ = [
    "iroot",
    "iroot_ceil",
    "nth_root_enclosure",
    "pow_enclosure",
    "log2_enclosure",
    "sqrt_upper",
]


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on ints."""
    if k <= 0:
        raise DomainError("root order must be positive")
    if n < 0:
        raise DomainError("integer root of a negative number")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    if k % 2 == 0:  # floor(n^(1/2j)) = floor(floor(sqrt(n))^(1/j))
        return iroot(math.isqrt(n), k // 2)
    # initial overestimate from the bit length
    return _iroot_from(n, k, 1 << -(-n.bit_length() // k))


def _iroot_from(n: int, k: int, x: int) -> int:
    """floor(n ** (1/k)) for n >= 1, k >= 1, by monotone Newton descent from
    any x >= that root: every step above the root stays at or above it."""
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:  # guard (at most a step or two)
        x -= 1
    return x


def iroot_ceil(n: int, k: int) -> int:
    r = iroot(n, k)
    return r if r ** k == n else r + 1


def nth_root_enclosure(x, k: int, rel_bits: int = 64) -> tuple[Fraction, Fraction]:
    """Enclosure lo <= x**(1/k) <= hi with hi - lo <= 2**-rel_bits * lo (x > 0,
    k >= 1).

    x == 0 returns (0, 0).
    """
    if k < 1:
        raise DomainError("root order must be positive")
    x = rational(x)
    if x < 0:
        raise DomainError("root of a negative rational")
    if k == 1:
        return x, x
    return _root_enclosure(x, x, k, rel_bits)


def _root_units(num: int, den: int, k: int, rel_bits: int = 64) -> tuple[int, int]:
    """(t, m) with t/2^m <= (num/den)^(1/k) < (t+1)/2^m and t >= 2^rel_bits,
    for coprime num, den >= 1 and k >= 2, from one integer root.

    The first scale m is placed from the bit lengths of num and den, so an
    unreduced pair may start one scale off and give other (t, m).  That
    scale already gives t >= 2^rel_bits: with mag = bl(num) - bl(den),
    log2(num/den) > mag - 1, and m >= rel_bits + 2 - mag/k, so
    log2(t + 1) > m + (mag - 1)/k >= rel_bits + 2 - 1/k >= rel_bits + 3/2.
    """
    mag = num.bit_length() - den.bit_length()  # about log2(num/den)
    m = rel_bits + 2 + max(0, -(mag // k) + 1)
    return iroot((num << m * k) // den, k), m


def _root_ends(lo: tuple[int, int], hi: tuple[int, int], k: int, rel_bits: int = 64):
    """(t_lo, m_lo, t_hi, m_hi): [lo, hi]^(1/k) lies in
    [t_lo / 2^m_lo, t_hi / 2^m_hi], for coprime pairs 0 <= lo <= hi and k >= 2.

    The enclosure rule of every certified root: the lower end is the lower
    end of the root of lo and the upper end the upper end of the root of hi,
    each from _root_units; a zero end is 0 without a root, and a point takes
    one root, whose two ends bound it.
    """
    if lo[0] == 0:
        if hi[0] == 0:
            return 0, 0, 0, 0
        t_lo = m_lo = 0
    else:
        t_lo, m_lo = _root_units(*lo, k, rel_bits)
        if hi == lo:
            return t_lo, m_lo, t_lo + 1, m_lo
    t_hi, m_hi = _root_units(*hi, k, rel_bits)
    return t_lo, m_lo, t_hi + 1, m_hi


def _root_enclosure(lo: Fraction, hi: Fraction, k: int, rel_bits: int = 64):
    """The ends of _root_ends for rationals 0 <= lo <= hi, as Fractions."""
    t_lo, m_lo, t_hi, m_hi = _root_ends((lo.numerator, lo.denominator),
                                        (hi.numerator, hi.denominator), k, rel_bits)
    return Fraction(t_lo, 1 << m_lo), Fraction(t_hi, 1 << m_hi)


def pow_enclosure(lo, hi, num: int, den: int) -> tuple[Fraction, Fraction]:
    """Enclosure of t**(num/den) over t in [lo, hi]; needs num >= 1, den >= 1
    and 0 <= lo <= hi.  The power lo**num, hi**num is exact, and its root of
    order den (in lowest terms) takes _root_ends' rule at relative width 2^-64.
    """
    lo, hi = rational(lo), rational(hi)
    if num < 1 or den < 1:
        raise DomainError("the exponent num/den needs num >= 1 and den >= 1")
    if lo < 0 or hi < lo:
        raise DomainError("invalid base interval")
    g = math.gcd(num, den)
    num, den = num // g, den // g
    lo, hi = lo ** num, hi ** num
    if den == 1:
        return lo, hi
    return _root_enclosure(lo, hi, den)


def log2_enclosure(x, frac_bits: int = 32) -> tuple[Fraction, Fraction]:
    """Enclosure of log2(x) for x > 0, width about 2**(1 - frac_bits).

    Digit-by-digit squaring with directed fixed-point rounding: the floor
    process yields a lower bound, the ceiling process an upper bound
    (_log2_units gives each end as an integer over 2**frac_bits).
    """
    x = rational(x)
    if x <= 0:
        raise DomainError("log of a nonpositive value")
    scale = 1 << frac_bits
    return (Fraction(_log2_units(x, frac_bits, False), scale),
            Fraction(_log2_units(x, frac_bits, True), scale))


def _log2_units(x, frac_bits: int, up: bool) -> int:
    """2**frac_bits times the lower end of log2_enclosure(x, frac_bits), or
    with `up` its upper end; x is a positive int or Fraction."""
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    if num << max(-e, 0) < den << max(e, 0):
        e -= 1
    # m = x / 2^e in [1, 2) in p-bit fixed point, rounded in the direction
    p = frac_bits + 8
    k = p - e
    num, den = (num << k, den) if k >= 0 else (num, den << -k)
    bump = (1 << p) - 1 if up else 0
    m = -(-num // den) if up else num // den
    two = 2 << p
    digits = 0
    for _ in range(frac_bits):
        m = (m * m + bump) >> p
        digits <<= 1
        if m >= two:
            m = (m + up) >> 1
            digits |= 1
    return (e << frac_bits) + digits + 2 * up


def sqrt_upper(x) -> Fraction:
    """A rational upper bound for sqrt(x), tight to ~2**-32 relative."""
    return nth_root_enclosure(x, 2, 32)[1]
