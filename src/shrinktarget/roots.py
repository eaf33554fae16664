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
    """Enclosure lo <= x**(1/k) <= hi with hi - lo <= 2**-rel_bits * lo (x > 0).

    x == 0 returns (0, 0).
    """
    x = rational(x)
    if x < 0:
        raise DomainError("root of a negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    if k == 1:
        return x, x
    # log2(x)/k estimated from bit lengths to place the scaling
    mag = x.numerator.bit_length() - x.denominator.bit_length()
    m = rel_bits + 2 + max(0, -(mag // k) + 1)
    while True:
        s = 1 << m
        t = iroot(x.numerator * s**k // x.denominator, k)
        if t >> rel_bits:
            return Fraction(t, s), Fraction(t + 1, s)
        m += rel_bits - t.bit_length() + 2


def pow_enclosure(lo, hi, num: int, den: int) -> tuple[Fraction, Fraction]:
    """Enclosure of t**(num/den) over t in [lo, hi]; needs lo >= 0, den >= 1.

    num may be negative (then lo must be > 0).  Each end comes from one
    nth_root_enclosure of relative width 2^-64.
    """
    lo, hi = rational(lo), rational(hi)
    if den < 1:
        raise DomainError("denominator of the exponent must be >= 1")
    if lo < 0 or hi < lo:
        raise DomainError("invalid base interval")
    if num < 0:
        if lo == 0:
            raise DomainError("negative power of an interval touching 0")
        lo, hi = 1 / hi, 1 / lo
        num = -num
    if num == 0:
        return Fraction(1), Fraction(1)
    g = math.gcd(num, den)
    num, den = num // g, den // g
    a = nth_root_enclosure(lo**num, den)
    if hi == lo:  # a point: one enclosure gives both ends
        return a
    return a[0], nth_root_enclosure(hi**num, den)[1]


def log2_enclosure(x, frac_bits: int = 32) -> tuple[Fraction, Fraction]:
    """Enclosure of log2(x) for x > 0, width about 2**(1 - frac_bits).

    Digit-by-digit squaring with directed fixed-point rounding: the floor
    process yields a lower bound, the ceiling process an upper bound.  The
    digits of both are collected as integers over 2**frac_bits.
    """
    x = rational(x)
    if x <= 0:
        raise DomainError("log of a nonpositive value")
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    if num << max(-e, 0) < den << max(e, 0):
        e -= 1
    # m = x / 2^e in [1, 2) in p-bit fixed point: a rounded down, b up
    p = frac_bits + 8
    k = p - e
    num, den = (num << k, den) if k >= 0 else (num, den << -k)
    a, b = num // den, -(-num // den)
    two = 2 << p
    lo = hi = 0
    for _ in range(frac_bits):
        a = (a * a) >> p
        lo <<= 1
        if a >= two:
            a >>= 1
            lo |= 1
        b = -((-(b * b)) >> p)
        hi <<= 1
        if b >= two:
            b = (b + 1) >> 1
            hi |= 1
    scale = 1 << frac_bits
    return Fraction((e << frac_bits) + lo, scale), Fraction((e << frac_bits) + hi + 2, scale)


def sqrt_upper(x) -> Fraction:
    """A rational upper bound for sqrt(x), tight to ~2**-32 relative."""
    return nth_root_enclosure(x, 2, 32)[1]
