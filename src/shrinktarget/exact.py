"""Exact arithmetic primitives: rationals, integer lattice points, and
certified scalars (exact endpoints lo <= hi) and vectors (exact center +
exact sup-norm error radius).

Everything here is exact.  A certified quantity is a rational interval,
stored as [lo, hi] for scalars (the endpoint form of Moore's interval
arithmetic) and as [value - radius, value + radius] per coordinate for
vectors; comparing two certified quantities yields a four-valued verdict and
*never* silently degrades to a boolean guess.  All norms are sup-norms and
all distances to the integer lattice are measured in the sup metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, PrecisionError

__all__ = [
    "rational",
    "Verdict",
    "CertifiedScalar",
    "CertifiedVector",
    "LatticePoint3",
    "dist_nearest_int",
    "dist_nearest_lattice",
    "is_primitive",
    "projective_distance",
    "certified_dist_nearest_lattice",
]


def rational(x) -> Fraction:
    """Coerce ints, fractions and strings ("3/7", "0.125") to an exact rational.

    Exact rationals are plain Fraction values: always reduced, with a positive
    denominator, and hashable.  Decimal strings parse exactly (no binary float
    ever intervenes).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not an exact rational: {x!r}") from exc
    if isinstance(x, float):
        raise DomainError(
            f"refusing float {x!r}: pass a string or Fraction for exactness"
        )
    raise DomainError(f"cannot interpret {type(x).__name__} as an exact rational")


class Verdict(Enum):
    """Outcome of a certified comparison.

    EQUAL is only ever produced when both operands are exact (radius zero) and
    their values coincide; with a positive radius the honest answer for
    overlapping intervals is INCONCLUSIVE.
    """

    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCONCLUSIVE = 2


@dataclass(frozen=True, slots=True, init=False)
class CertifiedScalar:
    """An exact rational interval [lo, hi], stored by its endpoints.

    CertifiedScalar(value, radius) builds [value - radius, value + radius];
    value and radius are derived from the endpoints on request.
    """

    lo: Fraction
    hi: Fraction

    def __init__(self, value, radius=Fraction(0)):
        value, radius = rational(value), rational(radius)
        if radius < 0:
            raise DomainError("certified radius must be >= 0")
        object.__setattr__(self, "lo", value - radius)
        object.__setattr__(self, "hi", value + radius)

    @classmethod
    def exact(cls, x) -> "CertifiedScalar":
        x = rational(x)
        return _interval(x, x)

    @classmethod
    def from_bounds(cls, lo, hi) -> "CertifiedScalar":
        lo, hi = rational(lo), rational(hi)
        if hi < lo:
            raise DomainError("from_bounds needs lo <= hi")
        return _interval(lo, hi)

    @property
    def value(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def compare(self, other) -> Verdict:
        """Four-valued interval comparison; conclusive only when the intervals
        are disjoint (or both degenerate and equal)."""
        if not isinstance(other, CertifiedScalar):
            other = CertifiedScalar.exact(other)
        if self.hi < other.lo:
            return Verdict.LESS
        if self.lo > other.hi:
            return Verdict.GREATER
        if self.lo == self.hi == other.lo == other.hi:
            return Verdict.EQUAL
        return Verdict.INCONCLUSIVE

    def require_compare(self, other, what: str = "quantities") -> Verdict:
        v = self.compare(other)
        if v is Verdict.INCONCLUSIVE:
            raise PrecisionError(
                f"comparison of {what} inconclusive: "
                f"[{self.lo}, {self.hi}] vs "
                f"[{(other.lo if isinstance(other, CertifiedScalar) else other)}, "
                f"{(other.hi if isinstance(other, CertifiedScalar) else other)}]"
            )
        return v

    def __add__(self, other):
        if isinstance(other, CertifiedScalar):
            return _interval(self.lo + other.lo, self.hi + other.hi)
        k = rational(other)
        return _interval(self.lo + k, self.hi + k)

    __radd__ = __add__

    def __neg__(self):
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CertifiedScalar) else -rational(other))

    def __mul__(self, other):
        if isinstance(other, CertifiedScalar):
            cands = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
            return _interval(min(cands), max(cands))
        k = rational(other)
        lo, hi = self.lo * k, self.hi * k
        return _interval(lo, hi) if k >= 0 else _interval(hi, lo)

    __rmul__ = __mul__

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return _interval(Fraction(0), max(-self.lo, self.hi))

    def __str__(self):
        if self.is_exact:
            return str(self.lo)
        return f"{self.value} ± {self.radius}"


def _interval(lo: Fraction, hi: Fraction) -> CertifiedScalar:
    """[lo, hi] from endpoints already known to be rationals with lo <= hi."""
    out = object.__new__(CertifiedScalar)
    object.__setattr__(out, "lo", lo)
    object.__setattr__(out, "hi", hi)
    return out


@dataclass(frozen=True, slots=True)
class CertifiedVector:
    """A vector of exact rational coordinates with one shared sup-norm radius."""

    coords: tuple[Fraction, ...]
    radius: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(rational(c) for c in self.coords))
        if not self.coords:
            raise DomainError("empty vector")
        object.__setattr__(self, "radius", rational(self.radius))
        if self.radius < 0:
            raise DomainError("certified radius must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def common_denominator(self) -> tuple[tuple[int, ...], int]:
        """Return (numerators, D) with coords[i] == numerators[i] / D."""
        d = 1
        for c in self.coords:
            d = d * c.denominator // math.gcd(d, c.denominator)
        return tuple(int(c * d) for c in self.coords), d


@dataclass(frozen=True, slots=True)
class LatticePoint3:
    """Integer point of Z^3 with sup-norm and wedge (cross) product."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not isinstance(c, int):
                raise DomainError("lattice coordinates must be ints")

    @property
    def norm(self) -> int:
        return max(abs(self.x), abs(self.y), abs(self.z))

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def dot(self, other: "LatticePoint3") -> int:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def wedge(self, other: "LatticePoint3") -> "LatticePoint3":
        return LatticePoint3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def __add__(self, other):
        return LatticePoint3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return LatticePoint3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return LatticePoint3(-self.x, -self.y, -self.z)

    def scale(self, k: int) -> "LatticePoint3":
        return LatticePoint3(k * self.x, k * self.y, k * self.z)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def is_primitive(p: LatticePoint3) -> bool:
    """True iff gcd of the coordinates is 1.  The zero point is an error."""
    if p.is_zero:
        raise DomainError("primitivity of the zero point is undefined")
    return math.gcd(p.x, p.y, p.z) == 1


def dist_nearest_int(x) -> Fraction:
    """Distance from x to the nearest integer (values in [0, 1/2])."""
    x = rational(x)
    r = x - (x.numerator // x.denominator)
    return min(r, 1 - r)


def dist_nearest_lattice(coords: Sequence) -> Fraction:
    """Sup-norm distance from a rational point to the nearest point of Z^d."""
    coords = [rational(c) for c in coords]
    if not coords:
        raise DomainError("empty point")
    return max(dist_nearest_int(c) for c in coords)


def as_vector(theta) -> CertifiedVector:
    """Coerce a scalar, sequence, or CertifiedVector to a CertifiedVector."""
    if isinstance(theta, CertifiedVector):
        return theta
    if isinstance(theta, (int, str, Fraction)):
        return CertifiedVector((theta,))
    return CertifiedVector(theta)


def _l1(delta) -> int:
    """|delta|_1, the weight of theta's radius in the form <delta, theta>: a
    sup-norm perturbation of theta by r moves the form by at most |delta|_1 r."""
    return sum(abs(c) for c in delta)


def _dist(nums, den: int, q: int) -> int:
    """Exact integer distance D_q of q*theta to the lattice, over den, for
    theta = nums / den."""
    return max(min(m, den - m) for m in (q * p % den for p in nums))


def _distances_to_z(theta: CertifiedVector):
    """(form, lattice, L) for theta: form(delta) and lattice(q) are the ends
    lo <= hi of certified_form_dist(delta, theta) and
    certified_dist_nearest_lattice(q, theta), as integers over L.

    Both read theta as nums / den and its radius r as rn / rd, with
    L = lcm(den, rd) taken once here: a centre is the integer residue s mod
    den, and the ends |s / den|_Z -+ w r, for the weight w the value's
    perturbation carries, are integers over L, not reduced.
    """
    nums, den = theta.common_denominator()
    r, g = theta.radius, math.gcd(den, theta.radius.denominator)
    to_l, rad = r.denominator // g, r.numerator * (den // g)  # L = den * to_l

    def near(s: int, w: int) -> tuple[int, int]:
        c, e = min(s % den, -s % den) * to_l, w * rad
        return c - e, c + e

    def form(delta: Sequence) -> tuple[int, int]:
        delta = [int(c) for c in delta]
        if len(delta) != len(nums):
            raise DomainError("form vector and theta have different dimensions")
        return near(sum(c * a for c, a in zip(delta, nums)), _l1(delta))

    def lattice(q: int) -> tuple[int, int]:
        if not isinstance(q, int):
            raise DomainError("multiplier must be an int")
        if q == 0:
            raise DomainError("multiplier must be nonzero")
        return near(_dist(nums, den, q), abs(q))

    return form, lattice, den * to_l


def certified_dist_nearest_lattice(q: int, theta: CertifiedVector) -> CertifiedScalar:
    """Certified distance from q*theta to Z^d.

    The lattice distance is 1-Lipschitz in the sup metric, so a perturbation of
    theta by at most r moves the distance by at most |q| * r.
    """
    _, lattice, big_l = _distances_to_z(theta)
    return _interval(*(Fraction(e, big_l) for e in lattice(q)))


def certified_form_dist(delta: Sequence, theta: CertifiedVector) -> CertifiedScalar:
    """Certified distance from <delta, theta> to the nearest integer.

    A sup-norm perturbation of theta by r moves the form value by at most
    |delta|_1 * r, and the distance to Z is 1-Lipschitz.
    """
    form, _, big_l = _distances_to_z(theta)
    return _interval(*(Fraction(e, big_l) for e in form(delta)))


def projective_distance(p: LatticePoint3, q: LatticePoint3) -> Fraction:
    """d(p~, q~) = |p ^ q| / (|p| |q|) on the projective plane (sup norms)."""
    if p.is_zero or q.is_zero:
        raise DomainError("projective distance needs nonzero points")
    return Fraction(p.wedge(q).norm, p.norm * q.norm)
