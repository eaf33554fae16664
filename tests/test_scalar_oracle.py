"""CertifiedScalar against the (value, radius) class it replaced.

oracle_CertifiedScalar below is the previous implementation, kept verbatim
(renamed) as the reference: the endpoint class must give the same endpoints,
centre, radius, text, verdicts and exception texts under every operation.
"""

from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from shrinktarget.errors import DomainError, PrecisionError
from shrinktarget.exact import CertifiedScalar, Verdict, rational


@dataclass(frozen=True, slots=True)
class oracle_CertifiedScalar:
    """An exact rational center plus an exact nonnegative error radius."""

    value: Fraction
    radius: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "value", rational(self.value))
        object.__setattr__(self, "radius", rational(self.radius))
        if self.radius < 0:
            raise DomainError("certified radius must be >= 0")

    @classmethod
    def exact(cls, x) -> "oracle_CertifiedScalar":
        return cls(rational(x), Fraction(0))

    @classmethod
    def from_bounds(cls, lo, hi) -> "oracle_CertifiedScalar":
        lo, hi = rational(lo), rational(hi)
        if hi < lo:
            raise DomainError("from_bounds needs lo <= hi")
        return cls((lo + hi) / 2, (hi - lo) / 2)

    @property
    def lo(self) -> Fraction:
        return self.value - self.radius

    @property
    def hi(self) -> Fraction:
        return self.value + self.radius

    @property
    def is_exact(self) -> bool:
        return self.radius == 0

    def compare(self, other) -> Verdict:
        """Four-valued interval comparison; conclusive only when the intervals
        are disjoint (or both degenerate and equal)."""
        if not isinstance(other, oracle_CertifiedScalar):
            other = oracle_CertifiedScalar.exact(other)
        if self.hi < other.lo:
            return Verdict.LESS
        if self.lo > other.hi:
            return Verdict.GREATER
        if self.is_exact and other.is_exact and self.value == other.value:
            return Verdict.EQUAL
        return Verdict.INCONCLUSIVE

    def require_compare(self, other, what: str = "quantities") -> Verdict:
        v = self.compare(other)
        if v is Verdict.INCONCLUSIVE:
            raise PrecisionError(
                f"comparison of {what} inconclusive: "
                f"[{self.lo}, {self.hi}] vs "
                f"[{(other.lo if isinstance(other, oracle_CertifiedScalar) else other)}, "
                f"{(other.hi if isinstance(other, oracle_CertifiedScalar) else other)}]"
            )
        return v

    def __add__(self, other):
        if isinstance(other, oracle_CertifiedScalar):
            return oracle_CertifiedScalar(self.value + other.value, self.radius + other.radius)
        return oracle_CertifiedScalar(self.value + rational(other), self.radius)

    __radd__ = __add__

    def __neg__(self):
        return oracle_CertifiedScalar(-self.value, self.radius)

    def __sub__(self, other):
        return self + (-other if isinstance(other, oracle_CertifiedScalar) else -rational(other))

    def __mul__(self, other):
        if isinstance(other, oracle_CertifiedScalar):
            # interval product via endpoints (exact)
            cands = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
            return oracle_CertifiedScalar.from_bounds(min(cands), max(cands))
        k = rational(other)
        return oracle_CertifiedScalar(self.value * k, self.radius * abs(k))

    __rmul__ = __mul__

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return oracle_CertifiedScalar(-self.value, self.radius)
        return oracle_CertifiedScalar.from_bounds(Fraction(0), max(-self.lo, self.hi))

    def __str__(self):
        if self.is_exact:
            return str(self.value)
        return f"{self.value} ± {self.radius}"


# --- strategies: denominators up to 2^300 ----------------------------------------

rationals = st.builds(Fraction, st.integers(-2 ** 310, 2 ** 310), st.integers(1, 2 ** 300))
small_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
any_rational = st.one_of(rationals, small_rationals, st.integers(-5, 5))
radii = st.one_of(st.just(0), rationals.map(abs), small_rationals.map(abs))


@st.composite
def intervals(draw):
    """(value, radius): points, generic intervals, and intervals straddling 0."""
    value, radius = draw(any_rational), draw(radii)
    if draw(st.booleans()):
        radius = abs(value) + radius  # contains 0, or touches it at an endpoint
    return value, radius


# a float operand is refused with the same DomainError text by both classes
scalars = st.one_of(any_rational, st.just(0.5))


def both(pair):
    return CertifiedScalar(*pair), oracle_CertifiedScalar(*pair)


def outcome(fn):
    """What fn() gives, in a form comparable across the two classes."""
    try:
        r = fn()
    except (DomainError, PrecisionError) as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(r, (CertifiedScalar, oracle_CertifiedScalar)):
        return ("scalar", r.lo, r.hi, r.value, r.radius, r.is_exact, str(r))
    return ("value", r)


def assert_same(new_fn, old_fn):
    got, want = outcome(new_fn), outcome(old_fn)
    assert got == want


BINARY = (
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a.compare(b),
    lambda a, b: a.require_compare(b, "oracle operands"),
)


@settings(deadline=None, max_examples=300)
@given(intervals(), intervals())
def test_interval_operands_match_oracle(x, y):
    a, a0 = both(x)
    b, b0 = both(y)
    assert_same(lambda: a, lambda: a0)
    for op in (lambda s: -s, abs):
        assert_same(lambda: op(a), lambda: op(a0))
    for op in BINARY:
        assert_same(lambda: op(a, b), lambda: op(a0, b0))
        assert_same(lambda: op(a, a), lambda: op(a0, a0))
    assert (a == b) == (a0 == b0)
    if a == b:
        assert hash(a) == hash(b)


@settings(deadline=None, max_examples=300)
@given(intervals(), scalars)
def test_scalar_operands_match_oracle(x, k):
    a, a0 = both(x)
    for op in (lambda s: s + k, lambda s: k + s, lambda s: s - k, lambda s: s * k,
               lambda s: k * s, lambda s: s.compare(k),
               lambda s: s.require_compare(k, "oracle operands")):
        assert_same(lambda: op(a), lambda: op(a0))


@settings(deadline=None, max_examples=200)
@given(intervals(), radii)
def test_endpoint_points_match_oracle(x, r):
    """An interval against the points at its endpoints, and against an
    interval sharing one endpoint: EQUAL needs both operands exact."""
    a, a0 = both(x)
    for lo, hi in ((a.lo, a.lo), (a.hi, a.hi), (a.lo, a.lo + r), (a.hi - r, a.hi)):
        b, b0 = CertifiedScalar.from_bounds(lo, hi), oracle_CertifiedScalar.from_bounds(lo, hi)
        for op in BINARY:
            assert_same(lambda: op(a, b), lambda: op(a0, b0))
            assert_same(lambda: op(b, a), lambda: op(b0, a0))


@given(any_rational, any_rational, any_rational)
def test_constructors_match_oracle(u, v, w):
    for args in ((u, v), (u, abs(v)), (u,)):
        assert_same(lambda: CertifiedScalar(*args), lambda: oracle_CertifiedScalar(*args))
    for lo, hi in ((u, v), (min(u, v), max(u, v))):
        assert_same(lambda: CertifiedScalar.from_bounds(lo, hi),
                    lambda: oracle_CertifiedScalar.from_bounds(lo, hi))
    assert_same(lambda: CertifiedScalar.exact(w), lambda: oracle_CertifiedScalar.exact(w))


def test_invalid_inputs_match_oracle():
    for args in ((Fraction(1), Fraction(-1)), ("abc",), (0.5,), (1, "x/0"), (1, None)):
        assert_same(lambda: CertifiedScalar(*args), lambda: oracle_CertifiedScalar(*args))
    for lo, hi in ((1, 0), ("1/3", "0.25"), (0.1, 1)):
        assert_same(lambda: CertifiedScalar.from_bounds(lo, hi),
                    lambda: oracle_CertifiedScalar.from_bounds(lo, hi))
