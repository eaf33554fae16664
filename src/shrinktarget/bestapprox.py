"""Best-approximation records and error step functions.

Two families of records for a target vector theta in R^d:

* simultaneous: integer multipliers q whose orbit point q*theta sets a new
  record distance to the lattice Z^d (sup norm);
* linear: nonzero integer vectors delta whose form value <delta, theta> sets
  a new record distance to Z, by increasing sup-norm height.

Both error functions are step functions of the height cutoff, constant
between consecutive records, which is what ErrorProfile exploits: one scan,
then O(log) lookups.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from . import _scan
from .errors import DomainError
from .exact import CertifiedScalar, _l1, as_vector, rational


@dataclass(frozen=True, slots=True)
class ApproxRecord:
    """One record of an approximation scan.

    witness is (q,) for simultaneous records and the lattice vector delta for
    linear ones; height is q, resp. the sup norm of delta.
    """

    index: int
    height: int
    witness: tuple[int, ...]
    value: CertifiedScalar


@dataclass(frozen=True, slots=True)
class ContinuedFraction:
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]  # (numerator, denominator) pairs

    def convergent(self, n: int) -> Fraction:
        p, q = self.convergents[n]
        return Fraction(p, q)


def continued_fraction(x) -> ContinuedFraction:
    """Regular continued fraction of a rational x in (0, 1).

    Returns the partial quotients a_1, a_2, ... of [0; a_1, a_2, ...] and the
    convergents p_n/q_n starting from p_1/q_1.  Rational input always
    terminates (with final quotient >= 2, except for x = 1/n), and the last
    convergent is x.
    """
    x = rational(x)
    if not 0 < x < 1:
        raise DomainError("continued_fraction expects x strictly between 0 and 1")
    num, den = x.denominator, x.numerator  # first step inverts x
    quotients = []
    convergents = []
    p_prev, q_prev = 1, 0
    p, q = 0, 1
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        quotients.append(a)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        convergents.append((p, q))
    return ContinuedFraction(tuple(quotients), tuple(convergents))


def best_simultaneous(theta, q_max: int, *,
                      budget: int = _scan.DEFAULT_BUDGET) -> list[ApproxRecord]:
    """All simultaneous best-approximation records with multiplier <= q_max."""
    return _records(_scan.simultaneous_scan, theta, q_max, budget)


def best_linear(theta, h_max: int, *,
                budget: int = _scan.DEFAULT_BUDGET) -> list[ApproxRecord]:
    """All linear best-approximation records with sup-norm height <= h_max."""
    return _records(_scan.linear_records, theta, h_max, budget)


def _records(scan, theta, h_max: int, budget: int) -> list[ApproxRecord]:
    """The records (height, witness, dist) of scan up to h_max, each certified
    as dist / den +- |witness|_1 times theta's radius."""
    theta = as_vector(theta)
    if h_max < 1:
        return []
    recs, den, _zero = scan(theta, int(h_max), budget=budget)
    return [
        ApproxRecord(i, h, w, CertifiedScalar(Fraction(dist, den), _l1(w) * theta.radius))
        for i, (h, w, dist) in enumerate(recs)
    ]


def simultaneous_error(theta, h, *, budget: int = _scan.DEFAULT_BUDGET) -> CertifiedScalar:
    """eps_s(h) = min over 1 <= q <= floor(h) of the distance from q*theta
    to the lattice."""
    return best_simultaneous(theta, _floor_height(h), budget=budget)[-1].value


def linear_error(theta, h, *, budget: int = _scan.DEFAULT_BUDGET) -> CertifiedScalar:
    """eps_l(h) = min over nonzero |delta|_sup <= floor(h) of the distance
    from <delta, theta> to the nearest integer."""
    value, _witness = _scan.linear_min(as_vector(theta), _floor_height(h), budget=budget)
    return value


def _floor_height(h) -> int:
    cut = rational(h)
    cut = cut.numerator // cut.denominator
    if cut < 1:
        raise DomainError("height cutoff must be >= 1")
    return cut


class ErrorProfile:
    """Step-function view of an error function from its record list.

    value(h) returns the record value in force at height floor(h); heights
    below the first record (only possible for h < 1) are a domain error.
    """

    def __init__(self, records: list[ApproxRecord], h_max: int):
        if not records:
            raise DomainError("empty record list")
        self.records = tuple(records)
        self.h_max = int(h_max)
        self._heights = [r.height for r in self.records]

    def value(self, h) -> CertifiedScalar:
        cut = _floor_height(h)
        if cut > self.h_max:
            raise DomainError(f"height {cut} beyond scanned range {self.h_max}")
        i = bisect.bisect_right(self._heights, cut) - 1
        if i < 0:
            raise DomainError(f"no record at or below height {cut}")
        return self.records[i].value


def linear_profile(theta, h_max: int) -> ErrorProfile:
    return ErrorProfile(best_linear(theta, h_max), int(h_max))
