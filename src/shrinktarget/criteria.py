"""Series criteria and inequalities deciding the logarithm property.

Each series evaluator returns a SeriesReport carrying certified term
enclosures and running partial sums; no convergence of an infinite series is
ever asserted from finitely many terms, the verdict strings are descriptive.

Fractional powers are certified root enclosures (relative tolerance 2^-64).
Wherever the exponent tower allows it, a term is rewritten as a single k-th
root of a rational -- e.g. the weighted-error term
k^-1 (k^delta eps)^(1/(delta+1)) collapses to (eps/k)^(1/(delta+1)) -- so one
enclosure per term suffices.  That root is taken over the exact endpoints
lo <= hi of the certified error, scaled by the term's positive factor: no
interval product is formed, a point (exact theta) costs one root, and lo < 0
raises DomainError("invalid base interval") in every series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import _scan
from .bestapprox import (best_linear, best_simultaneous, linear_error, linear_profile,
                         simultaneous_error)
from .errors import DegenerateInputError, DomainError, PrecisionError
from .exact import (CertifiedScalar, Verdict, as_vector, certified_dist_nearest_lattice,
                    certified_form_dist, rational)
from .roots import pow_enclosure


def _power(lo: Fraction, hi: Fraction, num: int, den: int) -> CertifiedScalar:
    """[lo, hi]^(num/den) from one `pow_enclosure` call."""
    return CertifiedScalar.from_bounds(*pow_enclosure(lo, hi, num, den))


def _sup_norm(vec) -> int:
    v = max(abs(int(c)) for c in vec)
    if v == 0:
        raise DomainError("zero vector has no norm record")
    return v


# ---------------------------------------------------------------------------
# series reports


@dataclass(frozen=True)
class SeriesReport:
    label: str
    terms: tuple[tuple[int, CertifiedScalar], ...]  # (index n, term value)
    partial_sums: tuple[CertifiedScalar, ...]
    verdict: str

    def window_sum(self, lo: int, hi: int) -> CertifiedScalar:
        """Sum of the terms with index n in [lo, hi] (inclusive)."""
        inside = [t for n, t in self.terms if lo <= n <= hi]
        if not inside:
            raise DomainError(f"no terms with index in [{lo}, {hi}]")
        return sum(inside, CertifiedScalar.exact(0))


def _assemble(label: str, terms: list[tuple[int, CertifiedScalar]]) -> SeriesReport:
    sums = tuple(accumulate(t for _n, t in terms))
    verdict = (f"partial sums up to {len(terms)} terms; no convergence claim"
               if terms else "empty report")
    return SeriesReport(label, tuple(terms), sums, verdict)


def series_thm5(theta, x_seq, n_terms: int) -> SeriesReport:
    """Terms (|X_{n+1}|^d * |<X_n, theta>|_Z)^(1/(d+1)) for n = 0..n_terms-1.

    x_seq must hold at least n_terms+1 integer vectors of strictly
    increasing sup norm.
    """
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
        m = norms[n + 1] ** d
        terms.append((n, _power(eps.lo * m, eps.hi * m, 1, d + 1)))
    return _assemble("vector-sequence series", terms)


def series_lemma22(theta, k_max: int, delta) -> SeriesReport:
    """Terms k^-1 (k^delta eps_l(k))^(1/(delta+1)) for k = 1..k_max.

    delta >= 1 (delta = d recovers the harmonic form of the dyadic
    condition).  eps_l is evaluated once per step of its profile.
    """
    theta = as_vector(theta)
    delta = rational(delta)
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    prof = linear_profile(theta, k_max)
    # exponent 1/(delta+1) = q/(p+q) for delta = p/q; the term collapses to
    # (eps_l(k)/k)^(1/(delta+1))
    p, q = delta.numerator, delta.denominator
    terms = []
    for k in range(1, k_max + 1):
        eps = prof.value(k)
        terms.append((k, _power(eps.lo / k, eps.hi / k, q, p + q)))
    return _assemble(f"harmonic weighted-error series (delta={delta})", terms)


def dyadic_condition_iii(theta, n_max: int) -> SeriesReport:
    """Terms (2^(n d) eps_l(2^n))^(1/(d+1)) for n = 0..n_max-1."""
    theta = as_vector(theta)
    d = theta.dim
    if n_max < 0:
        raise DomainError("term count must be >= 0")
    terms = []
    if n_max:
        prof = linear_profile(theta, 2 ** (n_max - 1))
        for n in range(n_max):
            eps = prof.value(2 ** n)
            m = 2 ** (n * d)
            terms.append((n, _power(eps.lo * m, eps.hi * m, 1, d + 1)))
    return _assemble("dyadic weighted-error series", terms)


def series_prop32(theta, q_seq, n_terms: int) -> SeriesReport:
    """Terms (q_n^(1/d) |q_{n-1} theta|_Z)^(1/(d+1)) for n = 1..n_terms.

    Rewritten as (q_n * eps^d)^(1/(d(d+1))) so a single root enclosure per
    term suffices.  q_seq needs n_terms+1 strictly increasing positive
    entries.  A negative lower bound of |q_{n-1} theta|_Z raises
    DomainError: its d-th power bounds nothing from below when d is even.
    """
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
        if (lo := eps.lo) < 0:
            raise DomainError("invalid base interval")
        q = q_seq[n]
        terms.append((n, _power(lo ** d * q, eps.hi ** d * q, 1, d * (d + 1))))
    return _assemble("simultaneous-denominator series", terms)


# ---------------------------------------------------------------------------
# transfer inequality


@dataclass(frozen=True)
class TransferReport:
    dimension: int
    h: Fraction
    constant: Fraction  # C = 1/(2(d+1))
    lhs: CertifiedScalar  # eps_l(h)
    rhs: CertifiedScalar  # eps_s(C h^d) / (C h^(d-1))
    holds: bool


def transfer_check(theta, h, *, budget: int = _scan.DEFAULT_BUDGET) -> TransferReport:
    """Check eps_l(h) <= eps_s(C h^d) / (C h^(d-1)) with C = 1/(2(d+1)).

    Both sides are evaluated by exhaustive certified scans and compared
    exactly; an inconclusive comparison raises PrecisionError.
    """
    theta = as_vector(theta)
    d = theta.dim
    h = rational(h)
    c = Fraction(1, 2 * (d + 1))
    if h < 1:
        raise DomainError("h must be >= 1")
    if c * h ** d < 1:
        raise DomainError(
            f"C h^d = {c * h ** d} < 1: no multiplier available on the right side")
    lhs = linear_error(theta, h, budget=budget)
    eps_s = simultaneous_error(theta, c * h ** d, budget=budget)
    scale = 1 / (c * h ** (d - 1))
    rhs = eps_s * scale
    verdict = lhs.require_compare(rhs, "transfer inequality sides")
    return TransferReport(d, h, c, lhs, rhs, verdict is not Verdict.GREATER)


# ---------------------------------------------------------------------------
# Diophantine-type evidence


@dataclass(frozen=True)
class TypeEvidence:
    """Scaled best-approximation sequences backing a limsup/liminf claim.

    kind 'limsup' scales record n by the *next* record height (evidence that
    the scaled sequence stays away from 0 infinitely often); kind 'liminf'
    scales by the record's own height (evidence it always stays away from 0).
    Raw data only: no membership verdicts here.
    """

    mode: str   # "simultaneous" | "linear"
    kind: str   # "limsup" | "liminf"
    tau: Fraction
    samples: tuple[tuple[int, CertifiedScalar], ...]
    running_inf: Fraction       # min of sample lower bounds
    tail_sup: Fraction          # max of sample lower bounds over the last half

    @property
    def positive_inf(self) -> bool:
        return self.running_inf > 0

    @property
    def positive_tail_sup(self) -> bool:
        return self.tail_sup > 0


def _evidence(mode, kind, tau, samples) -> TypeEvidence:
    if samples:
        lows = [s.lo for _n, s in samples]
        run_inf = min(lows)
        tail = lows[len(lows) // 2:]
        tail_sup = max(tail)
    else:
        run_inf = Fraction(0)
        tail_sup = Fraction(0)
    return TypeEvidence(mode, kind, tau, tuple(samples), run_inf, tail_sup)


def type_evidence(theta, tau, mode: str, depth: int) -> tuple[TypeEvidence, TypeEvidence]:
    """Scaled record sequences for Diophantine-type evidence.

    Returns (limsup_evidence, liminf_evidence) over the first `depth`
    records.  For simultaneous mode the scalings are q_{n+1}^((1+tau)/d) and
    q_n^((1+tau)/d) applied to |q_n theta|_Z; for linear mode they are
    h_{n+1}^(d(1+tau)) and h_n^(d(1+tau)) applied to the record values.

    The records come from scans of doubling height, so depth+1 records must
    appear within the default scan budget (ResourceError otherwise).
    """
    theta = as_vector(theta)
    d = theta.dim
    tau = rational(tau)
    if tau < 0:
        raise DomainError("tau must be >= 0")
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if mode not in ("simultaneous", "linear"):
        raise DomainError("mode must be 'simultaneous' or 'linear'")
    if depth == 0:
        return (_evidence(mode, "limsup", tau, []), _evidence(mode, "liminf", tau, []))
    records = _collect_records(theta, mode, depth + 1)
    one_tau = 1 + tau
    if mode == "simultaneous":
        exp_num, exp_den = one_tau.numerator, one_tau.denominator * d
    else:
        exp_num, exp_den = d * one_tau.numerator, one_tau.denominator
    limsup_samples = []
    liminf_samples = []
    for n in range(depth):
        value = records[n].value
        for kind, height in (("limsup", records[n + 1].height),
                             ("liminf", records[n].height)):
            scaled = _power(Fraction(height), Fraction(height), exp_num, exp_den) * value
            (limsup_samples if kind == "limsup" else liminf_samples).append((n, scaled))
    return (_evidence(mode, "limsup", tau, limsup_samples),
            _evidence(mode, "liminf", tau, liminf_samples))


def _collect_records(theta, mode, count):
    """Scan with doubling height until `count` records emerge (or budget)."""
    cut = 256
    while True:
        if mode == "simultaneous":
            recs = best_simultaneous(theta, cut)
        else:
            recs = best_linear(theta, cut)
        if len(recs) >= count:
            return recs
        if recs and recs[-1].value.is_exact and recs[-1].value.value == 0:
            raise DegenerateInputError(
                "record sequence terminates at an exact lattice hit "
                f"after {len(recs)} records")
        cut *= 2  # budget guard inside the scan stops the doubling


# ---------------------------------------------------------------------------
# window bound


@dataclass(frozen=True)
class WindowBound:
    index: int
    delta: Fraction
    l_lower: CertifiedScalar   # window start L_n
    l_upper: CertifiedScalar   # window end L_{n+1}
    bound: CertifiedScalar     # measure bound 2(L_{n+1> eps_n + d L_n^(-1/delta) |X_n|)

    def integer_window(self) -> tuple[int, int]:
        """Largest integer range (start, end) certainly inside (L_n, L_{n+1}]."""
        lo = self.l_lower.hi
        hi = self.l_upper.lo
        start = lo.numerator // lo.denominator + 1
        end = hi.numerator // hi.denominator
        if end < start:
            raise DomainError("window contains no certified integers")
        return start, end


def window_bound(theta, x_seq, delta, n: int) -> WindowBound:
    """Window boundaries L_n = (|X_n|/eps_{n-1})^(delta/(delta+1)) and the
    measure bound 2(L_{n+1} eps_n + d L_n^(-1/delta) |X_n|).

    Needs x_seq[n-1], x_seq[n], x_seq[n+1], so n >= 1.
    """
    theta = as_vector(theta)
    d = theta.dim
    delta = rational(delta)
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if n < 1:
        raise DomainError("window index must be >= 1 (needs the previous vector)")
    x_seq = [tuple(int(c) for c in x) for x in x_seq]
    if len(x_seq) < n + 2:
        raise DomainError(f"window {n} needs {n + 2} vectors, got {len(x_seq)}")
    p, q = delta.numerator, delta.denominator

    def window_edge(idx):
        """L_idx = (|X_idx| / eps_{idx-1})^(delta/(delta+1))."""
        eps = certified_form_dist(x_seq[idx - 1], theta)
        if eps.hi == 0:
            raise DegenerateInputError("zero form distance: window edge undefined")
        if eps.lo <= 0:
            raise PrecisionError(
                f"form distance at step {idx - 1} not conclusively positive")
        norm = Fraction(_sup_norm(x_seq[idx]))
        return _power(norm / eps.hi, norm / eps.lo, p, p + q), eps, norm

    l_n, eps_prev, norm_n = window_edge(n)
    l_next, eps_n, _ = window_edge(n + 1)
    # L_n^(-1/delta) = (eps_{n-1}/|X_n|)^(1/(delta+1))
    inv_root = _power(eps_prev.lo / norm_n, eps_prev.hi / norm_n, q, p + q)
    bound = 2 * (l_next * eps_n + inv_root * (d * norm_n))
    return WindowBound(n, delta, l_n, l_next, bound)
