"""Series criteria and inequalities deciding the logarithm property.

Each series evaluator returns a SeriesReport carrying certified term
enclosures and running partial sums; no convergence of an infinite series is
ever asserted from finitely many terms, the verdict strings are descriptive.

Fractional powers are certified root enclosures (relative tolerance 2^-64).
Wherever the exponent tower allows it, a term is rewritten as a single k-th
root of a rational -- e.g. the weighted-error term
k^-1 (k^delta eps)^(1/(delta+1)) collapses to (eps/k)^(1/(delta+1)) -- so one
enclosure per term suffices.

The four series compute on integers.  A term's base is the certified error
[lo, hi] with both ends scaled by the term's positive factor (no interval
product), each end a pair (num, den) that is never reduced: thm5 and prop32
read exact's distance rule as integer ends over one denominator
L = lcm(den, radius denominator), taken once per series with its power L^d,
and lemma22 and dyadic read the ends of eps_l's records.  Each term is
roots._root_ends of its base, the enclosure rule of every certified root
(stated there, with the scale rule that reads a pair as given), as integer
dyadic ends t / 2^m that the partial sums add as integers over a power of
two; a lo < 0 raises DomainError("invalid base interval") in every series.
type_evidence and window_bound take their powers from pow_enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _scan
from .bestapprox import (best_linear, best_simultaneous, linear_error, linear_profile,
                         simultaneous_error)
from .errors import DegenerateInputError, DomainError, PrecisionError, ResourceError
from .exact import (CertifiedScalar, Verdict, _distances_to_z, _interval, as_vector,
                    certified_form_dist, rational)
from .roots import _MAX_ROOT_ORDER, _root_ends, pow_enclosure


def _power(lo: Fraction, hi: Fraction, num: int, den: int) -> CertifiedScalar:
    """[lo, hi]^(num/den) from one `pow_enclosure` call."""
    return CertifiedScalar.from_bounds(*pow_enclosure(lo, hi, num, den))


def _sup_norm(vec) -> int:
    v = max(abs(int(c)) for c in vec)
    if v == 0:
        raise DomainError("zero vector has no norm record")
    return v


def _times(num: int, den: int, c: int, e: int = 1) -> tuple[int, int]:
    """The pair (num^e * c, den), for a den already raised to the power e."""
    return num ** e * c, den


def _over(num: int, den: int, k: int, q: int) -> tuple[int, int]:
    """(num / (den * k))^q as the pair (num^q, (den * k)^q)."""
    return num ** q, (den * k) ** q


def _both(f, lo, hi, *args):
    """f of each end lo <= hi of a base, of a point once; lo < 0 raises DomainError."""
    if lo[0] < 0:
        raise DomainError("invalid base interval")
    out = f(*lo, *args)
    return out, out if hi == lo else f(*hi, *args)


def _profile_ends(prof, heights):
    """The pairs (lo, hi) of eps_l at each height (ascending, within the
    profile) from one walk of the profile's records."""
    records = prof.records
    i, ends = 0, None
    for h in heights:
        while i < len(records) and records[i].height <= h:
            i, ends = i + 1, None
        if ends is None:
            eps = records[i - 1].value
            ends = (eps.lo.numerator, eps.lo.denominator), (eps.hi.numerator, eps.hi.denominator)
        yield ends


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


def _add_units(s: int, e: int, t: int, m: int) -> tuple[int, int]:
    """s / 2^e + t / 2^m as an integer over 2^max(e, m)."""
    if m > e:
        return (s << m - e) + t, m
    return s + (t << e - m), e


def _assemble(label: str, ends) -> SeriesReport:
    """The report of terms given as (n, t_lo, m_lo, t_hi, m_hi), term n in
    [t_lo / 2^m_lo, t_hi / 2^m_hi].  Each partial sum end is an integer over
    2^M, M the largest scale so far."""
    terms, sums = [], []
    s_lo = s_hi = e_lo = e_hi = 0
    for n, t_lo, m_lo, t_hi, m_hi in ends:
        terms.append((n, _interval(Fraction(t_lo, 1 << m_lo), Fraction(t_hi, 1 << m_hi))))
        s_lo, e_lo = _add_units(s_lo, e_lo, t_lo, m_lo)
        s_hi, e_hi = _add_units(s_hi, e_hi, t_hi, m_hi)
        sums.append(_interval(Fraction(s_lo, 1 << e_lo), Fraction(s_hi, 1 << e_hi)))
    verdict = (f"partial sums up to {len(terms)} terms; no convergence claim"
               if terms else "empty report")
    return SeriesReport(label, tuple(terms), tuple(sums), verdict)


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
    form, _, den = _distances_to_z(theta)
    terms = []
    for n in range(n_terms):
        lo, hi = form(x_seq[n])
        if hi == 0:
            raise DegenerateInputError(
                f"<X_{n}, theta> is exactly an integer; the series degenerates")
        terms.append((n, *_root_ends(*_both(_times, (lo, den), (hi, den), norms[n + 1] ** d),
                                     d + 1)))
    return _assemble("vector-sequence series", terms)


def series_lemma22(theta, k_max: int, delta) -> SeriesReport:
    """Terms k^-1 (k^delta eps_l(k))^(1/(delta+1)) for k = 1..k_max.

    delta >= 1 (delta = d recovers the harmonic form of the dyadic
    condition).  eps_l is read once per record of its profile.  Each term
    is a root of order p + q for delta = p/q in lowest terms; p + q above
    _MAX_ROOT_ORDER = 256 is refused (ResourceError) before any work.
    """
    theta = as_vector(theta)
    delta = rational(delta)
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    # exponent 1/(delta+1) = q/(p+q) for delta = p/q; the term collapses to
    # (eps_l(k)/k)^(1/(delta+1))
    p, q = delta.numerator, delta.denominator
    if p + q > _MAX_ROOT_ORDER:
        raise ResourceError(
            f"delta = {delta} asks for roots of order p + q = {p + q}, above "
            f"{_MAX_ROOT_ORDER}; use a delta with smaller terms")
    prof = linear_profile(theta, k_max)
    heights = range(1, k_max + 1)
    terms = []
    for k, (lo, hi) in zip(heights, _profile_ends(prof, heights)):
        terms.append((k, *_root_ends(*_both(_over, lo, hi, k, q), p + q)))
    return _assemble(f"harmonic weighted-error series (delta={delta})", terms)


def dyadic_condition_iii(theta, n_max: int) -> SeriesReport:
    """Terms (2^(n d) eps_l(2^n))^(1/(d+1)) for n = 0..n_max-1."""
    theta = as_vector(theta)
    d = theta.dim
    if n_max < 0:
        raise DomainError("term count must be >= 0")
    terms = []
    if n_max:
        heights = [2 ** n for n in range(n_max)]
        prof = linear_profile(theta, heights[-1])
        for n, (lo, hi) in enumerate(_profile_ends(prof, heights)):
            terms.append((n, *_root_ends(*_both(_times, lo, hi, 1 << n * d), d + 1)))
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
    _, lattice, den = _distances_to_z(theta)
    den **= d  # L^d: the denominator of every base
    terms = []
    for n in range(1, n_terms + 1):
        lo, hi = lattice(q_seq[n - 1])
        terms.append((n, *_root_ends(*_both(_times, (lo, den), (hi, den), q_seq[n], d),
                                     d * (d + 1))))
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
    # the scale of each record height, enclosed once: record n takes scale
    # n + 1 for limsup and scale n for liminf
    scales = [_power(Fraction(r.height), Fraction(r.height), exp_num, exp_den)
              for r in records[:depth + 1]]
    return (_evidence(mode, "limsup", tau,
                      [(n, scales[n + 1] * records[n].value) for n in range(depth)]),
            _evidence(mode, "liminf", tau,
                      [(n, scales[n] * records[n].value) for n in range(depth)]))


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
    bound: CertifiedScalar     # measure bound 2(L_{n+1} eps_n + d L_n^(-1/delta) |X_n|)

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
