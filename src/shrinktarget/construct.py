"""Vectors with prescribed Diophantine behavior.

Two constructions:

* a two-dimensional recursive lattice construction driven by integer
  parameter sequences (a_n) and (h_n°): pairs of primitive triples
  (Delta_n, P_n) -- lines and points of the projective plane -- whose affine
  points P~_n converge to a vector theta with fully certified error, and
  whose best approximations are forced up to explicit exceptions;
* an alternating continued-fraction construction in dimension d >= 2 whose
  per-coordinate convergent denominators dominate each other cyclically with
  a prescribed polynomial gap.

Projective bookkeeping: P = (x, y, z) stands for the affine point
(x/z, y/z); Delta = (r, s, t) stands for the line rx + sy + t = 0; the
pairing <Delta, P> = rx + sy + tz vanishes exactly when the point lies on
the line.  theta_bar below means (theta_1, theta_2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _scan
from .errors import DomainError, InternalError, PrecisionError
from .exact import (CertifiedScalar, CertifiedVector, LatticePoint3, Verdict,
                    certified_dist_nearest_lattice, is_primitive,
                    projective_distance, rational, wedge)
from .roots import iroot

# contraction ratio of consecutive projective gaps, valid for every
# admissible parameter choice
_GAP_RATIO = Fraction(1, 2 ** 18 * 3 ** 3)

# verify_construction brute-forces level n only while q_{n+1} <= this cap
_SCAN_CAP = 2 * 10 ** 7

TRANSCRIPT_HEADER = "# shrinktarget transcript v1"


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_u, u = u, old_u - k * u
        old_v, v = v, old_v - k * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _content(p: LatticePoint3) -> int:
    return math.gcd(math.gcd(abs(p.x), abs(p.y)), abs(p.z))


def _ratio_component(num: LatticePoint3, den: LatticePoint3) -> int:
    """k with num = k * den, for den != 0 (exact, or InternalError)."""
    for a, b in zip(num.as_tuple(), den.as_tuple()):
        if b:
            k, rem = divmod(a, b)
            if rem:
                raise InternalError("non-integer lattice coordinate ratio")
            break
    else:
        raise InternalError("ratio against the zero vector")
    if den.scale(k) != num:
        raise InternalError("inconsistent lattice coordinate ratio")
    return k


def _best_shift(base: LatticePoint3, p: LatticePoint3) -> LatticePoint3:
    """base - k*p minimizing the sup norm, ties broken by the k nearest 0.

    The norm is convex in k, so its minimizers form an interval: locate the
    endpoints by binary search on the slope and clamp 0 into the interval.
    """
    cands = [b // c for b, c in zip(base.as_tuple(), p.as_tuple()) if c]
    if not cands:
        return base
    window = min(cands) - 2, max(cands) + 2

    def val(k: int) -> int:
        return (base - p.scale(k)).norm

    lo, hi = window
    while lo < hi:  # leftmost minimizer: first k with val(k) <= val(k+1)
        m = (lo + hi) // 2
        if val(m) <= val(m + 1):
            hi = m
        else:
            lo = m + 1
    left = lo
    lo, hi = left, window[1]
    while lo < hi:  # rightmost minimizer: first k with val(k) < val(k+1)
        m = (lo + hi) // 2
        if val(m) < val(m + 1):
            hi = m
        else:
            lo = m + 1
    k = min(max(left, 0), lo)
    return base - p.scale(k)


def complete_basis(delta: LatticePoint3, p: LatticePoint3) -> LatticePoint3:
    """Second generator for the planar lattice {X in Z^3 : <delta, X> = 0}.

    Returns p' with (p, p') generating the lattice, normalized so that
    p ^ p' = delta / content(delta), and satisfying the completion bound
    |p'| <= 2 max(|p|, |delta|/|p|).
    """
    if delta.is_zero:
        raise DomainError("delta must be nonzero")
    if not is_primitive(p):
        raise DomainError("P must be primitive")
    if delta.dot(p) != 0:
        raise DomainError("P must be orthogonal to delta")
    d = delta
    c = _content(delta)
    if c > 1:
        d = LatticePoint3(delta.x // c, delta.y // c, delta.z // c)
    # kernel basis (v1, v2) of <d, .> = 0 with v1 ^ v2 = +-d
    g1 = math.gcd(d.x, d.y)
    if g1 == 0:
        v1 = LatticePoint3(1, 0, 0)
        v2 = LatticePoint3(0, 1, 0)
    else:
        if math.gcd(g1, d.z) != 1:
            raise InternalError("direction vector not primitive after scaling")
        _g, u, v = _bezout(d.x, d.y)
        v1 = LatticePoint3(d.y // g1, -d.x // g1, 0)
        v2 = LatticePoint3(-u * d.z, -v * d.z, g1)
    w = wedge(v1, v2)
    if w != d and w != -d:
        raise InternalError("kernel basis does not span the direction")
    alpha = _ratio_component(wedge(p, v2), w)
    beta = -_ratio_component(wedge(p, v1), w)
    if v1.scale(alpha) + v2.scale(beta) != p:
        raise InternalError("lattice coordinates of P failed to reconstruct")
    g, bu, bv = _bezout(alpha, beta)
    if g != 1:
        raise InternalError("P is not primitive inside the planar lattice")
    # (alpha, beta), (gamma, delta') with alpha*delta' - beta*gamma = 1
    prime = v1.scale(-bv) + v2.scale(bu)
    prime = _best_shift(prime, p)
    if wedge(p, prime) == -d:
        prime = -prime
    if wedge(p, prime) != d:
        raise InternalError("completion does not generate the lattice")
    if prime.norm * p.norm > 2 * max(p.norm * p.norm, delta.norm):
        raise InternalError(
            f"completion bound violated: |P'| = {prime.norm} exceeds "
            f"2 max(|P|, |delta|/|P|)")
    return prime


# ---------------------------------------------------------------------------
# recursive lattice construction


@dataclass(frozen=True, slots=True)
class ConstructionStep:
    n: int
    delta: LatticePoint3
    p: LatticePoint3
    h: int  # |delta|
    q: int  # |p|


@dataclass(frozen=True)
class ConstructionState:
    """Transcript of the recursive construction.

    steps runs 0..depth+1: the step beyond the requested depth exists only
    to certify the radius of theta.  theta is the affine point of
    P_depth with the certified radius (3/2) h_{depth+1} / (q_depth q_{depth+1}).
    """

    a_seq: tuple[int, ...]
    h0_seq: tuple[int, ...]
    depth: int
    steps: tuple[ConstructionStep, ...]
    theta: CertifiedVector

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(s.h for s in self.steps)

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(s.q for s in self.steps)

    def affine_point(self, n: int) -> tuple[Fraction, Fraction]:
        s = self.steps[n]
        return (Fraction(s.p.x, s.p.z), Fraction(s.p.y, s.p.z))

    def gap(self, n: int) -> Fraction:
        """Projective distance between consecutive affine points,
        h_{n+1}/(q_n q_{n+1}) exactly."""
        return Fraction(self.steps[n + 1].h,
                        self.steps[n].q * self.steps[n + 1].q)

    def refined_theta(self) -> CertifiedVector:
        """theta recentered at the certification step.

        |theta - P~_{depth+1}| <= (3/2) * gap(depth+1) <= (3/2) * ratio *
        gap(depth) where the gap ratio holds for every admissible
        continuation; this radius is far smaller than theta.radius and makes
        top-level certified checks conclusive.
        """
        center = self.affine_point(self.depth + 1)
        return CertifiedVector(center, Fraction(3, 2) * _GAP_RATIO * self.gap(self.depth))

    def linear_witnesses(self) -> tuple[tuple[int, int], ...]:
        """The (r_n, s_n) pairs (first two coordinates of each Delta_n)."""
        return tuple((s.delta.x, s.delta.y) for s in self.steps)

    def to_text(self) -> str:
        lines = [TRANSCRIPT_HEADER,
                 f"depth {self.depth}",
                 "a " + " ".join(str(a) for a in self.a_seq),
                 "h0 " + " ".join(str(h) for h in self.h0_seq)]
        for s in self.steps:
            d, p = s.delta, s.p
            lines.append(f"step {s.n} {d.x} {d.y} {d.z} {p.x} {p.y} {p.z} {s.h} {s.q}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ConstructionState":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != TRANSCRIPT_HEADER:
            raise DomainError("not a construction transcript (bad header)")
        meta = {}
        steps = []
        for ln in lines[1:]:
            key, _, rest = ln.partition(" ")
            if key in ("depth", "a", "h0"):
                meta[key] = rest
            elif key == "step":
                vals = [int(t) for t in rest.split()]
                if len(vals) != 9:
                    raise DomainError(f"malformed transcript step line: {ln!r}")
                n, dx, dy, dz, px, py, pz, h, q = vals
                delta = LatticePoint3(dx, dy, dz)
                p = LatticePoint3(px, py, pz)
                if delta.norm != h or p.norm != q:
                    raise DomainError(f"transcript norms disagree at step {n}")
                steps.append(ConstructionStep(n, delta, p, h, q))
            else:
                raise DomainError(f"unknown transcript line: {ln!r}")
        try:
            depth = int(meta["depth"])
            a_seq = tuple(int(t) for t in meta["a"].split())
            h0_seq = tuple(int(t) for t in meta["h0"].split())
        except KeyError as missing:
            raise DomainError(f"transcript missing {missing} line") from None
        if [s.n for s in steps] != list(range(depth + 2)):
            raise DomainError("transcript steps do not run 0..depth+1")
        state = cls(a_seq, h0_seq, depth, tuple(steps), _theta_of(steps, depth))
        return state


def _theta_of(steps, depth) -> CertifiedVector:
    p = steps[depth].p
    center = (Fraction(p.x, p.z), Fraction(p.y, p.z))
    radius = Fraction(3 * steps[depth + 1].h, 2 * steps[depth].q * steps[depth + 1].q)
    return CertifiedVector(center, radius)


def _materialize(seq, count: int, name: str) -> tuple[int, ...]:
    if callable(seq):
        vals = [seq(n) for n in range(count)]
    else:
        vals = list(seq)[:count]
        if len(vals) < count:
            raise DomainError(
                f"{name} needs {count} entries (the build runs one step past "
                f"the requested depth), got {len(vals)}")
    out = []
    for n, v in enumerate(vals):
        if int(v) != v:
            raise DomainError(f"{name}[{n}] = {v!r} is not an integer")
        out.append(int(v))
    return tuple(out)


def minimal_heights(a_seq, h0: int, count: int) -> tuple[int, ...]:
    """The tightest admissible height sequence: h_{n+1}° = 24 a_n h_n°."""
    a = _materialize(a_seq, count, "a_seq")
    out = [int(h0)]
    for n in range(count - 1):
        out.append(24 * a[n] * out[-1])
    return tuple(out)


def build_theta(a_seq, h0_seq, steps: int) -> ConstructionState:
    """Run the recursive construction for `steps` levels.

    a_seq and h0_seq may be sequences or callables n -> int; they must cover
    indices 0..steps+1 (one level beyond the request certifies the radius).
    Admissibility: a_n > 32 everywhere used, h_{n+1}° >= 24 a_n h_n°.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    total = steps + 2  # indices 0..steps+1
    a = _materialize(a_seq, total, "a_seq")
    h0 = _materialize(h0_seq, total, "h0_seq")
    for n, v in enumerate(a):
        if v <= 32:
            raise DomainError(f"a_seq[{n}] = {v} must exceed 32")
    if h0[0] < 1:
        raise DomainError("h0_seq[0] must be a positive integer")
    for n in range(total - 1):
        if h0[n + 1] < 24 * a[n] * h0[n]:
            raise DomainError(
                f"h0_seq[{n + 1}] = {h0[n + 1]} < 24*a_{n}*h0_{n} = {24 * a[n] * h0[n]}")
    q0 = [a[n] * h0[n] ** 2 for n in range(total)]

    delta = LatticePoint3(h0[0], -1, 0)
    p = LatticePoint3(1, h0[0], q0[0])
    trail = [ConstructionStep(0, delta, p, delta.norm, p.norm)]
    for n in range(total - 1):
        h_n, q_n = trail[-1].h, trail[-1].q
        # next line: Delta' completes Delta_n in {D : <P_n, D> = 0}
        d_prime = complete_basis(p, delta)
        if 3 * d_prime.norm > h0[n + 1]:
            raise InternalError(f"|Delta'| too large at step {n}")
        if wedge(delta, d_prime) == -p:
            d_prime = -d_prime
        if wedge(delta, d_prime) != p:
            raise InternalError(f"sign fix failed for Delta' at step {n}")
        delta_next = delta.scale(h0[n + 1] // h_n) + d_prime
        h_next = delta_next.norm
        if not h0[n + 1] <= 2 * h_next or not h_next <= 2 * h0[n + 1]:
            raise InternalError(f"height sandwich violated at step {n + 1}")
        # next point: P' completes P_n in {P : <Delta_{n+1}, P> = 0}
        p_prime = complete_basis(delta_next, p)
        if 3 * p_prime.norm > q0[n + 1]:
            raise InternalError(f"|P'| too large at step {n}")
        if wedge(p, p_prime) == -delta_next:
            p_prime = -p_prime
        if wedge(p, p_prime) != delta_next:
            raise InternalError(f"sign fix failed for P' at step {n}")
        p_next = p.scale(q0[n + 1] // q_n) + p_prime
        q_next = p_next.norm
        if not q0[n + 1] <= 2 * q_next or not q_next <= 2 * q0[n + 1]:
            raise InternalError(f"denominator sandwich violated at step {n + 1}")
        if delta.dot(p_next) != 1:
            raise InternalError(f"<Delta_{n}, P_{n + 1}> != 1")
        if p_next.z != q_next:
            raise InternalError(f"affine denominator is not the norm at step {n + 1}")
        delta, p = delta_next, p_next
        trail.append(ConstructionStep(n + 1, delta, p, h_next, q_next))
    return ConstructionState(a, h0, steps, tuple(trail), _theta_of(trail, steps))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    scope: str
    passed: bool | None  # None = skipped
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    scan_exceptions: dict[int, dict[int, str]]  # level -> {q: empirical status}

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is False]

    def to_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else ("SKIP" if c.passed is None else "FAIL")
            line = f"[{mark}] {c.name} ({c.scope})"
            if c.detail:
                line += f" -- {c.detail}"
            out.append(line)
        return out


def _affine_dist(point: tuple[Fraction, Fraction], theta: CertifiedVector) -> CertifiedScalar:
    lo = hi = None
    for c, t in zip(point, theta.coords):
        gap = abs(c - t)
        a = max(Fraction(0), gap - theta.radius)
        b = gap + theta.radius
        lo = a if lo is None else max(lo, a)
        hi = b if hi is None else max(hi, b)
    return CertifiedScalar.from_bounds(lo, hi)


def _form_value_abs(delta: LatticePoint3, theta: CertifiedVector) -> CertifiedScalar:
    """|<(r,s), theta> + t| certified (no reduction mod 1)."""
    center = delta.x * theta.coords[0] + delta.y * theta.coords[1] + delta.z
    radius = (abs(delta.x) + abs(delta.y)) * theta.radius
    gap = abs(center)
    return CertifiedScalar.from_bounds(max(Fraction(0), gap - radius), gap + radius)


def verify_construction(state: ConstructionState,
                        depth_bruteforce: int | None = None) -> VerifyReport:
    """Re-check the construction: structural identities in exact integer
    arithmetic, the certified enclosures, and (brute force) the
    no-better-approximation property below each scanned level.

    depth_bruteforce = None scans every level n with q_{n+1} <= _SCAN_CAP
    (2*10^7); an explicit depth requests levels n < depth_bruteforce, and
    levels whose scan exceeds the default scan budget (_scan.DEFAULT_BUDGET
    multipliers) are reported as skipped rather than attempted.

    All certified checks use the refined recentering of theta, whose radius
    is small enough to decide every enclosure at every transcript level; an
    inconclusive comparison still raises PrecisionError (deepen the build),
    unless a structural check has already failed: then it fails its check.
    """
    checks: list[CheckResult] = []
    exc_report: dict[int, dict[int, str]] = {}
    steps = state.steps
    top = state.depth + 1  # last stored index
    a, h0 = state.a_seq, state.h0_seq
    budget = _scan.DEFAULT_BUDGET

    def add(name, scope, ok, detail=""):
        checks.append(CheckResult(name, scope, ok, detail))

    def add_failing(name, scope, bad):
        add(name, scope, not bad, f"failing n: {bad}" if bad else "")

    def fails(x, bound, bad: Verdict, what: str) -> bool:
        """x against bound gives the failing verdict `bad`.  Once a structural
        check has failed, the refined radius may be too wide to decide: an
        inconclusive comparison then fails the check instead of raising."""
        v = x.compare(bound) if broken else x.require_compare(bound, what)
        return v is bad or v is Verdict.INCONCLUSIVE

    def add_enclosure(name, what, bounds):
        """lo <= value <= hi for (value, lo, hi) = bounds(n), n in [0, depth];
        the upper bound is compared only when the lower one holds."""
        bad = []
        for n in range(state.depth + 1):
            val, lo, hi = bounds(n)
            if (fails(val, lo, Verdict.LESS, f"{what} lower")
                    or fails(val, hi, Verdict.GREATER, f"{what} upper")):
                bad.append(n)
        add_failing(name, f"n in [0, {state.depth}]", bad)

    add_failing("primitivity of Delta_n and P_n", f"n in [0, {top}]",
                [s.n for s in steps if not (is_primitive(s.delta) and is_primitive(s.p))])
    add_failing("<Delta_n, P_n> = 0", f"n in [0, {top}]",
                [s.n for s in steps if s.delta.dot(s.p) != 0])
    add_failing("norm bookkeeping (|Delta_n| = h_n, |P_n| = z_n = q_n, "
                "|(r_n,s_n)| = h_n)", f"n in [0, {top}]",
                [s.n for s in steps
                 if s.delta.norm != s.h or s.p.norm != s.q or s.p.z != s.q
                 or max(abs(s.delta.x), abs(s.delta.y)) != s.h])
    add_failing("Delta_n ^ Delta_{n+1} = P_n", f"n in [0, {top - 1}]",
                [n for n in range(top)
                 if wedge(steps[n].delta, steps[n + 1].delta) != steps[n].p])
    add_failing("P_n ^ P_{n+1} = Delta_{n+1}", f"n in [0, {top - 1}]",
                [n for n in range(top)
                 if wedge(steps[n].p, steps[n + 1].p) != steps[n + 1].delta])
    add_failing("<Delta_n, P_{n+1}> = 1", f"n in [0, {top - 1}]",
                [n for n in range(top) if steps[n].delta.dot(steps[n + 1].p) != 1])
    add_failing("sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2)", f"n in [0, {top}]",
                [s.n for s in steps
                 if not (h0[s.n] <= 2 * s.h and s.h <= 2 * h0[s.n])
                 or not (a[s.n] * h0[s.n] ** 2 <= 2 * s.q
                         and s.q <= 2 * a[s.n] * h0[s.n] ** 2)])

    gaps = [state.gap(n) for n in range(top)]
    add_failing("projective gap contraction (ratio 1/(2^18*3^3))", f"n in [1, {top - 1}]",
                [n for n in range(1, top) if gaps[n] > _GAP_RATIO * gaps[n - 1]])
    add_failing("crude gap decay <= 32^-(n+1)", f"n in [0, {top - 1}]",
                [n for n in range(top) if gaps[n] > Fraction(1, 32 ** (n + 1))])
    d00 = projective_distance(LatticePoint3(0, 0, 1), steps[0].p)
    add("base point within 1/32 of the origin", "n = 0", d00 < Fraction(1, 32),
        f"d(0, P~_0) = {d00}")

    broken = any(c.passed is False for c in checks)
    fine = state.refined_theta()
    sup_hi = max(abs(c) + fine.radius for c in fine.coords)
    add("|theta| <= 1/8", "certified", sup_hi <= Fraction(1, 8),
        f"certified sup norm <= {float(sup_hi):.6f}")

    # enclosures, all decided with the refined radius
    bad_lo, bad_hi = [], []
    for n in range(state.depth + 1):
        dist = _affine_dist(state.affine_point(n), fine)
        g = gaps[n]
        if fails(dist, g / 2, Verdict.LESS, f"|P~_{n} - theta| vs lower"):
            bad_lo.append(n)
        if fails(dist, 3 * g / 2, Verdict.GREATER, f"|P~_{n} - theta| vs upper"):
            bad_hi.append(n)
    add("theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n",
        f"n in [0, {state.depth}]", not (bad_lo or bad_hi),
        f"lower fails: {bad_lo}, upper fails: {bad_hi}" if bad_lo or bad_hi else "")

    add_enclosure("orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1})",
                  "orbit distance",
                  lambda n: (certified_dist_nearest_lattice(steps[n].q, fine),
                             Fraction(steps[n + 1].h, 2 * steps[n + 1].q),
                             Fraction(3 * steps[n + 1].h, 2 * steps[n + 1].q)))
    add_enclosure("line-value enclosure 3/(4q_{n+1}) <= |<Delta_n, theta_bar>| <= 5/(4q_{n+1})",
                  "line value",
                  lambda n: (_form_value_abs(steps[n].delta, fine),
                             Fraction(3, 4 * steps[n + 1].q), Fraction(5, 4 * steps[n + 1].q)))
    add_enclosure("weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| "
                  "<= 10/a_{n+1}", "weighted line value",
                  lambda n: (_form_value_abs(steps[n].delta, fine) * steps[n + 1].h ** 2,
                             Fraction(3, 32 * a[n + 1]), Fraction(10, a[n + 1])))

    # brute-force minimality below each scanned level: every q < q_{n+1}
    # outside {q_n, q_{n+1} - q_n} satisfies |q theta| > |q_n theta|
    levels = range(state.depth + 1) if depth_bruteforce is None \
        else range(min(depth_bruteforce, state.depth + 1))
    for n in levels:
        q_hi = steps[n + 1].q
        scope = f"level {n}: q < {q_hi}"
        if depth_bruteforce is None and q_hi > _SCAN_CAP:
            continue
        if q_hi - 1 > budget:
            add("no better approximation below q_{n+1} (brute force)", scope,
                None, f"scan of {q_hi - 1} exceeds budget {budget}")
            continue
        exceptions = {steps[n + 1].q - steps[n].q}
        try:
            violations, report = _scan.all_greater_than_baseline(
                fine, q_hi, steps[n].q, exceptions)
        except PrecisionError as exc:
            if not broken:
                raise
            add("no better approximation below q_{n+1} (brute force)", scope,
                False, f"inconclusive: {exc}")
            continue
        exc_report[n] = report
        add("no better approximation below q_{n+1} (brute force)", scope,
            not violations,
            f"violations: {violations}" if violations else
            f"exceptions {sorted(report)}: {[report[k] for k in sorted(report)]}")
    return VerifyReport(tuple(checks), exc_report)


# ---------------------------------------------------------------------------
# alternating continued-fraction construction


@dataclass(frozen=True)
class CFVectorSpec:
    """Per-coordinate continued fractions with cyclically dominating
    denominators: q_{d,n} >= q_{1,n}^d n^delta within a level and
    q_{i-1,n+1} >= q_{i,n}^d n^delta across levels (2 <= i <= d), enforced
    for start_index <= n <= levels.
    """

    dimension: int
    delta: Fraction
    start_index: int
    levels: int
    quotients: tuple[tuple[int, ...], ...]
    denominators: tuple[tuple[int, ...], ...]  # [i][n-1] = q_{i+1,n}
    theta: CertifiedVector
    digit_rule: str
    notes: str

    def denominator(self, coord: int, level: int) -> int:
        """q_{coord, level} with coord in 1..d, level in 1..levels+2."""
        return self.denominators[coord - 1][level - 1]

    def verify_growth(self) -> list[str]:
        """Exact integer re-check of every growth constraint; empty = ok."""
        d = self.dimension
        a, b = self.delta.numerator, self.delta.denominator
        bad = []
        for n in range(self.start_index, self.levels + 1):
            if self.denominator(d, n) ** b < self.denominator(1, n) ** (d * b) * n ** a:
                bad.append(f"q_{d},{n} < q_1,{n}^{d} * {n}^{self.delta}")
            for i in range(2, d + 1):
                if (self.denominator(i - 1, n + 1) ** b
                        < self.denominator(i, n) ** (d * b) * n ** a):
                    bad.append(f"q_{i - 1},{n + 1} < q_{i},{n}^{d} * {n}^{self.delta}")
        return bad


def alternating_cf(dimension: int, delta, levels: int,
                   start_index: int = 2) -> CFVectorSpec:
    """Build d coupled continued fractions whose denominators dominate each
    other cyclically with gap n^delta (see CFVectorSpec).

    Digit rule: to push q above a target T, the next partial quotient is
    ceil(T/q) + 1 (for fractional delta, T is replaced by the integer above
    its certified root bound).  Unconstrained digits are 1.  theta is the
    vector of level-(levels+1) convergents with radius
    1/(q_{i,levels+1} q_{i,levels+2}).
    """
    if dimension < 2:
        raise DomainError("dimension must be >= 2")
    delta = rational(delta)
    if delta <= dimension + 1:
        raise DomainError(f"delta must exceed d + 1 = {dimension + 1}")
    if levels < 1:
        raise DomainError("levels must be >= 1")
    if start_index < 1:
        raise DomainError("start_index must be >= 1")
    d = dimension
    a_num, b_den = delta.numerator, delta.denominator

    def target_digit(q_prev: int, q_src: int, n: int) -> int:
        """Smallest safe digit pushing the next denominator above
        q_src^d * n^delta."""
        w = q_src ** (d * b_den) * n ** a_num  # target^b_den
        if b_den == 1:
            t = w
        else:
            t = iroot(w, b_den) + 1  # integer strictly above the real target
        digit = -((-t) // q_prev) + 1
        return max(digit, 1)

    # per-coordinate state: (q two levels back, q one level back, digits)
    qs = [(0, 1) for _ in range(d)]  # (q_{-1}, q_0) of the standard recursion
    ps = [(1, 0) for _ in range(d)]
    digits: list[list[int]] = [[] for _ in range(d)]
    table: list[list[int]] = [[] for _ in range(d)]

    def push(i: int, digit: int):
        p2, p1 = ps[i]
        q2, q1 = qs[i]
        ps[i] = (p1, digit * p1 + p2)
        qs[i] = (q1, digit * q1 + q2)
        digits[i].append(digit)
        table[i].append(qs[i][1])

    total = levels + 2  # two levels past the last constrained one
    for n in range(1, total + 1):
        constrained = start_index <= n - 1 <= levels
        for i in range(d - 1):  # coordinates 1..d-1 look one level back
            if constrained and n >= 2:
                digit = target_digit(qs[i][1], table[i + 1][n - 2], n - 1)
            else:
                digit = 1
            push(i, digit)
        if start_index <= n <= levels:  # coordinate d looks at this level
            digit = target_digit(qs[d - 1][1], table[0][n - 1], n)
        else:
            digit = 1
        push(d - 1, digit)

    coords = []
    radius = Fraction(0)
    for i in range(d):
        # convergent p/q at level levels+1; any continuation of the table
        # stays within 1/(q_{levels+1} q_{levels+2}) of it
        coords.append(Fraction(ps[i][0], table[i][levels]))
        radius = max(radius, Fraction(1, table[i][levels] * table[i][levels + 1]))
    theta = CertifiedVector(coords, radius)
    spec = CFVectorSpec(
        d, delta, start_index, levels,
        tuple(tuple(v) for v in digits),
        tuple(tuple(v) for v in table),
        theta,
        "digit = ceil(target/q) + 1; fractional-delta targets rounded up "
        "through an integer root bound; unconstrained digits are 1",
        "cross-level coupling enforced for every pair (i-1, i) with "
        "2 <= i <= d: an exclusive lower index bound would leave the first "
        "coupling unconstrained, contradicting the series it feeds "
        "(suspected index typo in the source constraint family)",
    )
    bad = spec.verify_growth()
    if bad:
        raise InternalError("growth constraints failed: " + "; ".join(bad))
    return spec
