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

The recursion is one dual step written once (_dual_step): Delta_{n+1} is a
multiple of Delta_n plus the completion of Delta_n in the lattice
{D : <D, P_n> = 0}, and P_{n+1} is a multiple of P_n plus the completion of
P_n in {P : <Delta_{n+1}, P> = 0}.  The line and the point step are the same
completion with the roles of Delta and P exchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _scan
from .errors import DomainError, InternalError, PrecisionError, ResourceError
from .exact import (CertifiedScalar, CertifiedVector, LatticePoint3, Verdict,
                    certified_dist_nearest_lattice, is_primitive,
                    projective_distance, rational)
from .roots import iroot

# contraction ratio of consecutive projective gaps, valid for every
# admissible parameter choice
_GAP_RATIO = Fraction(1, 2 ** 18 * 3 ** 3)

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


def _best_shift(base: LatticePoint3, p: LatticePoint3) -> LatticePoint3:
    """base - k*p (p nonzero) minimizing the sup norm, ties broken by the k
    nearest 0.

    The norm is the upper envelope of the lines +-(b_i - k*p_i), convex and
    unbounded in k, so its real minimizers form an interval [x, y] whose ends
    are crossings of two lines.  Its integer minimizers run from ceil(x) to
    floor(y), or are among floor(x), floor(y) + 1 when no integer lies in
    [x, y]; the one nearest 0 is 0 or an end of them.
    """
    lines = [(s * b, s * c) for b, c in zip(base.as_tuple(), p.as_tuple()) for s in (1, -1)]
    ks = {0}
    for (b1, c1), (b2, c2) in itertools.combinations(lines, 2):
        if c1 != c2:  # b1 - k*c1 and b2 - k*c2 cross at (b1 - b2) / (c1 - c2)
            x = (b1 - b2) // (c1 - c2)
            ks.update((x, x + 1))
    k = min(ks, key=lambda k: ((base - p.scale(k)).norm, abs(k)))
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
    c = math.gcd(delta.x, delta.y, delta.z)
    if c > 1:
        d = LatticePoint3(delta.x // c, delta.y // c, delta.z // c)
    # kernel basis (v1, v2) of <d, .> = 0 with v1 ^ v2 = +-d, and the
    # coordinates of p = alpha v1 + beta v2
    g1 = math.gcd(d.x, d.y)
    if g1 == 0:
        v1 = LatticePoint3(1, 0, 0)
        v2 = LatticePoint3(0, 1, 0)
        alpha, beta = p.x, p.y
    else:
        if math.gcd(g1, d.z) != 1:
            raise InternalError("direction vector not primitive after scaling")
        _g, u, v = _bezout(d.x, d.y)
        v1 = LatticePoint3(d.y // g1, -d.x // g1, 0)
        v2 = LatticePoint3(-u * d.z, -v * d.z, g1)
        beta = p.z // g1  # v1.z = 0, v2.z = g1
        if v1.x:
            alpha = (p.x - beta * v2.x) // v1.x
        else:
            alpha = (p.y - beta * v2.y) // v1.y
    w = v1.wedge(v2)
    if w != d and w != -d:
        raise InternalError("kernel basis does not span the direction")
    if v1.scale(alpha) + v2.scale(beta) != p:
        raise InternalError("lattice coordinates of P failed to reconstruct")
    g, bu, bv = _bezout(alpha, beta)
    if g != 1:
        raise InternalError("P is not primitive inside the planar lattice")
    # (alpha, beta), (gamma, delta') with alpha*delta' - beta*gamma = 1
    prime = v1.scale(-bv) + v2.scale(bu)
    prime = _best_shift(prime, p)
    if p.wedge(prime) == -d:
        prime = -prime
    if p.wedge(prime) != d:
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
    to certify the radius of theta.
    """

    a_seq: tuple[int, ...]
    h0_seq: tuple[int, ...]
    depth: int
    steps: tuple[ConstructionStep, ...]

    @property
    def theta(self) -> CertifiedVector:
        """The affine point of P_depth with the certified radius
        (3/2) gap(depth) = (3/2) h_{depth+1} / (q_depth q_{depth+1})."""
        return CertifiedVector(self.affine_point(self.depth),
                               Fraction(3, 2) * self.gap(self.depth))

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
        """Parse a transcript strictly: any malformed line is a DomainError."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != TRANSCRIPT_HEADER:
            raise DomainError("not a construction transcript (bad header)")
        meta = {}
        steps = []
        for ln in lines[1:]:
            key, _, rest = ln.partition(" ")
            if key not in ("depth", "a", "h0", "step"):
                raise DomainError(f"unknown transcript line: {ln!r}")
            try:
                vals = [int(t) for t in rest.split()]
            except ValueError:
                raise DomainError(f"non-integer token in transcript line: {ln!r}") from None
            if key in meta:
                raise DomainError(f"repeated transcript line {key!r}")
            if key != "step":
                meta[key] = vals
            elif len(vals) != 9:
                raise DomainError(f"malformed transcript step line: {ln!r}")
            else:
                n, h, q = vals[0], vals[7], vals[8]
                delta, p = LatticePoint3(*vals[1:4]), LatticePoint3(*vals[4:7])
                if delta.norm != h or p.norm != q:
                    raise DomainError(f"transcript norms disagree at step {n}")
                steps.append(ConstructionStep(n, delta, p, h, q))
        depth = meta["depth"][0] if len(meta.get("depth", ())) == 1 else 0
        if depth < 1:
            raise DomainError("transcript needs one depth line of one integer >= 1")
        a_seq, h0_seq = tuple(meta.get("a", ())), tuple(meta.get("h0", ()))
        if min(len(a_seq), len(h0_seq)) < depth + 2:
            raise DomainError(f"transcript a, h0 lines need depth + 2 = {depth + 2} entries")
        if [s.n for s in steps] != list(range(depth + 2)):
            raise DomainError("transcript steps do not run 0..depth+1")
        return cls(a_seq, h0_seq, depth, tuple(steps))


def _dual_step(x: LatticePoint3, y: LatticePoint3, target: int,
               name: str) -> LatticePoint3:
    """The next line or point `name`: (target // |x|) x + x', where x'
    completes x in the lattice orthogonal to y.

    The line step is (x, y) = (Delta_n, P_n) with target h_{n+1}°, the point
    step (P_n, Delta_{n+1}) with target q_{n+1}°.  InternalError unless
    3|x'| <= target, x ^ x' = y and the result's norm is within a factor 2
    of target.
    """
    prime = complete_basis(y, x)
    if 3 * prime.norm > target:
        raise InternalError(f"completion for {name} too large: |{name}'| = {prime.norm}")
    if x.wedge(prime) != y:
        raise InternalError(f"completion for {name} has the wrong orientation")
    nxt = x.scale(target // x.norm) + prime
    if not target <= 2 * nxt.norm or not nxt.norm <= 2 * target:
        raise InternalError(f"factor-2 sandwich violated by {name}")
    return nxt


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
    for n in range(1, total):
        delta_next = _dual_step(delta, p, h0[n], f"Delta_{n}")
        p_next = _dual_step(p, delta_next, q0[n], f"P_{n}")
        if delta.dot(p_next) != 1:
            raise InternalError(f"<Delta_{n - 1}, P_{n}> != 1")
        if p_next.z != p_next.norm:
            raise InternalError(f"affine denominator is not the norm at step {n}")
        delta, p = delta_next, p_next
        trail.append(ConstructionStep(n, delta, p, delta.norm, p.norm))
    return ConstructionState(a, h0, steps, tuple(trail))


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
    """max_i |point_i - theta_i| certified: the max of each end of the
    coordinates' certified absolute values."""
    dists = [abs(CertifiedScalar(c - t, theta.radius)) for c, t in zip(point, theta.coords)]
    return CertifiedScalar.from_bounds(max(x.lo for x in dists), max(x.hi for x in dists))


def _form_value_abs(delta: LatticePoint3, theta: CertifiedVector) -> CertifiedScalar:
    """|<(r,s), theta> + t| certified (no reduction mod 1)."""
    center = delta.x * theta.coords[0] + delta.y * theta.coords[1] + delta.z
    return abs(CertifiedScalar(center, (abs(delta.x) + abs(delta.y)) * theta.radius))


def verify_construction(state: ConstructionState,
                        depth_bruteforce: int | None = None) -> VerifyReport:
    """Re-check the construction: structural identities in exact integer
    arithmetic, the certified enclosures, and (brute force) the
    no-better-approximation property below each scanned level.

    depth_bruteforce = None requests every level n <= depth, an explicit
    depth the levels n < depth_bruteforce.  A requested level is scanned when
    its q_{n+1} - 1 multipliers are within the default scan budget
    (_scan.DEFAULT_BUDGET), and reported as skipped otherwise.

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
        """lo <= value <= hi for (value, lo, hi) = bounds(n) (None fails n),
        n in [0, depth]; the upper bound is compared only when the lower holds."""
        bad = []
        for n in range(state.depth + 1):
            b = bounds(n)
            if (b is None or fails(b[0], b[1], Verdict.LESS, f"{what} lower")
                    or fails(b[0], b[2], Verdict.GREATER, f"{what} upper")):
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
                 if steps[n].delta.wedge(steps[n + 1].delta) != steps[n].p])
    add_failing("P_n ^ P_{n+1} = Delta_{n+1}", f"n in [0, {top - 1}]",
                [n for n in range(top)
                 if steps[n].p.wedge(steps[n + 1].p) != steps[n + 1].delta])
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
                  lambda n: None if a[n + 1] < 1 else (  # the sandwich fails it too
                      _form_value_abs(steps[n].delta, fine) * steps[n + 1].h ** 2,
                      Fraction(3, 32 * a[n + 1]), Fraction(10, a[n + 1])))

    # brute-force minimality below each scanned level: every q < q_{n+1}
    # outside {q_n, q_{n+1} - q_n} satisfies |q theta| > |q_n theta|
    levels = range(state.depth + 1) if depth_bruteforce is None \
        else range(min(depth_bruteforce, state.depth + 1))
    for n in levels:
        q_hi = steps[n + 1].q
        scope = f"level {n}: q < {q_hi}"
        exceptions = {steps[n + 1].q - steps[n].q}
        try:
            violations, report = _scan.all_greater_than_baseline(
                fine, q_hi, steps[n].q, exceptions)
        except ResourceError:
            add("no better approximation below q_{n+1} (brute force)", scope,
                None, f"scan of {q_hi - 1} exceeds budget {_scan.DEFAULT_BUDGET}")
            continue
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
    for 2 <= n <= levels.

    The cross-level coupling holds for every pair (i-1, i) with 2 <= i <= d:
    an exclusive lower index bound would leave the first coupling
    unconstrained, contradicting the series it feeds (a suspected index typo
    in the source constraint family).
    """

    dimension: int
    delta: Fraction
    levels: int
    quotients: tuple[tuple[int, ...], ...]
    denominators: tuple[tuple[int, ...], ...]  # [i][n-1] = q_{i+1,n}
    theta: CertifiedVector

    def denominator(self, coord: int, level: int) -> int:
        """q_{coord, level} with coord in 1..d, level in 1..levels+2."""
        return self.denominators[coord - 1][level - 1]

    def verify_growth(self) -> list[str]:
        """Exact integer re-check of every growth constraint; empty = ok."""
        d = self.dimension
        a, b = self.delta.numerator, self.delta.denominator
        bad = []
        for n in range(2, self.levels + 1):
            if self.denominator(d, n) ** b < self.denominator(1, n) ** (d * b) * n ** a:
                bad.append(f"q_{d},{n} < q_1,{n}^{d} * {n}^{self.delta}")
            for i in range(2, d + 1):
                if (self.denominator(i - 1, n + 1) ** b
                        < self.denominator(i, n) ** (d * b) * n ** a):
                    bad.append(f"q_{i - 1},{n + 1} < q_{i},{n}^{d} * {n}^{self.delta}")
        return bad


def alternating_cf(dimension: int, delta, levels: int) -> CFVectorSpec:
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
        constrained = 2 <= n - 1 <= levels
        for i in range(d - 1):  # coordinates 1..d-1 look one level back
            if constrained:
                digit = target_digit(qs[i][1], table[i + 1][n - 2], n - 1)
            else:
                digit = 1
            push(i, digit)
        if 2 <= n <= levels:  # coordinate d looks at this level
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
    spec = CFVectorSpec(d, delta, levels, tuple(tuple(v) for v in digits),
                        tuple(tuple(v) for v in table), theta)
    bad = spec.verify_growth()
    if bad:
        raise InternalError("growth constraints failed: " + "; ".join(bad))
    return spec
