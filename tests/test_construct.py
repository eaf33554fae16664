"""Recursive lattice construction, its verifier, and transcripts."""

import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shrinktarget import _scan, cli, construct
from shrinktarget.construct import (ConstructionState, _best_shift, _bezout, _bezout_u,
                                    _completion, _dual_step, alternating_cf, build_theta,
                                    complete_basis, minimal_heights, verify_construction)
from shrinktarget.errors import DomainError, InternalError, PrecisionError
from shrinktarget.exact import (CertifiedVector, LatticePoint3, is_primitive,
                                projective_distance)

F = Fraction

A33 = lambda n: 33


def const33(depth):
    return build_theta(A33, minimal_heights(A33, 1, depth + 3), depth)


# --- basis completion --------------------------------------------------------

def test_complete_basis_coordinate_plane():
    got = complete_basis(LatticePoint3(0, 0, 1), LatticePoint3(1, 0, 0))
    assert got.as_tuple() == (0, 1, 0)


def test_complete_basis_second_example():
    delta = LatticePoint3(1, -1, 0)
    p = LatticePoint3(1, 1, 33)
    got = complete_basis(delta, p)
    assert got.as_tuple() == (0, 0, 1)


def test_complete_basis_postconditions():
    cases = [
        (LatticePoint3(3, 5, -2), LatticePoint3(1, 1, 4)),
        (LatticePoint3(7, -2, 1), LatticePoint3(0, 1, 2)),
        (LatticePoint3(1, -1, 0), LatticePoint3(1, 1, 33)),
    ]
    for delta, p in cases:
        prime = complete_basis(delta, p)
        w = p.wedge(prime)
        assert w.as_tuple() in (delta.as_tuple(), delta.scale(-1).as_tuple())
        bound = 2 * max(p.norm, F(delta.norm, p.norm))
        assert prime.norm <= bound


def test_complete_basis_rejects_bad_inputs():
    with pytest.raises(DomainError):
        complete_basis(LatticePoint3(1, 0, 0), LatticePoint3(0, 2, 0))
    with pytest.raises(DomainError):
        # <delta, p> != 0
        complete_basis(LatticePoint3(1, 0, 0), LatticePoint3(1, 1, 0))
    with pytest.raises(DomainError, match="delta must be nonzero"):
        complete_basis(LatticePoint3(0, 0, 0), LatticePoint3(0, 0, 1))


# --- the completion before it read P's coordinates off the basis: the oracle --

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


def _oracle_best_shift(base: LatticePoint3, p: LatticePoint3) -> LatticePoint3:
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


@settings(deadline=None, max_examples=300)
@given(st.tuples(*[st.integers(-300, 300)] * 3), st.tuples(*[st.integers(-60, 60)] * 3))
@example((0, 198, -216), (0, 58, 0))
def test_best_shift_is_the_least_norm_nearest_zero(base, p):
    """_best_shift against a brute-force argmin of (norm, |k|) over every k
    with |k*p| <= 2|base|, where every minimizer lies.  At base
    (0, 198, -216), p (0, 58, 0) the norm is 216 for k = 0..7; the binary
    search's window [1, 5] missed 0 there."""
    assume(any(p))
    base, p = LatticePoint3(*base), LatticePoint3(*p)
    n = base.norm
    k = min(range(-2 * n, 2 * n + 1), key=lambda k: ((base - p.scale(k)).norm, abs(k)))
    assert _best_shift(base, p) == base - p.scale(k)
    assert _oracle_best_shift(base, p).norm == (base - p.scale(k)).norm


def oracle_complete_basis(delta: LatticePoint3, p: LatticePoint3) -> LatticePoint3:
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
    w = v1.wedge(v2)
    if w != d and w != -d:
        raise InternalError("kernel basis does not span the direction")
    alpha = _ratio_component(p.wedge(v2), w)
    beta = -_ratio_component(p.wedge(v1), w)
    if v1.scale(alpha) + v2.scale(beta) != p:
        raise InternalError("lattice coordinates of P failed to reconstruct")
    g, bu, bv = _bezout(alpha, beta)
    if g != 1:
        raise InternalError("P is not primitive inside the planar lattice")
    # (alpha, beta), (gamma, delta') with alpha*delta' - beta*gamma = 1
    prime = v1.scale(-bv) + v2.scale(bu)
    prime = _oracle_best_shift(prime, p)
    if p.wedge(prime) == -d:
        prime = -prime
    if p.wedge(prime) != d:
        raise InternalError("completion does not generate the lattice")
    if prime.norm * p.norm > 2 * max(p.norm * p.norm, delta.norm):
        raise InternalError(
            f"completion bound violated: |P'| = {prime.norm} exceeds "
            f"2 max(|P|, |delta|/|P|)")
    return prime


def _outcome(fn, delta, p):
    try:
        return fn(delta, p).as_tuple()
    except (DomainError, InternalError) as exc:
        return type(exc).__name__, str(exc)


_COORD = st.integers(-2 ** 200, 2 ** 200)


@st.composite
def orthogonal_pairs(draw):
    """(delta, p) with p primitive and <delta, p> = 0.  delta's shape is
    general, has delta.y = 0 (v1.x = 0) or delta.x = delta.y = 0 (g1 = 0),
    times a content of 1 or more; p is delta ^ r over its content."""
    shape = draw(st.sampled_from(["general", "y0", "xy0"]))
    x, y, z = draw(_COORD), draw(_COORD), draw(_COORD)
    if shape != "general":
        y = 0
    if shape == "xy0":
        x = 0
    content = draw(st.one_of(st.just(1), st.integers(2, 10 ** 6)))
    delta = LatticePoint3(x, y, z).scale(content)
    cross = delta.wedge(LatticePoint3(draw(_COORD), draw(_COORD), draw(_COORD)))
    assume(not cross.is_zero)  # also rules out delta = 0
    c = math.gcd(cross.x, cross.y, cross.z)
    return delta, LatticePoint3(cross.x // c, cross.y // c, cross.z // c)


@settings(deadline=None, max_examples=400)
@given(orthogonal_pairs())
def test_complete_basis_matches_the_ratio_oracle(pair):
    """Reading P's coordinates off the basis gives the integers of the two
    wedge ratios, hence the same completion (or the same error)."""
    delta, p = pair
    assert _outcome(complete_basis, delta, p) == _outcome(oracle_complete_basis, delta, p)


@pytest.mark.parametrize("delta, p", [
    ((0, 0, 7), (3, -5, 0)),             # g1 = 0
    ((0, 0, -1), (-2 ** 200, 1, 0)),     # g1 = 0, a huge coordinate
    ((6, 0, -4), (2, 7, 3)),             # delta.y = 0: v1.x = 0, content 2
    ((-9, 0, 15), (5, 1, 3)),            # delta.y = 0, negative, content 3
    ((12, -18, 30), (2, 3, 1)),          # content 6
    ((2 ** 200 + 1, -3, 2 ** 199), (3, 2 ** 200 + 1, 0)),
])
def test_complete_basis_matches_the_ratio_oracle_at_the_edges(delta, p):
    delta, p = LatticePoint3(*delta), LatticePoint3(*p)
    assert delta.dot(p) == 0 and is_primitive(p)
    got = complete_basis(delta, p)
    assert got == oracle_complete_basis(delta, p)
    c = math.gcd(delta.x, delta.y, delta.z)
    assert p.wedge(got) == LatticePoint3(delta.x // c, delta.y // c, delta.z // c)


def test_dual_step_checks():
    """Each of the dual step's invariants raises InternalError on an input
    that breaks it: a completion above target/3, a y with content > 1 (the
    completion then has x ^ x' = y / content(y)), and |x| > target (no
    multiple of x, so the result falls below target/2).  Each call passes an
    e with <x, e> = 1, for Delta_1 the seed P_{-2} = (0, -1, 0)."""
    delta0, p0, e = LatticePoint3(1, -1, 0), LatticePoint3(1, 1, 33), LatticePoint3(0, -1, 0)
    assert _dual_step(delta0, p0, 792, "Delta_1", e) == const33(1).steps[1].delta
    with pytest.raises(InternalError, match="completion for Delta_1 too large"):
        _dual_step(delta0, p0, 1, "Delta_1", e)
    with pytest.raises(InternalError, match="completion for Delta_1 has the wrong orientation"):
        _dual_step(delta0, p0.scale(2), 10 ** 6, "Delta_1", e)
    with pytest.raises(InternalError, match="factor-2 sandwich violated by P_1"):
        _dual_step(LatticePoint3(33, 1, 0), LatticePoint3(0, 0, 1), 3, "P_1",
                   LatticePoint3(0, 1, 0))


# --- completions read off a vector e with <x, e> = 1 ---------------------------

@pytest.mark.parametrize("a, b", [
    (3, 2), (3, -2), (-3, 2), (-3, -2), (12, -8), (-6, 4),   # |b / g| = 2
    (7, 1), (7, -1), (10, -5), (-4, 4),                     # |b / g| = 1
    (0, 5), (0, -5), (0, 1), (0, -2),                       # a zero operand
    (2 ** 3001 + 1, 2), (2 ** 3001 + 1, -2), (-2 ** 3001 - 1, -2),
    (3 ** 1900, -(2 ** 3005 + 1)), (-(2 ** 3003 * 3 + 7), 2 ** 3000 * 5 + 3),
    (2 ** 3100 * 9 + 3, 2 ** 3100 * 6 + 2),                 # content 2 ** 3100 * 3 + 1
], ids=lambda v: str(v) if abs(v) < 2 ** 20 else f"{'-' * (v < 0)}{abs(v).bit_length()}bits")
def test_bezout_u_is_euclids_u_at_the_edges(a, b):
    g, u, _v = _bezout(a, b)
    m = b // g
    for k in (-3, -1, 0, 1, 2, 5):
        assert _bezout_u(u + k * m, m) == u


_SIGNED = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 3100, 2 ** 3100))


@settings(deadline=None, max_examples=400)
@given(_SIGNED, st.one_of(_SIGNED, st.sampled_from([1, -1, 2, -2])),
       st.one_of(st.just(1), st.integers(2, 10 ** 6)), st.integers(-2 ** 80, 2 ** 80))
def test_bezout_u_is_euclids_u(a, b, content, k):
    """Euclid's u for (a, b) is the residue of u mod b / gcd(a, b) taken in
    (-|b'|/2, |b'|/2] (-1 at b' = -2), so any representative gives it."""
    assume(b != 0)
    g, u, _v = _bezout(a * content, b * content)
    m = b * content // g
    assert _bezout_u(u + k * m, m) == u


def unit_dual(p: LatticePoint3, r: LatticePoint3) -> LatticePoint3:
    """A vector e with <p, e> = 1 for a primitive p, moved by p ^ r."""
    g, u, v = _bezout(p.x, p.y)
    _g, s, t = _bezout(g, p.z)
    return LatticePoint3(s * u, s * v, t) + p.wedge(r)


@settings(deadline=None, max_examples=400)
@given(orthogonal_pairs(), st.tuples(_COORD, _COORD, _COORD))
def test_completion_read_off_e_is_complete_basis(pair, r):
    """Any e with <p, e> = 1 gives complete_basis's completion (or its
    error): the residue rule where beta != 0, Euclid at beta = 0 and g1 = 0,
    whatever the content of delta."""
    delta, p = pair
    e = unit_dual(p, LatticePoint3(*r))
    assert p.dot(e) == 1
    assert (_outcome(lambda d, x: _completion(d, x, e), delta, p)
            == _outcome(complete_basis, delta, p))


@pytest.mark.parametrize("delta, p", [
    ((0, 0, 7), (3, -5, 0)), ((0, 0, -1), (-2 ** 200, 1, 0)), ((6, 0, -4), (2, 7, 3)),
    ((-9, 0, 15), (5, 1, 3)), ((12, -18, 30), (2, 3, 1)), ((1, -1, 0), (1, 1, 33)),
    ((2 ** 200 + 1, -3, 2 ** 199), (3, 2 ** 200 + 1, 0)),
])
def test_completion_refuses_an_e_off_the_unit_level(delta, p):
    """<p, e> = 1 is checked, also where beta = 0 sends the completion to
    Euclid; e = -e0 would otherwise pass every later check."""
    delta, p = LatticePoint3(*delta), LatticePoint3(*p)
    e = unit_dual(p, LatticePoint3(2, -1, 5))
    assert _completion(delta, p, e) == complete_basis(delta, p)
    for bad in (-e, e.scale(2), e + p, LatticePoint3(0, 0, 0)):
        with pytest.raises(InternalError, match="the step's <x, e> is not 1"):
            _completion(delta, p, bad)


def dual_steps(state):
    """(x, y, e, next) for every line and point step of a build: Delta_n
    from (Delta_{n-1}, P_{n-1}) with e = P_{n-3}, then P_n from (P_{n-1},
    Delta_n) with e = Delta_{n-2}, from the seeds Delta_{-1} = (1, 0, 0),
    P_{-2} = (0, -1, 0) and P_{-1} = (0, 0, -1)."""
    deltas = [LatticePoint3(1, 0, 0)] + [s.delta for s in state.steps]  # [m + 1] = Delta_m
    points = [LatticePoint3(0, -1, 0), LatticePoint3(0, 0, -1)] + [s.p for s in state.steps]
    for n in range(1, len(state.steps)):  # points[m + 2] = P_m
        yield deltas[n], points[n + 1], points[n - 1], deltas[n + 1]
        yield points[n + 1], deltas[n + 1], deltas[n - 1], points[n + 2]


@st.composite
def step_builds(draw):
    """const:k (k = 33..60) or poly:p (p = 4..6), an h0 start 1..5 with the
    tightest heights, depth 1..12."""
    k = draw(st.one_of(st.integers(33, 60), st.sampled_from(["poly:4", "poly:5", "poly:6"])))
    a = (lambda n: k) if isinstance(k, int) else (lambda n: (n + 3) ** int(k[5:]))
    depth = draw(st.integers(1, 12))
    return build_theta(a, minimal_heights(a, draw(st.integers(1, 5)), depth + 2), depth)


@settings(deadline=None, max_examples=40)
@given(step_builds())
def test_each_step_completes_with_its_earlier_levels(state):
    """Every step's e has <x, e> = 1, and the completion read off it is
    complete_basis(y, x), the one the step added to a multiple of x."""
    for x, y, e, nxt in dual_steps(state):
        assert x.dot(e) == 1
        prime = _completion(y, x, e)
        assert prime == complete_basis(y, x)
        assert (nxt - prime).wedge(x).is_zero


def test_a_build_runs_euclid_for_its_level_0_line_step_only(monkeypatch):
    """Only Delta_1 (beta = Delta_0.z = 0) runs _bezout: a depth-50 poly:4
    build makes exactly complete_basis(P_0, Delta_0)'s calls."""
    calls, bezout = [], construct._bezout

    def spy(a, b):
        calls.append((a, b))
        return bezout(a, b)

    monkeypatch.setattr(construct, "_bezout", spy)
    a = lambda n: (n + 3) ** 4
    state = build_theta(a, minimal_heights(a, 1, 52), 50)
    made = calls[:]
    calls.clear()
    complete_basis(state.steps[0].p, state.steps[0].delta)
    assert made == calls and len(calls) == 2
    assert state.steps[0].delta.z == 0


# --- heights helper -----------------------------------------------------------

def test_minimal_heights_tightest_admissible():
    hs = minimal_heights(A33, 1, 4)
    assert hs[0] == 1
    for n in range(3):
        assert hs[n + 1] == 24 * 33 * hs[n]


# --- the construction itself ---------------------------------------------------

def test_build_theta_base_step():
    state = const33(2)
    s0 = state.steps[0]
    assert s0.delta.as_tuple() == (1, -1, 0)
    assert s0.p.as_tuple() == (1, 1, 33)
    assert (s0.h, s0.q) == (1, 33)
    # base point lies within 1/32 of the origin in the projective metric
    assert projective_distance(LatticePoint3(0, 0, 1), s0.p) == F(1, 33)


def test_build_theta_admissibility_errors():
    with pytest.raises(DomainError):
        build_theta(lambda n: 32, minimal_heights(A33, 1, 5), 2)
    with pytest.raises(DomainError):
        build_theta(A33, (1, 700, 639704, 507102337), 2)
    h0 = minimal_heights(A33, 1, 5)
    for a, heights, steps, message in (
            (A33, h0, 0, "steps must be >= 1"),
            (A33, (0, *h0[1:]), 2, r"h0_seq\[0\] must be a positive integer"),
            ([33] * 3, h0, 2, "a_seq needs 4 entries .* got 3"),
            ([33, F(67, 2), 33, 33], h0, 2, r"a_seq\[1\] = Fraction\(67, 2\) is not an integer")):
        with pytest.raises(DomainError, match=message):
            build_theta(a, heights, steps)


def test_structural_invariants_direct():
    """Wedge identities, orthogonality, unit pairing, sandwich bounds."""
    state = const33(4)
    h0 = minimal_heights(A33, 1, 7)
    for n, step in enumerate(state.steps):
        assert step.delta.dot(step.p) == 0
        assert abs(step.h - 0) == step.delta.norm
        assert F(1, 2) * h0[n] <= step.h <= 2 * h0[n]
        q_target = 33 * h0[n] ** 2
        assert F(1, 2) * q_target <= step.q <= 2 * q_target
    for s, t in zip(state.steps, state.steps[1:]):
        assert s.delta.wedge(t.delta).as_tuple() == s.p.as_tuple()
        assert s.p.wedge(t.p).as_tuple() == t.delta.as_tuple()
        assert s.delta.dot(t.p) == 1


def test_theta_is_small_and_certified():
    state = const33(3)
    assert all(abs(c) <= F(1, 8) for c in state.theta.coords)
    assert state.theta.radius > 0
    refined = state.refined_theta()
    assert refined.radius < state.theta.radius / 10**3
    # both certify the same point: the coordinate intervals overlap
    for a, b in zip(state.theta.coords, refined.coords):
        assert abs(a - b) <= state.theta.radius + refined.radius


def test_projective_gaps_decay_geometrically():
    state = const33(5)
    pts = [s.p for s in state.steps]
    gaps = [projective_distance(p, q) for p, q in zip(pts, pts[1:])]
    for i, g in enumerate(gaps):
        assert g <= F(1, 32 ** (i + 1))
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 <= F(1, 2**18 * 3**3) * g0


def test_gap_equals_height_over_denominator_product():
    """d(P~_n, P~_{n+1}) = h_{n+1} / (q_n q_{n+1}) exactly."""
    state = const33(4)
    for n in range(4):
        s, t = state.steps[n], state.steps[n + 1]
        assert projective_distance(s.p, t.p) == F(t.h, s.q * t.q)


def test_verifier_full_pass():
    state = const33(6)
    report = verify_construction(state, 2)
    assert report.ok
    names = [c.name for c in report.checks]
    assert any("brute force" in n for n in names)
    # level-0 exhaustive scan must have actually run (not been skipped)
    level0 = [c for c in report.checks if "brute force" in c.name][0]
    assert level0.passed is True
    # the only sub-q_1 exceptions are the allowed differences q_1 - q_0
    allowed = {state.denominators[1] - state.denominators[0]}
    assert set(report.scan_exceptions.get(0, {})) <= allowed


def test_verifier_structural_only_at_depth_zero():
    report = verify_construction(const33(3), 0)
    assert report.ok
    assert all("brute force" not in c.name or c.passed is None
               for c in report.checks)


def test_verifier_catches_tampered_step():
    state = const33(4)
    lines = state.to_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("step 2 "):
            parts = ln.split()
            parts[2:5] = [str(2 * int(v)) for v in parts[2:5]]
            parts[8] = str(2 * int(parts[8]))
            lines[i] = " ".join(parts)
    tampered = ConstructionState.from_text("\n".join(lines) + "\n")
    report = verify_construction(tampered, 0)
    assert not report.ok
    assert "primitivity" in " ".join(c.name for c in report.failed())


def test_transcript_roundtrip_bit_exact():
    state = const33(5)
    text = state.to_text()
    again = ConstructionState.from_text(text)
    assert again.to_text() == text
    assert again.theta == state.theta
    assert again.denominators == state.denominators
    assert again.heights == state.heights


def _battery():
    """(id, a, h0 list or start of the minimal heights, depth) of each build
    whose transcript digest is pinned below."""
    out = []
    for k in range(33, 41):
        for start in (1, 2, 7):
            out.append((f"const{k}-h{start}", (lambda n, k=k: k), start, 6))
    for p, depth in ((4, 12), (5, 12), (6, 12), (4, 50)):
        out.append((f"poly{p}-d{depth}", (lambda n, p=p: (n + 3) ** p), 1, depth))
    for seed in range(20):
        rng = random.Random(seed)
        depth = rng.randint(2, 8)
        a = [rng.randint(33, 400) for _ in range(depth + 2)]
        h0 = [rng.randint(1, 9)]
        for n in range(depth + 1):
            h0.append(24 * a[n] * h0[-1] + rng.randrange(24 * a[n] * h0[-1]))
        out.append((f"seeded{seed}", a, h0, depth))
    return out


# SHA-256 of each battery build's to_text(), and of the lines
# "id theta refined_theta" of all of them (coordinates, then the radius),
# recorded before the line and point steps shared one dual step
BATTERY_TRANSCRIPTS = {
    "const33-h1": "1e2b737d0b990d48f6c671f54bcdae7b448e586f19732550004c31a82bba5896",
    "const33-h2": "f0254af5e8a8fd75cb408af5ed7655f48caf9ae1042c5e1b4118df22b4596173",
    "const33-h7": "0b520ef17aff641079f53f1fc3c1bd8f941216174ff45818cbda4364ae764dfc",
    "const34-h1": "eb87151cd3dedac5423074796c7652246c11662fe3f0e254019c7a114a3299fb",
    "const34-h2": "8d0a6a79ae064d06b7b98559e8817a48a27df7eb1ecf45abba2b3a326dbfe356",
    "const34-h7": "d457e0541bfdee5e5dd7dac632fc2bc1d30cd6a5ec9d390febda01e4daa316e4",
    "const35-h1": "772f1df428f498a9f5546e5696047cb7cc37c73b70fc4c2459598239138d34b1",
    "const35-h2": "dc3c02e564e3f63e0679d011aad6edc8e4045c0b440fcf92f2f3eb59c5ad5f06",
    "const35-h7": "f0d57f5ef3bad7c8925eb46da8b46de07ef2b450058bc6eee33a5f1e5c70ab38",
    "const36-h1": "16ea817d15a55e520e529ae60fbf7bf97b87da023e3588c078d722e13f7e7455",
    "const36-h2": "c2570dd3fc74ab92670aa9731e4e8914ad81ebfe8d88fdd16087ac79eed52dd4",
    "const36-h7": "6404345d28774b909e07c4169afc3180dc93e7e983bef1ffe2589a60e6fc4cf4",
    "const37-h1": "171a87646bdc51efcc9a144bc737ff2772dd3034dac67fcfeb4e714b4a87286f",
    "const37-h2": "2bd01e54674ed4d698b994df0931530d164373ecaf4bb23d93f900aab792845d",
    "const37-h7": "8ba617a2b20a295a0ceb2f903383bc84f77bba7f209a68c46bcc63f737779066",
    "const38-h1": "7a25cf65d7999451b5023961205eb36e8b65714e30af5e544f4685f71fa487b6",
    "const38-h2": "f60a349aa5838cfae44a879d3ee5363c9ce1818db9e1e3ebc14acdcc074651ba",
    "const38-h7": "8a5110559bfd2458f20a649c738efd1304d422cceb7c87a94988c9be1f3a2eb8",
    "const39-h1": "a40f8b70a4d54a368ba6851f13f4b5f478478ef453a3cf99731eeef7c2c8fa79",
    "const39-h2": "41fa2b8ff949e3b613f33d37a0495ed965ab1ee5eb1e75e285aa7185d92bdeeb",
    "const39-h7": "b5464e16a7feeb6b1d6068e326134b15295e80d0bb2a5bd2fa437aba0fde9cdc",
    "const40-h1": "fc3b8f1b2a6268872692d6d2d6743acbecbc9962c3ec4344f36faf8a7aee9e28",
    "const40-h2": "5fe1e71229a384111a9844f924daf952a2496e2d9a986227c6cb8d8f3f3c70c7",
    "const40-h7": "c8f27b220e6b5589983bc171474771af30d32223c006788c957dc5658a6c6f64",
    "poly4-d12": "17075d8316f0db1e420019af4d2e4196b0d49be6bd2c75ac7a6ff2b699090936",
    "poly5-d12": "bc04adbe291eac45892cf1172f8682804b72fb096775de3eea172fdd1323dbf9",
    "poly6-d12": "150a6d055153d8518c67febdf0fda9f01568a9efd36b7cea00e94295c9c5deed",
    "poly4-d50": "b322eb3d5148b7d16fadbd6efc1e21ab4c039b8d4d576b811e19d53fc55a2c96",
    "seeded0": "da74934c3712e84b6de224e4a4278f1bffa99654bc2934fac97fd67e82a1ee00",
    "seeded1": "f3688e463ef8cba059ccd8fcf06e5f9c0cd07802018e1abf7880b1bd898a4707",
    "seeded2": "799989f8e5698c2aa4976d230f1ff9f4c9eea8023ea7916ad5299f740b3860b6",
    "seeded3": "b14c0f076a618cdfd556b1ea8cce80d6ba57874cd8747f5a72beb0a4bfa986ab",
    "seeded4": "a26b6a663f57e872eac45ff9a7880a0c965f40a91988780c793a44b961a26249",
    "seeded5": "ab0b6a16fa646926570229d282141ae5c64335b4282650f249a9fdd793219c06",
    "seeded6": "c94f474fe28c595bd0de7350d39ecb99efd60bbbffaaac9925b6d7084bf38cc5",
    "seeded7": "fcc42c5698fa1858730e4ab402c4108beb6bf1fa5a5259a749323a7a1e6edda7",
    "seeded8": "3887a6c3e11fd3a6663a98cbf11c51debd760e8467ec51d0a08ff5b5832b4613",
    "seeded9": "de2375ad23013d9f1f8b9e5db985e77a1d024d9e309bc490bbd8a20e9f2867ee",
    "seeded10": "6d9e4976f7f9135b1b09ccab41ce3f30cdaf8a704ef236dfba0cd3d460d1b7a8",
    "seeded11": "587b28672a351ae4572f3a70414b0a79b46329e74a28a3424933f9299cd81b88",
    "seeded12": "0528aae06a09bcaab596fffcb1899028817cb1649f40ada9797dc86976078742",
    "seeded13": "5957f96d619c0187fee5f6dab96e4085845b472b42707ec90b48c1aa1e6574c5",
    "seeded14": "412f4a03a74a9d6230def86aafef4a68f27f048a9ec7966c98f5e1f4e4783f8e",
    "seeded15": "6679ee23b41509755d63394e38cf315eb684cbc663154309effb448b5550a337",
    "seeded16": "9dfe4e52dff77d0191cb77e07e56d941faf4a971a5c083b862cf0d3993fad6db",
    "seeded17": "103fb74b35b32a4f8da717d62b44d112906ebfd083815348d0816d1fc9fba633",
    "seeded18": "4a31ca8a9e779e65a1e24e4960b15e9d7445ad5625bb13b38c448c4f4bb02a77",
    "seeded19": "72b51a938d7e8a44903f7823c29870242facf2fa5c4a6b614e184c5e8dfa7079",
}
BATTERY_THETAS = "913d34b3fee95a203ef1854d8b68827f46297c8c8df088b64a1ccd92a8b047c6"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_battery_transcripts_and_thetas_pinned():
    def vec(v):
        return " ".join(map(str, v.coords)) + " " + str(v.radius)
    got, thetas = {}, []
    for name, a, h0, depth in _battery():
        if isinstance(h0, int):
            h0 = minimal_heights(a, h0, depth + 2)
        state = build_theta(a, h0, depth)
        got[name] = _sha(state.to_text())
        thetas.append(f"{name} {vec(state.theta)} {vec(state.refined_theta())}\n")
    assert got == BATTERY_TRANSCRIPTS
    assert _sha("".join(thetas)) == BATTERY_THETAS


def tamper(state, n, part):
    """The transcript of `state` with Delta_n ("delta") or P_n ("p") and its
    norm doubled: still loadable, no longer primitive."""
    first, norm = (2, 8) if part == "delta" else (5, 9)
    lines = state.to_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith(f"step {n} "):
            parts = ln.split()
            parts[first:first + 3] = [str(2 * int(v)) for v in parts[first:first + 3]]
            parts[norm] = str(2 * int(parts[norm]))
            lines[i] = " ".join(parts)
    return ConstructionState.from_text("\n".join(lines) + "\n")


# admissible builds: a constant a in 33..40 or the poly:4 regime, depth 1..4,
# minimal heights
@st.composite
def admissible_builds(draw):
    k = draw(st.one_of(st.integers(33, 40), st.just("poly:4")))
    a = (lambda n: (n + 3) ** 4) if k == "poly:4" else (lambda n: k)
    depth = draw(st.integers(1, 4))
    return build_theta(a, minimal_heights(a, 1, depth + 2), depth)


@settings(deadline=None, max_examples=30)
@given(admissible_builds())
def test_transcript_roundtrip_generated(state):
    text = state.to_text()
    again = ConstructionState.from_text(text)
    assert again.to_text() == text
    assert again.theta == state.theta
    assert again.heights == state.heights
    assert again.denominators == state.denominators


@settings(deadline=None, max_examples=30)
@given(admissible_builds(), st.sampled_from(["delta", "p"]), st.data())
def test_verifier_catches_generated_tamper(state, part, data):
    """Doubling Delta_n or P_n with its norm keeps the transcript loadable
    and breaks primitivity, up to the certification step depth+1.
    Delta_{depth+1} sets the refined radius, and doubling it can leave an
    enclosure inconclusive: after the failed structural checks that counts
    as a failed check, not as a PrecisionError."""
    n = data.draw(st.integers(0, state.depth + 1), label="step")
    report = verify_construction(tamper(state, n, part), 0)
    assert not report.ok
    assert "primitivity" in " ".join(c.name for c in report.failed())


def test_verifier_fails_an_undecided_scan_after_a_structural_failure(monkeypatch):
    """A brute-force level whose scan is inconclusive fails its check once a
    structural check has failed, and raises on a valid transcript."""
    def undecided(*args):
        raise PrecisionError("comparison inconclusive")
    monkeypatch.setattr(_scan, "all_greater_than_baseline", undecided)
    state = const33(2)
    with pytest.raises(PrecisionError):
        verify_construction(state, 1)
    failed = verify_construction(tamper(state, 1, "p"), 1).failed()
    assert [c.detail for c in failed if "brute force" in c.name] == [
        "inconclusive: comparison inconclusive"]


def test_verifier_still_raises_on_an_undecided_valid_transcript(monkeypatch):
    """On a structurally valid transcript an inconclusive comparison raises
    PrecisionError: only a failed structural check turns it into a failure."""
    state = const33(2)
    wide = CertifiedVector(state.theta.coords, F(1, 10**6))
    monkeypatch.setattr(ConstructionState, "refined_theta", lambda self: wide)
    with pytest.raises(PrecisionError, match="inconclusive"):
        verify_construction(state, 0)


def _retoken(ln, i, token):
    parts = ln.split()
    parts[i] = token
    return " ".join(parts)


def _keep_steps(lines, depth):
    """The lines with `depth` on the depth line and steps 0..depth+1 only."""
    steps = {f"step {n} " for n in range(depth + 2)}
    return [f"depth {depth}" if ln.startswith("depth ") else ln for ln in lines
            if not ln.startswith("step ") or ln[:ln.index(" ", 5) + 1] in steps]


# (id, edit of the depth-3 transcript's lines, DomainError message): the lines
# are the header, depth, a, h0, then steps 0..4
MALFORMED_TRANSCRIPTS = [
    ("depth_minus_one", lambda ls: _keep_steps(ls, -1), "one depth line of one integer >= 1"),
    ("depth_zero", lambda ls: _keep_steps(ls, 0), "one depth line of one integer >= 1"),
    ("no_depth", lambda ls: ls[:1] + ls[2:], "one depth line of one integer >= 1"),
    ("short_a", lambda ls: ls[:2] + [ls[2].rsplit(" ", 1)[0]] + ls[3:],
     r"a, h0 lines need depth \+ 2 = 5 entries"),
    ("short_h0", lambda ls: ls[:3] + [ls[3].rsplit(" ", 1)[0]] + ls[4:],
     r"a, h0 lines need depth \+ 2 = 5 entries"),
    ("no_h0", lambda ls: ls[:3] + ls[4:], r"a, h0 lines need depth \+ 2 = 5 entries"),
    ("repeated_depth", lambda ls: ls[:2] + ls[1:], "repeated transcript line 'depth'"),
    ("repeated_a", lambda ls: ls[:3] + ls[2:], "repeated transcript line 'a'"),
    ("repeated_h0", lambda ls: ls[:4] + ls[3:], "repeated transcript line 'h0'"),
    ("non_integer_step", lambda ls: ls[:5] + [_retoken(ls[5], 3, "1.5")] + ls[6:],
     "non-integer token"),
    ("non_integer_depth", lambda ls: [ls[0], "depth three"] + ls[2:], "non-integer token"),
    ("bad_header", lambda ls: ["# shrinktarget transcript v0"] + ls[1:], r"\(bad header\)"),
    ("unknown_line", lambda ls: ls + ["theta 1 2"], "unknown transcript line: 'theta 1 2'"),
    ("short_step", lambda ls: ls[:5] + [ls[5].rsplit(" ", 1)[0]] + ls[6:],
     "malformed transcript step line"),
    ("missing_step", lambda ls: ls[:5] + ls[6:], r"steps do not run 0\.\.depth\+1"),
]


def _malformed(edit):
    return "\n".join(edit(const33(3).to_text().splitlines())) + "\n"


def test_transcript_rejects_inconsistent_norms():
    state = const33(3)
    lines = state.to_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("step 1 "):
            parts = ln.split()
            parts[2] = str(int(parts[2]) + 1)  # break |delta| = h silently
            lines[i] = " ".join(parts)
    with pytest.raises(DomainError):
        ConstructionState.from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED_TRANSCRIPTS],
                         ids=[case[0] for case in MALFORMED_TRANSCRIPTS])
def test_transcript_rejects_malformed_lines(edit, message):
    """Transcripts are parsed strictly: a bad header, an unknown line, a step
    line without nine integers, steps that do not run 0..depth+1, a depth
    below 1, a, h0 lists shorter than depth + 2, a missing or repeated line or
    a non-integer token is a DomainError, not an IndexError or a verify pass
    over an empty range."""
    with pytest.raises(DomainError, match=message):
        ConstructionState.from_text(_malformed(edit))


@pytest.mark.parametrize("edit", [case[1] for case in MALFORMED_TRANSCRIPTS],
                         ids=[case[0] for case in MALFORMED_TRANSCRIPTS])
def test_verify_exits_2_on_a_malformed_transcript(tmp_path, edit):
    transcript = tmp_path / "t.txt"
    transcript.write_text(_malformed(edit))
    config = tmp_path / "run.cfg"
    config.write_text(f"command=verify\ntranscript={transcript}\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "DomainError"


def test_polynomial_growth_regime():
    a = lambda n: (n + 3) ** 4
    state = build_theta(a, minimal_heights(a, 1, 6), 4)
    report = verify_construction(state, 1)
    assert report.ok


def test_best_approximations_below_q1_are_construction_data():
    """Within q < q_1 the only best approximations are the trivial q = 1,
    the construction's q_0, and possibly the difference q_1 - q_0."""
    from shrinktarget.bestapprox import best_simultaneous
    state = const33(3)
    q0, q1 = state.denominators[0], state.denominators[1]
    heights = {r.height for r in best_simultaneous(state.theta, q1 - 1)}
    assert q0 in heights
    assert heights <= {1, q0, q1 - q0}


# --- alternating continued-fraction vectors -----------------------------------

def test_alternating_cf_growth_table():
    # q_{i,n} is stored at denominators[i-1][n-1]; delta = a/b, and a
    # fractional delta takes its digits from an integer root
    for delta, levels in ((F(4), 3), (F(7, 2), 6)):
        spec = alternating_cf(2, delta, levels)
        a, b = delta.numerator, delta.denominator
        q1, q2 = spec.denominators
        for n in range(2, spec.levels + 1):
            assert q2[n - 1] ** b >= q1[n - 1] ** (2 * b) * n ** a
            assert q1[n] ** b >= q2[n - 1] ** (2 * b) * n ** a
        assert spec.verify_growth() == []


def test_alternating_cf_three_dimensions():
    spec = alternating_cf(3, F(5), 2)
    qs = spec.denominators
    for n in range(2, spec.levels + 1):
        assert qs[2][n - 1] >= qs[0][n - 1] ** 3 * n ** 5
        for i in (2, 3):
            assert qs[i - 2][n] >= qs[i - 1][n - 1] ** 3 * n ** 5


def test_alternating_cf_rejects_small_delta():
    """And a dimension below 2 or no level."""
    with pytest.raises(DomainError):
        alternating_cf(2, F(3), 3)
    with pytest.raises(DomainError, match="dimension must be >= 2"):
        alternating_cf(1, F(5), 3)
    with pytest.raises(DomainError, match="levels must be >= 1"):
        alternating_cf(2, F(5), 0)


def test_alternating_cf_single_level_vacuous():
    spec = alternating_cf(2, F(4), 1)
    assert spec.levels == 1
    assert spec.quotients == ((1, 1, 1), (1, 1, 1))  # no level is constrained


@pytest.mark.parametrize("coord, level, bound, failure", [
    (2, 3, lambda q1, q2: q1[2] ** 2 * 3 ** 4, "q_2,3 < q_1,3^2 * 3^4"),
    (1, 4, lambda q1, q2: q2[2] ** 2 * 3 ** 4, "q_1,4 < q_2,3^2 * 3^4"),
])
def test_alternating_cf_tampered_denominator_fails_at_its_level(coord, level, bound, failure):
    """A denominator lowered to just below its constraint fails verify_growth
    at that constraint and nowhere else."""
    spec = alternating_cf(2, F(4), 3)
    table = [list(row) for row in spec.denominators]
    table[coord - 1][level - 1] = bound(*spec.denominators) - 1
    tampered = replace(spec, denominators=tuple(map(tuple, table)))
    assert tampered.verify_growth() == [failure]


def test_alternating_cf_theta_matches_convergents():
    spec = alternating_cf(2, F(4), 3)
    assert spec.theta.dim == 2
    assert spec.theta.radius > 0
    for coord in spec.theta.coords:
        assert 0 < coord < 1



# --- the verifier's full report text, recorded before its checks shared
# helpers ------------------------------------------------------------------------

CONST33_DEPTH2_REPORT = """\
[PASS] primitivity of Delta_n and P_n (n in [0, 3])
[PASS] <Delta_n, P_n> = 0 (n in [0, 3])
[PASS] norm bookkeeping (|Delta_n| = h_n, |P_n| = z_n = q_n, |(r_n,s_n)| = h_n) (n in [0, 3])
[PASS] Delta_n ^ Delta_{n+1} = P_n (n in [0, 2])
[PASS] P_n ^ P_{n+1} = Delta_{n+1} (n in [0, 2])
[PASS] <Delta_n, P_{n+1}> = 1 (n in [0, 2])
[PASS] sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2) (n in [0, 3])
[PASS] projective gap contraction (ratio 1/(2^18*3^3)) (n in [1, 2])
[PASS] crude gap decay <= 32^-(n+1) (n in [0, 2])
[PASS] base point within 1/32 of the origin (n = 0) -- d(0, P~_0) = 1/33
[PASS] |theta| <= 1/8 (certified) -- certified sup norm <= 0.030302
[PASS] theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n (n in [0, 2])
[PASS] orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1}) (n in [0, 2])
[PASS] line-value enclosure 3/(4q_{n+1}) <= |<Delta_n, theta_bar>| <= 5/(4q_{n+1}) (n in [0, 2])
[PASS] weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| <= 10/a_{n+1} (n in [0, 2])
"""

BRUTE_FORCE_LEVELS_0_1 = """\
[PASS] no better approximation below q_{n+1} (brute force) (level 0: q < 20699728) -- exceptions [20699695]: ['leq']
[SKIP] no better approximation below q_{n+1} (brute force) (level 1: q < 12984173432719) -- scan of 12984173432718 exceeds budget 100000000
"""

TAMPERED_POINT_REPORT = """\
[FAIL] primitivity of Delta_n and P_n (n in [0, 5]) -- failing n: [3]
[PASS] <Delta_n, P_n> = 0 (n in [0, 5])
[PASS] norm bookkeeping (|Delta_n| = h_n, |P_n| = z_n = q_n, |(r_n,s_n)| = h_n) (n in [0, 5])
[FAIL] Delta_n ^ Delta_{n+1} = P_n (n in [0, 4]) -- failing n: [3]
[FAIL] P_n ^ P_{n+1} = Delta_{n+1} (n in [0, 4]) -- failing n: [2, 3]
[FAIL] <Delta_n, P_{n+1}> = 1 (n in [0, 4]) -- failing n: [2]
[PASS] sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2) (n in [0, 5])
[PASS] projective gap contraction (ratio 1/(2^18*3^3)) (n in [1, 4])
[PASS] crude gap decay <= 32^-(n+1) (n in [0, 4])
[PASS] base point within 1/32 of the origin (n = 0) -- d(0, P~_0) = 1/33
[PASS] |theta| <= 1/8 (certified) -- certified sup norm <= 0.030302
[FAIL] theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n (n in [0, 4]) -- lower fails: [], upper fails: [2, 3]
[FAIL] orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1}) (n in [0, 4]) -- failing n: [2, 3]
[FAIL] line-value enclosure 3/(4q_{n+1}) <= |<Delta_n, theta_bar>| <= 5/(4q_{n+1}) (n in [0, 4]) -- failing n: [2]
[PASS] weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| <= 10/a_{n+1} (n in [0, 4])
"""


BRUTE_FORCE_LEVEL_2 = """\
[SKIP] no better approximation below q_{n+1} (brute force) (level 2: q < 8144504531291981969) -- scan of 8144504531291981968 exceeds budget 100000000
"""


def test_verifier_report_text_pinned():
    state = const33(2)
    # default: every level is asked for; level 0 is within the scan budget
    assert (verify_construction(state).to_lines()
            == (CONST33_DEPTH2_REPORT + BRUTE_FORCE_LEVELS_0_1 + BRUTE_FORCE_LEVEL_2).splitlines())
    assert (verify_construction(state, 2).to_lines()
            == (CONST33_DEPTH2_REPORT + BRUTE_FORCE_LEVELS_0_1).splitlines())


def test_verifier_report_text_pinned_on_tampered_point():
    lines = const33(4).to_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("step 3 "):  # double P_3 and its norm q_3
            parts = ln.split()
            parts[5:8] = [str(2 * int(v)) for v in parts[5:8]]
            parts[9] = str(2 * int(parts[9]))
            lines[i] = " ".join(parts)
    tampered = ConstructionState.from_text("\n".join(lines) + "\n")
    assert verify_construction(tampered, 0).to_lines() == TAMPERED_POINT_REPORT.splitlines()
