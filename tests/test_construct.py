"""Recursive lattice construction, its verifier, and transcripts."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget import _scan, cli
from shrinktarget.construct import (ConstructionState, alternating_cf,
                                    build_theta, complete_basis,
                                    minimal_heights, verify_construction)
from shrinktarget.errors import DomainError, InternalError, PrecisionError
from shrinktarget.exact import (CertifiedVector, LatticePoint3, projective_distance,
                                wedge)

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
        w = wedge(p, prime)
        assert w.as_tuple() in (delta.as_tuple(), delta.scale(-1).as_tuple())
        bound = 2 * max(p.norm, F(delta.norm, p.norm))
        assert prime.norm <= bound


def test_complete_basis_rejects_bad_inputs():
    with pytest.raises(DomainError):
        complete_basis(LatticePoint3(1, 0, 0), LatticePoint3(0, 2, 0))
    with pytest.raises(DomainError):
        # <delta, p> != 0
        complete_basis(LatticePoint3(1, 0, 0), LatticePoint3(1, 1, 0))


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
        assert wedge(s.delta, t.delta).as_tuple() == s.p.as_tuple()
        assert wedge(s.p, t.p).as_tuple() == t.delta.as_tuple()
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
    """Transcripts are parsed strictly: a depth below 1, a, h0 lists shorter
    than depth + 2, a missing or repeated line or a non-integer token is a
    DomainError, not an IndexError or a verify pass over an empty range."""
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
    # q_{i,n} is stored at denominators[i-1][n-1]
    spec = alternating_cf(2, F(4), 3, 2)
    q1, q2 = spec.denominators
    for n in range(spec.start_index, spec.levels + 1):
        assert q2[n - 1] >= q1[n - 1] ** 2 * n ** 4
        assert q1[n] >= q2[n - 1] ** 2 * n ** 4


def test_alternating_cf_three_dimensions():
    spec = alternating_cf(3, F(5), 2, 2)
    qs = spec.denominators
    for n in range(spec.start_index, spec.levels + 1):
        assert qs[2][n - 1] >= qs[0][n - 1] ** 3 * n ** 5
        for i in (2, 3):
            assert qs[i - 2][n] >= qs[i - 1][n - 1] ** 3 * n ** 5


def test_alternating_cf_rejects_small_delta():
    with pytest.raises(DomainError):
        alternating_cf(2, F(3), 3, 2)


def test_alternating_cf_single_level_vacuous():
    spec = alternating_cf(2, F(4), 1, 2)
    assert spec.levels == 1
    assert spec.digit_rule  # provenance recorded


def test_alternating_cf_theta_matches_convergents():
    spec = alternating_cf(2, F(4), 3, 2)
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


def test_verifier_report_text_pinned():
    state = const33(2)
    # default scan: level 0 has q_1 - 1 > scan_cap multipliers, so none runs
    assert verify_construction(state).to_lines() == CONST33_DEPTH2_REPORT.splitlines()
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
