"""End-to-end acceptance gates.

Each test is one release gate with frozen parameters (seeds, horizons,
thresholds); together they cover the full pipeline: exact arithmetic,
best-approximation scans, the transfer inequality, the explicit
construction, series criteria and the fixed-point orbit engines.

Gates that compare against hand-frozen statistical thresholds state the
threshold in the assert so a failure message carries the measured value.
"""

import random
import time
from fractions import Fraction as F

import pytest

from shrinktarget import criteria
from shrinktarget.bestapprox import best_simultaneous
from shrinktarget.construct import (alternating_cf, build_theta,
                                    minimal_heights, verify_construction)
from shrinktarget.errors import DomainError
from shrinktarget.exact import CertifiedVector, certified_form_dist
from shrinktarget.orbit import (OrbitConfig, bc_window_estimate,
                                exact_orbit_hits, hit_census, orbit_hits)
from shrinktarget.roots import nth_root_enclosure, pow_enclosure

PELL_WITNESSES = [1, 2, 5, 12, 29, 70, 169, 408, 985, 2378,
                  5741, 13860, 33461, 80782]


def pell_convergent(min_den):
    """Numerator/denominator of the first convergent of sqrt(2)-1 with
    denominator >= min_den."""
    p, q = 0, 1
    pp, qq = 1, 2
    while qq < min_den:
        p, pp = pp, p + 2 * pp
        q, qq = qq, q + 2 * qq
    return pp, qq


def seeded_vector(rng, dim, den_lo=100, den_hi=5000):
    m = rng.randrange(den_lo, den_hi)
    return CertifiedVector(tuple(F(rng.randrange(1, m), m) for _ in range(dim)),
                           F(0))


@pytest.fixture(scope="module")
def bounded_state():
    a = lambda n: 33
    return build_theta(a, minimal_heights(a, 1, 9), 6)


@pytest.fixture(scope="module")
def poly_state():
    a = lambda n: (n + 3) ** 4
    return build_theta(a, minimal_heights(a, 1, 9), 6)


def test_01_pell_witness_sequence_reproduced():
    """Witnesses of the deep sqrt(2)-1 convergent up to 10^5 are the Pell
    numbers, and every consecutive pair obeys the two-sided sandwich."""
    started = time.time()
    pp, qq = pell_convergent(10 ** 45)
    theta = CertifiedVector((F(pp, qq),), F(1, 10 ** 41))
    records = best_simultaneous(theta, 10 ** 5)
    assert [r.height for r in records] == PELL_WITNESSES
    for rec, nxt in zip(records, records[1:]):
        assert rec.value.lo >= F(1, rec.height + nxt.height)
        assert rec.value.hi <= F(1, nxt.height)
    assert time.time() - started < 5


def test_02_sandwich_inequality_on_seeded_vectors():
    """Zero violations of either sandwich side across 50 random exact
    vectors in dimensions 2 and 3 (q up to 10^4)."""
    started = time.time()
    rng = random.Random(20260815)
    checked = 0
    for dim in (2, 3):
        for _ in range(25):
            theta = seeded_vector(rng, dim)
            records = best_simultaneous(theta, 10 ** 4)
            for rec, nxt in zip(records, records[1:]):
                assert rec.value.lo >= F(1, rec.height + nxt.height), \
                    (theta.coords, rec.height)
                assert rec.value.hi ** dim * nxt.height <= 1, \
                    (theta.coords, rec.height)
                checked += 1
    assert checked > 100
    assert time.time() - started < 120


def test_03_transfer_inequality_never_violated():
    """eps_l(h) <= eps_s(C h^d) / (C h^(d-1)) with C = 1/(2(d+1)) on 200
    seeded exact vectors, h spanning 2..500, decided exactly."""
    started = time.time()
    rng = random.Random(631)
    vectors_d2 = [seeded_vector(rng, 2) for _ in range(100)]
    vectors_d3 = [seeded_vector(rng, 3) for _ in range(100)]
    for theta in vectors_d2:
        for h in (3, 5, 17, 59, 143, 500):
            assert criteria.transfer_check(theta, h).holds, (theta.coords, h)
    for theta in vectors_d3:
        for h in (2, 3, 11, 37, 97):
            assert criteria.transfer_check(theta, h).holds, (theta.coords, h)
    # the heaviest corner: d = 3 at h = 500 needs a raised scan budget
    for theta in vectors_d3[:3]:
        assert criteria.transfer_check(theta, 500, budget=2 * 10 ** 9).holds
    # below C h^d = 1 the right side has no multiplier to scan
    with pytest.raises(DomainError):
        criteria.transfer_check(vectors_d2[0], 2)
    assert time.time() - started < 300


def test_04_construction_invariants_and_bruteforce_scan(bounded_state):
    """The depth-6 bounded build passes every structural and certified
    check; the no-better-approximation brute force passes for every level
    within the verifier's scan cap, and level 0 passes when it is asked for
    through an explicit depth."""
    started = time.time()
    report = verify_construction(bounded_state)
    assert report.ok, [c.name for c in report.failed()]
    # all q_{n+1} of this build except q_1 exceed the verifier's 2e7 cap, and
    # q_1 misses it by 3.5%: the default scan list is empty (vacuous pass)
    assert bounded_state.denominators[1] > 2 * 10 ** 7
    level0 = verify_construction(bounded_state, 1)
    assert level0.ok, [c.name for c in level0.failed()]
    scanned = [c for c in level0.checks
               if "brute force" in c.name and c.passed is not None]
    assert len(scanned) >= 1
    assert time.time() - started < 120


def test_05_form_distance_bracket_on_build(bounded_state):
    """|X_{n+1}|^2 |<X_n, theta>| stays inside [3/(32*33), 10/33] at every
    transcript index of the bounded build (exact comparisons)."""
    theta = bounded_state.refined_theta()
    witnesses = bounded_state.linear_witnesses()
    assert len(witnesses) >= 8
    for n in range(len(witnesses) - 1):
        eps = certified_form_dist(witnesses[n], theta)
        height_sq = max(abs(c) for c in witnesses[n + 1]) ** 2
        product = eps * height_sq
        assert product.lo >= F(3, 32 * 33), n
        assert product.hi <= F(10, 33), n


def test_06_polynomial_regime_series_bounded_and_tail_small():
    """With a_n = (n+3)^4 the vector-sequence series stays below
    10^(1/3) * sum_{n=3}^{50} n^(-4/3), and the terms over indices
    [40, 50] sum to less than 0.05."""
    a = lambda n: (n + 3) ** 4
    state = build_theta(a, minimal_heights(a, 1, 53), 50)
    report = criteria.series_thm5(state.refined_theta(),
                                  state.linear_witnesses(), 50)
    ten_lo, _ten_hi = nth_root_enclosure(10, 3)
    ref_lo = sum(F(1, nth_root_enclosure(n ** 4, 3)[1]) for n in range(3, 51))
    assert report.partial_sums[-1].hi <= ten_lo * ref_lo
    tail = report.window_sum(40, 50)
    assert tail.hi < F(5, 100), f"tail sum is {float(tail.hi):.5f}, not < 0.05"


def test_07_coupled_continued_fraction_growth_table():
    """The two coupled continued fractions dominate each other cyclically
    with gap n^4 at every level 2..10 (exact integer comparisons)."""
    spec = alternating_cf(2, 4, 10, start_index=2)
    assert spec.verify_growth() == []
    for n in range(2, 11):
        q1n = spec.denominator(1, n)
        q2n = spec.denominator(2, n)
        assert q2n >= q1n ** 2 * n ** 4, n
        assert spec.denominator(1, n + 1) >= q2n ** 2 * n ** 4, n


def test_08_harmonic_and_dyadic_sums_bracket_each_other():
    """On 20 seeded exact vectors (d = 1, 2) the harmonic-form partial sums
    and the dyadic-block partial sums control each other with the constants
    2^(d/(d+1)) and 2^-(1+d/(d+1)) (terms certified to 2^-64)."""
    rng = random.Random(4242)
    blocks = 5
    for dim in (1, 2):
        c_lo, c_hi = pow_enclosure(F(2), F(2), dim, dim + 1)  # 2^(d/(d+1))
        for _ in range(10):
            theta = seeded_vector(rng, dim, den_lo=50, den_hi=2000)
            s_iv = series_partial(theta, blocks, dim)
            iii = criteria.dyadic_condition_iii(theta, blocks + 1)
            s_iii = iii.partial_sums[blocks - 1]                # blocks 0..N-1
            s_shift = iii.partial_sums[-1] - iii.terms[0][1]    # blocks 1..N
            assert s_iv.lo <= c_hi * s_iii.hi, theta.coords
            assert s_iv.hi >= s_shift.lo / (2 * c_hi), theta.coords


def series_partial(theta, blocks, dim):
    report = criteria.series_lemma22(theta, 2 ** blocks - 1, F(dim))
    return report.partial_sums[-1]


def test_09_fixed_point_engine_matches_exact_oracle():
    """On 10 exact-rational fixtures (d = 1, 2; horizons <= 10^3) the
    fixed-point engine reproduces the exact-arithmetic hit set with zero
    disagreements and zero inconclusive steps."""
    rng = random.Random(77)
    for i in range(10):
        dim = 1 + i % 2
        bits = 64 if i % 3 else 128
        m = rng.randrange(5, 997)
        theta = CertifiedVector(
            tuple(F(rng.randrange(0, m), m) for _ in range(dim)), F(0))
        x0 = tuple(F(rng.randrange(0, m), m) for _ in range(dim))
        n_max = rng.randrange(200, 1001)
        delta = F(dim) + F(rng.randrange(0, 3), 2)
        config = OrbitConfig(theta=theta, delta=delta, n_max=n_max,
                             precision_bits=bits)
        record = orbit_hits(config, x0=x0)
        assert record.hits == exact_orbit_hits(config, x0=x0), (i, theta.coords)
        assert record.inconclusive == 0


def test_10_log_law_statistic_concentrates_near_one():
    """50 seeded orbits of the sqrt(2)-1 convergent, horizon 10^5: at least
    90% of the per-orbit statistics reach 0.8 and at most 10% exceed 1.5.
    (Thresholds frozen after one pilot with this seed; the almost-sure
    limit 1 is not reproducible at a finite horizon.)"""
    started = time.time()
    pp, qq = pell_convergent(2 ** 140)
    config = OrbitConfig(theta=CertifiedVector((F(pp, qq),), F(0)),
                         delta=F(1), n_max=10 ** 5, samples=50,
                         seed=20260815, precision_bits=64)
    census = hit_census(config)
    stats = [r.stat_hi for r in census.records]
    assert all(s is not None for s in stats)
    reached = sum(1 for s in stats if s >= F(8, 10))
    overshot = sum(1 for s in stats if s > F(3, 2))
    assert reached >= 45, f"only {reached}/50 orbits reached 0.8"
    assert overshot <= 5, f"{overshot}/50 orbits exceeded 1.5"
    assert time.time() - started < 180


def test_11_window_hit_estimates_stay_below_measure_bounds(poly_state):
    """Monte Carlo hit fractions over the first three windows of the
    polynomial-regime build stay below the certified measure bound plus a
    95% confidence radius.  Windows 2 and 3 end beyond 10^24, so each is
    sampled on a certified prefix slice (a subset union has smaller
    measure, keeping the comparison sound)."""
    started = time.time()
    theta = poly_state.refined_theta()
    witnesses = poly_state.linear_witnesses()
    slices = {1: (40_000_000, 64), 2: (2_000, 160), 3: (2_000, 160)}
    for n, (length, bits) in slices.items():
        wb = criteria.window_bound(theta, witnesses, F(2), n)
        lo, hi = wb.integer_window()
        hi = min(hi + 1, lo + length)
        config = OrbitConfig(theta=theta, delta=F(2), n_max=hi,
                             samples=10 ** 4, seed=1111, precision_bits=bits)
        est = bc_window_estimate(config, (lo, hi))
        assert est.inconclusive == 0
        assert est.fraction <= wb.bound.hi + est.confidence_radius, \
            (n, float(est.fraction), float(wb.bound.hi))
    assert time.time() - started < 300


def test_12_bounded_regime_hits_five_times_more_often(bounded_state,
                                                      poly_state):
    """Directional regression: over n in [10^3, 10^6] with 100 seeded
    starts, the bounded-coefficient vector should average at least 5x the
    hit count of the polynomial-regime vector."""
    started = time.time()
    means = {}
    for name, state in (("bounded", bounded_state), ("poly", poly_state)):
        config = OrbitConfig(theta=state.refined_theta(), delta=F(2),
                             n_max=10 ** 6, samples=100, seed=424242,
                             precision_bits=64)
        means[name] = hit_census(config, n_lo=1000).mean
    assert time.time() - started < 600
    assert means["bounded"] >= 5 * means["poly"], \
        f"ratio is {float(means['bounded'] / means['poly']):.2f}, not >= 5"
