"""Certified orbit simulation: hits, censuses, window estimates, statistics.

The engine is checked against `oracle_sweep` and `oracle_window`: plain
step-by-step walks at the full precision_bits, with every decision made by
the exact rule, that the top-limb filter must reproduce hit for hit.
"""

import random
from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shrinktarget import orbit
from shrinktarget._scan import _d64
from shrinktarget.errors import DomainError, PrecisionError, ResourceError
from shrinktarget.exact import CertifiedVector
from shrinktarget.orbit import (_BATCH, _BLOCK, OrbitConfig, _auto_hit_bound,
                                _draw_starts, _Engine, _error_units, _exact_classify,
                                _hit_records, _miss32, _sweep, _SweepResult,
                                _threshold_pair, _units, _window,
                                bc_window_estimate, exact_orbit_hits, hit_census,
                                log_law_stat, orbit_hits)
from shrinktarget.roots import iroot, log2_enclosure

F = Fraction


# --- exact step-by-step walks: the oracle for the orbit engine -----------------


def _root_rule(d, n, delta, bits, err):
    """The first stage of the exact re-check as B-bit root brackets (the
    engine's rule before its integer power test): True or False, or None
    for the exact fallback."""
    t_lo, t_hi = _threshold_pair(n, delta, bits)
    if d + err <= t_lo:
        return True
    if d - err > t_hi:
        return False
    return None


def _classify(d, n, config, err, x0_frac):
    verdict = _root_rule(d, n, config.delta, config.precision_bits, err)
    if verdict is None:
        return _exact_classify(x0_frac, config.theta, n, config.delta)
    return verdict


def _grid(x0u, bits):
    return [F(u, 1 << bits) for u in x0u]


def oracle_sweep(config, x0u, x0_frac=None):
    """(hits, inconclusive, min_lo, min_hi) of the orbit of x0u over
    n = 1..n_max, one B-bit step at a time."""
    bits = config.precision_bits
    theta_u = _units(config.theta.coords, bits)
    x0_frac = x0_frac or _grid(x0u, bits)
    one = 1 << bits
    err = _error_units(config.n_max, config.theta.radius, bits)
    auto = _auto_hit_bound(config.delta)
    pos = [(xu + tu) % one for xu, tu in zip(x0u, theta_u)]
    hits, inconclusive, dmin = [], 0, None
    for n in range(1, config.n_max + 1):
        d = max(min(v, one - v) for v in pos)
        pos = [(v + tu) % one for v, tu in zip(pos, theta_u)]
        if n >= 2 and (dmin is None or d < dmin):
            dmin = d
        verdict = True if n <= auto else _classify(d, n, config, err, x0_frac)
        if verdict is True:
            hits.append(n)
        elif verdict is None:
            inconclusive += 1
    if dmin is None:
        return hits, inconclusive, None, None
    return hits, inconclusive, dmin - err, dmin + err


def oracle_window(config, starts, l_lo, l_hi):
    """Per-start (hit, inconclusive) flags for l_lo..l_hi: each start walks
    l = l_lo, l_lo + 1, ... until its first hit."""
    bits = config.precision_bits
    one = 1 << bits
    theta_u = _units(config.theta.coords, bits)
    err = _error_units(l_hi, config.theta.radius, bits)
    hit, amb = [False] * len(starts), [False] * len(starts)
    for i, x0u in enumerate(starts):
        pos = [(xu + l_lo * tu) % one for xu, tu in zip(x0u, theta_u)]
        for l in range(l_lo, l_hi + 1):
            d = max(min(v, one - v) for v in pos)
            pos = [(v + tu) % one for v, tu in zip(pos, theta_u)]
            verdict = _classify(d, l, config, err, _grid(x0u, bits))
            if verdict is True:
                hit[i] = True
                break
            if verdict is None:
                amb[i] = True
    return hit, [a and not h for h, a in zip(hit, amb)]


def engine_window(config, starts, l_lo, l_hi):
    hit, amb = _window(config, starts, l_lo, l_hi)
    return hit.tolist(), amb.tolist()


def pell_theta(bits=140):
    p, q = 0, 1
    pp, qq = 1, 2
    while qq < 2 ** bits:
        p, pp = pp, p + 2 * pp
        q, qq = qq, q + 2 * qq
    return CertifiedVector((F(pp, qq),))


def cfg(theta, delta, n_max, **kw):
    kw.setdefault("precision_bits", 64)
    return OrbitConfig(theta=theta, delta=delta, n_max=n_max, **kw)


# --- configuration validation -------------------------------------------------

def test_config_rejects_delta_below_dimension():
    with pytest.raises(DomainError):
        cfg(CertifiedVector((F(1, 3), F(1, 5))), F(3, 2), 100)


@pytest.mark.parametrize("kw, message", [
    ({"n_max": -1}, "n_max must be nonnegative"),
    ({"samples": 0}, "samples must be >= 1"),
    ({"seed": 2 ** 64}, "seed must fit in 64 bits"),
    ({"seed": -1}, "seed must fit in 64 bits"),
    ({"precision_bits": 7}, "precision_bits must be >= 8"),
])
def test_config_domain_refusals(kw, message):
    kw = {"n_max": 10} | kw
    with pytest.raises(DomainError, match=message):
        cfg(CertifiedVector((F(1, 3),)), F(1), **kw)


@pytest.mark.parametrize("run", [orbit_hits, exact_orbit_hits])
def test_x0_must_have_the_dimension_of_theta(run):
    config = cfg(CertifiedVector((F(1, 3), F(1, 5))), F(2), 10)
    with pytest.raises(DomainError, match="x0 has dimension 1, theta has 2"):
        run(config, x0=(F(1, 2),))


def test_config_rejects_budget_blowout():
    # 8 fractional bits cannot certify thousand-step orbits
    with pytest.raises(ResourceError):
        OrbitConfig(theta=CertifiedVector((F(1, 3),)), delta=F(1),
                    n_max=1000, precision_bits=8)


def test_config_rejects_fat_theta_radius():
    fat = CertifiedVector((F(1, 3),), F(1, 100))
    with pytest.raises(ResourceError):
        cfg(fat, F(1), 10**6)


# --- hit detection against exact oracle ----------------------------------------

def test_quarter_rotation_hits_by_hand():
    """theta = 1/4, delta = 1: distances cycle 1/4, 1/2, 1/4, 0, ... and the
    radii are 1/n, giving hits exactly at {1, 2, 3, 4, 8}."""
    config = cfg(CertifiedVector((F(1, 4),)), F(1), 8)
    rec = orbit_hits(config)
    assert rec.hits == (1, 2, 3, 4, 8)
    assert rec.inconclusive == 0
    assert exact_orbit_hits(config) == (1, 2, 3, 4, 8)


def test_empty_horizon():
    """n_max = 0: no hits, no statistic, for one orbit and for a census."""
    for bits in (64, 128):
        config = cfg(CertifiedVector((F(1, 4),)), F(1), 0, precision_bits=bits)
        assert orbit_hits(config) == orbit.HitRecord(0, (), 0, None, None)
        census = hit_census(cfg(CertifiedVector((F(1, 4), F(1, 3))), F(2), 0,
                                samples=3, precision_bits=bits))
        empty = tuple(orbit.HitRecord(i, (), 0, None, None) for i in range(3))
        assert census.records == empty and census.counts == (0, 0, 0)
        assert census.inconclusive_total == 0
        assert (census.mean, census.median, census.quartiles) == (0, 0, (0, 0))


@pytest.mark.parametrize("bits", [64, 96])
def test_fixed_point_matches_exact_oracle(bits):
    rng = random.Random(20260815 + bits)
    for _trial in range(6):
        dim = rng.choice([1, 2])
        den = rng.randrange(5, 400)
        theta = CertifiedVector(
            tuple(F(rng.randrange(1, den), den) for _ in range(dim)))
        x0 = tuple(F(rng.randrange(0, den), den) for _ in range(dim))
        delta = F(dim) + F(rng.randrange(0, 3), 2)
        config = OrbitConfig(theta=theta, delta=delta, n_max=500,
                             precision_bits=bits)
        rec = orbit_hits(config, x0=x0)
        assert rec.inconclusive == 0
        assert rec.hits == exact_orbit_hits(config, x0=x0)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 2), st.one_of(st.integers(3, 400), st.integers(2 ** 60, 2 ** 70)),
       st.sampled_from([64, 96]), st.data())
def test_negated_orbit_has_the_same_hits(dim, den, bits, data):
    """x0 + n*theta and -x0 - n*theta are equally far from the lattice, so an
    exact theta gives the same hits from x0 as -theta from -x0.  The
    statistic enclosures only intersect: the half-unit rounding of _units
    is not symmetric."""
    coord = st.integers(0, den - 1).map(lambda p: F(p, den))
    theta = data.draw(st.lists(coord, min_size=dim, max_size=dim))
    x0 = data.draw(st.lists(coord, min_size=dim, max_size=dim))
    delta = F(dim) + data.draw(st.sampled_from([0, F(1, 2), 1]))
    recs = [orbit_hits(OrbitConfig(theta=CertifiedVector([s * c for c in theta]), delta=delta,
                                   n_max=2000, precision_bits=bits), x0=[s * c for c in x0])
            for s in (1, -1)]
    assert recs[0].hits == recs[1].hits and recs[0].inconclusive == recs[1].inconclusive
    if recs[0].stat_lo is None or recs[1].stat_lo is None:
        assert recs[0].stat_lo is recs[1].stat_lo is None
    else:
        assert max(r.stat_lo for r in recs) <= min(r.stat_hi for r in recs)


def test_exact_oracle_requires_zero_radius():
    fuzzy = CertifiedVector((F(1, 4),), F(1, 10**9))
    with pytest.raises(DomainError):
        exact_orbit_hits(cfg(fuzzy, F(1), 8))


def test_straddling_threshold_counts_inconclusive():
    """A theta radius that makes the n=3 distance interval straddle the
    target boundary must be tallied, never guessed.  For theta near 1/9 the
    orbit sits at distance 1/3 at step 3, exactly on the radius 3^(-1)."""
    fuzzy = CertifiedVector((F(1, 9),), F(1, 10**9))
    rec = orbit_hits(cfg(fuzzy, F(1), 8))
    assert rec.inconclusive >= 1
    assert 3 not in rec.hits
    assert rec.hits == (1, 2, 8)


def test_off_grid_start_exact_miss(monkeypatch):
    """An off-grid start whose 24-bit distance at n = 4 straddles the
    threshold 1/4: the exact fallback settles it as a miss, and the engine
    agrees with the exact oracle."""
    verdicts = []

    def spy(x0_frac, theta, n, delta):
        verdicts.append((n, _exact_classify(x0_frac, theta, n, delta)))
        return verdicts[-1][1]

    monkeypatch.setattr(orbit, "_exact_classify", spy)
    x0 = ((F(1, 4) + F(1, 2 ** 30) - F(4, 3)) % 1,)
    config = cfg(CertifiedVector((F(1, 3),), F(0)), F(1), 4, precision_bits=24)
    rec = orbit_hits(config, x0=x0)
    assert (4, False) in verdicts
    assert rec.hits == exact_orbit_hits(config, x0=x0) == (1, 2, 3)
    assert rec.inconclusive == 0


def test_hits_grow_with_delta():
    """Enlarging delta enlarges every radius n^(-1/delta), so the certified
    hit set can only grow."""
    theta = pell_theta()
    x0 = (F(3, 7),)
    prev = set()
    for delta in (F(1), F(3, 2), F(2), F(4)):
        rec = orbit_hits(cfg(theta, delta, 4000), x0=x0)
        hits = set(rec.hits)
        assert prev <= hits
        prev = hits


def test_hit_indices_strictly_increasing():
    rec = orbit_hits(cfg(pell_theta(), F(1), 3000))
    assert list(rec.hits) == sorted(set(rec.hits))


# --- the log-law statistic ------------------------------------------------------

def test_log_law_stat_pell_horizon():
    lo, hi = log_law_stat(cfg(pell_theta(), F(1), 10**4))
    assert 0 <= lo <= hi
    assert hi >= F(95, 100)


def test_log_law_stat_two_terms():
    lo, hi = log_law_stat(cfg(CertifiedVector((F(1, 4),)), F(1), 2))
    # single usable index n = 2: distance 1/2, so the statistic is exactly 1
    assert lo <= 1 <= hi


def test_log_law_stat_needs_two_steps():
    with pytest.raises(DomainError):
        log_law_stat(cfg(CertifiedVector((F(1, 4),)), F(1), 1))


def test_log_law_stat_lattice_return_is_precision_error():
    # x0 = 1/2, theta = 1/4: the orbit lands on 0 at n = 2
    with pytest.raises(PrecisionError):
        log_law_stat(cfg(CertifiedVector((F(1, 4),)), F(1), 8),
                     x0=(F(1, 2),))


# --- censuses -------------------------------------------------------------------

def test_census_single_sample_reduces_to_orbit_hits():
    config = cfg(pell_theta(), F(1), 2000, samples=1, seed=99)
    census = hit_census(config)
    (x0u,) = _draw_starts(config, 1)
    x0 = tuple(F(u, 2**64) for u in x0u)
    rec = orbit_hits(config, x0=x0)
    assert census.counts == (len(rec.hits),)
    assert census.records[0].hits == rec.hits


def test_census_deterministic_under_seed():
    config = cfg(pell_theta(), F(1), 1500, samples=12, seed=7)
    a = hit_census(config)
    b = hit_census(config)
    assert a.counts == b.counts
    assert [r.hits for r in a.records] == [r.hits for r in b.records]
    c = hit_census(cfg(pell_theta(), F(1), 1500, samples=12, seed=8))
    assert a.counts != c.counts  # astronomically unlikely to collide


def test_census_summary_statistics_consistent():
    config = cfg(pell_theta(), F(1), 1500, samples=9, seed=3)
    census = hit_census(config)
    counts = sorted(census.counts)
    assert census.mean == F(sum(counts), len(counts))
    assert census.median == counts[4]
    q1, q3 = census.quartiles
    assert q1 <= census.median <= q3
    assert census.inconclusive_total == 0


def test_census_n_lo_filters_early_hits():
    config = cfg(CertifiedVector((F(1, 4),)), F(1), 8, samples=1, seed=0)
    all_hits = hit_census(config, n_lo=1)
    late = hit_census(config, n_lo=5)
    assert all_hits.counts[0] >= late.counts[0]
    with pytest.raises(DomainError):
        hit_census(config, n_lo=0)


# --- window estimates -------------------------------------------------------------

def test_window_estimate_all_hit_when_radius_covers_torus():
    # radius n^(-1/2) >= 1/2 for n <= 4: every start is a hit
    config = cfg(pell_theta(), F(2), 100, samples=25, seed=5)
    est = bc_window_estimate(config, (1, 4))
    assert est.hits == est.samples == 25
    assert est.fraction == 1


def test_window_estimate_fraction_and_confidence():
    config = cfg(pell_theta(), F(1), 5000, samples=300, seed=11)
    est = bc_window_estimate(config, (50, 2000))
    assert 0 <= est.fraction <= 1
    assert est.inconclusive == 0
    assert 0 < est.confidence_radius < F(1, 2)


def test_window_estimate_validates_window():
    config = cfg(pell_theta(), F(1), 1000, samples=4, seed=1)
    with pytest.raises(DomainError):
        bc_window_estimate(config, (10, 10))
    with pytest.raises(DomainError):
        bc_window_estimate(config, (10, 2000))  # beyond n_max budget


def test_window_engines_agree_exactly():
    """The window engine must classify every start as the per-start walk
    does, in both the dense and the bucketed part."""
    for dim, theta in ((1, pell_theta()),
                       (2, CertifiedVector((F(5741, 8119), F(2923, 7561))))):
        config = OrbitConfig(theta=theta, delta=F(dim), n_max=4000,
                             samples=40, seed=424242, precision_bits=64)
        starts = _draw_starts(config, 40)
        assert engine_window(config, starts, 60, 4000) == \
            oracle_window(config, starts, 60, 4000), f"dimension {dim}"


# --- the engine against the oracles on generated inputs ------------------------

BITS = (8, 63, 64, 65, 96, 128, 160, 200)


def fit_budget(theta, delta, n_max, bits, **kw):
    """The longest horizon <= n_max that the error budget admits (8 bits
    admits none: it needs 2^bits > 1000 * n)."""
    while True:
        try:
            return OrbitConfig(theta=theta, delta=delta, n_max=n_max,
                               precision_bits=bits, **kw)
        except ResourceError:
            n_max //= 2


@st.composite
def orbit_family(draw, max_n=600):
    """theta (dyadic, so that distances meet perfect-power thresholds
    exactly; small or huge denominators), a radius, delta and starts that
    include 0 and the half-turn 2^(B-1)."""
    bits = draw(st.sampled_from(BITS))
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("dyadic", "small", "huge")))
    den = {"dyadic": 2 ** draw(st.integers(1, 7)),
           "small": draw(st.integers(2, 500)),
           "huge": draw(st.integers(2 ** 60, 2 ** 220)) | 1}[kind]
    coords = tuple(F(draw(st.integers(0, den - 1)), den) for _ in range(dim))
    radius = draw(st.sampled_from((F(0), F(1, 10 ** 9), F(1, 2 ** 70),
                                   F(1, 2 ** 150))))
    delta = dim + F(draw(st.integers(0, 4)), draw(st.sampled_from((1, 2, 3))))
    config = fit_budget(CertifiedVector(coords, radius), delta,
                        draw(st.integers(0, max_n)), bits,
                        samples=draw(st.integers(1, 3)),
                        seed=draw(st.integers(0, 999)))
    starts = _draw_starts(config, config.samples)
    for special in draw(st.lists(st.sampled_from((0, 1 << (bits - 1))),
                                 max_size=2)):
        starts.append([special] * dim)
    return config, starts


@settings(deadline=None, max_examples=100)
@given(orbit_family())
@example((fit_budget(CertifiedVector((F(1, 9),), F(1, 10 ** 9)), F(1), 8, 64),
          [[0]]))
@example((fit_budget(CertifiedVector((F(3, 16), F(1, 4))), F(2), 300, 65),
          [[0, 0], [1 << 64, 1 << 64]]))
@example((fit_budget(CertifiedVector((F(1, 4),)), F(1), 2, 65),
          [[23_423_430_536_998_803_233], [0]]))  # n = 1 is 2E from the minimum
def test_sweep_matches_oracle(family):
    config, starts = family
    got = _sweep(config, starts) if config.n_max else []
    for x0u, res in zip(starts, got):
        assert tuple(res) == oracle_sweep(config, x0u)


@settings(deadline=None, max_examples=25)
@given(orbit_family(max_n=60), st.lists(st.fractions(0, 1), min_size=3,
                                        max_size=3))
def test_orbit_hits_off_grid_start_matches_oracle(family, x0):
    config, _starts = family
    x0 = x0[:config.dim]
    x0u = _units(x0, config.precision_bits)
    hits, inconclusive, _lo, _hi = oracle_sweep(config, x0u, x0)
    rec = orbit_hits(config, x0=x0)
    assert (rec.hits, rec.inconclusive) == (tuple(hits), inconclusive)


@settings(deadline=None, max_examples=80)
@given(orbit_family(), st.one_of(st.integers(1, 3000),
                                  st.integers(2 ** 60, 2 ** 70)),
       st.integers(1, 400))
@example((fit_budget(CertifiedVector((F(1, 9),), F(1, 10 ** 9)), F(1), 8, 64),
          [[0]]), 3, 6)
def test_window_matches_oracle(family, lo, length):
    """Windows of both parts (radius >= 1/16 and bucketed), starting
    anywhere up to 2^70: beyond 2^64 the rebased top limb is required."""
    config, starts = family
    lo = max(lo, _auto_hit_bound(config.delta) + 1)
    config = fit_budget(config.theta, config.delta, lo + length,
                        config.precision_bits)
    if config.n_max < lo:
        return  # the budget admits no window this far out
    hi = config.n_max
    assert engine_window(config, starts, lo, hi) == \
        oracle_window(config, starts, lo, hi)


def test_far_window_at_160_bits_matches_oracle():
    """160-bit windows beyond 2^64 with wide targets, so that they have
    hits: bucketed at radius about 2^-12 (delta = 6), classified densely at
    radius about 2^-4 (delta = 17)."""
    theta = pell_theta(200)
    for lo, delta in ((2 ** 70 + 12345, F(6)), (2 ** 66, F(17))):
        config = OrbitConfig(theta=theta, delta=delta, n_max=lo + 3000,
                             samples=12, seed=3, precision_bits=160)
        starts = _draw_starts(config, 12)
        got = engine_window(config, starts, lo, lo + 3000)
        assert got == oracle_window(config, starts, lo, lo + 3000)
        assert any(got[0])


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("n_max", [1, 2, 3, 17, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_sweep_across_block_edge_matches_oracle(bits, n_max):
    """The step ramp is as long as the longest block: n_max steps up to
    _BLOCK, then _BLOCK with a last block of one step."""
    config = OrbitConfig(theta=pell_theta(), delta=F(3, 2), n_max=n_max,
                         seed=5, precision_bits=bits)
    starts = _draw_starts(config, 1) + [[1 << (bits - 1)]]
    for x0u, res in zip(starts, _sweep(config, starts)):
        assert tuple(res) == oracle_sweep(config, x0u)


@pytest.mark.parametrize("length", [1, 2, _BLOCK, _BLOCK + 1])
def test_window_ramp_edges_at_160_bits_match_oracle(length):
    """160-bit windows near l = 10^12, as long as the ramp (1, 2 and _BLOCK
    steps) or one step longer.  Besides a random start, starts are placed on
    the target centre at the window's last step and, when the window spans
    two blocks, at the first block's last step, so that the ramp's last
    entry finds a hit."""
    bits, lo = 160, 10 ** 12 + 1
    theta = pell_theta(200)
    config = OrbitConfig(theta=theta, delta=F(2), n_max=lo + length,
                         seed=21, precision_bits=bits)
    theta_u = _units(theta.coords, bits)
    starts = _draw_starts(config, 1) + [
        _centred_start(theta_u, l, [0], bits)
        for l in sorted({lo + length - 1, lo + min(length, _BLOCK) - 1})]
    got = engine_window(config, starts, lo, lo + length - 1)
    assert got == oracle_window(config, starts, lo, lo + length - 1)
    assert all(got[0][1:])


# --- per-sample kernels against the forms they replaced -------------------------


def _per_word_starts(config, count):
    """The start draw as one int() per generator word."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    bits = config.precision_bits
    words = (bits + 63) // 64
    raw = rng.integers(0, 2 ** 64, size=(count, config.dim, words),
                       dtype=np.uint64, endpoint=False)
    out = []
    for i in range(count):
        pt = []
        for c in range(config.dim):
            v = 0
            for w in range(words):
                v = (v << 64) | int(raw[i, c, w])
            pt.append(v % (1 << bits))
        out.append(pt)
    return out


KERNEL_BITS = (8, 63, 64, 65, 127, 128, 129, 160, 192, 193)


@pytest.mark.parametrize("bits", KERNEL_BITS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_draw_starts_matches_per_word_draw(bits, dim):
    config = OrbitConfig(theta=CertifiedVector((F(1, 3),) * dim), delta=F(dim),
                         n_max=0, seed=1000 * bits + dim, precision_bits=bits)
    for count in (1, 2, 97):
        assert _draw_starts(config, count) == _per_word_starts(config, count)


@pytest.mark.parametrize("bits", KERNEL_BITS)
def test_tops_match_the_per_element_top(bits):
    """_Engine.tops at time 0 shifts the starts directly and at time n adds
    n*theta first; both equal top((x + n*theta) mod 2^B) coordinate by
    coordinate, also at 0 and 2^B - 1."""
    theta = CertifiedVector((F(5741, 8119), F(2923, 7561)))
    config = OrbitConfig(theta=theta, delta=F(2), n_max=0, seed=bits,
                         precision_bits=bits)
    eng = _Engine(config, 0, 0)
    pts = _draw_starts(config, 50) + [[0, (1 << bits) - 1], [1 << (bits - 1), 1]]
    mask = (1 << bits) - 1
    for n in (0, 1, 2 ** 40 + 3):
        want = [[eng.top((x + n * t) & mask) for x, t in zip(pt, eng.theta_u)]
                for pt in pts]
        assert eng.tops(pts, n).tolist() == want


def _fraction_chain_stat(res, log_n, bits):
    """The statistic from two log2_enclosure calls and Fraction arithmetic,
    with log_n the Fraction enclosure of log2 N."""
    if res.min_lo is None or res.min_lo <= 0:
        return None, None
    la1 = log2_enclosure(res.min_lo)[0]
    lb2 = log2_enclosure(res.min_hi)[1]
    hi = (bits - la1) / log_n[0]
    lo = (bits - lb2) / log_n[1]
    return max(lo, F(0)), max(hi, F(0))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(KERNEL_BITS), st.data(),
       st.one_of(st.integers(2, 40), st.integers(2, 10 ** 30),
                 st.integers(1, 100).map(lambda k: 2 ** k)))
def test_stat_enclosure_matches_fraction_chain(bits, data, n_max):
    """Integer log ends over 2^32 give the same Fractions, also for minima
    at 0, at 2^k and 2^k +- 1, and above 2^B (statistic clamped to 0)."""
    one = 1 << bits
    min_lo = data.draw(st.one_of(
        st.integers(-5, one + 5),
        st.integers(0, bits).flatmap(
            lambda k: st.sampled_from((2 ** k - 1, 2 ** k, 2 ** k + 1)))))
    min_hi = min_lo + data.draw(st.integers(0, 2 ** 40))
    res = _SweepResult([], 0, min_lo, min_hi)
    (rec,) = _hit_records(SimpleNamespace(n_max=n_max, precision_bits=bits), [res])
    assert (rec.stat_lo, rec.stat_hi) == \
        _fraction_chain_stat(res, log2_enclosure(n_max), bits)


# --- the integer rule for the target radius ------------------------------------
# _Engine.levels walks a ladder of levels t in top units and ends each level at
# _last_step(delta, low); classify compares integer powers with 2^(B*p).  The
# tests hold both to the radius in integers and to the B-bit root brackets
# that the engine used before.

RULE_BITS = (8, 63, 64, 65, 128, 160)


@st.composite
def rule_delta(draw):
    q = draw(st.sampled_from((1, 2, 3)))
    return F(draw(st.integers(q, 6 * q)), q)


@settings(deadline=None, max_examples=200)
@given(rule_delta(), st.data())
def test_last_step_matches_a_counting_loop(delta, data):
    """_last_step(delta, t) is the last n with radius >= t top units, also
    one unit next to the radius of a step, at radii 1/2 and 1/16 (the
    auto-hit bound and the window's dense/bucketed boundary) and beyond 2^64."""
    p, q = delta.numerator, delta.denominator
    near = _threshold_pair(data.draw(st.integers(1, 3000)), delta, 64)[0]
    t = data.draw(st.one_of(
        st.integers(max(near - 1, 1), near + 2),
        st.sampled_from((1 << 63, 1 << 60, (1 << 64) - 1, 1 << 64, (1 << 64) + 1))))
    if t ** p * 4000 ** q <= 1 << (64 * p):
        return  # too many steps for the loop
    n = 0
    while t ** p * (n + 1) ** q <= 1 << (64 * p):
        n += 1
    assert orbit._last_step(delta, t) == n
    assert _auto_hit_bound(delta) == iroot(2 ** p, q)
    assert orbit._last_step(delta, 1 << 60) == iroot(16 ** p, q)


def _rule_engine(delta, bits, n_hi, steps=1, theta_u=1):
    """The engine of a one-coordinate run whose last time is n_hi (its
    error bound err) at any B; n_max = 0 keeps the error budget out of it."""
    theta = CertifiedVector((F(theta_u, 1 << bits),))
    config = OrbitConfig(theta=theta, delta=delta, n_max=0, precision_bits=bits)
    return _Engine(config, n_hi, steps)


@st.composite
def rule_block(draw):
    """A block start b0 at 1, across the auto-hit bound, at 10^6 + 1, at
    10^12 or at a perfect-power threshold 2^(p*i) (radius 2^(64 - q*i) top
    units), and a length of up to one time block."""
    delta = draw(rule_delta())
    p = delta.numerator
    auto = _auto_hit_bound(delta)
    b0 = draw(st.one_of(
        st.just(1),
        st.integers(max(auto - 3, 1), auto + 3),
        st.just(10 ** 6 + 1),
        st.just(10 ** 12),
        st.integers(1, 64 // p).map(lambda i: 2 ** (p * i)).flatmap(
            lambda n: st.integers(max(n - 2, 1), n + 2))))
    length = draw(st.one_of(st.integers(1, 300), st.integers(1, _BLOCK)))
    return delta, b0, length


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(RULE_BITS), rule_block())
def test_bounds_are_sound_per_step(bits, block):
    """Away from the clamped ends, hit[k] - 1 + E + e is at most and
    miss[k] - E - e at least the radius of step n = b0 + k in top units, in
    integers; and the band between them beyond 2(E + e) is at most
    q/(32p) of the radius.  A limit is constant over each level, and the
    radius falls with n, so checking the first and last step of every run
    of equal limits checks every step."""
    delta, b0, length = block
    p, q = delta.numerator, delta.denominator
    eng = _rule_engine(delta, bits, b0 + length - 1, length)
    slack = eng.slack(length)
    ladder = eng.levels(b0, length, slack)
    hit, miss = (lim.tolist() for lim in orbit._limits(ladder, np.arange(length)))
    one = 1 << (64 * p)
    edges = {0, length - 1}
    for lim in (hit, miss):
        for k in range(1, length):
            if lim[k] != lim[k - 1]:
                edges |= {k - 1, k}
    assert sum(h == orbit._ALL_HIT for h in hit) == \
        max(min(_auto_hit_bound(delta), b0 + length - 1) - b0 + 1, 0)
    for k in sorted(edges):
        n = b0 + k
        if 0 < hit[k] < orbit._ALL_HIT:
            assert (hit[k] - 1 + slack + eng.e) ** p * n ** q <= one, n
        if miss[k] < orbit._NO_MISS:
            assert (miss[k] - slack - eng.e) ** p * n ** q >= one, n
        if 0 < hit[k] < orbit._ALL_HIT and miss[k] < orbit._NO_MISS:
            band = miss[k] - hit[k] - 2 * (slack + eng.e)
            assert band * 32 * p <= _threshold_pair(n, delta, 64)[1] * q, n


def _ladder_runs(eng, b0, length, slack):
    """The ladder of _Engine.levels as one Python step per level, (steps,
    hit, miss) for each: one _last_step root each and the saturated limits
    in Python integers (the form that the bulk ladder replaced)."""
    end = b0 + length - 1
    a = min(max(b0, eng.auto + 1), end + 1)
    runs = [(a - b0, orbit._ALL_HIT, orbit._NO_MISS)]  # (steps, hit, miss) per level
    t = _threshold_pair(a, eng.config.delta, 64)[1]
    while a <= end:  # b < a when the radius skips the level [low, t]
        low = t - t * eng.q // (64 * eng.p) - 1
        b = min(orbit._last_step(eng.config.delta, low), end) if low else end
        runs.append((b - a + 1, min(max(low - slack - eng.e + 1, 0), orbit._ALL_HIT),
                     min(t + slack + eng.e, orbit._NO_MISS)))
        a, t = b + 1, low
    return runs


def _ladder_per_level(eng, b0, length, slack):
    """The per-step limits of _ladder_runs."""
    steps, hit, miss = np.array(_ladder_runs(eng, b0, length, slack), dtype=np.uint64).T
    return np.repeat([hit, miss], steps.astype(np.intp), axis=1)


@st.composite
def ladder_delta(draw):
    """delta = p/q >= 1 with terms up to 256, small ones more often."""
    q = draw(st.one_of(st.integers(1, 3), st.integers(1, 256)))
    return F(draw(st.one_of(st.integers(q, min(6 * q, 256)), st.integers(q, 256))), q)


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(RULE_BITS), ladder_delta(),
       st.sampled_from(("1", "auto", "auto+1", "2^16+1", "10^12+1", "2^63+5", "2^200")),
       st.sampled_from((1, 2, _BLOCK)))
@example(8, F(1), "2^200", _BLOCK)  # slack + e is far above 2^64
@example(64, F(256, 255), "1", _BLOCK)  # the longest ladders
def test_bulk_ladder_matches_the_per_level_loop(bits, delta, start, length):
    """The bulk ladder of _Engine.levels, read per step through _limits,
    gives the array of the per-level loop, element for element: block
    starts beyond 2^63 (far windows), pads slack + e beyond 2^64 at 8 bits,
    and terms of delta up to 256.  _limits looks up the same limits in the
    ladder for steps in any order."""
    auto = _auto_hit_bound(delta)
    b0 = {"1": 1, "auto": auto, "auto+1": auto + 1, "2^16+1": 2 ** 16 + 1,
          "10^12+1": 10 ** 12 + 1, "2^63+5": 2 ** 63 + 5, "2^200": 2 ** 200}[start]
    eng = _rule_engine(delta, bits, b0 + length - 1, length)
    slack = eng.slack(length)
    got = np.array(orbit._limits(eng.levels(b0, length, slack), np.arange(length)))
    want = _ladder_per_level(eng, b0, length, slack)
    assert got.dtype == want.dtype and got.shape == want.shape == (2, length)
    assert np.array_equal(got, want)
    ks = np.arange(length)[::-1]
    assert np.array_equal(orbit._limits(eng.levels(b0, length, slack), ks), want[:, ks])


@pytest.mark.parametrize("delta,b0", [(F(1), 2 ** 40 + 3), (F(3, 2), 2 ** 44 + 1),
                                      (F(2), 2 ** 48 + 7), (F(7, 3), 2 ** 52 + 5)],
                         ids=["1", "3/2", "2", "7/3"])
def test_ladder_ends_each_level_at_its_last_step(delta, b0):
    """Far out the last steps of radius >= low and of radius >= low + 1 top
    units differ (at delta = 1 once n^2 reaches about 2^64), so each level of
    a block must end at _last_step(delta, low).  A block of b0/16 steps
    holds three level ends; the limits read at the steps from two before to
    two after each end are those of the per-level loop."""
    length = b0 // 16
    eng = _rule_engine(delta, 64, b0 + length - 1, length)
    slack = eng.slack(length)
    runs = _ladder_runs(eng, b0, length, slack)
    after = np.cumsum([r[0] for r in runs]).tolist()  # the first step after each level
    assert after[0] == 0 and len(after) >= 5  # no auto-hit steps this far out
    for i in range(1, len(runs) - 1):  # level i's low is level i + 1's t
        low = runs[i + 1][2] - slack - eng.e
        assert orbit._last_step(delta, low) == b0 + after[i] - 1
        assert orbit._last_step(delta, low + 1) != b0 + after[i] - 1
    ks = [k for e in after[1:-1] for k in range(e - 2, e + 3)]
    hit, miss = orbit._limits(eng.levels(b0, length, slack), np.array(ks))
    assert list(zip(hit.tolist(), miss.tolist())) == [runs[bisect_right(after, k)][1:] for k in ks]


@pytest.mark.parametrize("length", [1, _BLOCK, _BLOCK + 1, 10 ** 9])
def test_ladder_levels_of_any_length(length):
    """_limits gives each step the limit of its level, the one that covers
    it, both from the per-step array (up to _BLOCK steps) and from the level
    ends (beyond), levels of no steps included: with the level indices as
    limits, each step's limit is its level."""
    rnd = random.Random(length)
    cuts = sorted(rnd.randrange(length + 1) for _ in range(40))
    steps = np.diff([0, *cuts, length])
    ks = np.array([rnd.randrange(length) for _ in range(500)] + [0, length - 1])
    ends = np.cumsum(steps).tolist()
    want = [next(i for i, e in enumerate(ends) if k < e) for k in ks.tolist()]
    levels = np.arange(len(steps))
    assert orbit._limits((steps, levels, levels), ks)[0].tolist() == want


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(RULE_BITS), rule_delta(), st.data())
def test_classify_matches_the_root_rule(bits, delta, data):
    """classify's power test against the root brackets, at distances
    t_lo - err, t_lo - err + 1, t_hi + err and t_hi + err + 1, also at the
    perfect-power thresholds n = 2^(p*i).  The two differ only where
    d - err = t_hi > t_lo: the power test says miss, and so does the exact
    rule that the brackets fall back to."""
    p = delta.numerator
    n = data.draw(st.one_of(
        st.integers(1, 10 ** 6),
        st.integers(1, max(bits // p, 1)).map(lambda i: 2 ** (p * i))))
    theta_u = data.draw(st.integers(1, (1 << bits) - 1))
    eng = _rule_engine(delta, bits, n + data.draw(st.integers(0, 1000)), theta_u=theta_u)
    err = eng.err
    t_lo, t_hi = _threshold_pair(n, delta, bits)
    d = data.draw(st.sampled_from((t_lo - err, t_lo - err + 1, t_hi + err, t_hi + err + 1)))
    d = min(max(d, 0), 1 << (bits - 1))
    pt = _centred_start([theta_u], n, [d], bits)
    assert eng.dist(pt, n) == d
    with pytest.MonkeyPatch.context() as m:
        m.setattr(orbit, "_exact_classify", lambda *args: "exact")
        got = eng.classify(pt, n)
    want = _root_rule(d, n, delta, bits, err)
    if want is None and got is False:
        assert d - err == t_hi > t_lo
        assert _exact_classify(_grid(pt, bits), eng.config.theta, n, delta) is False
    else:
        assert got == ("exact" if want is None else want)


# --- the sweep's 32-bit selection ----------------------------------------------
# _sweep selects each sample's steps on d32, the largest |pos| of the top 32
# bits of its ramp and offset limbs, whose d32 * 2^32 is within 2^33 of d64.
# A step with d32 > _miss32(miss) is a certain miss, and the steps with
# d32 <= min32 + 4 hold the block minimum; the selected steps are decided on
# their exact d64.

LIMB_EDGES = (0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
              2 ** 64 - 2 ** 32, 2 ** 64 - 1)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(LIMB_EDGES), st.integers(0, 2 ** 64 - 1)),
                min_size=2, max_size=6))
def test_top_limbs_stay_within_2_33_of_d64(words):
    """d32 from the sum of two top 32-bit limbs against d64 from the
    wrapping 64-bit sum: two truncations lose less than 2^33 top units."""
    ramp = np.array(words[0::2], dtype=np.uint64)
    offs = np.array(words[1::2][:len(ramp)] + [0] * (len(ramp) - len(words[1::2])),
                    dtype=np.uint64)
    d64 = _d64([ramp + offs]).tolist()
    d32 = _d64([(ramp >> 32).astype(np.uint32) + (offs >> 32).astype(np.uint32)]).tolist()
    for a, b in zip(d32, d64):
        assert a <= 2 ** 31 and abs(a * 2 ** 32 - b) < 2 ** 33


@pytest.mark.parametrize("k", [0, 1, 2, 3, 2 ** 20, 2 ** 30, 2 ** 31 - 2, 2 ** 31 - 1, 2 ** 31])
def test_miss32_leaves_out_only_certain_misses(k):
    """At the limits k*2^32 - 1, k*2^32, k*2^32 + 1 (and 2^63 = _NO_MISS):
    the smallest d64 that a d32 above miss32 allows is above the limit, and
    miss32 is at most two units above miss/2^32."""
    for miss in sorted({max(k * 2 ** 32 + j, 0) for j in (-1, 0, 1)} | {orbit._NO_MISS}):
        if miss > orbit._NO_MISS:
            continue
        (m32,) = _miss32(np.array([miss], dtype=np.uint64)).tolist()
        assert m32 <= orbit._NO_MISS32
        assert m32 <= -(-miss // 2 ** 32) + 1
        if m32 < orbit._NO_MISS32:
            assert (m32 + 1) * 2 ** 32 - 2 ** 33 + 1 > miss, miss
        else:  # no d32 is above the clamp: nothing is left out
            assert miss >= (2 ** 31 - 1) * 2 ** 32 - 2 ** 33
    assert _miss32(np.array([orbit._NO_MISS], dtype=np.uint64)).tolist() == \
        [orbit._NO_MISS32]


def _top_to_units(t, bits):
    """t top units in B-bit units (rounded down below 64 bits)."""
    return t << (bits - 64) if bits >= 64 else t >> (64 - bits)


def _limit_starts(config, n, offsets):
    """Grid starts whose orbit sits at time n on either side of 0, at each
    of the top-unit distances lim + offset from that step's hit and miss
    limits lim."""
    bits = config.precision_bits
    eng = _Engine(config, config.n_max, config.n_max)
    b0 = n - (n - 1) % _BLOCK
    length = min(_BLOCK, config.n_max - b0 + 1)
    ladder = eng.levels(b0, length, eng.slack(length))
    limits = [int(lim[0]) for lim in orbit._limits(ladder, np.array([n - b0]))]
    return _placed_starts(eng, n, [lim + o for lim in limits if lim < orbit._NO_MISS
                                   for o in offsets])


def _placed_starts(eng, n, tops):
    """Grid starts whose orbit sits at time n at each distance of `tops`
    (top units, rounded to the B-bit grid) on either side of 0."""
    bits = eng.bits
    units = {_top_to_units(t, bits) for t in tops if 0 <= t <= orbit._NO_MISS}
    return [_centred_start(eng.theta_u, n, [side * u], bits)
            for u in sorted(units) for side in (1, -1)]


# distances c*2^32 + r at limb edges: the steps around a block minimum there
# straddle a 32-bit unit
LIMB_EDGE_TOPS = [c * 2 ** 32 + r for c in (1, 2 ** 16) for r in (0, 2 ** 31, 2 ** 32 - 1)]


def _beyond_budget(theta, delta, n_max, bits):
    """The configuration at any precision: the error budget admits no orbit
    at 8 bits, but the engine still has to give the hits of the exact walk
    with the same err."""
    config = OrbitConfig(theta=theta, delta=delta, n_max=0, precision_bits=bits)
    object.__setattr__(config, "n_max", n_max)
    return config


TIE_THETAS = {"1/3": F(1, 3), "1/4": F(1, 4),
              "1/3+": F(1, 3) + F(1, 2 ** 36), "1/4+": F(1, 4) + F(3, 2 ** 38)}


@pytest.mark.parametrize("theta", TIE_THETAS, ids=str)
@pytest.mark.parametrize("bits", [8, 63, 64, 65, 128])
@pytest.mark.parametrize("n_max", [1, 2, 3, 1000])
def test_sweep_selection_near_limits_matches_oracle(theta, bits, n_max):
    """Starts placed within 2^33 top units of the hit and miss limits of the
    last step, and at limb edges there.  theta = 1/3 and 1/4 tie at the
    minimum (1/4 exactly, 1/3 up to one unit per period); near them (1/3+,
    1/4+) each track drifts by 3*2^28 top units per period, so the near-ties
    of the minimum are a few 32-bit units apart."""
    config = _beyond_budget(CertifiedVector((TIE_THETAS[theta],)), F(1), n_max, bits)
    starts = _limit_starts(config, n_max, (-2 ** 33, -1, 0, 1, 2 ** 33))
    starts += _placed_starts(_Engine(config, 0, 0), n_max, LIMB_EDGE_TOPS)
    for x0u, res in zip(starts, _sweep(config, starts)):
        assert tuple(res) == oracle_sweep(config, x0u), x0u


@pytest.mark.parametrize("theta", ["1/3", "1/4"])
@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("n_max", [_BLOCK - 1, _BLOCK + 1])
def test_sweep_selection_at_block_edges_matches_oracle(theta, bits, n_max):
    """Ties at the minimum over a whole block and one step past it: a start
    one top unit inside the hit limit of the last step, and one at a limb
    edge."""
    config = OrbitConfig(theta=CertifiedVector((TIE_THETAS[theta],)), delta=F(1),
                         n_max=n_max, precision_bits=bits)
    starts = _limit_starts(config, n_max, (-1,))[:1]
    starts += _placed_starts(_Engine(config, 0, 0), n_max, [2 ** 48 + 2 ** 31])[1:]
    for x0u, res in zip(starts, _sweep(config, starts)):
        assert tuple(res) == oracle_sweep(config, x0u), x0u


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("delta", [F(2), F(3, 2)])
def test_dense_window_level_ends_match_oracle(bits, delta):
    """Two-step windows [n, n + 1] of the dense stage (radius >= 1/16), n
    the last step of a ladder level, with starts placed at n up to 2^40 top
    units inside the radius and just outside it.  theta = 1/2 + 2^-40 puts
    step n + 1 near 1/2, a sure miss.  Between the lower end of n's level
    and the radius of n, only the limits of n itself keep a hit: the
    limits of n + 1 end at that lower end."""
    theta = CertifiedVector((F(1, 2) + F(1, 2 ** 40),))
    auto, l0 = _auto_hit_bound(delta), orbit._last_step(delta, 1 << 60) + 1
    config = OrbitConfig(theta=theta, delta=delta, n_max=l0, precision_bits=bits)
    eng = _Engine(config, l0, l0)
    steps = eng.levels(auto + 1, l0 - auto - 1, 0)[0]
    ends = sorted(set((auto + np.cumsum(steps)).tolist()) - {l0 - 1})
    hits = 0
    for n in ends:
        t = _threshold_pair(n, delta, 64)[0]
        starts = _placed_starts(eng, n, [t + o for o in (-2 ** 40, -2 ** 20, -1, 2)])
        got = engine_window(config, starts, n, n + 1)
        assert got == oracle_window(config, starts, n, n + 1), n
        hits += sum(got[0])
    assert len(ends) > 10 and hits > 0


def test_dense_window_keeps_the_drift_slack_above_64_bits():
    """A 128-bit dense window of 1000 steps at 2^63, delta = 16, where the
    radius falls by about 8 top units over the window.  theta's low 64 bits
    are all ones, so the top-unit positions lag the exact ones by about one
    unit per step; a start placed 4 top units inside the radius at the last
    step, below 0, then reads about 1000 units further out than it is.  Only
    the slack of one block keeps it a candidate.  theta = 1/2 + 2^-50 keeps
    every other step of that start away from 0."""
    delta, lo, n = F(16), 2 ** 63, 2 ** 63 + 999
    theta = CertifiedVector((F(1, 2) + F(1, 2 ** 50) + F(2 ** 64 - 1, 2 ** 128),))
    config = OrbitConfig(theta=theta, delta=delta, n_max=n, precision_bits=128)
    assert n < orbit._last_step(delta, 1 << 60)  # the dense stage
    inside = _threshold_pair(n, delta, 64)[0] - 4
    starts = _placed_starts(_Engine(config, n, 1000), n, [inside])
    assert engine_window(config, starts, lo, n) == oracle_window(config, starts, lo, n) \
        == ([True, True], [False, False])


@pytest.mark.parametrize("bits", [63, 64, 65, 128])
def test_sweep_minimum_near_tie_across_zero(bits):
    """A block minimum whose near-tie lies on the other side of 0.  theta
    is 1/2 + 2^-32: every other step moves by 2^33 top units, so the odd
    steps approach 0 from below and the even steps recede above it.  Step 9
    sits below 0 at c*2^32 + 2^31 - 6 and step 2 above it at c*2^32 + 2^31 +
    6: the smaller distance reads one 32-bit unit more, because its low limb
    rounds away from 0, and only the margin of the minimum's selection keeps
    it.  Both are far beyond the targets from step 5 on (delta = 1)."""
    c = 2 ** 30 - 4
    near, far = c * 2 ** 32 + 2 ** 31 - 6, c * 2 ** 32 + 2 ** 31 + 6
    theta_top, x_top = 2 ** 63 + 2 ** 32, (far - 2 ** 33) % 2 ** 64
    assert (x_top + 9 * theta_top) % 2 ** 64 == 2 ** 64 - near
    theta = CertifiedVector((F(_top_to_units(theta_top, bits), 1 << bits),))
    config = OrbitConfig(theta=theta, delta=F(1), n_max=9, precision_bits=bits)
    x0u = [_top_to_units(x_top, bits)]
    res = _sweep(config, [x0u])[0]
    assert tuple(res) == oracle_sweep(config, x0u)
    assert res.min_lo == _top_to_units(near, bits) - _error_units(9, F(0), bits)


# --- resource guards: refused before any start is drawn --------------------------
# OrbitConfig holds the only refusals: the error budget, at most
# _MAX_SAMPLES samples and the terms of delta.  Orbit length and window size
# are not capped at any precision or dimension; the former caps' edges are
# answered.

def _no_draws(monkeypatch):
    def refuse(*_args):
        raise AssertionError("starts drawn before the resource check")
    monkeypatch.setattr(orbit, "_draw_starts", refuse)


def _samples_edge(monkeypatch, run, bits, **kw):
    """run(config) is refused before any start is drawn at _MAX_SAMPLES + 1
    samples, and draws its starts at _MAX_SAMPLES."""
    _no_draws(monkeypatch)
    with pytest.raises(ResourceError, match="samples"):
        run(OrbitConfig(samples=orbit._MAX_SAMPLES + 1, precision_bits=bits, **kw))
    with pytest.raises(AssertionError, match="starts drawn"):
        run(OrbitConfig(samples=orbit._MAX_SAMPLES, precision_bits=bits, **kw))


def test_delta_with_large_terms_refused_before_the_error_budget():
    """delta = 10001/10000 took minutes in the level ladder's roots; it is
    refused at construction, before the exact error budget is evaluated.
    The largest admitted terms (256/255) are answered, as the oracle does."""
    def refuse(_self):
        raise AssertionError("error budget evaluated")
    theta = CertifiedVector((F(5, 13),))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(OrbitConfig, "_budget_ok", refuse)
        for delta in (F(10001, 10000), F(257, 256), F(1025)):
            with pytest.raises(ResourceError, match="delta"):
                OrbitConfig(theta=theta, delta=delta, n_max=1000, precision_bits=64)
    for delta in (F(256, 255), F(256, 3)):
        config = OrbitConfig(theta=theta, delta=delta, n_max=1000, precision_bits=64)
        rec = orbit_hits(config)
        assert rec.hits == exact_orbit_hits(config) and rec.inconclusive == 0
    config = OrbitConfig(theta=theta, delta=F(256, 255), n_max=1000, samples=4,
                         precision_bits=64)
    assert max(hit_census(config).counts) > 0


def test_long_census_above_64_bits_answered(monkeypatch):
    """One step past the former 2*10^6 orbit cap above 64 bits: the orbit
    from a rational start has the same hits at 128 and 192 bits, none
    inconclusive, and a census runs; only the samples bound refuses."""
    n_max = 2 * 10 ** 6 + 2
    runs = [orbit_hits(OrbitConfig(theta=pell_theta(), delta=F(3, 2), n_max=n_max,
                                   precision_bits=bits), (F(1, 7),))
            for bits in (128, 192)]
    assert runs[0].hits == runs[1].hits and len(runs[0].hits) > 700
    assert runs[0].inconclusive == runs[1].inconclusive == 0
    census = hit_census(OrbitConfig(theta=pell_theta(), delta=F(3, 2), n_max=n_max,
                                    samples=3, precision_bits=128))
    assert census.inconclusive_total == 0 and min(census.counts) > 700
    for bits in (64, 160):
        _samples_edge(monkeypatch, hit_census, bits,
                      theta=CertifiedVector((F(1, 3),)), delta=F(1), n_max=100)


def test_former_window_budget_edges_answered(monkeypatch):
    """The former 10^8 sample-step window budget (precision_bits != 64 or
    d = 3) is gone: 10^4 + 1 samples over 10^4 steps are estimated at its
    two edges; only the samples bound refuses."""
    theta = CertifiedVector((F(1, 3), F(1, 5), F(1, 7)))
    for dims, bits in ((1, 128), (3, 64)):
        config = OrbitConfig(
            theta=CertifiedVector(theta.coords[:dims]), delta=F(3),
            n_max=2 * 10 ** 4, samples=10 ** 4 + 1, precision_bits=bits)
        est = bc_window_estimate(config, (10 ** 4, 2 * 10 ** 4))
        assert est.samples == 10 ** 4 + 1 and 0 < est.hits < est.samples
        assert est.inconclusive == 0
    for bits in (64, 160):
        _samples_edge(monkeypatch, lambda c: bc_window_estimate(c, (10, 20)), bits,
                      theta=CertifiedVector(theta.coords[:2]), delta=F(3), n_max=100)


def _centred_start(theta_u, n, offsets, bits):
    """The grid start, in B-bit units, whose orbit sits at `offsets` (B-bit
    units per coordinate) from 0 at time n."""
    return [(o - n * t) % (1 << bits) for o, t in zip(offsets, theta_u)]


def _placed_start(theta_u, n, target, bits):
    """The grid start whose orbit sits at `target` (B-bit units) at time n."""
    return (F(_centred_start([theta_u], n, [target], bits)[0], 1 << bits),)


@pytest.mark.parametrize("margin", [-1000, 1000])
def test_top_limb_drift_stays_inside_the_filter_margin(margin):
    """theta's low 64 bits are all ones, so at 128 bits the top limb falls
    behind the true position by about one unit per step of a block.  At
    l near 2^60 consecutive thresholds differ by far less than a unit, so
    only the margin E keeps a distance 1000 units from the threshold, seen
    5000 steps into a block, on the exact rule's side."""
    bits, lo, hi = 128, 2 ** 60, 2 ** 60 + 5000
    theta_u = (0x9E3779B97F4A7C15 << 64) | ((1 << 64) - 1)
    theta = CertifiedVector((F(theta_u, 1 << bits),))
    config = OrbitConfig(theta=theta, delta=F(2), n_max=hi, precision_bits=bits)
    t = _threshold_pair(hi - 1, F(2), bits)[1]
    x0 = _placed_start(theta_u, hi - 1, t + margin * (1 << 64), bits)
    starts = [_units(x0, bits)]
    got = engine_window(config, starts, lo, hi - 1)
    assert got == oracle_window(config, starts, lo, hi - 1)
    assert got[0] == [margin < 0]


def test_error_budget_widens_the_miss_limit():
    """With a theta radius the certified band is 10^6 top units wide; a
    distance 5*10^5 units above the threshold straddles it and must be
    counted inconclusive, not filtered out as a miss."""
    bits, n = 128, 100
    theta_u = 0x9E3779B97F4A7C15 << 64
    radius = F(10 ** 6, n << 64)
    theta = CertifiedVector((F(theta_u, 1 << bits),), radius)
    config = OrbitConfig(theta=theta, delta=F(1), n_max=n, precision_bits=bits)
    x0 = _placed_start(theta_u, n, (1 << bits) // n + 5 * 10 ** 5 * (1 << 64), bits)
    rec = orbit_hits(config, x0=x0)
    hits, inconclusive, _lo, _hi = oracle_sweep(config, _units(x0, bits), x0)
    assert inconclusive >= 1
    assert (rec.hits, rec.inconclusive) == (tuple(hits), inconclusive)


# --- narrow windows: every candidate pair reaches the exact rule ----------------
# Past radius 1/16 the window engine buckets the ramp k*theta of a time block
# once, re-buckets it only when the cells narrow, and probes the cells around
# each sample's -(x + base) for a run of blocks at once.  A lost candidate
# changes a verdict only when it is a hit, so these tests check the pairs
# themselves: every (sample, l) whose dense d64 is within the batch's miss
# limit reaches _Engine.settle, and no other pair does.


class _SettleSpy:
    """Records each window batch (a dense block or a bucketed run): the
    engine, its first step, length and rebase interval, its limits, the
    samples not yet hit and the (sample, l) pairs handed to settle.  The
    limits are those of the batch's ladder (_Engine.levels) for every step
    of the batch: the dense stage spreads them over its steps, the bucketed
    stage looks up its candidates' own.  A bucketed run rebases every m
    steps, m of the _Grid in force, and a dense block (which comes before
    any grid) once, at its start."""

    def __init__(self, patch):
        self.batches = []
        self.m = None
        levels, settle = orbit._Engine.levels, orbit._Engine.settle
        grid = orbit._Grid.__init__

        def spy_levels(eng, b0, length, slack):
            steps, hit, miss = ladder = levels(eng, b0, length, slack)
            self.limits = (b0, length, self.m or length,
                           *np.repeat([hit, miss], steps, axis=1))
            return ladder

        def spy_grid(g, theta_top, shift, m):
            self.m = m
            grid(g, theta_top, shift, m)

        def spy_settle(eng, starts, hit, amb, rows, b0, ks, sure):
            assert self.limits[0] == b0
            pairs = sorted(zip(rows.tolist(), (b0 + ks).tolist()))
            self.batches.append((eng, *self.limits, np.flatnonzero(~hit), pairs))
            settle(eng, starts, hit, amb, rows, b0, ks, sure)

        patch.setattr(orbit._Engine, "levels", spy_levels)
        patch.setattr(orbit._Engine, "settle", spy_settle)
        patch.setattr(orbit._Grid, "__init__", spy_grid)

    def check(self, starts, hit, amb, checked=None):
        """The pairs of the checked samples (default all) are exactly the dense
        candidates, and their verdicts are those of the exact rule on them."""
        checked = set(range(len(starts)) if checked is None else checked)
        expected = []
        for eng, b0, length, step, _hit_lim, miss_lim, active, pairs in self.batches:
            rows = [i for i in active.tolist() if i in checked]
            want = []
            for part in range(0, len(rows), 16):  # bounds the dense arrays
                some = np.array(rows[part:part + 16])
                tops = eng.tops([starts[i] for i in some], 0)
                for n in range(b0, b0 + length, step):  # rebased as the engine does
                    size = min(step, b0 + length - n)
                    base = eng.tops([[0] * tops.shape[1]], n)[0]
                    d = eng.distances(tops, base, size)
                    r, k = np.nonzero(d <= miss_lim[n - b0:n - b0 + size])
                    want += zip(some[r].tolist(), (n + k).tolist())
            assert [pr for pr in pairs if pr[0] in checked] == sorted(want), b0
            expected += [(eng, i, l) for i, l in want]
        verdicts = {}
        for eng, i, l in expected:
            verdicts.setdefault(i, []).append(eng.classify(starts[i], l))
        for i in checked:
            v = verdicts.get(i, [])
            assert (hit[i], amb[i]) == (True in v, None in v and True not in v), i


@st.composite
def crowded_window(draw):
    """A narrow window (radius just below or far below 1/16), up to 3,000
    random starts, and starts placed one top unit on each side of a dyadic
    point and across the wrap: theta's coordinate 0 puts the centre
    -l*theta at time l on the point C (1, or u*2^j with j >= 40), the placed
    samples sit at top units C - 1, C, C + 1 (and 2^64 - 1, 0 when C is 1)
    on coordinate 0, on the centre elsewhere, or within the target radius of
    it on coordinate 0."""
    bits = draw(st.sampled_from((64, 128, 160)))
    dim = draw(st.integers(1, 3))
    delta = dim + F(draw(st.integers(0, 4)), draw(st.sampled_from((1, 2, 3))))
    l0 = iroot(16 ** delta.numerator, delta.denominator) + 1
    far = 2 ** (30 if bits == 64 else 62)
    lo = draw(st.one_of(st.integers(l0, l0 + 40), st.integers(2 ** 16, far))) | 1
    length = draw(st.integers(1, 300))
    l = lo + 2 * draw(st.integers(0, (length - 1) // 2))  # odd: invertible mod 2^B
    s = bits - 64
    u, j = draw(st.integers(1, 2 ** 24 - 1)), draw(st.integers(40, 63))
    edge = draw(st.sampled_from((1, (u << j) % 2 ** 64 or 1 << 63)))
    theta_u = [(-(edge << s)) * pow(l, -1, 1 << bits) % (1 << bits)]
    theta_u += [draw(st.integers(1, 2 ** bits - 1)) for _ in range(dim - 1)]
    theta = CertifiedVector(tuple(F(t, 1 << bits) for t in theta_u))
    samples = draw(st.one_of(st.integers(1, 50), st.integers(1000, 3000)))
    config = fit_budget(theta, delta, lo + length, bits, samples=samples,
                        seed=draw(st.integers(0, 999)))
    if config.n_max < lo + length - 1:
        return None  # the budget admits no window this far out
    starts = _draw_starts(config, config.samples)
    radius = _threshold_pair(l, delta, bits)[0] >> s
    tops0 = [edge - 1, edge, edge + 1] + [2 ** 64 - 1, 0] * (edge == 1)
    tops0 += [edge + radius - 3, edge - radius + 3]
    for t in tops0:
        offset = (t - edge) % 2 ** 64 << s
        starts.append(_centred_start(theta_u, l, [offset] + [0] * (dim - 1), bits))
    return config, starts, lo, lo + length - 1


@settings(deadline=None, max_examples=60)
@given(crowded_window())
def test_narrow_window_candidates_reach_settle(window):
    if window is None:
        return
    config, starts, lo, hi = window
    with pytest.MonkeyPatch.context() as m:
        spy = _SettleSpy(m)
        hit, amb = _window(config, starts, lo, hi)
    spy.check(starts, hit, amb)


@pytest.mark.parametrize("dim, samples, length", [(2, 2000, 200), (3, 600, 300)])
def test_crowded_narrow_window_matches_oracle(dim, samples, length):
    """Hundreds to thousands of starts over a few hundred narrow steps, with
    targets wide enough (delta = 2d + 1) that many starts hit."""
    theta = CertifiedVector((F(5741, 8119), F(2923, 7561), F(1393, 985 * 3))[:dim])
    delta = 2 * dim + 1
    lo = 16 ** delta + 1
    config = OrbitConfig(theta=theta, delta=F(delta), n_max=lo + length,
                         samples=samples, seed=11, precision_bits=64)
    starts = _draw_starts(config, samples)
    got = engine_window(config, starts, lo, lo + length - 1)
    assert got == oracle_window(config, starts, lo, lo + length - 1)
    assert 0 < sum(got[0]) < samples


@pytest.mark.parametrize("theta, lo, samples, length", [
    pytest.param((F(5741, 8119), F(2923, 7561)), 2 ** 22 + 1, 8000, n, id=str(n))
    for n in (_BATCH - 1, _BATCH, _BATCH + 1)] + [
    pytest.param((F(1, 3) + F(1, 10 ** 6), F(2, 5) - F(1, 10 ** 7)), 257, 300,
                 3 * _BLOCK + 5, id="multi_block")])
def test_batch_long_narrow_window_candidates(theta, lo, samples, length):
    """Long narrow windows (d = 2, delta = 2), checked against the dense
    recomputation: the pairs and verdicts of starts placed on the centre at
    late times, which must be found there, and of the first 40 random starts
    (all of them in the multi-block case).

    About 2^20 steps from l = 2^22 + 1 with 8,000 starts at radius about
    2^-11 run 16 or 17 blocks on one full _BLOCK-step ramp, whose packed step
    index needs all of its bits.  The multi-block window starts at the first narrow time l0 = 257:
    its cells narrow between the first and second block, so the ramp is
    re-bucketed, and its last block is 5 steps.  theta is within 10^-6 of
    (1/3, 2/5), so each orbit drifts slowly along 15 tracks: most random
    starts are never hit, and a placed start meets its target only a few
    thousand steps before its time, in the second and third blocks too."""
    theta = CertifiedVector(theta)
    config = OrbitConfig(theta=theta, delta=F(2), n_max=lo + length,
                         samples=samples, seed=17, precision_bits=64)
    theta_u = _units(theta.coords, 64)
    late = [lo + min(length, _BLOCK) - 1, lo + length // 2, lo + length // 2 + 7,
            lo + length - 1]
    starts = _draw_starts(config, samples)
    starts += [_centred_start(theta_u, l, [0, 0], 64) for l in late]
    with pytest.MonkeyPatch.context() as m:
        spy = _SettleSpy(m)
        hit, amb = _window(config, starts, lo, lo + length - 1)
    assert spy.batches[0][2] == min(length, _BLOCK)
    placed = range(samples, len(starts))
    assert all(hit[i] for i in placed)
    spy.check(starts, hit, amb,
              checked=list(range(40 if samples > 300 else samples)) + list(placed))


# --- run edges: the bucketed stage probes a run of blocks at once ---------------
# From l0 = 257 with delta = 2 the cells are 2^60 top units wide, so with about
# 200 unhit starts a run holds two blocks of m = _BLOCK steps: 9 probes per start
# and block, about _BATCH candidate pairs.  The cells fit the run's first block;
# at its second block (l = 65,793) the targets are 16 times narrower.

MULTI_BLOCK_THETA = CertifiedVector((F(1, 3) + F(1, 10 ** 6), F(2, 5) - F(1, 10 ** 7)))


def _run_blocks(patch):
    """The number of blocks of each bucketed run, as _Grid.near is asked for
    the points of every block of the run at once."""
    runs, near = [], orbit._Grid.near

    def spy_near(grid, points):
        runs.append(points.shape[0])
        return near(grid, points)

    patch.setattr(orbit._Grid, "near", spy_near)
    return runs


def _edge_start(theta_u, n, delta, bits):
    """A grid start of MULTI_BLOCK_THETA that first hits at time n: there it
    sits 2^20 units inside the target's edge on coordinate 0 (above the
    error bound of a window up to 2^18 steps), on the side the orbit's
    period-15 track drifts in from; every other step of the track since
    l = 257 is farther out, and the other 14 tracks are at least 1/5 away."""
    t = _threshold_pair(n, delta, bits)[0]
    return _centred_start(theta_u, n, [-(t - 2 ** 20), 0], bits)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_window_run_edges_match_oracle(extra):
    """Windows of 2m - 1, 2m and 2m + 1 steps: the window ends in a short
    last block, at the end of the run, or one step into a second run, whose
    cells are bucketed again.  Starts are placed to hit first at the last
    step of a block, of the run and of the window, and at the first step of
    the next block and run.  Every pair of every start is checked against
    the dense recomputation, and the two starts on either side of the run
    edge against the exact walk."""
    lo, m, delta = 257, _BLOCK, F(2)
    hi = lo + 2 * m - 1 + extra
    config = OrbitConfig(theta=MULTI_BLOCK_THETA, delta=delta, n_max=hi, samples=192,
                         seed=5, precision_bits=64)
    theta_u = _units(MULTI_BLOCK_THETA.coords, 64)
    times = sorted({n for n in (lo + m - 1, lo + m, lo + 2 * m - 1, lo + 2 * m, hi)
                    if n <= hi})
    placed = [_edge_start(theta_u, n, delta, 64) for n in times]
    starts = _draw_starts(config, config.samples) + placed
    with pytest.MonkeyPatch.context() as patch:
        runs = _run_blocks(patch)
        spy = _SettleSpy(patch)
        hit, amb = _window(config, starts, lo, hi)
    assert runs == [2] + [1] * (extra == 1)
    assert [batch[1:3] for batch in spy.batches] == \
        [(lo, 2 * m + min(extra, 0))] + [(lo + 2 * m, 1)] * (extra == 1)
    assert hit[config.samples:].all()
    if extra == 1:  # the walk costs about a second per 10^5 steps of a start
        edge = placed[-2:]
        assert engine_window(config, edge, lo, hi) == oracle_window(config, edge, lo, hi)
    spy.check(starts, hit, amb)


def test_window_run_of_short_blocks_above_64_bits():
    """A run of blocks shorter than _BLOCK at 128 bits, where each block is
    rebased at its own start.  From l = 2^32 + 1 with delta = 8 the cells
    are 2^60 top units wide, so 600 starts (9 probes each) make blocks of
    m = 2^28 // 5400 = 49,710 steps and a first run of one block.  theta's
    coordinate 0 is within 10^-7 of 1/7, so about nine in ten starts sit
    on a track through the targets and are hit in that block; the few left
    share the next run, of all three remaining blocks (the last of 5 steps),
    in which the tracks' drift brings some of them in."""
    theta = CertifiedVector((F(1, 7) + F(1, 10 ** 7), F(5741, 8119)))
    lo, samples = 2 ** 32 + 1, 600
    m = (1 << 28) // (9 * samples)
    hi = lo + 3 * m + 4
    config = OrbitConfig(theta=theta, delta=F(8), n_max=hi, samples=samples, seed=3,
                         precision_bits=128)
    starts = _draw_starts(config, samples)
    with pytest.MonkeyPatch.context() as patch:
        runs = _run_blocks(patch)
        spy = _SettleSpy(patch)
        hit, amb = _window(config, starts, lo, hi)
    assert runs == [1, 3]
    assert [batch[1:4] for batch in spy.batches] == [(lo, m, m), (lo + m, 2 * m + 5, m)]
    late = spy.batches[1][-2]
    assert spy.batches[1][-1] and 0 < hit[late].sum() < len(late)
    spy.check(starts, hit, amb, checked=list(range(40)) + late.tolist())


def test_window_stops_when_every_start_is_hit_in_the_first_run():
    """200 starts, each centred on 0 at a time of the first run (and so hit
    a few thousand steps before it), in a window of three blocks: the first
    run of two blocks hits them all and no second run is probed."""
    lo, m, delta = 257, _BLOCK, F(2)
    hi = lo + 3 * m - 1
    config = OrbitConfig(theta=MULTI_BLOCK_THETA, delta=delta, n_max=hi, precision_bits=64)
    theta_u = _units(MULTI_BLOCK_THETA.coords, 64)
    starts = [_centred_start(theta_u, n, [0, 0], 64)
              for n in range(lo + 3000, lo + 2 * m, (2 * m - 3000) // 200)][:200]
    with pytest.MonkeyPatch.context() as patch:
        runs = _run_blocks(patch)
        spy = _SettleSpy(patch)
        hit, amb = _window(config, starts, lo, hi)
    assert runs == [2] and hit.all()
    spy.check(starts, hit, amb)
