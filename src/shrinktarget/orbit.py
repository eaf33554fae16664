"""Certified simulation of torus translations against shrinking targets.

The orbit x, x + theta, x + 2 theta, ... on T^d is iterated in fixed-point
arithmetic (precision_bits fractional bits) with a single rigorously tracked
error term: after n steps the fixed-point position is within
1/2 + n*(1/2 + radius*2^B) units of the true one.  Time n is a *hit* when
the certified distance to 0 is conclusively <= n^(-1/delta); comparisons the
error band cannot decide are re-run in exact rational arithmetic, and only a
genuine straddle of the threshold (possible when theta itself carries a
radius) is tallied as inconclusive.

The log-law statistic reported per orbit is the depth-N surrogate of the
limsup exponent: (-log min_{2<=n<=N} d_n) / log N, as an outward-rounded
enclosure.  (A per-n maximum of (-log d_n)/log n is dominated by noise at
tiny n -- at n = 2 a uniformly random start exceeds ratio 3/2 with
probability 2^(1/2)/2 -- so the horizon-normalized form is the one with a
stable almost-everywhere interpretation at finite depth.)

Pseudo-randomness: all sampling uses numpy's PCG64 stream seeded with the
config seed; starts are drawn on the dyadic grid of mesh 2^-precision_bits.
Changing the generator is a format-breaking change.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import DomainError, PrecisionError, ResourceError
from .exact import CertifiedVector, _dec, as_vector, dist_nearest_int, rational
from .roots import iroot, log2_enclosure, sqrt_upper

_PY_SWEEP_CAP = 2 * 10 ** 6  # bigint path: refuse absurdly long orbits


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class OrbitConfig:
    """Parameters of one simulation family.

    The error budget is checked exactly at construction: the accumulated
    per-step error n_max*(2^-precision_bits + theta.radius) must stay below
    10^-3 of the smallest target radius n_max^(-1/delta), otherwise the
    configuration is rejected (ResourceError) -- raise precision_bits or
    shrink n_max.
    """

    theta: CertifiedVector
    delta: Fraction
    n_max: int
    samples: int = 1
    seed: int = 0
    precision_bits: int = 128

    def __post_init__(self):
        object.__setattr__(self, "theta", as_vector(self.theta))
        object.__setattr__(self, "delta", rational(self.delta))
        if self.delta < self.theta.dim:
            raise DomainError(
                f"delta = {self.delta} must be >= the dimension {self.theta.dim}")
        if self.n_max < 0:
            raise DomainError("n_max must be nonnegative")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")
        if self.precision_bits < 8:
            raise DomainError("precision_bits must be >= 8")
        if self.n_max and not self._budget_ok():
            raise ResourceError(
                f"error budget violated: {self.n_max} steps at "
                f"{self.precision_bits} fractional bits with theta radius "
                f"{self.theta.radius} cannot certify targets of radius "
                f"{self.n_max}^(-1/{self.delta}); raise precision_bits or "
                f"lower n_max")

    def _budget_ok(self) -> bool:
        p, q = self.delta.numerator, self.delta.denominator
        step = Fraction(1, 2 ** self.precision_bits) + self.theta.radius
        return (1000 * self.n_max * step) ** p * self.n_max ** q < 1

    @property
    def dim(self) -> int:
        return self.theta.dim


@dataclass(frozen=True)
class HitRecord:
    """One orbit's conclusive hits and log-law statistic enclosure.

    stat_lo/stat_hi are None when the orbit's certified minimum distance
    touches 0 (statistic unbounded) or fewer than two steps were taken.
    """

    sample_id: int
    hits: tuple[int, ...]
    inconclusive: int
    stat_lo: Fraction | None
    stat_hi: Fraction | None


def _theta_units(theta: CertifiedVector, bits: int) -> list[int]:
    """Per-coordinate fixed-point representation round(frac(theta)*2^bits)."""
    out = []
    for c in theta.coords:
        c = c % 1
        scaled = c * (1 << bits)
        out.append((scaled.numerator * 2 + scaled.denominator)
                   // (2 * scaled.denominator) % (1 << bits))
    return out


def _x0_units(x0, dim: int, bits: int) -> list[int]:
    if x0 is None:
        return [0] * dim
    coords = [rational(c) % 1 for c in x0]
    if len(coords) != dim:
        raise DomainError(f"x0 has dimension {len(coords)}, theta has {dim}")
    return [(c.numerator * 2 ** (bits + 1) + c.denominator)
            // (2 * c.denominator) % (1 << bits) for c in coords]


def _error_units(n: int, theta_radius: Fraction, bits: int) -> int:
    """Certified bound, in fixed-point units, on |fixed-point - true|
    after n steps (including the start-point rounding)."""
    return _ceil_frac(Fraction(1, 2) + n * (Fraction(1, 2) + theta_radius * (1 << bits)))


def _threshold_pair(n: int, delta: Fraction, bits: int) -> tuple[int, int]:
    """Integers t_lo <= n^(-1/delta)*2^bits <= t_hi with t_hi - t_lo <= 1."""
    p, q = delta.numerator, delta.denominator
    w = (1 << (bits * p)) // n ** q
    t = iroot(w, p)
    if t ** p * n ** q == 1 << (bits * p):
        return t, t
    return t, t + 1


def _auto_hit_bound(delta: Fraction) -> int:
    """Largest n with target radius n^(-1/delta) >= 1/2 (everything hits)."""
    p, q = delta.numerator, delta.denominator
    n = 1
    while (n + 1) ** q <= 2 ** p:
        n += 1
    return n


def _exact_classify(x0_frac, theta: CertifiedVector, n: int,
                    delta: Fraction) -> bool | None:
    """Exact-arithmetic hit test at time n; None = genuine straddle."""
    p, q = delta.numerator, delta.denominator
    center = max(dist_nearest_int(x + n * t)
                 for x, t in zip(x0_frac, theta.coords))
    slack = n * theta.radius
    hi = center + slack
    if hi ** p * n ** q <= 1:
        return True
    lo = max(center - slack, Fraction(0))
    if lo ** p * n ** q > 1:
        return False
    return None


class _SweepResult:
    __slots__ = ("hits", "inconclusive", "min_lo", "min_hi")

    def __init__(self, hits, inconclusive, min_lo, min_hi):
        self.hits = hits
        self.inconclusive = inconclusive
        self.min_lo = min_lo  # certified bounds on min_{n>=2} distance,
        self.min_hi = min_hi  # in fixed-point units; None if no n >= 2


def _sweep_np(config: OrbitConfig, x0u: list[int], n_lo: int, n_hi: int,
              x0_frac=None) -> _SweepResult:
    """uint64 engine (precision_bits = 64): positions n*T wrap mod 2^64.

    x0_frac is the true rational start for the exact fallback; by default the
    grid point x0u/2^bits (exact for starts drawn on the grid).
    """
    bits = 64
    theta_u = _theta_units(config.theta, bits)
    if x0_frac is None:
        x0_frac = [Fraction(u, 1 << bits) for u in x0u]
    err = _error_units(n_hi, config.theta.radius, bits)
    auto = _auto_hit_bound(config.delta)
    p, q = config.delta.numerator, config.delta.denominator
    hits: list[int] = []
    inconclusive = 0
    dmin = None
    chunk = 1 << 21
    for start in range(n_lo, n_hi + 1, chunk):
        stop = min(start + chunk - 1, n_hi)
        ns = np.arange(start, stop + 1, dtype=np.uint64)
        dist = np.zeros(len(ns), dtype=np.uint64)
        for tu, xu in zip(theta_u, x0u):
            pos = np.uint64(xu) + np.uint64(tu) * ns
            np.maximum(dist, np.minimum(pos, np.uint64(0) - pos), out=dist)
        lo2 = max(start, 2)
        if lo2 <= stop:
            m = int(dist[lo2 - start:].min())
            dmin = m if dmin is None else min(dmin, m)
        # classification: auto-hits, then float thresholds with safety slack
        n_auto_end = min(auto, stop)
        if start <= n_auto_end:
            hits.extend(range(start, n_auto_end + 1))
        if stop > auto:
            tail = slice(max(auto + 1, start) - start, None)
            ns_t = ns[tail]
            d_t = dist[tail]
            tf = np.power(ns_t.astype(np.float64), -q / p) * float(1 << bits)
            slack = tf * 1e-10 + 4.0
            t_lo = np.maximum(tf - slack, 0.0).astype(np.uint64)
            t_hi = (tf + slack).astype(np.uint64)
            e = np.uint64(err)
            hit_m = d_t + e <= t_lo
            miss_m = (d_t >= e) & (d_t - e > t_hi)
            hits.extend(int(n) for n in ns_t[hit_m])
            for n in ns_t[~(hit_m | miss_m)]:
                n = int(n)
                verdict = _exact_classify(x0_frac, config.theta, n, config.delta)
                if verdict is True:
                    hits.append(n)
                elif verdict is None:
                    inconclusive += 1
    if dmin is None:
        return _SweepResult(sorted(hits), inconclusive, None, None)
    return _SweepResult(sorted(hits), inconclusive, dmin - err, dmin + err)


def _sweep_py(config: OrbitConfig, x0u: list[int], n_lo: int, n_hi: int,
              x0_frac=None) -> _SweepResult:
    """Arbitrary-precision fixed-point engine (any precision_bits)."""
    bits = config.precision_bits
    if n_hi - n_lo > _PY_SWEEP_CAP:
        raise ResourceError(
            f"orbit of length {n_hi - n_lo + 1} at {bits} fractional bits "
            f"exceeds the bigint engine cap {_PY_SWEEP_CAP}; use "
            f"precision_bits = 64 for long orbits")
    theta_u = _theta_units(config.theta, bits)
    if x0_frac is None:
        x0_frac = [Fraction(u, 1 << bits) for u in x0u]
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    err = _error_units(n_hi, config.theta.radius, bits)
    auto = _auto_hit_bound(config.delta)
    pos = [(xu + n_lo * tu) & mask for xu, tu in zip(x0u, theta_u)]
    hits: list[int] = []
    inconclusive = 0
    dmin = None
    for n in range(n_lo, n_hi + 1):
        d = 0
        for c in range(len(pos)):
            v = pos[c]
            dv = v if v <= half else (1 << bits) - v
            if dv > d:
                d = dv
            pos[c] = (v + theta_u[c]) & mask
        if n >= 2 and (dmin is None or d < dmin):
            dmin = d
        if n <= auto:
            hits.append(n)
            continue
        t = _threshold_pair(n, config.delta, bits)
        if d + err <= t[0]:
            hits.append(n)
        elif d - err > t[1]:
            pass
        else:
            verdict = _exact_classify(x0_frac, config.theta, n, config.delta)
            if verdict is True:
                hits.append(n)
            elif verdict is None:
                inconclusive += 1
    if dmin is None:
        return _SweepResult(hits, inconclusive, None, None)
    return _SweepResult(hits, inconclusive, dmin - err, dmin + err)


def _sweep(config: OrbitConfig, x0u: list[int], n_lo: int, n_hi: int,
           x0_frac=None) -> _SweepResult:
    if config.precision_bits == 64:
        return _sweep_np(config, x0u, n_lo, n_hi, x0_frac)
    return _sweep_py(config, x0u, n_lo, n_hi, x0_frac)


def _stat_enclosure(res: _SweepResult, n_hi: int, bits: int):
    """Outward enclosure of (-log2 min dist)/(log2 N); (None, None) when the
    distance interval touches 0 or no n >= 2 exists."""
    if res.min_lo is None or res.min_lo <= 0 or n_hi < 2:
        return None, None
    la1 = log2_enclosure(res.min_lo)[0]
    lb2 = log2_enclosure(res.min_hi)[1]
    ln_lo, ln_hi = log2_enclosure(n_hi)
    hi = (bits - la1) / ln_lo
    lo = (bits - lb2) / ln_hi
    return max(lo, Fraction(0)), max(hi, Fraction(0))


def orbit_hits(config: OrbitConfig, x0=None, sample_id: int = 0) -> HitRecord:
    """Sweep one orbit over n = 1..n_max; certified hits and statistic.

    x0 is an exact rational point of T^d (default 0).  Hits are conclusive
    certified comparisons; ambiguity the exact fallback cannot settle (theta
    radius straddling a threshold) lands in `inconclusive`.
    """
    if config.n_max == 0:
        return HitRecord(sample_id, (), 0, None, None)
    x0u = _x0_units(x0, config.dim, config.precision_bits)
    x0_frac = None if x0 is None else [rational(c) % 1 for c in x0]
    res = _sweep(config, x0u, 1, config.n_max, x0_frac)
    lo, hi = _stat_enclosure(res, config.n_max, config.precision_bits)
    return HitRecord(sample_id, tuple(res.hits), res.inconclusive, lo, hi)


def exact_orbit_hits(config: OrbitConfig, x0=None) -> tuple[int, ...]:
    """Slow oracle: exact rational orbit, exact threshold comparisons.

    Requires an exact theta (radius 0).
    """
    if config.theta.radius != 0:
        raise DomainError("the exact oracle needs an exact theta (radius 0)")
    p, q = config.delta.numerator, config.delta.denominator
    coords = [c % 1 for c in config.theta.coords]
    x = [rational(c) % 1 for c in x0] if x0 is not None else [Fraction(0)] * config.dim
    if len(x) != config.dim:
        raise DomainError("x0 dimension mismatch")
    hits = []
    for n in range(1, config.n_max + 1):
        x = [(xi + ti) % 1 for xi, ti in zip(x, coords)]
        d = max(dist_nearest_int(xi) for xi in x)
        if d ** p * n ** q <= 1:
            hits.append(n)
    return tuple(hits)


def log_law_stat(config: OrbitConfig, x0=None) -> tuple[Fraction, Fraction]:
    """Enclosure of the finite-horizon log-law statistic (see module doc).

    Raises PrecisionError when the orbit's certified minimum distance over
    2 <= n <= n_max touches 0 (statistic unbounded at this precision).
    """
    if config.n_max < 2:
        raise DomainError("the statistic needs n_max >= 2")
    rec = orbit_hits(config, x0)
    if rec.stat_lo is None:
        raise PrecisionError(
            "certified orbit distance reaches 0 within the error budget; "
            "the log-law statistic is unbounded at this precision")
    return rec.stat_lo, rec.stat_hi


# ---------------------------------------------------------------------------
# sampling, census, window estimates


def _draw_starts(config: OrbitConfig, count: int) -> list[list[int]]:
    """count dyadic-grid starts, PCG64(seed), sample-major coordinate order."""
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


@dataclass(frozen=True)
class CensusSummary:
    config: OrbitConfig
    n_lo: int
    records: tuple[HitRecord, ...]
    counts: tuple[int, ...]
    mean: Fraction
    median: Fraction
    quartiles: tuple[Fraction, Fraction]
    inconclusive_total: int


def _median(sorted_vals) -> Fraction:
    m = len(sorted_vals)
    if m % 2:
        return Fraction(sorted_vals[m // 2])
    return Fraction(sorted_vals[m // 2 - 1] + sorted_vals[m // 2], 2)


def hit_census(config: OrbitConfig, n_lo: int = 1) -> CensusSummary:
    """Per-sample hit counts over [n_lo, n_max] for `samples` random starts.

    Deterministic for a given config (seed included); sample 0 uses the
    first drawn start, not the origin.
    """
    if not 1 <= n_lo <= max(config.n_max, 1):
        raise DomainError("n_lo must lie in [1, n_max]")
    starts = _draw_starts(config, config.samples)
    records = []
    counts = []
    for i, x0u in enumerate(starts):
        if config.n_max == 0:
            rec = HitRecord(i, (), 0, None, None)
        else:
            res = _sweep(config, x0u, 1, config.n_max)
            lo, hi = _stat_enclosure(res, config.n_max, config.precision_bits)
            rec = HitRecord(i, tuple(res.hits), res.inconclusive, lo, hi)
        records.append(rec)
        counts.append(sum(1 for n in rec.hits if n >= n_lo))
    s = sorted(counts)
    m = len(s)
    return CensusSummary(
        config, n_lo, tuple(records), tuple(counts),
        mean=Fraction(sum(counts), m),
        median=_median(s),
        quartiles=(_median(s[:(m + 1) // 2]), _median(s[m // 2:])),
        inconclusive_total=sum(r.inconclusive for r in records),
    )


@dataclass(frozen=True)
class WindowEstimate:
    """Monte Carlo estimate of the measure of a union of preimages
    U = union over l in [lo, hi) of T^-l B(0, l^(-1/delta))."""

    window: tuple[int, int]
    samples: int
    hits: int
    inconclusive: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    @property
    def confidence_radius(self) -> Fraction:
        """Conservative 95% binomial radius (z = 2 Wald with a +1/+2
        continuity shift, square root rounded up)."""
        p = Fraction(self.hits + 1, self.samples + 2)
        return 2 * sqrt_upper(p * (1 - p) / self.samples)


def bc_window_estimate(config: OrbitConfig, window: tuple[int, int]) -> WindowEstimate:
    """Fraction of sampled starts whose orbit enters some target in the
    window: x0 such that ||x0 + l*theta|| <= l^(-1/delta) for an l in
    [window[0], window[1]).

    The window must sit inside the configured budget ([1, n_max]); estimates
    over a sub-window are lower bounds for the full-window measure.
    """
    lo, hi = int(window[0]), int(window[1])
    if not 1 <= lo < hi:
        raise DomainError("window must satisfy 1 <= lo < hi")
    if hi - 1 > config.n_max:
        raise DomainError(
            f"window end {hi} exceeds the configured budget n_max = {config.n_max}")
    if lo <= _auto_hit_bound(config.delta):
        # the window contains a target of radius >= 1/2: everything hits
        return WindowEstimate((lo, hi), config.samples, config.samples, 0)
    starts = _draw_starts(config, config.samples)
    if config.precision_bits == 64 and config.dim <= 2:
        hit_flags, amb_flags = _window_np(config, starts, lo, hi - 1)
    else:
        hit_flags, amb_flags = _window_py(config, starts, lo, hi - 1)
    hits = sum(hit_flags)
    inconclusive = sum(1 for h, a in zip(hit_flags, amb_flags) if a and not h)
    return WindowEstimate((lo, hi), config.samples, hits, inconclusive)


def _window_py(config, starts, l_lo, l_hi):
    """Per-sample scan with early exit; thresholds shared across samples."""
    if (l_hi - l_lo + 1) * len(starts) > 10 ** 8:
        raise ResourceError(
            f"window of length {l_hi - l_lo + 1} for {len(starts)} samples "
            f"exceeds the scan budget at {config.precision_bits} bits; "
            f"shorten the window or use precision_bits = 64")
    bits = config.precision_bits
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    theta_u = _theta_units(config.theta, bits)
    err = _error_units(l_hi, config.theta.radius, bits)
    auto = _auto_hit_bound(config.delta)
    pairs = {l: _threshold_pair(l, config.delta, bits)
             for l in range(max(l_lo, auto + 1), l_hi + 1)}
    hit_flags = [False] * len(starts)
    amb_flags = [False] * len(starts)
    for i, x0u in enumerate(starts):
        if l_lo <= auto:
            hit_flags[i] = True
            continue
        pos = [(xu + l_lo * tu) & mask for xu, tu in zip(x0u, theta_u)]
        x0_frac = None
        for l in range(l_lo, l_hi + 1):
            d = 0
            for c in range(len(pos)):
                v = pos[c]
                dv = v if v <= half else (1 << bits) - v
                if dv > d:
                    d = dv
                pos[c] = (v + theta_u[c]) & mask
            t_lo, t_hi = pairs[l]
            if d + err <= t_lo:
                hit_flags[i] = True
                break
            if d - err > t_hi:
                continue
            if x0_frac is None:
                x0_frac = [Fraction(u, 1 << bits) for u in x0u]
            verdict = _exact_classify(x0_frac, config.theta, l, config.delta)
            if verdict is True:
                hit_flags[i] = True
                break
            if verdict is None:
                amb_flags[i] = True
    return hit_flags, amb_flags


def _classify_units(d: int, l: int, config: OrbitConfig, err: int,
                    x0_frac) -> bool | None:
    """Certified hit test from a fixed-point distance d at time l."""
    t_lo, t_hi = _threshold_pair(l, config.delta, config.precision_bits)
    if d + err <= t_lo:
        return True
    if d - err > t_hi:
        return False
    return _exact_classify(x0_frac, config.theta, l, config.delta)


def _window_np(config, starts, l_lo, l_hi):
    """Bucket engine: hash target centers -l*theta on a grid coarser than
    the largest target, then test every sample against nearby centers only.

    Times l whose target is wider than 2^-4 (cells would be too coarse to
    bucket) are handled per sample with an early-exit scan; the expected
    number of scanned times per sample is O(1) because hits there are dense.
    """
    bits = 64
    theta_u = _theta_units(config.theta, bits)
    dim = config.dim
    err = _error_units(l_hi, config.theta.radius, bits)
    p, q = config.delta.numerator, config.delta.denominator
    hit_flags = np.zeros(len(starts), dtype=bool)
    amb_flags = np.zeros(len(starts), dtype=bool)
    xs = np.array(starts, dtype=np.uint64)
    x0_fracs = [[Fraction(u, 1 << bits) for u in pt] for pt in starts]
    l0 = iroot(16 ** p, q) + 1  # first l with target radius < 1/16
    for i, pt in enumerate(starts):
        for l in range(l_lo, min(l0 - 1, l_hi) + 1):
            d = 0
            for c in range(dim):
                v = (pt[c] + l * theta_u[c]) % (1 << bits)
                d = max(d, min(v, (1 << bits) - v))
            verdict = _classify_units(d, l, config, err, x0_fracs[i])
            if verdict is True:
                hit_flags[i] = True
                break
            if verdict is None:
                amb_flags[i] = True
    chunk = 1 << 22
    offsets = np.array([[o // 3 ** c % 3 - 1 for c in range(dim)]
                        for o in range(3 ** dim)], dtype=np.int64)
    for start in range(max(l_lo, l0), l_hi + 1, chunk):
        stop = min(start + chunk - 1, l_hi)
        active = np.nonzero(~hit_flags)[0]
        if not len(active):
            break
        # cell size: one bit above the largest radius (+error) in the chunk
        t_hi0 = _threshold_pair(start, config.delta, bits)[1]
        shift = max(int(t_hi0 + err + 4).bit_length() + 1, 33)
        span = np.uint64(1 << (64 - shift))
        ls = np.arange(start, stop + 1, dtype=np.uint64)
        centers = [np.uint64(0) - np.uint64(tu) * ls for tu in theta_u]
        keys = centers[0] >> np.uint64(shift)
        if dim == 2:
            keys = keys * span + (centers[1] >> np.uint64(shift))
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        # all 3^dim neighbor-cell keys for every still-active sample at once
        cells = [(xs[active, c] >> np.uint64(shift)).astype(np.int64)
                 for c in range(dim)]
        probe = (cells[0][:, None] + offsets[None, :, 0]) % np.int64(span)
        if dim == 2:
            probe = probe * np.int64(span) + (
                cells[1][:, None] + offsets[None, :, 1]) % np.int64(span)
        probe = probe.astype(np.uint64)
        a = np.searchsorted(sorted_keys, probe, side="left")
        b = np.searchsorted(sorted_keys, probe, side="right")
        rows, cols = np.nonzero(b > a)
        for r, c in zip(rows, cols):
            i = int(active[r])
            if hit_flags[i]:
                continue
            for j in order[a[r, c]:b[r, c]]:
                l = int(ls[j])
                d = 0
                for cc in range(dim):
                    v = (int(xs[i, cc]) - int(centers[cc][j])) % (1 << bits)
                    d = max(d, min(v, (1 << bits) - v))
                verdict = _classify_units(d, l, config, err, x0_fracs[i])
                if verdict is True:
                    hit_flags[i] = True
                    break
                if verdict is None:
                    amb_flags[i] = True
    return [bool(v) for v in hit_flags], [bool(v) for v in amb_flags]


# ---------------------------------------------------------------------------
# serialization


def write_census_csv(census: CensusSummary, path) -> None:
    """One row per sample: sample_id, hit_count, stat_lo, stat_hi,
    inconclusive_count (stable column contract)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "hit_count", "stat_lo", "stat_hi",
                    "inconclusive_count"])
        for rec, count in zip(census.records, census.counts):
            w.writerow([rec.sample_id, count, _dec(rec.stat_lo),
                        _dec(rec.stat_hi), rec.inconclusive])


def write_summary_json(census: CensusSummary, path) -> None:
    cfg = census.config
    payload = {
        "tool": "shrinktarget",
        "version": __version__,
        "config": {
            "theta": [str(c) for c in cfg.theta.coords],
            "theta_radius": str(cfg.theta.radius),
            "delta": str(cfg.delta),
            "n_max": cfg.n_max,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "precision_bits": cfg.precision_bits,
            "generator": "PCG64",
        },
        "n_lo": census.n_lo,
        "aggregates": {
            "mean": str(census.mean),
            "mean_decimal": _dec(census.mean, 6),
            "median": str(census.median),
            "q1": str(census.quartiles[0]),
            "q3": str(census.quartiles[1]),
            "inconclusive_total": census.inconclusive_total,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
