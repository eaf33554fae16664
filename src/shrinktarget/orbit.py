"""Certified simulation of torus translations against shrinking targets.

The orbit x, x + theta, x + 2 theta, ... on T^d is iterated in fixed point
with B = precision_bits fractional bits and one tracked error term: after n
steps the position is within err = 1/2 + n*(1/2 + radius*2^B) units of the
true one.  Time n is a *hit* when the certified distance d_B to 0 is
conclusively <= n^(-1/delta); what that band cannot decide is re-run in
exact rational arithmetic, and only a genuine straddle of the threshold
(theta carrying a radius) is tallied as inconclusive.

One numpy engine serves every B, filtering in *top units* (2^-64 of the
torus; top(v) = floor(v/2^s) with s = B - 64, an exact left shift when
B < 64).  No float sits on a decision path:

- Rebased top limb.  A time block of L <= 2^16 steps from b0 puts step k at
  top(x) + top(b0*theta mod 2^B) + k*top(theta) mod 2^64, within E = L + 1
  top units of the true position (E = 0 when s <= 0), however large b0 is.
  d64 is the largest coordinate |pos| read as int64 (pos = 2^63 gives 2^63).
- Integer brackets.  A block splits into sub-blocks [a, b], b - a = a // 64.
  The threshold falls with n, so with (t_lo, t_hi) from _threshold_pair and
  e = ceil(err/2^s), d64 <= top(t_lo(b + 1)) - E - e is a certain hit and
  d64 > ceil(t_hi(a)/2^s) + E + e a certain miss on all of [a, b].  The
  limits are computed once per block and shared by every sample.
- Exact re-check.  Every other step gets its exact B-bit distance from
  Python integers and the full-precision rule (_threshold_pair, then exact
  arithmetic), which would decide a filtered step the same way; so hits
  and inconclusive counts are those of a B-bit step-by-step walk.  The
  steps with d64 <= (block minimum) + 2E hold the exact minimum distance.

Window estimates classify samples x times densely, with early exit, while
the target radius is >= 1/16.  Beyond that they bucket the centres -l*theta
of a batch of L <= 2^20 steps in cells of 2^shift top units (wider than the
largest target plus E) on at most two coordinates; each sample probes its
neighbouring cells and the candidate pairs are classified as above.  Only
centres in a coarse coordinate-0 cell (coarse >= shift) next to a sample's
are bucketed, marked in a bool table of min(2^(64 - shift), 192-384 per
sample, 2^22) cells; a coarse cell is a union of fine cells, so a pair
within one fine cell on coordinate 0 is within one coarse cell: no pair is
lost.  One np.sort orders packed words key << 20 | index (at most 44 key
bits; the index fits in 20 because L <= 2^20).

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DomainError, PrecisionError, ResourceError
from .exact import CertifiedVector, _dec, as_vector, dist_nearest_int, rational
from .roots import _iroot_from, iroot, log2_enclosure, sqrt_upper

_MAX_SAMPLES = 10 ** 6  # starts per census or window: bounds their memory
_BLOCK = 1 << 16  # longest time block: bounds E and the arrays of one sample
_BATCH = 1 << 20  # (sample, time) pairs per vectorised window batch
_SUB = 64  # a sub-block [a, b] of a time block has b - a = a // _SUB
_NO_MISS = 1 << 63  # limits for auto-hit times: d64 <= 2^63 < 2^63 + 1
_ALL_HIT = (1 << 63) + 1


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class OrbitConfig:
    """Parameters of one simulation family.

    Every resource refusal of the orbit layer happens here, at construction,
    before any work, and is the same for every precision and dimension
    (ResourceError):

    - the error budget, checked exactly: the accumulated per-step error
      n_max*(2^-precision_bits + theta.radius) must stay below 10^-3 of the
      smallest target radius n_max^(-1/delta) -- raise precision_bits or
      shrink n_max;
    - at most _MAX_SAMPLES = 10^6 samples, which bounds the memory of a
      census or window estimate (their starts and per-sample records).

    Orbit length is bounded by the error budget alone.
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
        if self.samples > _MAX_SAMPLES:
            raise ResourceError(
                f"{self.samples} samples exceed the bound of {_MAX_SAMPLES}; "
                f"lower samples")
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


def _units(coords, bits: int) -> list[int]:
    """Per-coordinate fixed-point representation round(frac(c)*2^bits),
    i.e. floor(c*2^bits + 1/2) mod 2^bits."""
    return [(c.numerator * 2 ** (bits + 1) + c.denominator)
            // (2 * c.denominator) % (1 << bits) for c in coords]


def _x0_units(x0, dim: int, bits: int) -> list[int]:
    if x0 is None:
        return [0] * dim
    coords = [rational(c) for c in x0]
    if len(coords) != dim:
        raise DomainError(f"x0 has dimension {len(coords)}, theta has {dim}")
    return _units(coords, bits)


def _error_units(n: int, theta_radius: Fraction, bits: int) -> int:
    """Certified bound, in fixed-point units, on |fixed-point - true|
    after n steps (including the start-point rounding)."""
    return _ceil_frac(Fraction(1, 2) + n * (Fraction(1, 2) + theta_radius * (1 << bits)))


def _threshold_pair(n: int, delta: Fraction, bits: int,
                    above: int = 0) -> tuple[int, int]:
    """Integers t_lo <= n^(-1/delta)*2^bits <= t_hi with t_hi - t_lo <= 1;
    `above`, when not 0, is t_lo of an earlier time: a start for the root."""
    p, q = delta.numerator, delta.denominator
    w = (1 << (bits * p)) // n ** q
    t = _iroot_from(w, p, above) if above and w and p > 2 else iroot(w, p)
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


class _SweepResult(NamedTuple):
    hits: list[int]
    inconclusive: int
    min_lo: int | None  # certified bounds on min_{n>=2} distance, in
    min_hi: int | None  # fixed-point units; None if no n >= 2


def _d64(positions) -> np.ndarray:
    """Largest |pos| over the coordinates' uint64 positions, each read as
    int64: |-2^63| wraps back to 2^63.  Overwrites the positions."""
    d = None
    for pos in positions:
        signed = pos.view(np.int64)
        np.abs(signed, out=signed)
        d = pos if d is None else np.maximum(d, pos, out=d)
    return d


class _Engine:
    """The top-unit frame of one configuration (see the module doc): what
    every sample shares, and the exact full-precision rule for survivors."""

    def __init__(self, config: OrbitConfig, n_hi: int):
        self.config = config
        self.bits = config.precision_bits
        self.s = self.bits - 64
        self.theta_u = _units(config.theta.coords, self.bits)
        self.err = _error_units(n_hi, config.theta.radius, self.bits)
        self.e = self.top(self.err, ceil=True)
        self.auto = _auto_hit_bound(config.delta)
        k = np.arange(_BLOCK, dtype=np.uint64)
        self.k_theta = [k * np.uint64(self.top(t)) for t in self.theta_u]

    def top(self, v: int, ceil: bool = False) -> int:
        if self.s < 0:
            return v << -self.s
        return -((-v) >> self.s) if ceil else v >> self.s

    def slack(self, length: int) -> int:
        """E: bound on |d_B / 2^s - d64| within a block of `length` steps."""
        return length + 1 if self.s > 0 else 0

    def tops(self, points, n: int) -> np.ndarray:
        """(len(points), dim) uint64 top units of the positions at time n."""
        mask = (1 << self.bits) - 1
        return np.array([[self.top((x + n * t) & mask)
                          for x, t in zip(pt, self.theta_u)] for pt in points],
                        dtype=np.uint64)

    def distances(self, tops: np.ndarray, base: np.ndarray, length: int) -> np.ndarray:
        """d64[r, k] of the rows starting at tops + base, for k < length."""
        return _d64((tops[:, c] + base[c])[:, None] + kt[:length]
                    for c, kt in enumerate(self.k_theta))

    def bounds(self, b0: int, length: int, slack: int):
        """Shared limits for the steps b0 .. b0+length-1: d64 < hit[k] is a
        certain hit and d64 > miss[k] a certain miss for every sample whose
        d64 is within `slack` of its d_B / 2^s."""
        hit, miss = np.empty((2, length), dtype=np.uint64)
        a, end = b0, b0 + length - 1
        if a <= self.auto:
            k = min(self.auto, end) - b0 + 1
            hit[:k], miss[:k] = _ALL_HIT, _NO_MISS
            a += k
        delta, bits = self.config.delta, self.bits
        pair = _threshold_pair(a, delta, bits)
        while a <= end:
            # t_lo(b + 1) bounds [a, b] from below; t_hi(b + 1) serves next
            b = min(a + a // _SUB, end)
            after = _threshold_pair(b + 1, delta, bits, pair[0])
            hit[a - b0:b - b0 + 1] = min(max(
                self.top(after[0]) - slack - self.e + 1, 0), _ALL_HIT)
            miss[a - b0:b - b0 + 1] = min(
                self.top(pair[1], ceil=True) + slack + self.e, _NO_MISS)
            a, pair = b + 1, after
        return hit, miss

    def dist(self, pt, n: int) -> int:
        """Exact B-bit fixed-point distance to 0 of pt + n*theta."""
        one = 1 << self.bits
        return max(min((x + n * t) % one, -(x + n * t) % one)
                   for x, t in zip(pt, self.theta_u))

    def classify(self, pt, n: int, x0_frac=None) -> bool | None:
        """The full-precision rule at time n; None = genuine straddle.

        x0_frac is the true rational start, by default the grid point
        pt/2^bits (exact for starts drawn on the grid)."""
        d = self.dist(pt, n)
        t_lo, t_hi = _threshold_pair(n, self.config.delta, self.bits)
        if d + self.err <= t_lo:
            return True
        if d - self.err > t_hi:
            return False
        if x0_frac is None:
            x0_frac = [Fraction(u, 1 << self.bits) for u in pt]
        return _exact_classify(x0_frac, self.config.theta, n, self.config.delta)

    def minimum(self, pt, n0: int, d: np.ndarray, slack: int, best: int) -> int:
        """min(best, exact B-bit distance at times n0 + k, k < len(d))."""
        m = int(d.min())
        if self.s <= 0:
            return min(best, m >> -self.s)
        if (m - slack) << self.s > best:
            return best
        return min([best] + [self.dist(pt, n0 + k) for k in
                             np.flatnonzero(d <= m + 2 * slack).tolist()])

    def settle(self, starts, hit, amb, rows, b0: int, ks, sure) -> None:
        """Window verdicts for the pairs (rows[m], b0 + ks[m]) that are not
        certain misses; sure[m] marks the certain hits."""
        hit[rows[sure]] = True
        for i, k in zip(rows[~sure].tolist(), ks[~sure].tolist()):
            if not hit[i]:
                verdict = self.classify(starts[i], b0 + k)
                hit[i] = verdict is True
                amb[i] |= verdict is None


def _sweep(config: OrbitConfig, starts, x0_fracs=None) -> list[_SweepResult]:
    """Hits, inconclusive counts and minimum distances over n = 1..n_max for
    every start (B-bit fixed-point units); time blocks outside, samples
    inside, so each block's brackets are computed once."""
    n_max = config.n_max
    eng = _Engine(config, n_max)
    x0_fracs = x0_fracs or [None] * len(starts)
    tops = eng.tops(starts, 0)
    hits = [[] for _ in starts]
    inconclusive = [0] * len(starts)
    dmin = [1 << config.precision_bits] * len(starts)  # above any distance
    for b0 in range(1, n_max + 1, _BLOCK):
        length = min(_BLOCK, n_max - b0 + 1)
        slack = eng.slack(length)
        hit_lim, miss_lim = eng.bounds(b0, length, slack)
        base = eng.tops([[0] * config.dim], b0)[0]
        lo2 = max(2 - b0, 0)
        for i, pt in enumerate(starts):
            d = eng.distances(tops[i:i + 1], base, length)[0]
            ks = np.flatnonzero(d <= miss_lim)
            sure = d[ks] < hit_lim[ks]
            hits[i] += [b0 + k for k in ks[sure].tolist()]
            for k in ks[~sure].tolist():
                verdict = eng.classify(pt, b0 + k, x0_fracs[i])
                if verdict is True:
                    hits[i].append(b0 + k)
                inconclusive[i] += verdict is None
            if lo2 < length:
                dmin[i] = eng.minimum(pt, b0 + lo2, d[lo2:], slack, dmin[i])
    return [_SweepResult(sorted(h), c, *((m - eng.err, m + eng.err)
                                         if n_max >= 2 else (None, None)))
            for h, c, m in zip(hits, inconclusive, dmin)]


def _stat_enclosure(res: _SweepResult, log_n, bits: int):
    """Outward enclosure of (-log2 min dist)/(log2 N), with log_n the
    enclosure of log2 N; (None, None) when the distance interval touches 0
    or no n >= 2 exists."""
    if res.min_lo is None or res.min_lo <= 0:
        return None, None
    la1 = log2_enclosure(res.min_lo)[0]
    lb2 = log2_enclosure(res.min_hi)[1]
    hi = (bits - la1) / log_n[0]
    lo = (bits - lb2) / log_n[1]
    return max(lo, Fraction(0)), max(hi, Fraction(0))


def _hit_records(config: OrbitConfig, results) -> list[HitRecord]:
    """One HitRecord per _sweep result, sample ids 0, 1, ...; log2 n_max is
    enclosed once (only orbits with some n >= 2 use it)."""
    log_n = log2_enclosure(config.n_max) if config.n_max >= 2 else None
    return [HitRecord(i, tuple(res.hits), res.inconclusive,
                      *_stat_enclosure(res, log_n, config.precision_bits))
            for i, res in enumerate(results)]


def orbit_hits(config: OrbitConfig, x0=None) -> HitRecord:
    """Sweep one orbit over n = 1..n_max; certified hits and statistic.

    x0 is an exact rational point of T^d (default 0).  Hits are conclusive
    certified comparisons; ambiguity the exact fallback cannot settle (theta
    radius straddling a threshold) lands in `inconclusive`.
    """
    x0u = _x0_units(x0, config.dim, config.precision_bits)
    x0_frac = None if x0 is None else [rational(c) % 1 for c in x0]
    (rec,) = _hit_records(config, _sweep(config, [x0u], [x0_frac]))
    return rec


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
    records = _hit_records(config, _sweep(config, _draw_starts(config, config.samples)))
    counts = [len(r.hits) - bisect_left(r.hits, n_lo) for r in records]
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
    hit, amb = _window(config, _draw_starts(config, config.samples), lo, hi - 1)
    return WindowEstimate((lo, hi), config.samples, int(hit.sum()), int(amb.sum()))


def _window(config: OrbitConfig, starts, l_lo: int, l_hi: int):
    """Per-start (hit, inconclusive) flags for the times l_lo..l_hi: a hit is
    a conclusive hit at some l, inconclusive means no hit and a straddle."""
    eng = _Engine(config, l_hi)
    hit, amb = np.zeros((2, len(starts)), dtype=bool)
    tops = eng.tops(starts, 0)
    origin = [[0] * config.dim]
    p, q = config.delta.numerator, config.delta.denominator
    l0 = iroot(16 ** p, q) + 1  # first l with target radius < 1/16
    b0 = l_lo
    # wide targets: hits are dense, so classify samples x times directly.
    # The bucketed stage below gives the same flags here but is slower: with
    # radii >= 1/16 sent through it, each early-window benchmark job (seed 3,
    # best of 10 in-process, 2-core VM) took 7.4-12.5 ms instead of 4.0-6.1 ms
    while b0 <= min(l0 - 1, l_hi) and not hit.all():
        active = np.flatnonzero(~hit)
        length = min(l0 - b0, l_hi - b0 + 1, _BLOCK,
                     max(1, _BATCH // len(active)))
        hit_lim, miss_lim = eng.bounds(b0, length, eng.slack(length))
        d = eng.distances(tops[active], eng.tops(origin, b0)[0], length)
        r, k = np.nonzero(d <= miss_lim)
        eng.settle(starts, hit, amb, active[r], b0, k, d[r, k] < hit_lim[k])
        b0 += length
    # narrow targets: keep the centres -l*theta whose coordinate 0 lies in a
    # coarse cell next to a sample's, bucket those by the top units of at
    # most two coordinates, probe each sample's neighbouring cells
    keyed = min(config.dim, 2)
    offsets = np.array([[o // 3 ** c % 3 - 1 for c in range(keyed)]
                        for o in range(3 ** keyed)], dtype=np.int64)
    index_bits = (_BATCH - 1).bit_length()  # a batch index, packed below a key
    index_mask = np.uint64((1 << index_bits) - 1)
    while b0 <= l_hi and not hit.all():
        active = np.flatnonzero(~hit)
        # a cell is wider than any target in the block plus every error
        reach = (eng.top(_threshold_pair(b0, config.delta, eng.bits)[1], ceil=True)
                 + eng.e + eng.slack(_BLOCK))
        shift = max(reach.bit_length(), 64 - (64 - index_bits) // keyed)
        span = 1 << (64 - shift)
        # coarse coordinate-0 cells (no finer than the keyed ones) next to a sample
        coarse = 64 - min(64 - shift, (192 * len(active)).bit_length(), 22)
        near = np.zeros(1 << (64 - coarse), dtype=bool)
        cell0 = (tops[active, 0] >> np.uint64(coarse)).astype(np.int64)
        near[(cell0[:, None] + np.arange(-1, 2)) % len(near)] = True
        # a batch of rebased time blocks: long enough to amortise the
        # 3^keyed probes per sample, with at most about _BATCH candidate
        # pairs (each probe covers 2^shift top units per coordinate)
        probes = 3 ** keyed * len(active)
        length = min(l_hi - b0 + 1, _BATCH, max(_BLOCK, 16 * probes),
                     max(1, _BATCH * span ** keyed // probes))
        hit_lim, miss_lim = eng.bounds(b0, length, eng.slack(min(length, _BLOCK)))
        bases = np.concatenate([eng.tops(origin, n)
                                for n in range(b0, b0 + length, _BLOCK)])
        c0 = (np.uint64(0) - (bases[:, 0, None] + eng.k_theta[0])).ravel()[:length]
        surv = np.flatnonzero(near[c0 >> np.uint64(coarse)])
        blk, off = np.divmod(surv, _BLOCK)
        centres = [c0[surv]] + [np.uint64(0) - (bases[blk, c] + kt[off])
                                for c, kt in enumerate(eng.k_theta) if c]
        keys = np.zeros(len(surv), dtype=np.uint64)
        for c in range(keyed):
            keys = keys * np.uint64(span) + (centres[c] >> np.uint64(shift))
        packed = np.sort(keys << np.uint64(index_bits)
                         | np.arange(len(surv), dtype=np.uint64))
        sorted_keys = packed >> np.uint64(index_bits)
        probe = np.zeros((len(active), len(offsets)), dtype=np.int64)
        for c in range(keyed):
            cell = (tops[active, c] >> np.uint64(shift)).astype(np.int64)
            probe = probe * span + (cell[:, None] + offsets[None, :, c]) % span
        probe = probe.astype(np.uint64)
        first = np.searchsorted(sorted_keys, probe, side="left").ravel()
        count = np.searchsorted(sorted_keys, probe, side="right").ravel() - first
        rows = np.repeat(np.repeat(active, len(offsets)), count)
        at = np.repeat(first - (np.cumsum(count) - count), count)
        js = (packed[at + np.arange(len(at))] & index_mask).astype(np.intp)
        ks = surv[js]
        d = _d64(tops[rows, c] - centres[c][js] for c in range(config.dim))
        keep = d <= miss_lim[ks]
        rows, ks, d = rows[keep], ks[keep], d[keep]
        eng.settle(starts, hit, amb, rows, b0, ks, d < hit_lim[ks])
        b0 += length
    return hit, amb & ~hit


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
