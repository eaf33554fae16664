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
  A sweep first adds only the top 32 bits of the two terms, in uint32: its
  d32 (read as int32) loses less than two units of 2^32 to the truncations,
  so |d32*2^32 - d64| < 2^33.  d32 > ceil(miss/2^32) + 1 is then a certain
  miss, the steps with d32 <= (block minimum of d32) + 4 hold every step
  within 2E of the block minimum of d64 (2E < 2^32), and only the steps so
  selected get their d64.
- Level ladder.  For delta = p/q a block walks levels t of top units, from
  t_hi(a) at 64 bits for its first step a, then low = t - t*q // (64p) - 1,
  in one integer loop that stops at the level holding the block's last
  step: the radius of steps a..b = _last_step(delta, low) (an iroot of
  order q, none when q = 1) lies in [low, t].  With e = ceil(err/2^s),
  d64 <= low - E - e is a certain hit and d64 > t + E + e a certain miss on
  [a, b], for every sample.
- Exact re-check.  Every other step gets its exact B-bit distance d: it is a
  hit when (d + err)^p n^q <= 2^(Bp), a miss when (d - err)^p n^q > 2^(Bp),
  else decided in exact arithmetic, as a filtered step would be; so hits
  and inconclusive counts are those of a B-bit step-by-step walk.  Steps
  with d64 <= (block minimum) + 2E hold the exact minimum distance.

Window estimates classify samples x times densely, with early exit, while
the target radius is >= 1/16.  Beyond that, step b + k of a time block
sits at top(x) + base + k*top(theta), so it can be a candidate only when
the ramp value k*top(theta) is within the miss limit of p = -(top(x) +
base) on every coordinate.  The ramp, k < m <= L, is bucketed once in
cells of 2^shift top units (wider than the largest target plus E and e) on
at most two coordinates, as a _Ramp of 16-bit indices at the positions
key << 16 (see _Grid), and bucketed again only when a later run allows
narrower cells; m is chosen so that a block yields about 2^20 candidate
pairs.  A run of blocks b0, b0 + m, ... (at most 2^16 probes, one block at
least, and about 2^20 candidate pairs) probes the 3^keyed cells around
every unhit sample's p in each of its blocks in one query of one-key
ranges.  Its cells are those of its first block, whose targets are the
widest.  Only the candidates get their d64, and their limits from
one lookup in the run's level ladder, whose E is that of one block (each
block is rebased); the run is settled at once.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._scan import _d64, _Ramp
from .errors import DomainError, PrecisionError, ResourceError
from .exact import CertifiedVector, as_vector, dist_nearest_int, rational
from .roots import _MAX_ROOT_ORDER, _log2_units, iroot, log2_enclosure, sqrt_upper

_MAX_SAMPLES = 10 ** 6  # starts per census or window: bounds their memory
_BLOCK = 1 << 16  # longest time block: bounds E and the arrays of one sample
_INDEX_BITS = (_BLOCK - 1).bit_length()  # a step index, packed below a grid key
_BATCH = 1 << 20  # about the (sample, time) pairs of one window block or run
_PAIRS = 1 << 14  # about the selected (sample, time) pairs of one sweep decision
_NO_MISS = 1 << 63  # limits for auto-hit times: d64 <= 2^63 < 2^63 + 1
_ALL_HIT = (1 << 63) + 1
_NO_MISS32 = 1 << 31  # the same for d32 <= 2^31
_LEFT_OUT = (1 << 64) - 1  # the d64 of a pair left out of a minimum: above any d64 + 2E


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
      census or window estimate (their starts and per-sample records);
    - delta = p/q with p, q <= _MAX_ROOT_ORDER = 256, which bounds the cost
      of the target radii: integer roots of order p and q of 64p-bit numbers.

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
        if max(self.delta.numerator, self.delta.denominator) > _MAX_ROOT_ORDER:
            raise ResourceError(
                f"delta = {self.delta} has a numerator or denominator above "
                f"{_MAX_ROOT_ORDER}; use a delta with smaller terms")
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


def _x0(x0, dim: int) -> list[Fraction]:
    """The start x0 (default 0) as exact coordinates in [0, 1); DomainError
    unless it has theta's dimension."""
    if x0 is None:
        return [Fraction(0)] * dim
    coords = [rational(c) % 1 for c in x0]
    if len(coords) != dim:
        raise DomainError(f"x0 has dimension {len(coords)}, theta has {dim}")
    return coords


def _error_units(n: int, theta_radius: Fraction, bits: int) -> int:
    """Certified bound, in fixed-point units, on |fixed-point - true|
    after n steps (including the start-point rounding)."""
    return -(-(Fraction(1, 2) + n * (Fraction(1, 2) + theta_radius * (1 << bits))) // 1)


def _threshold_pair(n: int, delta: Fraction, bits: int) -> tuple[int, int]:
    """Integers t_lo <= n^(-1/delta)*2^bits <= t_hi with t_hi - t_lo <= 1."""
    p, q = delta.numerator, delta.denominator
    t = iroot((1 << (bits * p)) // n ** q, p)
    if t ** p * n ** q == 1 << (bits * p):
        return t, t
    return t, t + 1


def _last_step(delta: Fraction, t: int) -> int:
    """The last step n >= 0 whose target radius n^(-1/delta) is at least
    t >= 1 top units: t^p n^q <= 2^(64p) for delta = p/q (no root when
    q = 1)."""
    p, q = delta.numerator, delta.denominator
    n = (1 << (64 * p)) // t ** p
    return n if q == 1 else iroot(n, q)


def _auto_hit_bound(delta: Fraction) -> int:
    """Largest n with target radius n^(-1/delta) >= 1/2 (everything hits)."""
    return _last_step(delta, 1 << 63)


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


def _miss32(miss: np.ndarray) -> np.ndarray:
    """uint32 miss limits for d32, whose d32 * 2^32 is within 2^33 of d64
    (see the module doc): d32 > miss32 only where d64 > miss, and no d32 is
    above _NO_MISS32."""
    return np.minimum(((miss + 0xFFFF_FFFF) >> 32) + 1, _NO_MISS32).astype(np.uint32)


def _limits(ladder, ks):
    """(hit, miss) at the steps ks of a ladder (steps, hit, miss) of
    _Engine.levels.  A ladder of at most _BLOCK steps is read from a
    per-step level array, one gather for the batch; a longer one (a bucketed
    window run, whose steps can far outnumber its candidates) is searched
    at its level ends."""
    steps, hit, miss = ladder
    if steps.sum() <= _BLOCK:
        level = np.arange(len(steps), dtype=np.min_scalar_type(len(steps)))
        level = np.repeat(level, steps)[ks]
    else:
        level = np.searchsorted(np.cumsum(steps), ks, side="right")
    return hit[level], miss[level]


class _Engine:
    """The top-unit frame of one configuration (see the module doc): what
    every sample shares, and the exact full-precision rule for survivors."""

    def __init__(self, config: OrbitConfig, n_hi: int, steps: int):
        """n_hi: the last time of the run; steps: its longest time block."""
        self.config = config
        self.bits = config.precision_bits
        self.s = self.bits - 64
        self.theta_u = _units(config.theta.coords, self.bits)
        self.err = _error_units(n_hi, config.theta.radius, self.bits)
        self.e = self.top(self.err, ceil=True)
        self.auto = _auto_hit_bound(config.delta)
        self.p, self.q = config.delta.numerator, config.delta.denominator
        self.theta_top = [np.uint64(self.top(t)) for t in self.theta_u]
        self.steps = min(steps, _BLOCK)

    @cached_property
    def k_theta(self) -> list[np.ndarray]:
        """The step ramp k*top(theta) mod 2^64, k < steps, per coordinate."""
        k = np.arange(self.steps, dtype=np.uint64)
        return [k * t for t in self.theta_top]

    def ramp32(self) -> list[np.ndarray]:
        """The top 32 bits of the step ramp, as uint32 (made without keeping
        the uint64 ramp)."""
        k = np.arange(self.steps, dtype=np.uint64)
        return [(k * t >> 32).astype(np.uint32) for t in self.theta_top]

    def top(self, v: int, ceil: bool = False) -> int:
        if self.s < 0:
            return v << -self.s
        return -((-v) >> self.s) if ceil else v >> self.s

    def slack(self, length: int) -> int:
        """E: bound on |d_B / 2^s - d64| within a block of `length` steps."""
        return length + 1 if self.s > 0 else 0

    def tops(self, points, n: int) -> np.ndarray:
        """(len(points), dim) uint64 top units of the positions at time n
        (points in [0, 2^bits), as every start is)."""
        if n:
            mask = (1 << self.bits) - 1
            points = [[(x + n * t) & mask for x, t in zip(pt, self.theta_u)]
                      for pt in points]
        if self.s <= 0:
            return np.array(points, dtype=np.uint64) << np.uint64(-self.s)
        return np.array([[x >> self.s for x in pt] for pt in points], dtype=np.uint64)

    def distances(self, tops: np.ndarray, base: np.ndarray, length: int) -> np.ndarray:
        """d64[r, k] of the rows starting at tops + base, for k < length."""
        return _d64((tops[:, c] + base[c])[:, None] + kt[:length]
                    for c, kt in enumerate(self.k_theta))

    def levels(self, b0: int, length: int, slack: int):
        """The ladder of the steps b0 .. b0+length-1, as (steps, hit, miss):
        level i covers steps[i] consecutive steps (none when the radius skips
        it), on which d64 < hit[i] is a certain hit and d64 > miss[i] a
        certain miss for every sample whose d64 is within `slack` of its
        d_B / 2^s; level 0 holds the auto-hit steps."""
        end = b0 + length - 1
        a = min(max(b0, self.auto + 1), end + 1)
        xs = []  # t of the first level, then low of every level
        if a <= end:
            t = _threshold_pair(a, self.config.delta, 64)[1]
            last = _threshold_pair(end, self.config.delta, 64)[0]
            q, den = self.q, 64 * self.p
            xs.append(t)
            while True:  # the level holding `end` is the first with low <= last
                t -= t * q // den + 1
                xs.append(t)
                if t <= last:
                    break
        ends = [_last_step(self.config.delta, t) for t in xs[1:-1]]  # each before `end`
        steps = np.diff([0, a - b0] + [b - b0 + 1 for b in ends] + [length] * bool(xs))
        # min(max(low - pad + 1, 0), _ALL_HIT) and min(t + pad, _NO_MISS), with
        # pad clipped so that no uint64 wraps (low < t <= 2^63)
        x = np.array(xs, dtype=np.uint64)
        pad = slack + self.e
        cut, add = min(pad, _ALL_HIT), min(pad, _NO_MISS)
        hit = np.empty(len(steps), dtype=np.uint64)
        miss = np.empty_like(hit)
        hit[0], miss[0] = _ALL_HIT, _NO_MISS
        np.subtract(np.maximum(x[1:] + 1, cut), cut, out=hit[1:])
        np.add(np.minimum(x[:-1], _NO_MISS - add), add, out=miss[1:])
        return steps, hit, miss

    def dist(self, pt, n: int) -> int:
        """Exact B-bit fixed-point distance to 0 of pt + n*theta."""
        one = 1 << self.bits
        return max(min((x + n * t) % one, -(x + n * t) % one)
                   for x, t in zip(pt, self.theta_u))

    def classify(self, pt, n: int, x0_frac=None) -> bool | None:
        """The full-precision rule at time n; None = genuine straddle.

        x0_frac is the true rational start, by default the grid point
        pt/2^bits (exact for starts drawn on the grid)."""
        d, err, p, q = self.dist(pt, n), self.err, self.p, self.q
        if (d + err) ** p * n ** q <= 1 << (self.bits * p):
            return True
        if d > err and (d - err) ** p * n ** q > 1 << (self.bits * p):
            return False
        if x0_frac is None:
            x0_frac = [Fraction(u, 1 << self.bits) for u in pt]
        return _exact_classify(x0_frac, self.config.theta, n, self.config.delta)

    def minimum(self, starts, b0: int, rows, ks, d, counts, slack: int, best) -> None:
        """Lower best[i] to the exact B-bit distances at the times b0 + k of
        the pairs (i, k) in (rows, ks), which come grouped by sample with
        counts pairs each and their d64 in d (_LEFT_OUT for a pair to leave
        out); each sample's pairs hold every step within 2E of its block
        minimum."""
        at = np.cumsum(counts) - counts
        m = np.minimum.reduceat(d, at)
        if self.s <= 0:
            for i, v in zip(rows[at].tolist(), m.tolist()):
                best[i] = min(best[i], v >> -self.s)
            return
        m = np.repeat(m, counts)
        near = d <= m + 2 * slack
        for i, k, v in zip(rows[near].tolist(), ks[near].tolist(), m[near].tolist()):
            if (v - slack) << self.s <= best[i]:
                best[i] = min(best[i], self.dist(starts[i], b0 + k))

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
    inside, so each block's limits and buffers are made once.  A sample's
    steps are selected on d32 (see the module doc), and the selected
    (sample, step) pairs of a block are decided together on their d64."""
    n_max = config.n_max
    eng = _Engine(config, n_max, n_max)
    x0_fracs = x0_fracs or [None] * len(starts)
    tops = eng.tops(starts, 0)
    ramp32 = eng.ramp32()
    hits = [[] for _ in starts]
    inconclusive = [0] * len(starts)
    dmin = [1 << config.precision_bits] * len(starts)  # above any distance
    for b0 in range(1, n_max + 1, _BLOCK):
        length = min(_BLOCK, n_max - b0 + 1)
        slack = eng.slack(length)
        steps, _, miss = ladder = eng.levels(b0, length, slack)
        miss32 = _miss32(miss)
        miss_lim = np.repeat(miss32, steps)
        # miss32 never rises, so the steps with miss32 < c start at
        # first[bisect_right(fall, -c)]
        fall = (-miss32.astype(np.int64)).tolist()
        first = [0] + np.cumsum(steps).tolist()
        offs = tops + eng.tops([[0] * config.dim], b0)[0]  # wraps mod 2^64
        offs32 = (offs >> 32).astype(np.uint32)
        ramp = [r[:length] for r in ramp32]
        pos = [np.empty(length, dtype=np.uint32) for _ in ramp]
        near = np.empty(length, dtype=bool)
        lo2 = max(2 - b0, 0)

        def decide(i0, found):
            """Hits, inconclusive counts and minima of the samples i0, i0 + 1,
            ... from the steps found[r] selected for sample i0 + r."""
            i1 = i0 + len(found)
            counts = [len(ks) for ks in found]
            rows, ks = np.repeat(np.arange(i0, i1), counts), np.concatenate(found)
            k64 = ks.astype(np.uint64)
            d = _d64([np.repeat(offs[i0:i1, c], counts) + k64 * t
                      for c, t in enumerate(eng.theta_top)])
            hit_at, miss_at = _limits(ladder, ks)
            sure = d < hit_at  # hit <= miss + 1: no sure hit is past the miss limit
            sure_n = (ks[sure] + b0).tolist()
            cut = np.searchsorted(rows[sure], np.arange(i0, i1 + 1)).tolist()
            for r in range(len(found)):
                hits[i0 + r] += sure_n[cut[r]:cut[r + 1]]
            check = (d <= miss_at) & ~sure
            for i, k in zip(rows[check].tolist(), ks[check].tolist()):
                verdict = eng.classify(starts[i], b0 + k, x0_fracs[i])
                if verdict is True:
                    hits[i].append(b0 + k)
                inconclusive[i] += verdict is None
            if lo2 < length:  # step n = 1 has no say in the minimum
                eng.minimum(starts, b0, rows, ks, np.where(ks < lo2, _LEFT_OUT, d),
                            counts, slack, dmin)

        found, pairs = [], 0
        for i in range(len(starts)):
            for c, r in enumerate(ramp):
                np.add(r, offs32[i, c], out=pos[c])
            d = _d64(pos)
            # one pass selects the steps up to miss32 and those that can hold
            # the minimum: d32 <= min32 + 4, as 2E < 2^32
            j = length
            if lo2 < length:
                reach = int(d[lo2:].min()) + 4
                j = max(first[bisect_right(fall, -reach)], lo2)
                np.less_equal(d[j:], reach, out=near[j:])
            np.less_equal(d[:j], miss_lim[:j], out=near[:j])
            found.append(np.flatnonzero(near))
            pairs += len(found[-1])
            if pairs >= _PAIRS or i == len(starts) - 1:
                decide(i + 1 - len(found), found)
                found, pairs = [], 0
    return [_SweepResult(sorted(h), c, *((m - eng.err, m + eng.err)
                                         if n_max >= 2 else (None, None)))
            for h, c, m in zip(hits, inconclusive, dmin)]


def _stat_enclosure(res: _SweepResult, log_n, bits: int):
    """Outward enclosure of (-log2 min dist)/(log2 N), with log_n the
    enclosure of log2 N as integers over 2^32 (both ends > 0); (None, None)
    when the distance interval touches 0 or no n >= 2 exists.  The distance
    logs are 32-bit log2_enclosure ends over 2^32 too."""
    if res.min_lo is None or res.min_lo <= 0:
        return None, None
    lo = max((bits << 32) - _log2_units(res.min_hi, 32, True), 0)
    hi = max((bits << 32) - _log2_units(res.min_lo, 32, False), 0)
    return Fraction(lo, log_n[1]), Fraction(hi, log_n[0])


def _hit_records(config: OrbitConfig, results) -> list[HitRecord]:
    """One HitRecord per _sweep result, sample ids 0, 1, ...; log2 n_max is
    enclosed once (only orbits with some n >= 2 use it)."""
    log_n = None
    if config.n_max >= 2:
        # through log2_enclosure, whose calls the benchmark tracer counts
        log_n = [int(end * (1 << 32)) for end in log2_enclosure(config.n_max)]
    return [HitRecord(i, tuple(res.hits), res.inconclusive,
                      *_stat_enclosure(res, log_n, config.precision_bits))
            for i, res in enumerate(results)]


def orbit_hits(config: OrbitConfig, x0=None) -> HitRecord:
    """Sweep one orbit over n = 1..n_max; certified hits and statistic.

    x0 is an exact rational point of T^d (default 0).  Hits are conclusive
    certified comparisons; ambiguity the exact fallback cannot settle (theta
    radius straddling a threshold) lands in `inconclusive`.
    """
    x = _x0(x0, config.dim)
    (rec,) = _hit_records(config, _sweep(config, [_units(x, config.precision_bits)], [x]))
    return rec


def exact_orbit_hits(config: OrbitConfig, x0=None) -> tuple[int, ...]:
    """Slow oracle: exact rational orbit, exact threshold comparisons.

    Requires an exact theta (radius 0).
    """
    if config.theta.radius != 0:
        raise DomainError("the exact oracle needs an exact theta (radius 0)")
    p, q = config.delta.numerator, config.delta.denominator
    coords = [c % 1 for c in config.theta.coords]
    x = _x0(x0, config.dim)
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
    bits, dim = config.precision_bits, config.dim
    words = (bits + 63) // 64
    raw = rng.integers(0, 2 ** 64, size=(count, dim, words),
                       dtype=np.uint64, endpoint=False)
    # a coordinate is its words read big-endian, mod 2^bits
    raw[..., 0] &= np.uint64((1 << (bits + 64 - 64 * words)) - 1)
    size, flat = 8 * words, raw.astype(">u8").tobytes()
    vals = [int.from_bytes(flat[j:j + size], "big") for j in range(0, len(flat), size)]
    return [vals[j:j + dim] for j in range(0, len(vals), dim)]


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


class _Grid:
    """The step ramp k*top(theta), k < m, of the narrow window search: each
    step keyed by the cells of 2^shift top units its coordinates lie in, as
    a _Ramp at the position key << 16 (keys of at most 48 bits)."""

    def __init__(self, theta_top, shift: int, m: int):
        """theta_top: top(theta) on at most two coordinates.  The positions
        are made in place: each fresh array of the ramp's size costs its
        page faults again."""
        self.width = np.uint64(64 - shift)
        k = np.arange(m, dtype=np.uint64)
        pos = np.zeros(m, dtype=np.uint64)
        for t in theta_top:
            pos <<= self.width
            pos |= k * t >> np.uint64(shift)
        pos <<= np.uint64(_INDEX_BITS)
        self.ramp = _Ramp(pos, _INDEX_BITS)
        self.shift = np.uint64(shift - _INDEX_BITS)  # to cell indices above the index bits
        self.cells = np.uint64(((1 << (64 - shift)) - 1) << _INDEX_BITS)  # wrap at 2^width
        keyed = len(theta_top)
        self.around = np.array([[o // 3 ** c % 3 - 1 for c in range(keyed)]
                                for o in range(3 ** keyed)]).astype(np.uint64)  # -1 wraps
        self.around <<= np.uint64(_INDEX_BITS)

    def near(self, points):
        """The pairs (i, k) whose step k lies in one of the 3^keyed cells
        around point i, on every coordinate: points is an array (..., keyed)
        of top units and i a flat index of its points.  One range query
        finds them: a pair within a cell's width of a point on every
        coordinate is among them.  Each probe is the one-key range of the
        ramp at its cell's key << 16."""
        cell = points >> self.shift
        probe = np.zeros(cell.shape[:-1] + (len(self.around),), dtype=np.uint64)
        for c in range(cell.shape[-1]):
            probe <<= self.width
            probe |= (cell[..., c, None] + self.around[:, c]) & self.cells
        r, ks = self.ramp.gather(*self.ramp.ranges(probe.ravel(), 0))
        return r.astype(np.intp) // len(self.around), ks


def _window(config: OrbitConfig, starts, l_lo: int, l_hi: int):
    """Per-start (hit, inconclusive) flags for the times l_lo..l_hi: a hit is
    a conclusive hit at some l, inconclusive means no hit and a straddle."""
    eng = _Engine(config, l_hi, l_hi - l_lo + 1)
    hit, amb = np.zeros((2, len(starts)), dtype=bool)
    tops = eng.tops(starts, 0)
    origin = [[0] * config.dim]
    l0 = _last_step(config.delta, 1 << 60) + 1  # first l with target radius < 1/16
    b0 = l_lo
    # wide targets: hits are dense, so classify samples x times directly.
    # The bucketed stage gives the same flags here but is slower (best of 15,
    # 2-core VM): 4.1-7.8 ms, not 0.7-1.5, per seed-1 early benchmark window;
    # 59-68 ms, not 1.5-2.6, for [3, 1000] at d = 1, delta = 3/2, 2,000 samples
    while b0 <= min(l0 - 1, l_hi) and not hit.all():
        active = np.flatnonzero(~hit)
        length = min(l0 - b0, l_hi - b0 + 1, _BLOCK,
                     max(1, _BATCH // len(active)))
        hit_lim, miss_lim = _limits(eng.levels(b0, length, eng.slack(length)),
                                    np.arange(length))
        d = eng.distances(tops[active], eng.tops(origin, b0)[0], length)
        r, k = np.nonzero(d <= miss_lim)
        eng.settle(starts, hit, amb, active[r], b0, k, d[r, k] < hit_lim[k])
        b0 += length
    # narrow targets: step b + k of a block sits at x + base + k*theta, so it
    # is near 0 only when k*theta is near p = -(x + base).  Bucket the ramp
    # k*theta, k < m, in cells wider than any target from b0 on plus every
    # error; re-bucket only when the cells can narrow.  A run of blocks b0,
    # b0 + m, ... probes the cells around the p of every unhit sample in
    # each of its blocks at once, and is settled as one batch.
    keyed = min(config.dim, 2)
    min_shift = 64 - (64 - _INDEX_BITS) // keyed  # keys of at most 48 bits
    shift = 64  # no grid yet
    while b0 <= l_hi and not hit.all():
        active = np.flatnonzero(~hit)
        reach = _threshold_pair(b0, config.delta, 64)[1] + eng.e + eng.slack(_BLOCK)
        fit = max(reach.bit_length(), min_shift)
        probes = 3 ** keyed * len(active)  # per block
        if fit < shift:
            shift, cells = fit, 1 << ((64 - fit) * keyed)
            # about _BATCH candidate pairs per block: each probe covers one
            # of the cells
            m = min(l_hi - b0 + 1, _BLOCK, _BATCH * cells // probes)
            grid = _Grid(eng.theta_top[:keyed], shift, m)
        # the run's cells fit its first block, whose targets are the widest.
        # It makes at most _BLOCK probes (but one block at least) and about
        # _BATCH candidate pairs.  Its steps b0 + kr, kr < total, are rebased
        # every m steps, so E = slack(m) holds for all of them, and the run's
        # ladder gives their limits
        blocks = min(-(-(l_hi - b0 + 1) // m),
                     max(1, min(_BLOCK // probes, _BATCH * cells // (m * probes))))
        total = min(blocks * m, l_hi - b0 + 1)
        bases = np.array([eng.tops(origin, b0 + j * m)[0] for j in range(blocks)])
        point, ks = grid.near(np.uint64(0) - tops[active, :keyed] - bases[:, None, :keyed])
        blk, rows = np.divmod(point, len(active))
        kr = blk * m + ks
        keep = kr < total
        blk, rows, ks, kr = blk[keep], active[rows[keep]], ks[keep], kr[keep]
        k64 = ks.astype(np.uint64)
        d = _d64(tops[rows, c] + bases[blk, c] + k64 * t for c, t in enumerate(eng.theta_top))
        hit_lim, miss_lim = _limits(eng.levels(b0, total, eng.slack(m)), kr)
        keep = d <= miss_lim
        eng.settle(starts, hit, amb, rows[keep], b0, kr[keep], d[keep] < hit_lim[keep])
        b0 += total
    return hit, amb & ~hit
