"""Probability measures on shift models and local entropy estimators.

Product measures (uniform or Bernoulli coordinates) admit exact
per-coordinate ball-mass brackets: the Bowen ball B_n(x, eps) is squeezed
between two product sets, an inner box that constrains symbol distances to
eps/6 on the coordinates 0..n-1+r (plus -r..-1 on two-sided models) with
r = ceil(log2(4/eps)) + 1, and an outer box that constrains coordinates
0..n-1 to symbol distance < eps.  Monte-Carlo estimation of the same
masses is kept as an independent cross-check.  Its samples are the
symbols ``Generator.choice`` would draw from the same Philox stream, found
by a guide-table inverse CDF in place of a binary search, with temporaries
bounded per chunk of draws.  Entropy rates are extracted from per-step
increments of -log(mass), which cancels the n-independent boundary factor
that would otherwise bias small-n ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bowen import _prefix_runs, centre_exits, greedy_separated, pool_exits
from .errors import ConfigurationError, PoolInsufficientError
from .pressure import DimensionEstimate, _slope, log_eps_fit
from .solvers import greedy_mass_cover, min_weight_cover
from .systems import (ABSOLUTE, Points, Potential, ShiftSystem,
                      birkhoff_sums, check_genuine)

WILSON_Z99 = 2.5758293035489004
SLOPE_Z95 = 1.96
BOOTSTRAP_RESAMPLES = 200
DICTIONARY_SIZE = 16
# Uniforms drawn and inverted per step: each float64 temporary of a chunk
# is then 64 KiB, under glibc's 128 KiB mmap threshold, so the chunks reuse
# heap memory in place of mapping and faulting in fresh pages every step.
SAMPLE_CHUNK = 1 << 13
KATOK_EXACT_CAP = 14  # candidate balls searched exhaustively by katok_rn
KATOK_POOL_SIZE = 512  # sampled support of a product measure's Katok count
PS_POOL_SIZE = 1024  # sampled pool of ps_entropy when none is given

PRODUCT_UNIFORM = "product-uniform"
BERNOULLI = "bernoulli"
EMPIRICAL = "empirical"


@dataclass(frozen=True)
class MeasureModel:
    """A probability measure on a shift model.

    Product kinds draw every retained coordinate independently from the
    symbol distribution ``p``; the empirical kind is a finite weighted
    sample.  All randomness is drawn from Philox streams derived from the
    model seed and a caller-chosen stream index, so reruns reproduce
    samples exactly.
    """

    kind: str
    system: ShiftSystem
    p: tuple[float, ...] = ()
    support: Points | None = None
    support_weights: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:  # a SeedSequence entropy must be non-negative
            raise ConfigurationError(
                f"seed must be non-negative, got {self.seed}")
        if self.kind in (PRODUCT_UNIFORM, BERNOULLI):
            if not all(0.0 <= v < math.inf for v in self.p):
                raise ConfigurationError(
                    "probability vector entries must be finite and "
                    "non-negative")
            total = sum(self.p)
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError("probability vector must sum to 1")
            if len(self.p) != self.system.alphabet_size:
                raise ConfigurationError("probability vector length mismatch")
        elif self.kind == EMPIRICAL:
            if not self.support:
                raise ConfigurationError("empirical measure needs support")
            if len(self.support) != len(self.support_weights):
                raise ConfigurationError("support and weights mismatch")
            if not all(0.0 < w < math.inf for w in self.support_weights):
                raise ConfigurationError(
                    "empirical weights must be positive and finite")
            total = sum(self.support_weights)
            if abs(total - 1.0) > 1e-9:
                raise ConfigurationError("empirical weights must sum to 1")
        else:
            raise ConfigurationError(f"unknown measure kind {self.kind!r}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def product_uniform(system: ShiftSystem, seed: int = 0) -> "MeasureModel":
        k = system.alphabet_size
        return MeasureModel(kind=PRODUCT_UNIFORM, system=system,
                            p=(1.0 / k,) * k, seed=seed)

    @staticmethod
    def bernoulli(system: ShiftSystem, p: Sequence[float],
                  seed: int = 0) -> "MeasureModel":
        return MeasureModel(kind=BERNOULLI, system=system,
                            p=tuple(float(v) for v in p), seed=seed)

    @staticmethod
    def empirical(system: ShiftSystem, points: Points,
                  weights: Sequence[float] | None = None,
                  seed: int = 0) -> "MeasureModel":
        pts = system.as_points(points)
        if weights is None:
            weights = (1.0 / len(pts),) * len(pts)
        return MeasureModel(kind=EMPIRICAL, system=system, support=pts,
                            support_weights=tuple(weights), seed=seed)

    @staticmethod
    def point_mass(system: ShiftSystem, point: Points,
                   seed: int = 0) -> "MeasureModel":
        return MeasureModel.empirical(system, point, [1.0], seed=seed)

    # -- sampling ---------------------------------------------------------

    @property
    def is_product(self) -> bool:
        return self.kind in (PRODUCT_UNIFORM, BERNOULLI)

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed, stream))))

    def sample_matrix(self, count: int, stream: int = 0) -> np.ndarray:
        """``count`` sampled words as a ``(count, word_length)`` matrix in
        the system's ``symbol_dtype``, the distance engine's own.

        Product kinds draw every coordinate from ``p``, the empirical kind
        draws whole support words by weight.  The symbols are those that
        ``rng.choice(k, size, p=p)`` gives on stream ``stream``: the same
        uniforms in the same order, inverted through the same CDF by a
        guide table (``_choice_into``), with temporaries bounded per chunk.
        """
        dtype = self.system.symbol_dtype
        if self.is_product:
            out = np.empty((count, self.system.word_length), dtype=dtype)
            return _choice_into(self.rng(stream), self.p, out)
        draws = self._support_draws(count, stream)
        return self.support.symbols[draws].astype(dtype)

    def _support_draws(self, count: int, stream: int) -> np.ndarray:
        """Indices of ``count`` support rows drawn by weight on ``stream``."""
        return _choice_into(self.rng(stream), self.support_weights,
                            np.empty(count, dtype=np.int64))

    def sample_points(self, count: int, stream: int = 0) -> Points:
        """``sample_matrix`` as a pool: product samples are windows of
        unknown tail, empirical ones are support rows with their depths."""
        if not self.is_product:
            return self.support[self._support_draws(count, stream)]
        o = self.system.origin_index
        right = self.system.word_length - o  # genuine coordinates of a sample
        return Points(self.sample_matrix(count, stream),
                      np.full(count, right), o)

    def to_empirical(self, size: int, stream: int = 0) -> "MeasureModel":
        pts = self.sample_points(size, stream)
        return MeasureModel.empirical(self.system, pts, seed=self.seed)

    # -- exact marginals ---------------------------------------------------

    def coordinate_mass_within(self, a: int, radius: float) -> float:
        """Mass of symbols at distance < radius from symbol a."""
        if not self.is_product:
            raise ConfigurationError("marginals need a product measure")
        sys = self.system
        return float(sum(
            self.p[b] for b in range(sys.alphabet_size)
            if sys.symbol_distance(a, b) < radius
        ))

    def indicator_integral(self, a: int) -> float:
        """Integral of the coordinate-0 indicator of symbol a."""
        if self.is_product:
            return self.p[a]
        at_a = self.support.symbols[:, self.support.origin] == a
        return float(sum(np.asarray(self.support_weights)[at_a].tolist()))

    def empirical_ball_mass(self, x: Points, n: int, eps: float) -> float:
        """The support weight of B_n(x, eps).  An order past the window's
        reliable depth at ``eps`` raises ``WindowExhaustedError``."""
        if self.kind != EMPIRICAL:
            raise ConfigurationError("exact summation needs empirical measure")
        self.system.check_order(n, eps)
        exits = centre_exits(self.system, _centre_row(self.system, x),
                             self.support.symbols, eps, n)
        w = np.asarray(self.support_weights)
        return float(w[exits > n].sum())


def _centre_row(system: ShiftSystem, x: Points) -> np.ndarray:
    """A ball centre's one symbol row, as a (1, word length) matrix."""
    if len(system.as_points(x)) != 1:
        raise ConfigurationError(f"a centre is one point, not {len(x)}")
    return x.symbols


def _choice_into(rng: np.random.Generator, p: Sequence[float],
                 out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``rng.choice(len(p), size=out.shape, p=p)``.

    The uniforms are ``rng.random`` doubles in C order, as ``choice`` reads
    them, and the CDF is built as ``choice`` builds it, so every index is
    the same ``searchsorted(cdf, u, side="right")``.  It is found by the
    guide table of Chen & Asau (1974): with B >= 4k buckets (a power of
    two, so ``floor(u*B)`` is exact for the 53-bit u), bucket b holds the
    answer between ``lo[b] = #{cdf <= b/B}`` and ``hi[b] = #{cdf <
    (b+1)/B}``, and ``max(hi - lo)`` steps of ``g += u >= cdf[g]`` reach it
    from ``lo[b]`` (one step for uniform p).  Rows go in chunks of about
    ``SAMPLE_CHUNK`` values, which read the stream in the same order.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (4 * len(cdf) - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    lo = np.searchsorted(cdf, edges[:-1], side="right").astype(np.int64)
    steps = int((np.searchsorted(cdf, edges[1:], side="left") - lo).max())
    ext = np.append(cdf, np.inf)  # the sentinel stops g at k
    rows = max(1, SAMPLE_CHUNK // max(1, math.prod(out.shape[1:])))
    for start in range(0, len(out), rows):
        u = rng.random(out[start:start + rows].shape)
        g = lo[(u * buckets).astype(np.int64)]
        for _ in range(steps):
            g += u >= ext[g]
        out[start:start + rows] = g
    return out


# -- ball-mass brackets ---------------------------------------------------------


def bracket_reach(eps: float) -> int:
    """The coordinate reach r = ceil(log2(4/eps)) + 1 of the inner box."""
    return int(math.ceil(math.log2(4.0 / eps))) + 1


def _check_bracket_model(measure: MeasureModel, n: int, eps: float) -> None:
    if n < 1:
        raise ConfigurationError("ball order must be >= 1")
    if not measure.is_product:
        raise ConfigurationError("mass brackets need a product measure")
    if measure.system.weight_base != 0.5:
        raise ConfigurationError("mass brackets assume weight base 1/2")
    if eps >= 1.0:
        raise ConfigurationError("mass brackets need eps < 1")


def ball_mass_bracket(measure: MeasureModel, x: Points, n: int,
                      eps: float) -> tuple[float, float]:
    """The closed-form bracket ((eps/6)^{n+2r}, (4 eps)^n) on mu(B_n(x, eps)).

    Valid for product-uniform measures on absolute-difference alphabets
    whose grid resolves eps (2 eps k >= 1), at orders n >= 1.  Requires
    eps < 1/4 so that the inner-box reach derivation applies.
    """
    _check_bracket_model(measure, n, eps)
    _centre_row(measure.system, x)
    if measure.kind != PRODUCT_UNIFORM:
        raise ConfigurationError("the closed-form bracket is for the "
                                 "product-uniform measure")
    if measure.system.symbol_metric != ABSOLUTE:
        raise ConfigurationError("the closed-form bracket needs the "
                                 "absolute-difference symbol metric")
    if eps >= 0.25:
        raise ConfigurationError("closed-form bracket needs eps < 1/4")
    k = measure.system.alphabet_size
    if 2.0 * eps * k < 1.0:
        raise ConfigurationError(
            f"grid too coarse for the bracket: need 2*eps*k >= 1, got "
            f"k={k}, eps={eps}"
        )
    r = bracket_reach(eps)
    return (eps / 6.0) ** (n + 2 * r), (4.0 * eps) ** n


def _inner_coords(system: ShiftSystem, n: int, r: int) -> range:
    if system.sidedness == "one-sided":
        lo, hi = 0, min(n - 1 + r, system.window - 1)
    else:
        lo, hi = -min(r, system.window), min(n - 1 + r, system.window)
    return range(lo, hi + 1)


def exact_cylinder_bracket(measure: MeasureModel, x: Points, n: int,
                           eps: float) -> tuple[float, float]:
    """Exact product-set bracket on mu(B_n(x, eps)), grid-adapted.

    Lower: mass of the inner box (per-coordinate distance < eps/6 on the
    reach-extended coordinate range).  Upper: mass of the outer box
    (distance < eps on coordinates 0..n-1).  Both sides are exact product
    masses, conservative in their respective directions.  Coordinates past
    the stored word read 0.
    """
    _check_bracket_model(measure, n, eps)
    row = _centre_row(measure.system, x)[0].tolist() + [0] * n
    o, r = x.origin, bracket_reach(eps)
    inner = _masses_within(measure, eps / 6.0)
    lower = 1.0
    for i in _inner_coords(measure.system, n, r):
        lower *= inner[row[o + i]]
    outer = _masses_within(measure, eps)
    upper = 1.0
    for j in range(n):
        upper *= outer[row[o + j]]
    return lower, upper


@functools.lru_cache(maxsize=16)
def _masses_within(measure: MeasureModel,
                   radius: float) -> tuple[float, ...]:
    """``coordinate_mass_within(a, radius)`` for every symbol a."""
    return tuple(measure.coordinate_mass_within(a, radius)
                 for a in range(measure.system.alphabet_size))


@dataclass(frozen=True)
class MassEstimate:
    p_hat: float
    ci: tuple[float, float]
    hits: int
    samples: int
    zero_hits: bool

    def refutes(self, lo: float, hi: float) -> bool:
        """True when the CI excludes the whole bracket [lo, hi]."""
        return self.ci[0] > hi or self.ci[1] < lo


def wilson_interval(hits: int, samples: int) -> tuple[float, float]:
    z = WILSON_Z99
    if samples <= 0:
        raise ConfigurationError("need a positive sample count")
    p = hits / samples
    denom = 1.0 + z * z / samples
    center = (p + z * z / (2 * samples)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / samples
                                   + z * z / (4 * samples * samples))
    # at p = 0 (p = 1) the lower (upper) end is exactly 0 (1); rounding in
    # center - half would leave it an ulp off and exclude p itself
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == samples else min(1.0, center + half)
    return lo, hi


def estimate_ball_mass(measure: MeasureModel, x: Points, n: int,
                       eps: float, samples: int = 100_000,
                       stream: int = 1) -> MassEstimate:
    """Empirical frequency of d_n(x, Y) < eps over iid Y ~ mu, Wilson CI.

    The samples depend on the stream and not on n, so one draw serves
    every order: the hit counts at all orders 1..window are computed
    together and memoised per (measure, x, eps, samples, stream).  Each
    block of samples draws its origin column first, then the other
    coordinates of the rows in x's origin cylinder only (``_sampled_hits``);
    the rows outside it lie in no ball under the cylinder rule.  With
    zero hits only the upper end of the interval is informative; the
    estimate is flagged and the lower end set to 0.  An order past the
    window's reliable depth at ``eps`` raises ``WindowExhaustedError``.
    """
    if n < 1:
        raise ConfigurationError("ball order must be >= 1")
    if samples < 1000:
        raise ConfigurationError("need at least 1000 samples")
    if measure.kind == EMPIRICAL:
        mass = measure.empirical_ball_mass(x, n, eps)  # checks the order
        return MassEstimate(p_hat=mass, ci=(mass, mass), hits=-1,
                            samples=0, zero_hits=False)
    measure.system.check_order(n, eps)  # so n <= window
    hits = _sampled_hits(measure, x, eps, samples, measure.system.window,
                         stream)[n - 1]
    return MassEstimate(p_hat=hits / samples,
                        ci=wilson_interval(hits, samples), hits=hits,
                        samples=samples, zero_hits=hits == 0)


@functools.lru_cache(maxsize=64)
def _sampled_hits(measure: MeasureModel, x: Points, eps: float,
                  samples: int, n_max: int, stream: int) -> tuple[int, ...]:
    """Sampled hit counts of B_n(x, eps) at every order n = 1..n_max.

    The samples come in 20,000-row blocks, block ``bi`` from stream
    ``stream * 1000 + bi``.  A block draws the origin coordinate of every
    sample first.  Under the cylinder rule a sample outside x's origin
    cylinder exits at order 1 whatever else it holds, so only the samples
    inside draw their other ``word_length - 1`` coordinates, next from the
    same generator; without the rule every sample does.  A product
    measure's coordinates are independent, so the hits have the law of
    whole-row draws.  A sample is inside B_n(x, eps) when its open exit
    order (``centre_exits``) is above n, so one call per block serves
    every order.
    """
    sys = measure.system
    center = _centre_row(sys, x)
    o, dtype = sys.origin_index, sys.symbol_dtype
    cylinder = _prefix_runs(sys, center, 1, eps) is not None
    exited = np.zeros(n_max + 2, dtype=np.int64)  # rows per exit order
    block = 20_000
    for bi, done in enumerate(range(0, samples, block)):
        count = min(block, samples - done)
        rng = measure.rng(stream * 1000 + bi)
        origin = _choice_into(rng, measure.p, np.empty(count, dtype=dtype))
        if cylinder:
            origin = origin[origin == center[0, o]]
        rest = np.empty((len(origin), sys.word_length - 1), dtype=dtype)
        Y = np.insert(_choice_into(rng, measure.p, rest), o, origin, axis=1)
        exited += np.bincount(centre_exits(sys, center, Y, eps, n_max),
                              minlength=n_max + 2)
    inside = np.cumsum(exited[::-1])[::-1]  # samples exiting at n or later
    return tuple(inside[2:].tolist())


# -- local entropies --------------------------------------------------------------


@dataclass(frozen=True)
class EntropyEstimate:
    quantity: str
    per_scale: dict
    extrapolated: float
    ci: tuple[float, float] | None = None
    flags: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)


def _bootstrap_ci(values: np.ndarray,
                  rng: np.random.Generator) -> tuple[float, float]:
    if len(values) == 1:
        return float(values[0]), float(values[0])
    # one draw of every resample: the same integers from the same stream
    # as one draw per resample, and the same pairwise sum per row
    n = len(values)
    idx = rng.integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    means = values[idx].mean(axis=1)
    return _quantile(means, 0.025), _quantile(means, 0.975)


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` to the bit, without its ``np.unique``,
    which imports ``numpy.ma``: the sorted values at (n - 1) q,
    interpolated by numpy's ``_lerp`` rule."""
    s = np.sort(values).tolist()
    pos = (len(s) - 1) * q
    i = math.floor(pos)
    a, b, g = s[i], s[min(i + 1, len(s) - 1)], pos - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _slope_ci(xs: Sequence[float],
              ys: Sequence[float]) -> tuple[float, tuple[float, float]]:
    """Least-squares slope with its normal-approximation band."""
    slope, intercept, _ = _slope(xs, ys)
    if len(xs) <= 2:
        return slope, (slope, slope)
    xs = np.asarray(xs, dtype=float)
    resid = np.asarray(ys, dtype=float) - (slope * xs + intercept)
    se = math.sqrt(float(resid @ resid) / (len(xs) - 2)
                   / float(((xs - xs.mean()) ** 2).sum()))
    return slope, (slope - SLOPE_Z95 * se, slope + SLOPE_Z95 * se)


def _mass_curves(measure: MeasureModel, x: Points, n_schedule,
                 eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(-log upper mass, -log lower mass) per n: rate brackets from below
    and above."""
    v_low, v_high = [], []
    for n in n_schedule:
        if measure.is_product:
            lo, hi = exact_cylinder_bracket(measure, x, n, eps)
        else:
            m = measure.empirical_ball_mass(x, n, eps)
            lo = hi = m
        if hi <= 0 or lo <= 0:
            break
        v_low.append(-math.log(hi))
        v_high.append(-math.log(lo))
    return np.array(v_low), np.array(v_high)


def bs_entropy(measure: MeasureModel, phi: Potential, eps: float,
               n_schedule: Sequence[int], x_samples: int = 32,
               bound: str = "lower", stream: int = 7) -> EntropyEstimate:
    """Local entropy rate with Birkhoff denominator S_n phi.

    Per sampled point the rate is the widest-span increment ratio
    (v(n_hi) - v(n_lo)) / (S_{n_hi} phi - S_{n_lo} phi), which cancels the
    order-independent boundary factor in the mass and is exact for
    constant phi.  The lower quantity reads the upper mass curve (rates
    certified from below) and the upper quantity the lower mass curve,
    clamped to stay above the lower rate; per-step extremes over the top
    half of the schedule are kept as liminf/limsup band diagnostics.  The
    reported value averages the sample, with a bootstrap interval.
    """
    if phi.min <= 0:
        raise ConfigurationError("BS entropy needs phi > 0")
    if bound not in ("lower", "upper"):
        raise ConfigurationError("bound must be 'lower' or 'upper'")
    n_schedule = tuple(sorted(set(int(n) for n in n_schedule)))
    if len(n_schedule) < 2:
        raise ConfigurationError("need at least two orders")
    if n_schedule[0] < 1:
        raise ConfigurationError("ball order must be >= 1")
    # an order past every double fails here, not in the Birkhoff kernel
    measure.system.truncation_slack(n_schedule[-1])
    lower_vals, upper_vals, band_lo, band_hi, per_scale, flags = \
        _bs_point_rates(measure, phi, eps, n_schedule, x_samples, stream)
    if not lower_vals:
        raise ConfigurationError(
            "mass estimates vanished at every order; shrink the schedule"
        )
    vals = np.array(lower_vals if bound == "lower" else upper_vals)
    rng = measure.rng(stream + 1)
    ci = _bootstrap_ci(vals, rng)
    per_scale_mean = {n: float(np.mean(v)) for n, v in per_scale if v}
    quantity = "BS-" + bound
    if phi.kind == "constant" and phi.scale * phi.value + phi.offset == 1.0:
        quantity = "BK-" + bound
    return EntropyEstimate(
        quantity=quantity, per_scale=per_scale_mean,
        extrapolated=float(vals.mean()), ci=ci, flags=flags,
        details={"per_point": vals.tolist(), "eps": eps,
                 "step_band": (float(np.mean(band_lo)),
                               float(np.mean(band_hi)))},
    )


@functools.lru_cache(maxsize=8)
def _bs_point_rates(measure: MeasureModel, phi: Potential, eps: float,
                    n_schedule: tuple[int, ...], x_samples: int, stream: int):
    """The per-point work of ``bs_entropy``, shared by both bounds.

    Returns ``(lower, upper, band_lo, band_hi, per_scale, flags)``: the
    lower and upper span rates and the step-band extremes of each usable
    sampled point, the per-order mid ratios as ``(n, values)`` pairs, and
    one ``schedule-shrunk`` flag per point with fewer than two usable
    orders.  Memoised, so a lower/upper pair on the same inputs makes one
    pass over the sample.
    """
    if measure.kind == EMPIRICAL and len(measure.support) <= x_samples:
        xs = measure.support
    else:
        xs = measure.sample_points(x_samples, stream=stream)
    flags: list[str] = []
    lower_vals, upper_vals = [], []
    band_lo, band_hi = [], []
    per_scale: dict[int, list[float]] = {n: [] for n in n_schedule}
    sums = birkhoff_sums(measure.system, phi, xs.symbols, n_schedule[-1])
    for x, S in zip(xs, sums):
        v_low, v_high = _mass_curves(measure, x, n_schedule, eps)
        usable = len(v_low)
        if usable < 2:
            flags.append("schedule-shrunk")
            continue
        ns = n_schedule[:usable]
        check_genuine(phi, x, [ns[-1]])
        span = S[ns[-1]] - S[ns[0]]
        lo_x = float((v_low[-1] - v_low[0]) / span)
        hi_x = max(float((v_high[-1] - v_high[0]) / span), lo_x)
        lower_vals.append(lo_x)
        upper_vals.append(hi_x)
        steps = np.diff(S[list(ns)])
        # the band reads the last steps whose increment did not round to 0
        # (at sums near 1e300); only a zero span leaves none
        kept = np.flatnonzero(steps)[-max(1, (usable - 1) // 2):]
        lo_steps = np.diff(v_low)[kept] / steps[kept]
        hi_steps = np.diff(v_high)[kept] / steps[kept]
        band_lo.append(float(lo_steps.min(initial=np.inf)))
        band_hi.append(float(hi_steps.max(initial=-np.inf)))
        for i, n in enumerate(ns):
            mid = 0.5 * (v_low[i] + v_high[i])
            per_scale[n].append(mid / (S[n] - S[0]))
    return (tuple(lower_vals), tuple(upper_vals), tuple(band_lo),
            tuple(band_hi), tuple((n, tuple(v)) for n, v in per_scale.items()),
            tuple(flags))


def brin_katok(measure: MeasureModel, eps: float, n_schedule: Sequence[int],
               x_samples: int = 32, bound: str = "lower") -> EntropyEstimate:
    """Brin-Katok local entropy: the BS entropy of the unit potential."""
    return bs_entropy(measure, Potential.constant(1.0), eps, n_schedule,
                      x_samples=x_samples, bound=bound)


# -- Katok covering entropy ---------------------------------------------------------


@dataclass(frozen=True)
class KatokCount:
    count: int
    exact: bool
    covered_mass: float


def katok_rn(measure: MeasureModel, n: int, eps: float, delta: float,
             stream: int = 11) -> KatokCount:
    """Minimal number of Bowen balls whose union has mass > 1 - delta.

    Product measures are snapshotted to an empirical sample first (flagged
    by exactness of the underlying measure); greedy picks the ball of
    largest uncovered mass, with an exhaustive search below the cap.  The
    balls are centred at the support points, and the membership is read
    off ``bowen.pool_exits``, so every order of one (support, eps) and PS
    on that pool share one engine pass; a ball is read in its n-cylinder,
    and only the exact search builds the whole bool membership
    ``exits > n``.  An order past the window's reliable
    depth at ``eps`` raises ``WindowExhaustedError``."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    measure.system.check_order(n, eps)
    if measure.kind != EMPIRICAL:
        measure = measure.to_empirical(KATOK_POOL_SIZE, stream)
    weights = np.asarray(measure.support_weights)
    target = 1.0 - delta
    # at a checked order every support point lies in its own ball
    total = float(weights.sum())
    if total <= target:
        raise PoolInsufficientError(
            f"pool covers mass {total:.4f} <= 1 - delta = {target}"
        )
    exits = pool_exits(measure.system, measure.support, eps, n)
    if exits.size <= KATOK_EXACT_CAP:
        members = exits.dense() > n
        chosen = min_weight_cover(members, np.ones(len(members)),
                                  mass=weights, target=target)
        union = members[chosen].any(axis=0)
        return KatokCount(count=len(chosen), exact=True,
                          covered_mass=float(weights[union].sum()))
    count, mass = greedy_mass_cover(exits, n, weights, target)
    return KatokCount(count=count, exact=False, covered_mass=mass)


def katok_entropy(measure: MeasureModel, eps: float, delta: float,
                  n_schedule: Sequence[int],
                  stream: int = 11) -> EntropyEstimate:
    """Slope of log r_n(mu; eps, delta) against n.  One engine pass at the
    deepest order serves every order of the schedule."""
    n_schedule = sorted(set(int(n) for n in n_schedule))
    if measure.kind != EMPIRICAL:
        measure = measure.to_empirical(KATOK_POOL_SIZE, stream)
    if n_schedule and n_schedule[0] >= 1:  # else katok_rn raises
        # the deepest order first, so that a bad one costs no engine pass
        measure.system.check_order(n_schedule[-1], eps)
        pool_exits(measure.system, measure.support, eps, n_schedule[-1])
    per_scale = {}
    flags = []
    counts = []
    for n in n_schedule:
        kc = katok_rn(measure, n, eps, delta, stream=stream)
        counts.append(kc)
        per_scale[n] = math.log(kc.count)
        if not kc.exact:
            flags.append(f"greedy-n{n}")
    slope, ci = _slope_ci(n_schedule, [per_scale[n] for n in n_schedule])
    return EntropyEstimate(
        quantity="Katok", per_scale=per_scale, extrapolated=slope, ci=ci,
        flags=tuple(flags),
        details={"counts": [(c.count, c.exact) for c in counts],
                 "eps": eps, "delta": delta},
    )


# -- Pfister-Sullivan entropy ----------------------------------------------------


def default_dictionary(system: ShiftSystem) -> tuple[int, ...]:
    """Dictionary of coordinate-0 symbol indicators (the first
    ``DICTIONARY_SIZE`` symbols)."""
    return tuple(range(min(system.alphabet_size, DICTIONARY_SIZE)))


def _near_marginals(system: ShiftSystem, pool: np.ndarray,
                    targets: Sequence[float], n: int, tol: float,
                    start: int) -> np.ndarray:
    """Rows of ``pool`` whose frequency of each dictionary symbol over orbit
    steps start..start+n-1 lies within tol of its target (its integral).

    The frequencies are those of the empirical measure (1/n)
    sum_{j=start}^{start+n-1} delta_{sigma^j x}, read off coordinate 0 of
    the shifted points.
    """
    origin = system.origin_index
    cols = pool[:, origin + start:origin + start + n]
    ok = np.ones(len(pool), dtype=bool)
    for a, target in zip(default_dictionary(system), targets):
        ok &= np.abs((cols == a).mean(axis=1) - target) <= tol
    return ok


def ps_entropy(measure: MeasureModel, eps: float,
               eta: float | Sequence[float], n_schedule: Sequence[int],
               pool: Points | None = None,
               stream: int = 13) -> EntropyEstimate:
    """Separated-set growth restricted to near-generic points.

    X_{n, F} is approximated by the pool points whose empirical symbol
    frequencies over steps 1..n stay within eta of the measure's marginals
    for every dictionary indicator; the estimate is the slope of
    log s_n over the schedule, reported at the smallest feasible eta.
    s_n is ``greedy_separated`` over the pool's one ``pool_exits`` pass.
    """
    etas = sorted({float(e) for e in
                   (eta if isinstance(eta, (list, tuple)) else [eta])},
                  reverse=True)
    n_schedule = sorted(set(int(n) for n in n_schedule))
    if min(n_schedule, default=1) < 1:
        raise ConfigurationError("ball order must be >= 1")
    sys = measure.system
    pool_pts = (measure.sample_points(PS_POOL_SIZE, stream) if pool is None
                else sys.as_points(pool))
    mat = pool_pts.symbols
    targets = [measure.indicator_integral(a) for a in default_dictionary(sys)]
    per_eta: dict[float, float] = {}
    per_eta_ci: dict[float, tuple[float, float]] = {}
    per_scale: dict[tuple, float] = {}
    flags: list[str] = []
    for eta_v in etas:
        logs, ns = [], []
        for n in n_schedule:
            free = _near_marginals(sys, mat, targets, n, eta_v + 1e-12, 1)
            if not free.any():
                flags.append(f"empty-eta{eta_v}-n{n}")
                continue
            sys.check_order(n, eps)
            exits = pool_exits(sys, pool_pts, eps, n_schedule[-1])
            logs.append(math.log(len(greedy_separated(mat, exits, n, free))))
            per_scale[(n, eta_v)] = logs[-1]
            ns.append(n)
        if len(ns) >= 2:
            per_eta[eta_v], per_eta_ci[eta_v] = _slope_ci(ns, logs)
    if not per_eta:
        raise ConfigurationError("every (n, eta) cell was empty; enlarge eta")
    feasible = min(per_eta)
    return EntropyEstimate(
        quantity="PS", per_scale=per_scale,
        extrapolated=per_eta[feasible], ci=per_eta_ci[feasible],
        flags=tuple(flags),
        details={"per_eta": per_eta, "eta": feasible, "eps": eps},
    )


# -- generic points ---------------------------------------------------------------


def generic_subset(system: ShiftSystem, points: Points, measure: MeasureModel,
                   n: int, tol: float) -> Points:
    """The points whose Birkhoff averages over steps 0..n-1 match the
    integrals within tol."""
    points = system.as_points(points)
    targets = [measure.indicator_integral(a)
               for a in default_dictionary(system)]
    return points[_near_marginals(system, points.symbols, targets, n, tol,
                                  start=0)]


# -- generic-point mean dimension -----------------------------------------------


@dataclass(frozen=True)
class GenericPointReport:
    bowen_subset: "DimensionEstimate"
    ps_ratio: "DimensionEstimate"
    katok_ratio: "DimensionEstimate"
    bk_lower_ratio: "DimensionEstimate"
    bk_upper_ratio: "DimensionEstimate"
    flags: tuple[str, ...] = ()

    def ratio_summary(self) -> dict[str, float]:
        """Mean of the per-eps ratios estimate(eps)/log(1/eps) per quantity."""
        return {est.details["quantity"]:
                float(np.mean(list(est.details["ratios"].values())))
                for est in (self.bowen_subset, self.ps_ratio, self.katok_ratio,
                            self.bk_lower_ratio, self.bk_upper_ratio)}


def _ratio_estimate(per_eps: dict[float, float],
                    name: str) -> DimensionEstimate:
    eps_schedule = tuple(sorted(per_eps, reverse=True))
    details = {"quantity": name,
               "ratios": {e: per_eps[e] / math.log(1.0 / e)
                          for e in eps_schedule}}
    if len(eps_schedule) >= 2:
        return log_eps_fit(eps_schedule, [per_eps[e] for e in eps_schedule],
                           details=details)
    return DimensionEstimate(
        per_eps_pressure=per_eps, slope=details["ratios"][eps_schedule[0]],
        intercept=0.0, residual=0.0, eps_schedule=eps_schedule, n_schedule=(),
        details=details,
    )


def gmu_mdim_estimate(system: ShiftSystem, measure: MeasureModel,
                      eps_schedule: Sequence[float],
                      n_schedule: Sequence[int], tol: float = 0.1,
                      model_factory: Callable[
                          [float], tuple[ShiftSystem, MeasureModel]] | None = None,
                      pool_depth: Callable[[float], int] | None = None,
                      subset_orders: tuple[int, int] = (1, 4),
                      ) -> GenericPointReport:
    """Bowen subset dimension of near-generic points next to the PS, Katok
    and Brin-Katok ratio estimates on the same eps schedule.

    Per eps the model may be rebuilt by ``model_factory`` (the grid family
    uses alphabet size ceil(1/eps)); pools are enumerated at
    ``pool_depth(eps)`` so that covering counts are exact finite-model
    quantities.  Katok counts cover mass above 1/2, PS reads the
    tolerances 0.5 and 0.25, and the i-th scale draws from stream 17 + i.
    The report carries one regression-slope estimate per quantity;
    finite-scale consistency of the four numbers is the testable surrogate
    for the limiting equalities.
    """
    from .caratheodory import (COVER_M, OuterMeasureProblem, critical_lambda,
                               structure_valuation)

    eps_schedule = tuple(sorted(set(float(e) for e in eps_schedule),
                                reverse=True))
    n_schedule = sorted(set(int(n) for n in n_schedule))
    flags: list[str] = []
    bk_lo: dict[float, float] = {}
    bk_hi: dict[float, float] = {}
    kat: dict[float, float] = {}
    ps: dict[float, float] = {}
    bowen: dict[float, float] = {}
    for ei, eps in enumerate(eps_schedule):
        stream = 17 + ei
        sys_eps, mu_eps = (model_factory(eps) if model_factory
                           else (system, measure))
        bk_lo[eps] = bs_entropy(mu_eps, Potential.constant(1.0), eps,
                                n_schedule, bound="lower",
                                stream=stream).extrapolated
        bk_hi[eps] = bs_entropy(mu_eps, Potential.constant(1.0), eps,
                                n_schedule, bound="upper",
                                stream=stream).extrapolated
        depth = pool_depth(eps) if pool_depth else max(n_schedule) + 2
        if mu_eps.is_product and \
                sys_eps.alphabet_size ** depth <= sys_eps.enumeration_cap:
            pool = sys_eps.enumerate_points(depth)
            weights = _product_weights(mu_eps, pool, depth)
            snapshot = MeasureModel.empirical(sys_eps, pool, weights,
                                              seed=mu_eps.seed)
        else:
            snapshot = mu_eps.to_empirical(1024, 17 + 31 * ei) \
                if mu_eps.is_product else mu_eps
            pool = snapshot.support
            flags.append(f"sampled-pool-eps{eps}")
        kat[eps] = katok_entropy(snapshot, eps, 0.5, n_schedule,
                                 stream=stream).extrapolated
        ps[eps] = ps_entropy(snapshot, eps, (0.5, 0.25), n_schedule,
                             pool=pool, stream=stream).extrapolated
        zg = generic_subset(sys_eps, pool, mu_eps, depth, tol)
        if not zg:
            flags.append(f"generic-empty-eps{eps}")
            continue
        problem = OuterMeasureProblem(
            system=sys_eps, points=zg, phi=Potential.constant(0.0),
            eps=eps, N=subset_orders[0], n_max=subset_orders[1],
            structure=COVER_M)
        bowen[eps] = critical_lambda(structure_valuation(problem),
                                     tol=1e-3).lambda_star
    if not bowen:
        raise ConfigurationError("generic set empty at every eps")
    return GenericPointReport(
        bowen_subset=_ratio_estimate(bowen, "bowen-subset"),
        ps_ratio=_ratio_estimate(ps, "ps"),
        katok_ratio=_ratio_estimate(kat, "katok"),
        bk_lower_ratio=_ratio_estimate(bk_lo, "bk-lower"),
        bk_upper_ratio=_ratio_estimate(bk_hi, "bk-upper"),
        flags=tuple(flags),
    )


def _product_weights(measure: MeasureModel, pool: Points,
                     depth: int) -> list[float]:
    """Normalised product masses of the pool's depth-words: the factors
    multiply in coordinate order and the total sums in row order."""
    p = np.asarray(measure.p)
    w = np.ones(len(pool))
    for j in range(depth):
        w *= p[pool.symbols[:, pool.origin + j]]
    return (w / sum(w.tolist())).tolist()
