"""Caratheodory-Pesin constructions on finite point sets.

Five structures share one candidate family, Bowen balls B_n(z, eps) with
centers in the target set and orders N..n_max; with L = n_max - N + 1
orders, candidate c * L + i is the ball of order N + i at centre c.  Each
is one row of ``STRUCTURES``: a family and a weight kind.  Bowen weights
are exp(-n lam + log(1/eps) sup S_n phi), BS weights exp(-lam sup S_n phi)
with phi > 0.  ``value`` returns a structure's value and whether its
search was exact:

* cover-M        cover family, Bowen weights: min-weight cover
* packing-P      packing family, Bowen weights: max-weight pairwise-
                 disjoint closed family, centers in Z
* BS-R           cover family, BS weights
* packing-BS     packing family, BS weights
* weighted-W     fractional family, BS weights: fractional cover LP

Packings read closed balls; covers and the LP read open ones.  A cover
at the single order N is cover-M at n_max = N.

Ball suprema of Birkhoff sums are evaluated on the base potential and
mapped through the affine transform of the potential, so the one-parameter
families used by the critical-exponent machinery share their maximizing
points; this is exactly what makes the BS/cover and packing-BS/packing
substitution identities hold to machine precision.  A family lives on
the ``bowen.pool_exits`` pass it reads and goes with it.  Critical
exponents are extracted as the threshold-1 crossing of the
(nonincreasing) value map, the standard finite-scale surrogate for the
jump from infinity to zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .bowen import (DEFAULT_EXACT_CAP, Exits, ExitBlock, _exits_memo,
                    pool_exits)
from .errors import BracketError, ConfigurationError
from .pressure import DimensionEstimate, log_eps_fit
from .solvers import (Bitsets, fractional_cover, greedy_disjoint,
                      greedy_weighted_cover, max_weight_independent,
                      min_weight_cover, rows_as_bits)
from .systems import (Points, Potential, ShiftSystem, birkhoff_sums,
                      check_genuine)


class Structure(NamedTuple):
    """One Caratheodory structure: its name, its ``subset-dim
    --structure`` choice, its family (``cover``, ``packing`` or
    ``fractional``) and whether it takes BS weights."""

    name: str
    cli: str
    family: str
    bs: bool


COVER_M = Structure("cover-M", "bowen", "cover", False)
PACKING_P = Structure("packing-P", "packing", "packing", False)
BS_R = Structure("BS-R", "bs", "cover", True)
PACKING_BS = Structure("packing-BS", "packing-bs", "packing", True)
WEIGHTED_W = Structure("weighted-W", "weighted", "fractional", True)

STRUCTURES = (COVER_M, PACKING_P, BS_R, PACKING_BS, WEIGHTED_W)

MAX_DOUBLINGS = 80


@dataclass(frozen=True)
class OuterMeasureProblem:
    """A structure valuation instance on a finite point set."""

    system: ShiftSystem
    points: Points
    phi: Potential
    eps: float
    N: int = 1
    n_max: int = 3
    structure: Structure = COVER_M
    exact_cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        if not self.system.as_points(self.points):
            raise ConfigurationError("Z must be nonempty")
        if self.N > self.n_max:
            raise ConfigurationError("need N <= n_max")
        if self.N < 1:
            raise ConfigurationError("orders start at 1")
        self.system.check_order(self.n_max, self.eps)
        if self.structure not in STRUCTURES:
            raise ConfigurationError(f"unknown structure {self.structure!r}")
        if self.structure.bs and self.phi.min <= 0:
            raise ConfigurationError("BS structures need phi > 0")

    def with_structure(self, structure: Structure) -> "OuterMeasureProblem":
        return replace(self, structure=structure)

    def with_potential(self, phi: Potential) -> "OuterMeasureProblem":
        return replace(self, phi=phi)


@dataclass(frozen=True)
class StructureValue:
    value: float
    exact: bool


@dataclass(frozen=True)
class CriticalValue:
    lambda_star: float
    bracket: tuple[float, float]
    value_lo: float = math.inf
    value_hi: float = 0.0


# -- candidate family ---------------------------------------------------------


@dataclass(frozen=True)
class _Candidates:
    """Candidate c * len(levels) + i is the ball of order levels[i] at
    centre c of Z.  Bitsets and suprema are read off the exit blocks a run
    of centres at a time, each ball over its own n-cylinder's columns;
    the dense member matrices are built only on first use (exact
    searches, packings, the LP), so a greedy cover-only run builds
    neither.  When no block's closed rule parts from its open one, the
    closed members and suprema are the open ones."""

    levels: np.ndarray                # the orders N..n_max
    exits: Exits                      # pool_exits' own or a sub-pool's
    sums: np.ndarray                  # base-potential S_n phi, column n

    def _members(self, closed: bool) -> np.ndarray:
        """(candidates, |Z|) bool membership of every candidate ball."""
        members = self.exits.dense(closed)[:, None, :] > self.levels[:, None]
        centres = np.arange(len(members))
        members[centres, :, centres] = True  # a ball holds its centre
        return members.reshape(self.exits.size * len(self.levels), -1)

    def _balls(self, block: ExitBlock, n: int, closed: bool,
               ) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """``(rows, span, balls)``: the order-n balls of a run of the
        block's centres over their n-cylinders' positions, a ball holding
        its centre, the run's exits and bools within ``_BLOCK_BYTES``."""
        for rows, span, cell in block.cells(n, 2, closed):
            balls = cell > n
            centres = np.arange(len(balls))
            balls[centres, rows.start - span.start + centres] = True
            yield rows, span, balls

    def _sups(self, closed: bool) -> np.ndarray:
        """Base-potential ball suprema of the candidates, a max over each
        ball's members with no float copy: a max is exact, so neither the
        cells nor the mask change a bit."""
        out = np.empty((self.exits.size, len(self.levels)))
        for level, n in enumerate(self.levels.tolist()):
            for b in self.exits.blocks:
                sums = self.sums[b.rows, n]
                for rows, span, balls in self._balls(b, n, closed):
                    out[b.rows[rows], level] = np.maximum.reduce(
                        np.broadcast_to(sums[span], balls.shape), axis=1,
                        where=balls, initial=-np.inf)
        return out.ravel()

    @functools.cached_property
    def orders(self) -> np.ndarray:
        """The order of every candidate, as the float weights read it."""
        return np.tile(self.levels.astype(float), self.exits.size)

    @functools.cached_property
    def open_members(self) -> np.ndarray:
        return self._members(False)

    @functools.cached_property
    def closed_members(self) -> np.ndarray:
        if not self.exits.tied:
            return self.open_members
        return self._members(True)

    @functools.cached_property
    def sup_open(self) -> np.ndarray:
        return self._sups(False)

    @functools.cached_property
    def sup_closed(self) -> np.ndarray:
        if not self.exits.tied:
            return self.sup_open
        return self._sups(True)

    @functools.cached_property
    def open_bits(self) -> Bitsets:
        """The open balls as bitsets, packed on the first greedy cover:
        block p is part p, and a ball spans its members within its own
        n-cylinder."""
        levels = len(self.levels)
        size = self.exits.size * levels
        bits, part, low = [0] * size, [0] * size, [0] * size
        for level, n in enumerate(self.levels.tolist()):
            for p, b in enumerate(self.exits.blocks):
                for rows, span, balls in self._balls(b, n, False):
                    at = (b.rows[rows] * levels + level).tolist()
                    lows, spans = Bitsets.spans(rows_as_bits(balls))
                    for i, j, x in zip(at, lows, spans):
                        bits[i], part[i], low[i] = x, p, span.start + j
        return Bitsets(bits, part, low,
                       tuple(len(b.rows) for b in self.exits.blocks))


def _candidates(problem: OuterMeasureProblem) -> _Candidates:
    """The problem's candidate family.  It depends on the potential only
    through its base table, so every structure and every affine
    reparametrization of one potential share one build."""
    base = replace(problem.phi, scale=1.0, offset=0.0)
    return _build_candidates(problem.system, problem.points, base,
                             problem.eps, problem.N, problem.n_max)


def _build_candidates(system: ShiftSystem, points: Points,
                      base: Potential, eps: float, N: int,
                      n_max: int) -> _Candidates:
    """The family of (points, base, eps, N..n_max), kept on the
    ``pool_exits`` pass it reads and freed with it."""
    key = (system, points, base, eps, N, n_max)
    if not (_exits_memo and key in _exits_memo[0].families):
        check_genuine(base, points, range(N, n_max + 1))
        exits = pool_exits(system, points, eps, n_max)
        # in the exits' dtype, so the member compares cast nothing
        orders = np.arange(N, n_max + 1, dtype=exits.dtype)
        _exits_memo[0].families[key] = _Candidates(
            levels=orders, exits=exits,
            sums=birkhoff_sums(system, base, points.symbols, n_max))
    return _exits_memo[0].families[key]


def _log_weights(problem: OuterMeasureProblem, lam: float,
                 cands: _Candidates) -> np.ndarray:
    """Log weights of the problem's ``cands`` under its structure: -n lam
    + log(1/eps) sup S_n phi (Bowen) or -lam sup S_n phi (BS), the
    suprema over closed balls for packings and open ones otherwise."""
    structure = problem.structure
    closed = structure.family == "packing"
    sup_base = cands.sup_closed if closed else cands.sup_open
    n = cands.orders
    phi = problem.phi
    formal_sup = phi.scale * sup_base + n * phi.offset
    L = math.log(1.0 / problem.eps)
    out = -lam * formal_sup if structure.bs else -n * lam + L * formal_sup
    # extreme lambdas show up transiently during bracket growth; clipping
    # keeps exp() finite without disturbing the threshold crossing
    return np.clip(out, -700.0, 700.0)


def value(problem: OuterMeasureProblem, lam: float) -> StructureValue:
    """The value of the problem's structure at exponent ``lam``.

    * cover: minimum-weight cover of Z, exact when |Z| <= exact_cap and
      the candidates number at most 4 exact_cap, greedy otherwise;
    * packing: maximum-weight pairwise-disjoint family, exact up to
      3 exact_cap candidates, greedy otherwise.  Two balls conflict iff
      some point of Z lies in both;
    * fractional: min sum c_i w_i with coverage >= 1 on Z and c >= 0,
      always exact.
    """
    family = problem.structure.family
    cands = _candidates(problem)
    weights = np.exp(_log_weights(problem, lam, cands))
    if family == "fractional":
        total, _ = fractional_cover(cands.open_members, weights)
        return StructureValue(value=total, exact=True)
    if family == "cover":
        exact = (len(problem.points) <= problem.exact_cap
                 and len(weights) <= 4 * problem.exact_cap)
        if exact:  # a ball holds its centre, so every point is coverable
            chosen = min_weight_cover(cands.open_members, weights)
        else:
            chosen = greedy_weighted_cover(cands.open_bits, weights)
        return StructureValue(value=float(weights[chosen].sum()), exact=exact)
    M = cands.closed_members
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    if len(weights) <= 3 * problem.exact_cap:
        _, total = max_weight_independent(M @ M.T, weights, order)
        return StructureValue(value=total, exact=True)
    picked = greedy_disjoint(M, order)
    return StructureValue(value=float(weights[picked].sum()), exact=False)


# -- critical exponents ----------------------------------------------------------


def critical_lambda(valuation: Callable[[float], float],
                    tol: float = 1e-6) -> CriticalValue:
    """Bisection for the lambda where a nonincreasing valuation crosses the
    threshold 1, with geometric bracket growth from [-1, 1]."""
    threshold = 1.0
    lo, hi = -1.0, 1.0
    v_lo, v_hi = valuation(lo), valuation(hi)
    grow = 0
    while v_lo < threshold and grow < MAX_DOUBLINGS:
        lo *= 2.0
        v_lo = valuation(lo)
        grow += 1
    while v_hi > threshold and grow < MAX_DOUBLINGS:
        hi *= 2.0
        v_hi = valuation(hi)
        grow += 1
    if v_lo < threshold or v_hi > threshold:
        raise BracketError(
            f"valuation did not cross {threshold:g} on [{lo:.6g}, "
            f"{hi:.6g}] after {grow} doublings (values {v_lo:.6g} and "
            f"{v_hi:.6g} at its ends): it is constant, or its root lies "
            f"outside that bracket")
    # at a large enough lambda no double lies strictly between lo and hi
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        v_mid = valuation(mid)
        if v_mid >= threshold:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return CriticalValue(lambda_star=0.5 * (lo + hi), bracket=(lo, hi),
                         value_lo=v_lo, value_hi=v_hi)


def structure_valuation(problem: OuterMeasureProblem,
                        ) -> Callable[[float], float]:
    return lambda lam: value(problem, lam).value


def subset_mdim(system: ShiftSystem, points: Points,
                phi: Potential, structure: Structure,
                eps_schedule: Sequence[float], N: int = 1, n_max: int = 3,
                exact_cap: int = DEFAULT_EXACT_CAP) -> DimensionEstimate:
    """Critical exponent per eps, then regression against log(1/eps).

    The per-eps ratios lambda*(eps)/log(1/eps) are stored alongside the
    regression slope; BS structures are conventionally read through the
    ratios (their critical value is already the dimensionless exponent of
    Def-style normalization), the slope is the primary estimate for the
    cover/packing structures.
    """
    eps_schedule = tuple(sorted(set(eps_schedule), reverse=True))
    if len(eps_schedule) < 2:
        raise ConfigurationError("need at least 2 eps values")
    if 1.0 in eps_schedule:  # the ratios divide by log(1/eps)
        raise ConfigurationError("subset dimensions need eps != 1")
    lams = []
    for eps in eps_schedule:
        problem = OuterMeasureProblem(
            system=system, points=points, phi=phi, eps=eps, N=N,
            n_max=n_max, structure=structure, exact_cap=exact_cap,
        )
        lams.append(critical_lambda(structure_valuation(problem),
                                    tol=1e-4).lambda_star)
    ratios = {eps: lam / math.log(1.0 / eps)
              for eps, lam in zip(eps_schedule, lams)}
    return log_eps_fit(eps_schedule, lams, n_schedule=range(N, n_max + 1),
                       details={"ratios": ratios,
                                "structure": structure.name})
