"""Bowen metrics, ball membership, separated/spanning sets, 5r selection.

One engine computes every Bowen distance in the package.  It takes a
matrix of centre rows and a pool matrix, builds the symbol-distance tensor
of a block of centres once, and applies the shift kernels (cached per
system and largest order) to it, keeping a running max: one pass yields
the distances at every order 1..n_max.  Centre rows are blocked so that a
block's temporaries stay within a fixed byte budget.  Ball membership
masks, pairwise conflicts and the single-pair helpers are all read off the
engine.

Radius comparisons follow one conservative rule everywhere: a point counts
as inside an open ball only when the truncated distance plus the window
tail bound stays below the radius (``<=`` for closed balls).  Separation
is the negation of open-ball membership, so the standard comparison
``r_n <= s_n <= r_n(eps/2)`` holds structurally on exact instances.

Greedy separation scans the points in lexicographic order, a block of
candidates at a time: the block is masked against the points kept so far,
and the survivors are resolved in order from the block's own conflict mask.

Cylinder rule: the kernel weight at offset 0 is exactly 1 and the other
terms are non-negative, so a computed ``d_n(x, y)`` is at least the symbol
distance at every coordinate j < n.  When the smallest non-zero symbol
distance (1 discrete, 1/k absolute difference) is at least eps, every open
(n, eps)-ball lies in its centre's n-cylinder.  The greedy scan then keeps
each point alone in its n-cylinder without computing a distance and scans
the others within their cylinders; otherwise it scans the whole pool.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ExactCapError
from .solvers import (greedy_cover, greedy_disjoint, max_weight_independent,
                      min_weight_cover)
from .systems import DISCRETE, PointWindow, ShiftSystem

DEFAULT_EXACT_CAP = 24


@dataclass(frozen=True)
class BallSpec:
    """A Bowen ball: center point, order n, radius, open or closed."""

    center: PointWindow
    order: int
    radius: float
    closed: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ConfigurationError("ball order must be >= 1")
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")


@dataclass(frozen=True)
class SetFamily:
    """A finite family of Bowen balls with optional positive weights."""

    balls: tuple[BallSpec, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.weights is not None:
            if len(self.weights) != len(self.balls):
                raise ConfigurationError("weights must match balls")
            if any(w <= 0 for w in self.weights):
                raise ConfigurationError("weights must be strictly positive")


# -- distance engine -----------------------------------------------------------

# Byte budget of one block's float64 symbol-distance tensor.  Centre rows
# are blocked by it, so a block's temporaries stay within about twice this
# whatever the pool size; a block this small also stays in cache.
_BLOCK_BYTES = 1 << 20
# Candidate rows resolved together by the greedy separation scan.
_SCAN_ROWS = 64


@functools.lru_cache(maxsize=64)
def _kernels(system: ShiftSystem, n_max: int) -> np.ndarray:
    """Weight kernels of the truncated metric at the shifts 0..n_max-1.

    Row ``j`` lives on the original window positions; entries are
    ``weight^{|t - origin - j|}`` for positions the shifted window retains
    and 0 where the shift has run off the stored word.
    """
    L = system.word_length
    w = system.weight_base
    kernels = np.empty((n_max, L))
    for j in range(n_max):
        off = np.arange(L) - system.origin_index - j
        kern = w ** np.abs(off).astype(float)
        if system.sidedness == "one-sided":
            kern[off < 0] = 0.0
        else:
            kern[off < -system.window] = 0.0
        kernels[j] = kern
    kernels.setflags(write=False)
    return kernels


def _symbol_distances(system: ShiftSystem, C: np.ndarray,
                      Z: np.ndarray) -> np.ndarray:
    """Symbol distances between the rows of C and Z, shape (|C|, |Z|, L).

    On the absolute-difference metric Z arrives as floats: symbols are
    small integers, so the float difference is exact and the quotient is
    the same double as ``|a - b| / k`` taken in integers.
    """
    if system.symbol_metric == DISCRETE:
        return (Z[None, :, :] != C[:, None, :]).astype(float)
    sd = Z[None, :, :] - C[:, None, :]
    np.abs(sd, out=sd)
    sd /= system.alphabet_size
    return sd


def distance_blocks(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                    n_max: int) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Bowen distances from the rows of C to the rows of Z, all orders.

    Yields ``(rows, n, d)`` for consecutive blocks of centre rows and, per
    block, every order n = 1..n_max in turn: ``d`` holds the order-n
    distances from ``C[rows]`` to every row of Z.  The symbol-distance
    tensor of a block is built once; each shift kernel is applied to it
    with one matrix product per centre over the whole of Z, and a running
    max over the shifts gives the next order.
    """
    kernels = _kernels(system, n_max)
    step = max(1, _BLOCK_BYTES // (8 * system.word_length * max(len(Z), 1)))
    if system.symbol_metric != DISCRETE:
        Z = Z.astype(float)
    for start in range(0, len(C), step):
        block = C[start:start + step]
        rows = slice(start, start + len(block))
        sd = _symbol_distances(system, block, Z)
        d = sd @ kernels[0]
        yield rows, 1, d
        for n in range(2, n_max + 1):
            d = np.maximum(d, sd @ kernels[n - 1])
            yield rows, n, d
        del sd  # free this block's tensor before building the next one


def distance_matrix(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                    n: int) -> np.ndarray:
    """Bowen-n distances from every row of C to every row of Z."""
    out = np.empty((len(C), len(Z)))
    for rows, order, d in distance_blocks(system, C, Z, n):
        if order == n:
            out[rows] = d
    return out


def ball_masks(system: ShiftSystem, C: np.ndarray, Z: np.ndarray, n: int,
               radius, closed: bool = False) -> np.ndarray:
    """Membership of the rows of Z in the Bowen balls B_n(c, radius).

    ``radius`` is one radius or one per centre row.  A row is inside when
    its distance plus the truncation slack stays below the radius (``<=``
    for closed balls).
    """
    slack = system.truncation_slack(n)
    radii = np.broadcast_to(np.asarray(radius, dtype=float), (len(C),))
    out = np.empty((len(C), len(Z)), dtype=bool)
    for rows, order, d in distance_blocks(system, C, Z, n):
        if order == n:
            reach = d + slack
            r = radii[rows, None]
            out[rows] = reach <= r if closed else reach < r
    return out


def _row(x: PointWindow) -> np.ndarray:
    return np.asarray(x.symbols)[None, :]


def bowen_distance(system: ShiftSystem, x: PointWindow, y: PointWindow,
                   n: int) -> float:
    """max over j < n of the truncated metric between the shifted points."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return float(distance_matrix(system, _row(x), _row(y), n)[0, 0])


def distances_to(system: ShiftSystem, center: PointWindow, Z: np.ndarray,
                 n: int) -> np.ndarray:
    """Vector of Bowen-n distances from one center to every row of Z."""
    return distance_matrix(system, _row(center), Z, n)[0]


def is_within(system: ShiftSystem, x: PointWindow, y: PointWindow, n: int,
              eps: float, closed: bool = False) -> bool:
    return bool(ball_masks(system, _row(x), _row(y), n, eps, closed)[0, 0])


# -- separated sets ----------------------------------------------------------


def _lex_order(Z: np.ndarray) -> np.ndarray:
    """Row indices of Z in lexicographic symbol order (stable)."""
    return np.lexsort(Z.T[::-1])


def max_separated(system: ShiftSystem, points: Sequence[PointWindow], n: int,
                  eps: float, mode: str = "greedy",
                  exact_cap: int = DEFAULT_EXACT_CAP,
                  ) -> tuple[list[PointWindow], bool]:
    """An (n, eps)-separated subset of the given points.

    Greedy scans points in lexicographic symbol order and keeps every point
    separated from all kept ones; the result is maximal, hence also an
    (n, eps)-spanning set.  Exact mode finds a maximum-cardinality set via
    branch and bound on the separation graph and requires at most
    ``exact_cap`` points.  Returns (set, is_exact).
    """
    pts = list(points)
    if not pts:
        return [], True
    system.check_order(n, eps)
    Z = system.as_matrix(pts)
    if mode == "exact":
        if len(pts) > exact_cap:
            raise ExactCapError(
                f"{len(pts)} points exceed the exact cap {exact_cap}"
            )
        conflict = ball_masks(system, Z, Z, n, eps)
        np.fill_diagonal(conflict, False)
        # fewest conflicts (most separations) first, ties by index
        order = np.argsort(conflict.sum(axis=1), kind="stable")
        best, _ = max_weight_independent(conflict, np.ones(len(pts)), order)
        return [pts[i] for i in best], True
    if mode != "greedy":
        raise ConfigurationError(f"unknown mode {mode!r}")
    order = _lex_order(Z)
    kept = order[_greedy_scan(system, Z[order], n, eps)]
    return [pts[i] for i in kept], False


def _prefix_runs(system: ShiftSystem, Z: np.ndarray, n: int,
                 eps: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows of Z grouped by n-cylinder (coordinates 0..n-1), or None when
    the smallest non-zero symbol distance is below eps (no cylinder rule).

    Returns ``(perm, lab)``: ``Z[perm]`` lists the cylinders one after the
    other, in row order within each, and ``lab`` numbers their cylinders.
    """
    k = system.alphabet_size
    if (1.0 if system.symbol_metric == DISCRETE else 1.0 / k) < eps:
        return None
    o = system.origin_index
    perm = np.lexsort(Z[:, o:o + n].T[::-1])
    head = Z[perm, o:o + n]
    return perm, np.cumsum(np.r_[False, (head[1:] != head[:-1]).any(axis=1)])


def _greedy_scan(system: ShiftSystem, Z: np.ndarray, n: int,
                 eps: float) -> list[int]:
    """Rows of Z kept by the greedy separation scan, in row order.

    Rows alone in their n-cylinder are kept outright.  The others, grouped
    by cylinder in row order, are taken in blocks: a block is masked
    against the rows of its cylinders kept so far, then its own conflict
    mask within each cylinder resolves the survivors in order.  Without
    the cylinder rule the whole pool is one cylinder.
    """
    runs = _prefix_runs(system, Z, n, eps)
    perm, lab = runs or (np.arange(len(Z)), np.zeros(len(Z), dtype=np.int64))
    shared = np.bincount(lab)[lab] > 1
    rest, lab = perm[shared], lab[shared]
    Y = Z[rest]
    kept: list[int] = []
    for start in range(0, len(rest), _SCAN_ROWS):
        block = Y[start:start + _SCAN_ROWS]
        same = lab[start:start + _SCAN_ROWS]
        # only the block's first cylinder can have rows kept before it
        prev = kept[bisect.bisect_left(kept, np.searchsorted(lab, lab[start])):]
        free = ~(ball_masks(system, block, Y[prev], n, eps).any(axis=1)
                 & (same == lab[start]))
        conflicts = (ball_masks(system, block, block, n, eps)
                     & (same[:, None] == same[None, :]))
        for i in range(block.shape[0]):
            if free[i]:
                kept.append(start + i)
                free &= ~conflicts[i]
    return sorted(perm[~shared].tolist() + rest[kept].tolist())


# -- spanning sets -----------------------------------------------------------


def min_spanning(system: ShiftSystem, points: Sequence[PointWindow], n: int,
                 eps: float, mode: str = "greedy",
                 exact_cap: int = DEFAULT_EXACT_CAP,
                 ) -> tuple[list[PointWindow], bool]:
    """An (n, eps)-spanning set of the points, centers drawn from them.

    Exact mode solves the minimum set cover over the Bowen balls centered
    at the points; greedy mode is the standard best-coverage heuristic
    (within a ln factor).  Returns (centers, is_exact).
    """
    pts = list(points)
    if not pts:
        return [], True
    system.check_order(n, eps)
    Z = system.as_matrix(pts)
    m = len(pts)
    cover_sets = ball_masks(system, Z, Z, n, eps)
    if mode == "exact":
        if m > exact_cap:
            raise ExactCapError(f"{m} points exceed the exact cap {exact_cap}")
        chosen = min_weight_cover(cover_sets, np.ones(m))
        return [pts[i] for i in sorted(chosen)], True
    if mode != "greedy":
        raise ConfigurationError(f"unknown mode {mode!r}")
    chosen = greedy_cover(cover_sets, _lex_order(Z))
    return [pts[i] for i in chosen], False


# -- 5r covering selection ----------------------------------------------------


def five_r_disjointify(system: ShiftSystem, family: SetFamily,
                       universe: Sequence[PointWindow]) -> SetFamily:
    """Greedy disjoint subfamily whose 5r inflations cover the family union.

    Balls must be closed and share a common order.  Processing by
    descending radius, a ball is kept iff it shares no universe point with
    any kept ball; every point of the original union then lies within 5
    radii of some kept center.
    """
    balls = family.balls
    if not balls:
        return SetFamily(balls=())
    if any(not b.closed for b in balls):
        raise ConfigurationError("5r selection expects closed balls")
    orders = {b.order for b in balls}
    if len(orders) > 1:
        raise ConfigurationError("5r selection expects a common order")
    n = balls[0].order
    U = system.as_matrix(list(universe))
    members = ball_masks(system, system.as_matrix([b.center for b in balls]),
                         U, n, [b.radius for b in balls], closed=True)
    order = sorted(range(len(balls)),
                   key=lambda i: (-balls[i].radius, balls[i].center.symbols))
    kept = greedy_disjoint(members, order)
    kept_balls = tuple(balls[i] for i in kept)
    kept_weights = (None if family.weights is None
                    else tuple(family.weights[i] for i in kept))
    return SetFamily(balls=kept_balls, weights=kept_weights)


# -- batched counts ------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCounts:
    s_lower: int
    s_exact: int | None
    r_upper: int
    r_exact: int | None


def covering_number_profile(system_factory, eps_schedule: Sequence[float],
                            theta: float, depth: int = 4,
                            pool_cap: int = 1024) -> dict[float, float]:
    """eps^theta * log r_1(eps) over the schedule (tame-growth profile).

    r_1 is the greedy one-step spanning count of enumerated words of the
    per-scale model (depth shrunk so the pool stays below the cap); on
    metrics with tame growth of covering numbers the profile decays to 0
    for every positive theta.
    """
    out = {}
    for eps in sorted(set(eps_schedule), reverse=True):
        system = system_factory(eps)
        d = depth
        while d > 1 and system.alphabet_size ** d > pool_cap:
            d -= 1
        pts = system.enumerate_points(d)
        r1 = len(min_spanning(system, pts, 1, eps, mode="greedy")[0])
        out[eps] = (eps ** theta) * math.log(max(r1, 1))
    return out


def count_separated_spanning(system: ShiftSystem,
                             points: Sequence[PointWindow], n: int,
                             eps: float,
                             exact_cap: int = DEFAULT_EXACT_CAP,
                             ) -> SeparationCounts:
    """Greedy bounds plus exact values when the instance is small enough."""
    pts = list(points)
    if not pts:
        return SeparationCounts(0, 0, 0, 0)
    greedy_sep, _ = max_separated(system, pts, n, eps, mode="greedy")
    greedy_span, _ = min_spanning(system, pts, n, eps, mode="greedy")
    s_exact = r_exact = None
    if len(pts) <= exact_cap:
        s_exact = len(max_separated(system, pts, n, eps, mode="exact",
                                    exact_cap=exact_cap)[0])
        r_exact = len(min_spanning(system, pts, n, eps, mode="exact",
                                   exact_cap=exact_cap)[0])
    return SeparationCounts(
        s_lower=len(greedy_sep), s_exact=s_exact,
        r_upper=len(greedy_span), r_exact=r_exact,
    )
