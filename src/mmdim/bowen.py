"""Bowen metrics, ball membership, separated/spanning sets, 5r selection.

One engine computes every Bowen distance in the package, per block of
centre rows, by a per-pair recurrence: one backward sweep
``S_t = sd_t + w S_{t+1}`` gives the right part of every shift, two-sided
shifts add a left part summed by Horner, and a running max over the
shifts yields every order 1..n_max.  Every step is elementwise, so a pair
gets the same double in any pool and at any position.

Radius comparisons follow one conservative rule everywhere: a point counts
as inside an open ball only when the truncated distance plus the window
tail bound stays below the radius (``<=`` for closed balls).  Separation
is the negation of open-ball membership, so the standard comparison
``r_n <= s_n <= r_n(eps/2)`` holds structurally on exact instances.

Greedy separation scans the points in lexicographic order, a block of
candidates at a time: the block is masked against the points kept so far,
and the survivors are resolved in order from the block's own conflict mask.

Cylinder rule: the recurrence adds non-negative terms and rounding is
monotone, so a computed ``d_n(x, y)`` is at least the symbol distance at
every coordinate j < n, and when no two symbols are closer than eps every
open (n, eps)-ball lies in its centre's n-cylinder (``_prefix_runs``).
The greedy scan keeps each point alone in its n-cylinder and scans the
others within their cylinders.  ``exit_orders`` is the one place that
reads membership across orders: it computes distances only within origin
cylinders (``cylinder_blocks``), with the same bits, and spanning sets,
ball masses, Katok and PS counts and Caratheodory candidates read its exit
orders, so they know nothing of slack, comparisons or cylinders.

``pool_exits`` is the one exit memo: it keeps the last pass of one pool
against itself, open and closed, and answers shallower orders as they are
and sub-pools of the pool by slicing, which is exact because a pair's exit
orders depend on the pair, the system and eps alone.  The closed matrix is
the open one itself unless some pair's reach equals eps, so a pass without
such a tie holds one matrix.  Katok at every order, PS and the
Caratheodory candidates on a pool's generic subset so share one pass per
(pool, eps), made at the deepest order asked for.  The candidate families
are kept on the pass they read and go with it.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError
from .solvers import (_BLOCK_BYTES, greedy_cover, greedy_disjoint,
                      max_weight_independent, min_weight_cover)
from .systems import DISCRETE, Points, ShiftSystem

DEFAULT_EXACT_CAP = 24


@dataclass(frozen=True)
class BallSpec:
    """A Bowen ball: one-point center, order n, radius, open or closed."""

    center: Points
    order: int
    radius: float
    closed: bool = False

    def __post_init__(self):
        if not isinstance(self.center, Points) or len(self.center) != 1:
            raise ConfigurationError("a ball's center must be one point")
        if self.order < 1:
            raise ConfigurationError("ball order must be >= 1")
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")


# -- distance engine -----------------------------------------------------------

# A block of centre rows holds, per pair, a double per shift and a byte per
# position, within ``_BLOCK_BYTES``.
# Candidate rows resolved together by the greedy separation scan.
_SCAN_ROWS = 64


def distance_blocks(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                    n_max: int) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Bowen distances from the rows of C to the rows of Z, all orders.

    Yields ``(rows, n, d)`` for consecutive blocks of centre rows and, per
    block, every order n = 1..n_max in turn: ``d`` holds the order-n
    distances from ``C[rows]`` to every row of Z.  At shift j, position
    t >= j weighs ``w^|t - origin - j|``: shift j reads the sweep's
    ``S_{origin + j}`` and, two-sided, adds the left part over positions
    j..origin+j-1.  Absolute-difference sums run over |a - b| and are
    divided by k at the end.  Shifts past the word add nothing.
    """
    L, o, w = system.word_length, system.origin_index, system.weight_base
    discrete = system.symbol_metric == DISCRETE
    shifts = min(n_max, L)
    step = max(1, _BLOCK_BYTES // ((8 * shifts + L) * max(len(Z), 1)))
    dtype = system.symbol_dtype
    CT = np.ascontiguousarray(C.T, dtype=dtype)[:, :, None]
    ZT = np.ascontiguousarray(Z.T, dtype=dtype)[:, None, :]
    for start in range(0, len(C), step):
        rows = slice(start, min(start + step, len(C)))
        sd = CT[:, rows] != ZT if discrete else np.abs(CT[:, rows] - ZT)
        sums = np.zeros((shifts,) + sd.shape[1:])
        S = np.zeros(sd.shape[1:])
        for t in range(L - 1, o - 1, -1):
            S *= w
            S += sd[t]
            if t - o < shifts:
                sums[t - o] = S
        for j in range(shifts if o else 0):
            T = np.zeros(S.shape)
            for t in range(j, min(o + j, L)):
                T *= w
                T += sd[t]
            T *= w
            sums[j] += T
        if not discrete:
            sums /= system.alphabet_size
        d = sums[0]
        for n in range(1, n_max + 1):
            if 1 < n <= shifts:
                d = np.maximum(d, sums[n - 1], out=sums[n - 1])
            yield rows, n, d
        del sd, sums, d  # free this block before building the next one


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


def exit_orders(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                eps: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Exit orders ``(open, closed)`` of the rows of Z from B_n(c, eps).

    Entry (c, z) is the first order n <= n_max at which row z fails the
    ``ball_masks`` rule for the open (closed) ball at row c of C, else
    n_max + 1.  Distance and slack grow with n, so a row that has left a
    ball stays out and the order-n membership matrix is ``exits > n``.
    One engine pass per shared origin cylinder serves every order of both
    rules; any other pair exits at order 1.  The rules differ only where
    some reach (distance plus slack) equals eps, so ``closed`` is the open
    array itself until the first such tie, and a copy tracked on its own
    from there.
    """
    slack = [system.truncation_slack(n) for n in range(1, n_max + 1)]
    opened = np.ones((len(C), len(Z)), dtype=np.min_scalar_type(n_max + 1))
    closed = opened
    for ci, zi in cylinder_blocks(system, C, Z, eps, slack):
        cell = np.ix_(ci, zi)
        o = opened[cell]
        c = o if closed is opened else closed[cell]
        for rows, n, d in distance_blocks(system, C[ci], Z[zi], n_max):
            reach = d + slack[n - 1]
            if c is o and (reach == eps).any():  # the first tie
                closed, c = opened.copy(), o.copy()
            o[rows] += reach < eps
            if c is not o:
                c[rows] += reach <= eps
        opened[cell] = o
        if closed is not opened:
            closed[cell] = c
    return opened, closed


@dataclass(frozen=True, eq=False)
class _Exits:
    """One ``exit_orders`` pass of a pool against itself, read-only."""

    system: ShiftSystem
    eps: float
    points: Points
    depth: int
    opened: np.ndarray
    closed: np.ndarray
    families: dict = field(default_factory=dict)  # built on it, by callers

    @functools.cached_property
    def rows(self) -> dict[bytes, int]:
        return {row.tobytes(): i for i, row in enumerate(self.points.symbols)}

    def cut(self, Z: Points) -> np.ndarray | None:
        """The indices of Z's rows in the pool, or None when some row is
        not there.  Equal rows have equal exits, so any match serves."""
        found = [self.rows.get(row.tobytes()) for row in Z.symbols]
        return None if None in found else np.array(found, dtype=np.intp)


def pool_exits(system: ShiftSystem, Z: Points, eps: float,
               n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``exit_orders`` of the rows of Z from the balls at the rows of Z,
    from one memoised pass.

    The memo keeps the last pass, open and closed, read-only, keyed on
    (system, Z, eps).  It answers any ``n_max`` up to the depth it was
    built at, and pools whose rows all lie in its own, by slicing: a pair
    gets the same double in any pool, and the cylinder rule depends on the
    system, eps and the slacks only.  Any other request replaces it; the
    old pass is freed before the new one is made.

    A read equals a fresh pass at every order <= ``n_max``: entries above
    ``n_max`` are the memo's own and are not capped, since every reader
    compares them with an order of its own (``exits > n``).  The memo's
    matrices come back as they are, a slice is a fresh array, and a
    closed matrix that is the open one (no tie) is taken once.
    """
    memo = _exits_memo[0] if _exits_memo else None
    zi = None
    if (memo is not None and memo.system == system and memo.eps == eps
            and memo.depth >= n_max):
        if Z == memo.points:
            return memo.opened, memo.closed
        zi = memo.cut(Z)
    if zi is None:
        memo = None  # so the old pass is freed before the new one is made
        _exits_memo.clear()
        opened, closed = exit_orders(system, Z.symbols, Z.symbols, eps, n_max)
        opened.setflags(write=False)
        closed.setflags(write=False)
        _exits_memo.append(_Exits(system, eps, Z, n_max, opened, closed))
        return opened, closed
    # two takes beat one np.ix_ gather several times over
    opened = memo.opened.take(zi, axis=0).take(zi, axis=1)
    if memo.closed is memo.opened:
        return opened, opened
    return opened, memo.closed.take(zi, axis=0).take(zi, axis=1)


_exits_memo: list[_Exits] = []  # the one slot
pool_exits.cache_clear = _exits_memo.clear


# -- separated sets ----------------------------------------------------------


def _lex_order(Z: np.ndarray) -> np.ndarray:
    """Row indices of Z in lexicographic symbol order (stable)."""
    return np.lexsort(Z.T[::-1])


def max_separated(system: ShiftSystem, points: Points, n: int, eps: float,
                  exact_cap: int = DEFAULT_EXACT_CAP,
                  ) -> tuple[Points, bool]:
    """An (n, eps)-separated subset of the given points.

    Up to ``exact_cap`` points, branch and bound on the separation graph
    finds a maximum-cardinality set.  Above it, a greedy scan in
    lexicographic symbol order keeps every point separated from all kept
    ones; the result is maximal, hence also an (n, eps)-spanning set.
    Returns (set, is_exact): is_exact says the exact search ran.
    """
    pts = system.as_points(points)
    if not pts:
        return pts, True
    system.check_order(n, eps)
    Z = pts.symbols
    if len(pts) <= exact_cap:
        conflict = ball_masks(system, Z, Z, n, eps)
        np.fill_diagonal(conflict, False)
        # fewest conflicts (most separations) first, ties by index
        order = np.argsort(conflict.sum(axis=1), kind="stable")
        best, _ = max_weight_independent(conflict, np.ones(len(pts)), order)
        return pts[best], True
    order = _lex_order(Z)
    kept = order[_greedy_scan(system, Z[order], n, eps)]
    return pts[kept], False


def greedy_separated(Z: np.ndarray, exits: np.ndarray, n: int,
                     free: np.ndarray) -> list[int]:
    """``max_separated``'s greedy scan of the ``free`` rows of Z over their
    open ``exit_orders``: in lexicographic order, a free row is kept and
    the rows inside its (n, eps)-ball stop being free."""
    free, kept = free.copy(), []
    for row in _lex_order(Z).tolist():
        if free[row]:
            kept.append(row)
            free &= exits[row] <= n
    return kept


def _prefix_runs(system: ShiftSystem, Z: np.ndarray, n: int, eps: float,
                 closed_slacks: Sequence[float] | None = None,
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows of Z grouped by n-cylinder (coordinates 0..n-1), or None when
    the cylinder rule does not hold at eps: the smallest non-zero symbol
    distance must be at least eps, and for closed balls (the slacks of
    every order built given) above eps or with ``fl(eps + slack) > eps``.

    Returns ``(perm, lab)``: ``Z[perm]`` lists the cylinders one after the
    other, in row order within each, and ``lab`` numbers their cylinders.
    """
    k = system.alphabet_size
    floor = 1.0 if system.symbol_metric == DISCRETE else 1.0 / k
    if floor < eps or (floor == eps and closed_slacks is not None
                       and not all(eps + s > eps for s in closed_slacks)):
        return None
    o = system.origin_index
    perm = np.lexsort(Z[:, o:o + n].T[::-1])
    head = Z[perm, o:o + n]
    return perm, np.cumsum(np.r_[False, (head[1:] != head[:-1]).any(axis=1)])


def cylinder_blocks(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                    eps: float, closed_slacks: Sequence[float] | None = None,
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row indices ``(of C, of Z)``, ascending, of each origin cylinder of
    C.  Under the cylinder rule any other pair is outside every
    (n, eps)-ball at every order; without it the one block is every row.
    """
    runs = _prefix_runs(system, C, 1, eps, closed_slacks)
    if runs is None:
        return [(np.arange(len(C)), np.arange(len(Z)))]
    perm, lab = runs
    o = system.origin_index
    return [(ci, np.flatnonzero(Z[:, o] == C[ci[0], o]))
            for ci in np.split(perm, np.flatnonzero(np.diff(lab)) + 1)
            if len(ci)]


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


def min_spanning(system: ShiftSystem, points: Points, n: int, eps: float,
                 exact_cap: int = DEFAULT_EXACT_CAP,
                 ) -> tuple[Points, bool]:
    """An (n, eps)-spanning set of the points, centers drawn from them.

    Up to ``exact_cap`` points this solves the minimum set cover over the
    Bowen balls centered at the points; above it, the standard
    best-coverage greedy (within a ln factor).  Returns (centers,
    is_exact): is_exact says the exact search ran.
    """
    pts = system.as_points(points)
    if not pts:
        return pts, True
    system.check_order(n, eps)
    Z = pts.symbols
    cover_sets = exit_orders(system, Z, Z, eps, n)[0] > n
    if len(pts) <= exact_cap:
        chosen = min_weight_cover(cover_sets, np.ones(len(pts)))
        return pts[sorted(chosen)], True
    chosen = greedy_cover(cover_sets, _lex_order(Z))
    return pts[chosen], False


# -- 5r covering selection ----------------------------------------------------


def five_r_disjointify(system: ShiftSystem, balls: Sequence[BallSpec],
                       universe: Points) -> tuple[BallSpec, ...]:
    """Greedy disjoint subfamily whose 5r inflations cover the family union.

    Balls must be closed and share a common order.  Processing by
    descending radius, a ball is kept iff it shares no universe point with
    any kept ball; every point of the original union then lies within 5
    radii of some kept center.
    """
    if not balls:
        return ()
    if any(not b.closed for b in balls):
        raise ConfigurationError("5r selection expects closed balls")
    orders = {b.order for b in balls}
    if len(orders) > 1:
        raise ConfigurationError("5r selection expects a common order")
    n = balls[0].order
    centers = np.concatenate([system.as_points(b.center).symbols
                              for b in balls])
    members = ball_masks(system, centers, system.as_points(universe).symbols,
                         n, [b.radius for b in balls], closed=True)
    order = sorted(range(len(balls)), key=lambda i: (
        -balls[i].radius, balls[i].center.symbols[0].tolist()))
    return tuple(balls[i] for i in greedy_disjoint(members, order))
