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
others within their cylinders.  Membership across orders is read as exit
orders, by one rule in two readers.  ``exit_orders`` takes a pool against
itself: it computes distances only within the pool's origin cylinders
and keeps one dense block of exit orders per cylinder (``Exits``).
``centre_exits`` takes one centre against the rows of its origin
cylinder.  Spanning sets, Katok and PS counts and Caratheodory candidates
read each ball inside its centre's n-cylinder, and ball masses count one
centre's exits, so none of them knows of slack or comparisons.

``pool_exits`` is the one exit memo: it keeps the last pass of a pool,
open and closed, and answers shallower orders as they are and sub-pools
of the pool by reading inside its blocks, which is exact because a
pair's exit orders depend on the pair, the system and eps alone.  A
block's closed array is its open one unless some pair's reach in it
equals eps, so a block without such a tie holds one array.  Katok at
every order, PS and the Caratheodory candidates on a pool's generic
subset so share one pass per (pool, eps), made at the deepest order
asked for.  The candidate families are kept on the pass they read and go
with it.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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

# Candidate rows resolved together by the greedy separation scan.
_SCAN_ROWS = 64
# Rows and columns of a tile mirrored at once: 16 KiB of exit orders.
_MIRROR_TILE = 128
# Fewest positions of a block that a reader of exit orders takes at once:
# below this a numpy call costs more than its columns.
_MIN_SPAN = 256


def distance_blocks(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                    n_max: int, symmetric: bool = False,
                    ) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Bowen distances from the rows of C to the rows of Z, all orders.

    Yields ``(rows, n, d)`` for consecutive blocks of centre rows and, per
    block, every order n = 1..n_max in turn: ``d`` holds the order-n
    distances from ``C[rows]`` to every row of Z, or with ``symmetric``
    (C and Z the same rows) to the rows of Z from ``rows.start`` on: a
    pair's symbol distances are the same both ways round, so its distance
    is the same double, and the caller mirrors the rest.  A block's
    temporaries, with the caller's reach (``d`` plus a slack) and its
    compares, stay within ``_BLOCK_BYTES`` whenever one row fits.

    At shift j, position t >= j weighs ``w^|t - origin - j|``: shift j
    reads the sweep's ``S_{origin + j}`` and, two-sided, adds the left
    part over positions j..origin+j-1.  Absolute-difference sums run over
    |a - b| and are divided by k at the end.  Shifts past the word add
    nothing.
    """
    L, o, w = system.word_length, system.origin_index, system.weight_base
    discrete = system.symbol_metric == DISCRETE
    shifts = min(n_max, L)
    dtype = system.symbol_dtype
    # per pair: the symbol distances (a difference and its absolute value),
    # a double per shift, S, T and the caller's reach, and two bool compares
    sd_bytes = 1 if discrete else 2 * np.dtype(dtype).itemsize
    pair_bytes = L * sd_bytes + 8 * (shifts + 3) + 2
    CT = np.ascontiguousarray(C.T, dtype=dtype)[:, :, None]
    ZT = np.ascontiguousarray(Z.T, dtype=dtype)[:, None, :]
    start = 0
    while start < len(C):
        first = start if symmetric else 0
        width = max(len(Z) - first, 1)
        rows = slice(start, min(start + max(1, _BLOCK_BYTES // (
            pair_bytes * width)), len(C)))
        start = rows.stop
        zt = ZT[:, :, first:]
        sd = CT[:, rows] != zt if discrete else np.abs(CT[:, rows] - zt)
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


@dataclass(frozen=True, eq=False)
class ExitBlock:
    """The exit orders of one origin cylinder of a pool: point ``rows[j]``
    from the ball at point ``rows[i]`` is entry (i, j) of ``opened``
    (``closed``), which is ``opened`` itself until some reach in the block
    equals eps.  The points are in lexicographic order from the origin,
    and ``edges[n - 1]`` bounds the block's n-cylinders, each a run of
    positions that holds every order-n ball of its centres; a block
    without edges is read whole.  A sub-pool's block reads a pool block's
    own arrays at ``at``, its points' positions there, and copies nothing
    until read."""

    rows: np.ndarray
    opened: np.ndarray
    closed: np.ndarray
    edges: tuple[np.ndarray, ...] = ()
    at: np.ndarray | None = None

    def read(self, closed: bool = False, rows: slice = slice(None),
             cols: slice = slice(None)) -> np.ndarray:
        """Exit orders at block positions ``rows`` x ``cols``: a view of a
        pass's own array, or a copy of a sub-pool's cell."""
        a = self.closed if closed else self.opened
        if self.at is None:
            return a[rows, cols]
        return a.take(self.at[rows], axis=0).take(self.at[cols], axis=1)

    def cylinders(self, n: int) -> list[slice]:
        """The block positions of each run of whole n-cylinders that a
        reader takes at once: consecutive cylinders narrower than
        ``_MIN_SPAN`` positions are read together."""
        if not self.edges:
            return [slice(0, len(self.rows))]
        spans, first = [], 0
        for stop in self.edges[n - 1].tolist()[1:]:
            if stop - first >= _MIN_SPAN or stop == len(self.rows):
                spans.append(slice(first, stop))
                first = stop
        return spans

    def cells(self, n: int, pair_bytes: int, closed: bool = False,
              ) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """``(rows, span, exits)``: some rows of a run of n-cylinders at
        the run's positions, for a caller whose temporaries take
        ``pair_bytes`` per entry, within ``_BLOCK_BYTES``."""
        for span in self.cylinders(n):
            step = max(1, _BLOCK_BYTES // (pair_bytes * max(
                span.stop - span.start, 1)))
            for start in range(span.start, span.stop, step):
                rows = slice(start, min(start + step, span.stop))
                yield rows, span, self.read(closed, rows, span)


@dataclass(frozen=True, eq=False)
class Exits:
    """Exit orders of the points of a pool from the balls at its points,
    one dense block per origin cylinder.  Every point lies in one block;
    a pair in no block exits at order 1.  Without the cylinder rule the
    one block is every point."""

    size: int
    blocks: tuple[ExitBlock, ...]
    dtype: np.dtype

    @functools.cached_property
    def where(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point's block and its position in that block."""
        block = np.zeros(self.size, dtype=np.intp)
        pos = np.zeros(self.size, dtype=np.intp)
        for b, blk in enumerate(self.blocks):
            block[blk.rows] = b
            pos[blk.rows] = np.arange(len(blk.rows))
        return block, pos

    @property
    def tied(self) -> bool:
        """Whether the closed rule parts from the open one in some block."""
        return any(b.closed is not b.opened for b in self.blocks)

    def balls(self, n: int,
              ) -> Callable[[int], tuple[int, ExitBlock, slice, np.ndarray]]:
        """The order-n ball of a point: its block's index, the block, the
        positions of the point's n-cylinder there and its open exits at
        them."""
        block, pos = self.where
        spans = [b.cylinders(n) for b in self.blocks]
        starts = [[s.start for s in c] for c in spans]

        def ball(i: int) -> tuple[int, ExitBlock, slice, np.ndarray]:
            b, p = block[i], pos[i]
            span = spans[b][bisect.bisect_right(starts[b], p) - 1]
            blk = self.blocks[b]
            return b, blk, span, blk.read(False, slice(p, p + 1), span)[0]
        return ball

    def dense(self, closed: bool = False) -> np.ndarray:
        """The whole size x size matrix, for the searches that read every
        pair of a few points."""
        out = np.ones((self.size, self.size), dtype=self.dtype)
        for b in self.blocks:
            out[np.ix_(b.rows, b.rows)] = b.read(closed)
        return out


def exit_orders(system: ShiftSystem, Z: np.ndarray, eps: float,
                n_max: int) -> Exits:
    """Exit orders, open and closed, of the rows of Z from B_n(z, eps).

    Entry (z, y) is the first order n <= n_max at which row y fails the
    ``ball_masks`` rule for the open (closed) ball at row z, else
    n_max + 1.  Distance and slack grow with n, so a row that has left a
    ball stays out and the order-n membership matrix is ``exits > n``.
    One engine pass per origin cylinder fills its block's upper triangle,
    mirrored below, and serves every order of both rules; any other pair
    exits at order 1.  The rules differ only where some reach (distance
    plus slack) equals eps, so a block's ``closed`` is its open array
    itself until the block's first such tie, and a copy tracked on its
    own from there.
    """
    slack = [system.truncation_slack(n) for n in range(1, n_max + 1)]
    dtype = np.min_scalar_type(n_max + 1)
    blocks = []
    for rows, edges in _pool_cylinders(system, Z, eps, slack):
        X = Z[rows]
        o = np.ones((len(rows), len(rows)), dtype=dtype)
        c = o
        for run, n, d in distance_blocks(system, X, X, n_max, True):
            cell = (run, slice(run.start, None))
            reach = d + slack[n - 1]
            if c is o and (reach == eps).any():  # the block's first tie
                c = o.copy()
            o[cell] += reach < eps
            if c is not o:
                c[cell] += reach <= eps
        _mirror(o)
        if c is not o:
            _mirror(c)
        blocks.append(ExitBlock(rows, o, c, edges))
    return Exits(len(Z), tuple(blocks), dtype)


def centre_exits(system: ShiftSystem, c: np.ndarray, Y: np.ndarray,
                 eps: float, n_max: int) -> np.ndarray:
    """Open exit orders of the rows of Y from B_n(c, eps) at one centre
    row c (a 1-row matrix), by ``exit_orders``' rule.  Under the cylinder
    rule only the rows in c's origin cylinder are compared; the others
    exit at order 1."""
    if n_max < 1:
        raise ConfigurationError("ball order must be >= 1")
    slack = [system.truncation_slack(n) for n in range(1, n_max + 1)]
    exits = np.ones(len(Y), dtype=np.min_scalar_type(n_max + 1))
    at = slice(None)
    if _prefix_runs(system, c, 1, eps) is not None:
        o = system.origin_index
        at = np.flatnonzero(Y[:, o] == c[0, o])
    inside = exits[at]
    for _, n, d in distance_blocks(system, c, Y[at], n_max):
        inside += d[0] + slack[n - 1] < eps
    exits[at] = inside
    return exits


def _pool_cylinders(system: ShiftSystem, Z: np.ndarray, eps: float,
                    slacks: Sequence[float],
                    ) -> list[tuple[np.ndarray, tuple]]:
    """``(rows, edges)`` of each origin cylinder of a pool, its rows in
    lexicographic order from the origin and ``edges[n - 1]`` the bounds of
    its n-cylinders for n = 1..len(slacks); without the cylinder rule the
    one block is every row, with no edges."""
    n_max = len(slacks)
    runs = _prefix_runs(system, Z, n_max, eps, slacks)
    if runs is None:
        return [(np.arange(len(Z)), ())]
    perm, _ = runs
    o = system.origin_index
    head = Z[perm, o:o + n_max]
    # column j: the row starts a new (j + 1)-cylinder
    new = np.logical_or.accumulate(head[1:] != head[:-1], axis=1)
    starts = [np.r_[0, np.flatnonzero(new[:, min(n, head.shape[1]) - 1]) + 1,
                    len(Z)] for n in range(1, n_max + 1)]
    # each origin cylinder's rows, and the bounds of its n-cylinders
    return [(perm[first:stop],
             tuple(e[(e >= first) & (e <= stop)] - first for e in starts))
            for first, stop in zip(starts[0], starts[0][1:])]


def _row_keys(Z: np.ndarray) -> np.ndarray:
    """Each row of a symbol matrix as one byte string, so rows compare,
    sort and search as values."""
    Z = np.ascontiguousarray(Z)
    return Z.view(np.dtype((np.void, Z.dtype.itemsize * Z.shape[1]))).ravel()


def _mirror(a: np.ndarray) -> None:
    """Copy the upper triangle of a square byte array onto the lower one,
    a square tile at a time, so that a tile and its transpose stay in
    cache."""
    for i in range(0, len(a), _MIRROR_TILE):
        rows = slice(i, i + _MIRROR_TILE)
        for j in range(i + _MIRROR_TILE, len(a), _MIRROR_TILE):
            cols = slice(j, j + _MIRROR_TILE)
            a[cols, rows] = a[rows, cols].T
        square = a[rows, rows]
        np.copyto(square, square.T, where=np.tri(len(square), k=-1,
                                                 dtype=bool))


@dataclass(frozen=True, eq=False)
class _Exits:
    """One ``exit_orders`` pass of a pool against itself, read-only."""

    system: ShiftSystem
    eps: float
    points: Points
    depth: int
    exits: Exits
    families: dict = field(default_factory=dict)  # built on it, by callers

    @functools.cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool's rows as sorted byte strings, and their indices."""
        keys = _row_keys(self.points.symbols)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def cut(self, Z: Points) -> Exits | None:
        """The exits of Z's rows against themselves, read inside the
        pass's blocks, or None when some row is not in the pool.  Equal
        rows have equal exits, so any match serves."""
        keys, order = self.rows
        want = _row_keys(Z.symbols)
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if not len(keys) or (keys[at] != want).any():
            return None
        block, pos = self.exits.where
        at_block, at_pos = block[order[at]], pos[order[at]]
        blocks = []
        for b, blk in enumerate(self.exits.blocks):
            mine = np.flatnonzero(at_block == b)
            if len(mine):
                # in the pool block's order, so its cylinders stay runs
                mine = mine[np.argsort(at_pos[mine], kind="stable")]
                at = at_pos[mine]
                # a cylinder with none of the sub-pool's points is empty
                edges = tuple(np.searchsorted(at, e) for e in blk.edges)
                blocks.append(ExitBlock(mine, blk.opened, blk.closed, edges,
                                        at))
        return Exits(len(Z), tuple(blocks), self.exits.dtype)


def pool_exits(system: ShiftSystem, Z: Points, eps: float,
               n_max: int) -> Exits:
    """``exit_orders`` of the rows of Z from the balls at the rows of Z,
    from one memoised pass.

    The memo keeps the last pass, read-only, keyed on (system, Z, eps).
    It answers any ``n_max`` up to the depth it was built at, and pools
    whose rows all lie in its own, by reading inside its blocks: a pair
    gets the same double in any pool, and the cylinder rule depends on the
    system, eps and the slacks only.  Any other request replaces it; the
    old pass is freed before the new one is made.

    A read equals a fresh pass at every order <= ``n_max``: entries above
    ``n_max`` are the memo's own and are not capped, since every reader
    compares them with an order of its own (``exits > n``).
    """
    memo = _exits_memo[0] if _exits_memo else None
    if (memo is not None and memo.system == system and memo.eps == eps
            and memo.depth >= n_max):
        if Z == memo.points:
            return memo.exits
        cut = memo.cut(Z)
        if cut is not None:
            return cut
    memo = None  # so the old pass is freed before the new one is made
    _exits_memo.clear()
    exits = exit_orders(system, Z.symbols, eps, n_max)
    for b in exits.blocks:
        b.opened.setflags(write=False)
        b.closed.setflags(write=False)
    _exits_memo.append(_Exits(system, eps, Z, n_max, exits))
    return exits


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
        conflict = pool_exits(system, pts, eps, n).dense() > n
        np.fill_diagonal(conflict, False)
        # fewest conflicts (most separations) first, ties by index
        order = np.argsort(conflict.sum(axis=1), kind="stable")
        best, _ = max_weight_independent(conflict, np.ones(len(pts)), order)
        return pts[best], True
    order = _lex_order(Z)
    kept = order[_greedy_scan(system, Z[order], n, eps)]
    return pts[kept], False


def greedy_separated(Z: np.ndarray, exits: Exits, n: int,
                     free: np.ndarray) -> list[int]:
    """``max_separated``'s greedy scan of the ``free`` rows of Z over their
    open ``exit_orders``: in lexicographic order, a free row is kept and
    the rows inside its (n, eps)-ball, all in its own n-cylinder, stop
    being free."""
    block, pos = exits.where
    ball, kept = exits.balls(n), []
    free = [free[b.rows] for b in exits.blocks]  # each block's, in its order
    for row in _lex_order(Z).tolist():
        if free[block[row]][pos[row]]:
            kept.append(row)
            b, _, span, exits_row = ball(row)
            free[b][span] &= exits_row <= n
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
    cover_sets = pool_exits(system, pts, eps, n).dense() > n
    if len(pts) <= exact_cap:
        chosen = min_weight_cover(cover_sets, np.ones(len(pts)))
        return pts[sorted(chosen)], True
    chosen = greedy_cover(cover_sets, _lex_order(pts.symbols))
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
