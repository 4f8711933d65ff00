"""Combinatorial searches: every one in the package lives here, except
the two greedy separated-set scans that read Bowen distances directly and
stay in ``bowen`` (``_greedy_scan`` and ``greedy_separated``).

Separated and spanning sets, Katok counts and Caratheodory-Pesin values
are weighted set covers (of every point, or of more than a target mass)
or maximum-weight independent sets on a conflict graph.  Callers build
the boolean matrices, rows being sets and columns points, packed into
int bitsets (``rows_as_bits``) for ``greedy_weighted_cover``;
``greedy_mass_cover`` alone takes exit orders in their place.  Tie rules,
which fix the emitted choices and the order their weights are summed in:

* ``max_weight_independent``: depth first over the given order, "include"
  before "skip", the best replaced only on a strict improvement, so the
  first optimum in that order wins; the total is summed from 0.0 in
  inclusion order.
* ``min_weight_cover``: branches on the uncovered point with the fewest
  sets and tries its sets by ascending weight, the lowest index first
  among ties in both; "give the point up" (mass targets only) comes last.
  The best is replaced only when cheaper by more than 1e-15.
* ``greedy_disjoint``: keeps each set, in the given order, that shares no
  point with a set kept before it.
* ``greedy_cover``: best coverage; ties go to the earliest set in the tie
  order.
* ``greedy_weighted_cover``: lowest weight per new point, from a lazy heap
  keyed (score, row) and seeded with the weights themselves.
* ``greedy_mass_cover``: largest uncovered mass, from a lazy heap keyed
  (-gain, row); a popped row is taken when its fresh gain is within 1e-15
  of the next key.  Every gain, first key or re-check, is numpy's pairwise
  sum of ``mass`` over all of the row's columns with the covered ones
  zeroed, with no BLAS call, so it has the same bits whatever the thread
  count; the covered mass adds the gains in the order taken.  It reads
  its balls off an exit-order matrix and an order, as
  ``bowen.greedy_separated`` does, so the caller builds no bool matrix.

The three greedy covers break ties differently; merging them would move
emitted counts and bounds.

``fractional_cover`` solves the weighted cover LP (min w.x, sets.T @ x
>= 1, x >= 0) to round-off by a dense tableau simplex on its dual, the
packing LP max 1.y subject to sets @ y <= w / max(w), y >= 0:

* the all-slack basis is feasible because w > 0, so there is no phase 1;
* Bland's rule picks both the entering column and the leaving row (the
  lowest index), so the degenerate Bowen-ball covers, whose balls often
  share members across orders, cannot cycle;
* ratio-test ties are relative, since the ratios carry w's scale, and
  coefficients below 1e-11 are round-off and set to zero after a pivot;
* x is read from the final objective row under the slack columns and
  does not scale with w; the optimum is max(w) times the objective.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, PoolInsufficientError

# Byte budget of one block of rows in a blocked pass (the distance engine,
# the candidate suprema, the mass-cover gains), so a block's temporaries
# stay within about twice this whatever the pool size; a block this small
# also stays in cache.
_BLOCK_BYTES = 1 << 20


def rows_as_bits(matrix: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as ints whose bit j is entry j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _indices(bits: int) -> Iterator[int]:
    """The positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _mass(mass: np.ndarray, bits: int) -> float:
    """The mass of the columns in ``bits``, summed as ``mass[mask].sum()``."""
    raw = bits.to_bytes((len(mass) + 7) // 8, "little")
    mask = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=len(mass),
                         bitorder="little").view(bool)
    return float(mass[mask].sum())


# -- exact searches -----------------------------------------------------------


def max_weight_independent(conflict: np.ndarray, weights: np.ndarray,
                           order: Sequence[int]) -> tuple[list[int], float]:
    """Maximum-weight indices no two of which conflict, ascending, and
    their total; ``conflict[i, j]``, i before j in ``order``, rules out both.

    A node is pruned when its total plus a bound is within 1e-15 of the
    best.  The bound colours the candidates greedily, in order, into classes
    of pairwise-conflicting ones and sums each class's largest weight
    (Tomita and Seki 2003); with unit weights it is the colour count of a
    maximum-clique search on the complement.
    """
    order = [int(i) for i in order]
    w = [float(weights[i]) for i in order]
    # bit q of later[p]: position p rules out position q
    later = rows_as_bits(conflict[np.ix_(order, order)])
    best_val, best = 0.0, []

    def bound(cands: int) -> float:
        tops: list[float] = []
        joinable: list[int] = []  # positions all of a class rules out
        for p in _indices(cands):
            for c, mask in enumerate(joinable):
                if mask >> p & 1:
                    joinable[c] &= later[p]
                    tops[c] = max(tops[c], w[p])
                    break
            else:
                joinable.append(later[p])
                tops.append(w[p])
        return math.fsum(tops)

    def search(cands: int, val: float, chosen: list[int]):
        nonlocal best_val, best
        if val > best_val:
            best_val, best = val, chosen
        if not cands or val + bound(cands) <= best_val + 1e-15:
            return
        p = next(_indices(cands))
        rest = cands & ~(1 << p)
        search(rest & ~later[p], val + w[p], chosen + [p])
        search(rest, val, chosen)

    search((1 << len(order)) - 1, 0.0, [])
    return sorted(order[p] for p in best), best_val


def min_weight_cover(sets: np.ndarray, weights: np.ndarray,
                     mass: np.ndarray | None = None,
                     target: float | None = None) -> list[int]:
    """Minimum-weight rows, in the order added, covering every column or,
    given a per-column ``mass``, a union of mass above ``target`` (empty
    when nothing reaches the goal).

    The bound is the lightest weight times the rows still needed:
    ceil(uncovered / largest row) for a full cover, 1 under a mass target.
    Giving a column up disallows its rows; it is tried only while the
    covered columns and the allowed rows' columns weigh above the target.
    """
    sets = np.asarray(sets, dtype=bool)
    n_sets, m = sets.shape
    masks, holders = rows_as_bits(sets), rows_as_bits(sets.T)
    by_count = sorted(range(m), key=lambda j: holders[j].bit_count())
    max_size = int(sets.sum(axis=1).max())
    min_w = float(weights.min())
    full = (1 << m) - 1
    best_cost, best = math.inf, []

    def search(covered: int, allowed: int, cost: float, chosen: list[int]):
        nonlocal best_cost, best
        if covered == full if mass is None else _mass(mass, covered) > target:
            if cost < best_cost - 1e-15:
                best_cost, best = cost, chosen
            return
        need = (math.ceil((m - covered.bit_count()) / max_size)
                if mass is None else 1)
        if cost + min_w * need >= best_cost - 1e-15:
            return
        j = next((j for j in by_count
                  if not covered >> j & 1 and holders[j] & allowed), None)
        if j is None:
            return
        opts = sorted(_indices(holders[j] & allowed), key=lambda i: weights[i])
        for i in opts:
            search(covered | masks[i], allowed, cost + float(weights[i]),
                   chosen + [i])
        if mass is not None:
            rest = allowed & ~holders[j]
            reach = functools.reduce(operator.or_,
                                     (masks[i] for i in _indices(rest)), covered)
            if _mass(mass, reach) > target:
                search(covered, rest, cost, chosen)

    search(0, (1 << n_sets) - 1, 0.0, [])
    return best


# -- greedy -------------------------------------------------------------------


def greedy_disjoint(members: np.ndarray, order: Sequence[int]) -> list[int]:
    """The rows one pass over ``order`` keeps, in that order."""
    taken = np.zeros(members.shape[1], dtype=bool)
    kept: list[int] = []
    for i in order:
        if not (members[i] & taken).any():
            kept.append(i)
            taken |= members[i]
    return kept


def greedy_cover(sets: np.ndarray, tie_order: np.ndarray) -> list[int]:
    """Best-coverage greedy cover; the rows come back in ``tie_order``."""
    sets_in_order = sets[tie_order]
    uncovered = np.ones(sets.shape[1], dtype=bool)
    chosen: list[int] = []
    while uncovered.any():
        gains = (sets_in_order & uncovered).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            # every point covers itself, so this cannot happen
            raise ConfigurationError("greedy cover stalled")
        chosen.append(best)
        uncovered &= ~sets_in_order[best]
    return [int(tie_order[pos]) for pos in sorted(chosen)]


def greedy_weighted_cover(sets: Sequence[int], weights: np.ndarray,
                          columns: int) -> list[int]:
    """Lazy cost-effectiveness greedy cover of ``columns`` by bitset rows.

    Coverage gains only shrink as points get covered, so weight/gain
    scores only grow and a stale heap top can be re-checked in isolation.
    """
    uncovered = (1 << columns) - 1
    w = weights.tolist()
    # first keys are bare weights, not weight/gain, so an untouched ball can
    # lose to one of worse true score; true gains would move emitted values
    heap = list(zip([x if row else math.inf for x, row in zip(w, sets)],
                    range(len(w))))
    heapq.heapify(heap)
    chosen: list[int] = []
    while uncovered:
        score, i = -1.0, -1
        while heap:
            score, i = heapq.heappop(heap)
            gain = (sets[i] & uncovered).bit_count()
            fresh = w[i] / gain if gain > 0 else math.inf
            if not heap or fresh <= heap[0][0] + 1e-18:
                score = fresh
                break
            heapq.heappush(heap, (fresh, i))
        if i < 0 or not math.isfinite(score):
            raise ConfigurationError("greedy cover stalled")
        chosen.append(i)
        uncovered &= ~sets[i]
    return chosen


def _gains(rows: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The uncovered mass of a row, or of each row of a block: ``active``
    times the row's 0/1 entries, summed along the row by numpy's pairwise
    sum.  A row's sum has the same bits alone or in any block."""
    return (rows * active).sum(axis=-1)


def greedy_mass_cover(exits: np.ndarray, n: int, mass: np.ndarray,
                      target: float) -> tuple[int, float]:
    """Greedy count of balls whose union has mass above ``target``, and the
    mass covered; uncovered-mass gains only shrink, so the heap is lazy.

    Row i of ``exits`` holds exit orders (``bowen.exit_orders``), so ball
    i is ``exits[i] > n``: the bool rows are made a block or a row at a
    time, and no |rows| x |columns| membership is ever held."""
    active = mass.astype(float)
    # first keys a block of rows at a time, each block's float temporary
    # within _BLOCK_BYTES; a re-check of an untouched row repeats its key
    step = max(1, _BLOCK_BYTES // (8 * exits.shape[1]))
    gains = np.concatenate([_gains(exits[s:s + step] > n, active)
                            for s in range(0, len(exits), step)])
    heap = [(-g, i) for i, g in enumerate(gains.tolist())]
    heapq.heapify(heap)
    count, covered = 0, 0.0
    while covered <= target:
        fresh, i = 0.0, -1
        while heap:
            _, i = heapq.heappop(heap)
            ball = exits[i] > n
            fresh = float(_gains(ball, active))
            if not heap or fresh >= -heap[0][0] - 1e-15:
                break
            heapq.heappush(heap, (-fresh, i))
        if fresh <= 0:
            raise PoolInsufficientError("greedy mass cover stalled")
        active[ball] = 0.0
        covered += fresh
        count += 1
    return count, covered


# -- linear programming -------------------------------------------------------

# tableau entries below this count as zero in the pricing and ratio tests
_PIVOT_TOL = 1e-11
# ratios within this relative distance of the least one tie
_TIE_RTOL = 1e-12
# Bland's rule ends in exact arithmetic; this only bounds a round-off loop
_PIVOT_LIMIT = 10_000


def fractional_cover(sets: np.ndarray, weights: np.ndarray,
                     ) -> tuple[float, np.ndarray]:
    """Minimum of w.x over x >= 0 with every column covered at least once
    (sets.T @ x >= 1), and the x attaining it (w > 0)."""
    top = float(weights.max())
    objective, _, x = _packing_simplex(sets, weights / top)
    return top * objective, x


def _packing_simplex(sets: np.ndarray, b: np.ndarray,
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """Max 1.y subject to sets @ y <= b, y >= 0, for b >= 0: the
    objective, y, and the dual optimum x (sets.T @ x >= 1, x >= 0)."""
    rows, cols = sets.shape
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[:rows, :cols] = sets
    tab[:rows, cols:-1] = np.eye(rows)
    tab[:rows, -1] = b
    tab[-1, :cols] = -1.0
    basis = np.arange(cols, cols + rows)
    for _ in range(_PIVOT_LIMIT):
        entering = np.flatnonzero(tab[-1, :-1] < -_PIVOT_TOL)
        if not len(entering):
            y = np.zeros(cols)
            in_basis = basis < cols
            y[basis[in_basis]] = tab[:rows, -1][in_basis]
            return float(tab[-1, -1]), y, tab[-1, cols:-1].copy()
        e = int(entering[0])
        column = tab[:rows, e]
        able = np.flatnonzero(column > _PIVOT_TOL)
        if not len(able):
            # unbounded, which only a point that no set holds allows
            raise ConfigurationError("fractional cover: a point lies in no set")
        ratios = tab[able, -1] / column[able]
        # an absolute tie tolerance would tie every row once b is tiny
        tied = able[ratios <= ratios.min() * (1.0 + _TIE_RTOL)]
        r = int(tied[np.argmin(basis[tied])])
        pivot_row = tab[r] / tab[r, e]
        tab -= np.outer(tab[:, e], pivot_row)
        tab[r] = pivot_row
        # coefficients are multiples of 1/det of a 0/1 basis, far above the
        # tolerance on covers of a few dozen points, so anything under it
        # is round-off; left in place, it carries a zero right-hand side
        # below zero
        coef = tab[:, :-1]
        coef[np.abs(coef) < _PIVOT_TOL] = 0.0
        tab[tied[tied != r], -1] = 0.0
        basis[r] = e
    raise ConfigurationError("fractional cover simplex did not converge")
