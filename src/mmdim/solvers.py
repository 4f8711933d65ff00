"""Combinatorial searches: every one in the package lives here, except
the two greedy separated-set scans that read Bowen distances directly and
stay in ``bowen`` (``_greedy_scan`` and ``greedy_separated``).

Separated and spanning sets, Katok counts and Caratheodory-Pesin values
are weighted set covers (of every point, or of more than a target mass)
or maximum-weight independent sets on a conflict graph.  Callers build
the boolean matrices, rows being sets and columns points, packed into
int bitsets (``rows_as_bits``), or for ``greedy_weighted_cover`` into
``Bitsets`` that span each row's own columns;
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
  sum of ``mass`` over the columns that the row's block reads with its
  n-cylinder (``bowen.ExitBlock.cylinders``), the covered ones zeroed,
  with no BLAS call, so it has the same bits whatever the thread count;
  the covered mass adds the gains in the order taken.  A whole row would
  add the same non-zero terms in another grouping, which on dyadic
  masses gives the same bits.  It reads
  its balls off exit orders and an order, as ``bowen.greedy_separated``
  does, so the caller builds no bool matrix.

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
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, PoolInsufficientError

# Byte budget of the temporaries of one run of rows in a blocked pass (the
# distance engine with its caller's reach and compares, the candidate
# suprema and bitsets, the mass-cover gains): each pass counts every array
# it makes per entry, so a run stays within this whatever the pool size,
# and in cache.
_BLOCK_BYTES = 1 << 18


def rows_as_bits(matrix: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as ints whose bit j is entry j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(frozen=True, eq=False)
class Bitsets:
    """Rows of a boolean matrix whose columns fall into parts that no row
    straddles, each row an int over its own span: row i holds column
    ``low[i] + j`` of part ``part[i]`` for each bit j of ``bits[i]``, and
    part p has ``widths[p]`` columns.  So a row's int is as long as its
    span, not as its part or the matrix."""

    bits: list[int]
    part: list[int]
    low: list[int]
    widths: tuple[int, ...]

    @staticmethod
    def spans(rows: list[int]) -> tuple[list[int], list[int]]:
        """``(low, bits)`` of each int: its lowest set bit (0 for 0), and
        the int shifted down by it."""
        low = [(x & -x).bit_length() - 1 if x else 0 for x in rows]
        return low, [x >> j for x, j in zip(rows, low)]

    def take(self, rows: Sequence[int]) -> "Bitsets":
        return Bitsets([self.bits[i] for i in rows],
                       [self.part[i] for i in rows],
                       [self.low[i] for i in rows], self.widths)


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


def greedy_weighted_cover(sets: Bitsets, weights: np.ndarray) -> list[int]:
    """Lazy cost-effectiveness greedy cover of every column by the rows.

    Coverage gains only shrink as points get covered, so weight/gain
    scores only grow and a stale heap top can be re-checked in isolation.
    Each part keeps its own uncovered columns.
    """
    bits, part, low = sets.bits, sets.part, sets.low
    uncovered = [(1 << width) - 1 for width in sets.widths]
    left = sum(sets.widths)
    w = weights.tolist()
    # first keys are bare weights, not weight/gain, so an untouched ball can
    # lose to one of worse true score; true gains would move emitted values
    heap = list(zip([x if row else math.inf for x, row in zip(w, bits)],
                    range(len(w))))
    heapq.heapify(heap)
    chosen: list[int] = []
    while left:
        score, i, gain = -1.0, -1, 0
        while heap:
            score, i = heapq.heappop(heap)
            gain = (uncovered[part[i]] >> low[i] & bits[i]).bit_count()
            fresh = w[i] / gain if gain > 0 else math.inf
            if not heap or fresh <= heap[0][0] + 1e-18:
                score = fresh
                break
            heapq.heappush(heap, (fresh, i))
        if i < 0 or not math.isfinite(score):
            raise ConfigurationError("greedy cover stalled")
        chosen.append(i)
        uncovered[part[i]] &= ~(bits[i] << low[i])
        left -= gain
    return chosen


def _gains(rows: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The uncovered mass of a row, or of each row of a run: ``active``
    times the row's 0/1 entries, summed along the row by numpy's pairwise
    sum.  A row's sum has the same bits alone or in any run."""
    return (rows * active).sum(axis=-1)


def greedy_mass_cover(exits, n: int, mass: np.ndarray,
                      target: float) -> tuple[int, float]:
    """Greedy count of balls whose union has mass above ``target``, and the
    mass covered; uncovered-mass gains only shrink, so the heap is lazy.

    ``exits`` holds exit orders (``bowen.Exits``), so ball i is row i's
    exits above n, read in its block over the columns read with its
    n-cylinder only: the bool rows are made a run or a row at a time, and
    no |rows| x |columns| membership is ever held.  No column lies in two blocks, so
    each block keeps the uncovered mass of its own columns."""
    blocks, ball = exits.blocks, exits.balls(n)
    active = [mass[b.rows].astype(float) for b in blocks]
    # first keys a run of rows at a time, a run's read, bools and float
    # product (10 bytes an entry) within _BLOCK_BYTES; a re-check of an
    # untouched row repeats its key
    keys = np.empty(exits.size)
    for b, act in zip(blocks, active):
        for rows, span, cell in b.cells(n, 10):
            keys[b.rows[rows]] = _gains(cell > n, act[span])
    heap = [(-g, i) for i, g in enumerate(keys.tolist())]
    heapq.heapify(heap)
    count, covered = 0, 0.0
    while covered <= target:
        fresh, uncovered, members = 0.0, None, None
        while heap:
            _, i = heapq.heappop(heap)
            b, _, span, row = ball(i)
            members, uncovered = row > n, active[b][span]
            fresh = float(_gains(members, uncovered))
            if not heap or fresh >= -heap[0][0] - 1e-15:
                break
            heapq.heappush(heap, (-fresh, i))
        if fresh <= 0:
            raise PoolInsufficientError("greedy mass cover stalled")
        uncovered[members] = 0.0  # a view of its block's masses
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
