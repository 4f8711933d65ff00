"""The shared searches of ``mmdim.solvers`` against the routines they replace.

Each reference below is the search one module ran before the solvers were
shared: the maximum-clique search of exact separation, the include/skip
packing search, the exact Katok count, the full set-cover search, the
greedy packing and the weighted greedy cover over a boolean matrix.  The shared solvers must return the same sets, the same
totals bit for bit and the same counts.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmdim.bowen import ExitBlock, Exits, ball_masks, max_separated
from mmdim.caratheodory import (
    PACKING_P,
    OuterMeasureProblem,
    _build_candidates,
    _candidates,
    _log_weights,
)
from mmdim.errors import ConfigurationError, PoolInsufficientError
from mmdim.solvers import (
    Bitsets,
    _packing_simplex,
    fractional_cover,
    greedy_disjoint,
    greedy_mass_cover,
    greedy_weighted_cover,
    max_weight_independent,
    min_weight_cover,
    rows_as_bits,
)
from mmdim.systems import ABSOLUTE, DISCRETE, Potential, ShiftSystem

# -- references ---------------------------------------------------------------


def reference_max_clique(adj: np.ndarray) -> list[int]:
    """Maximum clique via branch and bound with a greedy coloring bound."""
    m = adj.shape[0]
    order = sorted(range(m), key=lambda i: -int(adj[i].sum()))
    best: list[int] = []

    def color_bound(cands):
        colors: list[set[int]] = []
        for v in cands:
            for cls in colors:
                if all(not adj[v, u] for u in cls):
                    cls.add(v)
                    break
            else:
                colors.append({v})
        return len(colors)

    def expand(current, cands):
        nonlocal best
        if not cands:
            if len(current) > len(best):
                best = list(current)
            return
        if len(current) + color_bound(cands) <= len(best):
            return
        for idx, v in enumerate(cands):
            if len(current) + len(cands) - idx <= len(best):
                return
            rest = [u for u in cands[idx + 1:] if adj[v, u]]
            expand(current + [v], rest)

    expand([], order)
    return best


def reference_max_weight_disjoint_exact(conflict, weights):
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    suffix = np.zeros(len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + weights[order[pos]]
    best_set: list[int] = []
    best_val = 0.0

    def recurse(pos, current, val):
        nonlocal best_set, best_val
        if val > best_val:
            best_val, best_set = val, list(current)
        if pos == len(order) or val + suffix[pos] <= best_val + 1e-15:
            return
        i = order[pos]
        if all(not conflict[i, j] for j in current):
            recurse(pos + 1, current + [i], val + float(weights[i]))
        recurse(pos + 1, current, val)

    recurse(0, [], 0.0)
    return sorted(best_set), best_val


def reference_max_weight_disjoint_greedy(membs, weights):
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    chosen: list[int] = []
    taken = np.zeros(len(membs[0]), dtype=bool)
    for i in order:
        if not (membs[i] & taken).any():
            chosen.append(i)
            taken |= membs[i]
    return sorted(chosen), float(weights[chosen].sum())


def reference_katok_exact(member_matrix, weights, target):
    n_sets = member_matrix.shape[0]
    best = n_sets + 1

    def recurse(start, covered, picked):
        nonlocal best
        if float(weights[covered].sum()) > target:
            best = min(best, picked)
            return
        if picked + 1 >= best or start == n_sets:
            return
        rest = member_matrix[start:].any(axis=0) & ~covered
        if float(weights[covered].sum() + weights[rest].sum()) <= target:
            return
        recurse(start + 1, covered | member_matrix[start], picked + 1)
        recurse(start + 1, covered, picked)

    recurse(0, np.zeros(member_matrix.shape[1], dtype=bool), 0)
    return best


def reference_greedy_mass_cover(sets, mass, target):
    """The greedy mass cover without a heap: each round sums every row's
    uncovered mass on its own and takes the largest, the lowest row first."""
    active = mass.astype(float)
    count, covered = 0, 0.0
    while covered <= target:
        gains = [float(np.where(row, active, 0.0).sum()) for row in sets]
        best = int(np.argmax(gains))
        active[sets[best]] = 0.0
        covered += gains[best]
        count += 1
    return count, covered


def reference_greedy_weighted_cover(sets, weights):
    """The lazy weighted greedy cover over a boolean membership matrix,
    with its heap seeded from the boolean product ``sets @ uncovered``."""
    uncovered = np.ones(sets.shape[1], dtype=bool)
    gains = sets @ uncovered
    heap = list(zip(np.where(gains, weights, math.inf).tolist(),
                    range(len(weights))))
    heapq.heapify(heap)
    chosen = []
    while uncovered.any():
        score, i = -1.0, -1
        while heap:
            score, i = heapq.heappop(heap)
            gain = int((sets[i] & uncovered).sum())
            fresh = weights[i] / gain if gain > 0 else math.inf
            if not heap or fresh <= heap[0][0] + 1e-18:
                score = fresh
                break
            heapq.heappush(heap, (fresh, i))
        if i < 0 or not np.isfinite(score):
            raise ConfigurationError("greedy cover stalled")
        chosen.append(i)
        uncovered &= ~sets[i]
    return chosen


def reference_min_cover_exact(cover_sets, weights):
    m = len(cover_sets[0])
    full = (1 << m) - 1
    masks = []
    for s in cover_sets:
        mask = 0
        for j in np.flatnonzero(s):
            mask |= 1 << int(j)
        masks.append(mask)
    containing: list[list[int]] = [[] for _ in range(m)]
    for i, mask in enumerate(masks):
        for j in range(m):
            if mask >> j & 1:
                containing[j].append(i)
    max_size = max(int(s.sum()) for s in cover_sets)
    min_w = float(weights.min())
    best_cost = float("inf")
    best_sol: list[int] = []

    def recurse(covered, cost, chosen):
        nonlocal best_cost, best_sol
        if covered == full:
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_sol = list(chosen)
            return
        remaining = m - bin(covered).count("1")
        if cost + min_w * np.ceil(remaining / max_size) >= best_cost - 1e-15:
            return
        pick_opts = None
        for j in range(m):
            if covered >> j & 1:
                continue
            opts = containing[j]
            if pick_opts is None or len(opts) < len(pick_opts):
                pick_opts = opts
        for i in sorted(pick_opts, key=lambda i: weights[i]):
            recurse(covered | masks[i], cost + float(weights[i]), chosen + [i])

    recurse(0, 0.0, [])
    return best_sol


# -- helpers ------------------------------------------------------------------


def random_conflicts(rng, m, density):
    upper = np.triu(rng.random((m, m)) < density, 1)
    return upper | upper.T


def separation_order(conflict):
    return np.argsort(conflict.sum(axis=1), kind="stable")


def assert_same_clique(conflict):
    sep = ~conflict
    np.fill_diagonal(sep, False)
    got, total = max_weight_independent(conflict, np.ones(len(conflict)),
                                        separation_order(conflict))
    want = sorted(reference_max_clique(sep))
    assert got == want
    assert total == float(len(want))


def assert_same_packing(conflict, weights):
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    got = max_weight_independent(conflict, weights, order)
    want = reference_max_weight_disjoint_exact(conflict, weights)
    chosen = got[0]
    assert not conflict[np.ix_(chosen, chosen)].any()
    total = 0.0
    for i in order:  # inclusion order
        if i in chosen:
            total += float(weights[i])
    assert got[1] == total
    if got != want:
        # Both searches skip a branch that cannot beat the best by more
        # than 1e-15, so they may part within that: at tiny weights (large
        # lambda) and where two families' totals differ only by rounding,
        # as with weights 0.1, 0.2 and 0.3.  The colouring bound is tighter
        # than the old suffix sum, so it skips some that the old search took.
        assert (abs(got[1] - want[1]) <= 1e-15
                or math.isclose(got[1], want[1], rel_tol=1e-13))


# -- independent sets ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 18), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_unit_weights_match_max_clique_on_random_graphs(m, density, seed):
    rng = np.random.default_rng(seed)
    assert_same_clique(random_conflicts(rng, m, density))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([DISCRETE, ABSOLUTE]),
       st.integers(1, 3), st.sampled_from([1.2, 0.9, 0.6, 0.4, 0.3, 0.15]),
       st.integers(0, 2 ** 32 - 1))
def test_unit_weights_match_max_clique_on_separation_graphs(k, metric, n, eps,
                                                            seed):
    system = ShiftSystem(kind="full-shift", alphabet_size=k, window=12,
                         symbol_metric=metric, eps_min=0.05)
    pool = system.enumerate_points(3 if k == 2 else 2)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(16, len(pool)) + 1))
    pts = pool[sorted(rng.choice(len(pool), size, replace=False))]
    Z = pts.symbols
    conflict = ball_masks(system, Z, Z, n, eps)
    np.fill_diagonal(conflict, False)
    assert_same_clique(conflict)
    sep = ~conflict
    np.fill_diagonal(sep, False)
    kept, exact = max_separated(system, pts, n, eps)
    assert exact
    assert kept == pts[sorted(reference_max_clique(sep))]


weight_lists = st.one_of(
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=16),
    st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=1,
             max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(weight_lists, st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_weighted_search_matches_packing_search(weights, density, seed):
    rng = np.random.default_rng(seed)
    conflict = random_conflicts(rng, len(weights), density)
    assert_same_packing(conflict, np.asarray(weights))


def test_weighted_search_keeps_the_first_optimum_on_exact_ties():
    # dyadic weights sum exactly and far above 1e-15, so the two searches
    # must agree set for set: of equal totals the first in order wins
    rng = np.random.default_rng(31)
    for _ in range(400):
        m = int(rng.integers(2, 16))
        conflict = random_conflicts(rng, m, rng.uniform(0.1, 0.9))
        weights = rng.choice([0.25, 0.5, 1.0, 2.0], size=m)
        order = sorted(range(m), key=lambda i: -weights[i])
        assert max_weight_independent(conflict, weights, order) == \
            reference_max_weight_disjoint_exact(conflict, weights)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([0.6, 0.3, 0.15]),
       st.integers(1, 3),
       st.one_of(st.sampled_from([-700.0, -350.0, -233.4, -0.4, 0.0, 1.0,
                                  233.4, 350.0, 700.0]),
                 st.floats(-720.0, 720.0)),
       st.integers(0, 2 ** 32 - 1))
def test_packing_families_match_near_the_clip(k, eps, n_max, lam, seed):
    system = ShiftSystem(kind="grid-shift", alphabet_size=k, window=12,
                         eps_min=0.05)
    pool = system.enumerate_points(2)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, min(8, len(pool)) + 1))
    pts = pool[sorted(rng.choice(len(pool), size, replace=False))]
    phi = Potential.from_table(rng.uniform(-2.0, 2.0, size=k))
    problem = OuterMeasureProblem(system=system, points=pts, phi=phi,
                                  eps=eps, n_max=n_max, structure=PACKING_P)
    weights = np.exp(_log_weights(problem, lam, _candidates(problem)))
    M = _candidates(problem).closed_members
    conflict = M @ M.T
    np.fill_diagonal(conflict, False)
    assert_same_packing(conflict, weights)
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    picked = greedy_disjoint(M, order)
    got = sorted(picked), float(weights[picked].sum())
    want = reference_max_weight_disjoint_greedy(M, weights)
    assert got[0] == want[0] and got[1] == want[1]


@settings(max_examples=100, deadline=None)
@given(weight_lists, st.integers(1, 30), st.floats(0.02, 0.6),
       st.integers(0, 2 ** 32 - 1))
def test_greedy_disjoint_matches_greedy_packing(weights, cols, density, seed):
    rng = np.random.default_rng(seed)
    weights = np.asarray(weights)
    M = rng.random((len(weights), cols)) < density
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    picked = greedy_disjoint(M, order)
    want = reference_max_weight_disjoint_greedy(M, weights)
    assert sorted(picked) == want[0]
    assert float(weights[picked].sum()) == want[1]


# -- covers -------------------------------------------------------------------


def random_cover(rng, rows, cols, density):
    sets = rng.random((rows, cols)) < density
    sets[rng.integers(0, rows, size=cols), np.arange(cols)] = True
    return sets


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.integers(1, 12), st.floats(0.05, 0.6),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_full_cover_matches_cover_search(rows, cols, density, unit, seed):
    rng = np.random.default_rng(seed)
    sets = random_cover(rng, rows, cols, density)
    weights = (np.ones(rows) if unit
               else np.exp(rng.normal(size=rows)).round(int(seed % 4)))
    weights[weights == 0] = 1.0
    assert min_weight_cover(sets, weights) == \
        reference_min_cover_exact(list(sets), weights)


def fewest_rows_above(sets, mass, target):
    """The definition of the Katok count: the fewest rows whose union has
    mass above the target, mass summed as ``mass[union].sum()``."""
    for k in range(1, len(sets) + 1):
        for rows in itertools.combinations(range(len(sets)), k):
            if float(mass[sets[list(rows)].any(axis=0)].sum()) > target:
                return k, rows
    raise AssertionError("no rows reach the target")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 40), st.floats(0.02, 0.5),
       st.floats(0.05, 0.95), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_mass_target_matches_katok_search(rows, cols, density, delta, uniform,
                                          seed):
    rng = np.random.default_rng(seed)
    sets = rng.random((rows, cols)) < density
    mass = np.full(cols, 1.0 / cols) if uniform else rng.dirichlet(
        np.ones(cols))
    target = 1.0 - delta
    if float(mass[sets.any(axis=0)].sum()) <= target:
        return  # katok_rn rejects a pool that cannot reach the target
    chosen = min_weight_cover(sets, np.ones(rows), mass=mass, target=target)
    want, optimum = fewest_rows_above(sets, mass, target)
    assert len(chosen) == want
    assert float(mass[sets[chosen].any(axis=0)].sum()) > target
    old = reference_katok_exact(sets, mass, target)
    if old != want:
        # the old search bounded the reachable mass by two partial sums,
        # which can round to the target where the union's own sum exceeds
        # it by an ulp; it then missed the optimum
        union = float(mass[sets[list(optimum)].any(axis=0)].sum())
        assert old > want and union - target <= 4 * np.spacing(target)


def test_mass_target_counts_a_union_an_ulp_above_the_target():
    # 20 of 40 points of mass 1/40 sum to 0.5000000000000001 > 0.5; two
    # rows reach that union, and the old search answered 3
    rng = np.random.default_rng(8482)
    sets = rng.random((10, 40)) < 0.171875
    mass = np.full(40, 0.025)
    chosen = min_weight_cover(sets, np.ones(10), mass=mass, target=0.5)
    assert chosen == [6, 9]
    assert float(mass[sets[chosen].any(axis=0)].sum()) > 0.5
    assert reference_katok_exact(sets, mass, 0.5) == 3


def one_block(opened: np.ndarray, closed: np.ndarray | None = None) -> Exits:
    """Square exit matrices as a store of one block: every pair."""
    closed = opened if closed is None else closed
    return Exits(len(opened), (ExitBlock(np.arange(len(opened)), opened,
                                         closed),), opened.dtype)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mass_cover_sums_each_row_on_its_own(seed):
    # non-dyadic masses over rows longer than one block of gains: every
    # gain, first key or re-check, is the row's own pairwise sum, so the
    # covered mass matches the per-row reference bit for bit
    rng = np.random.default_rng(seed)
    sets = rng.random((200, 3000)) < 0.2
    mass = rng.dirichlet(np.ones(3000))
    # exit orders whose balls at order 2 are the rows of ``sets``, in a
    # square store whose other rows hold empty balls
    exits = np.ones((3000, 3000), dtype=np.uint8)
    exits[:200] = np.where(sets, rng.integers(3, 7, sets.shape),
                           rng.integers(1, 3, sets.shape))
    assert greedy_mass_cover(one_block(exits), 2, mass, 0.9) == \
        reference_greedy_mass_cover(sets, mass, 0.9)


def test_mass_cover_stalls_below_the_target():
    # ball 0 holds the 0.3-mass point and ball 1 is empty at order 1, so
    # the reachable mass 0.3 never exceeds the target 0.5
    exits = np.array([[3, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(PoolInsufficientError, match="stalled"):
        greedy_mass_cover(one_block(exits), 1, np.array([0.3, 0.7]), 0.5)


def one_part(matrix: np.ndarray) -> Bitsets:
    """The rows of a boolean matrix as bitsets, its columns one part."""
    low, bits = Bitsets.spans(rows_as_bits(matrix))
    return Bitsets(bits, [0] * len(bits), low, (matrix.shape[1],))


def bitset_cover(sets, weights):
    return greedy_weighted_cover(one_part(sets), weights)


def whole_rows(sets: Bitsets) -> list[int]:
    """Each row as one int over every column, the parts in order."""
    offsets = np.cumsum((0,) + sets.widths).tolist()
    return [x << (j + offsets[p])
            for x, p, j in zip(sets.bits, sets.part, sets.low)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 90), st.integers(1, 70), st.floats(0.01, 0.5),
       st.sampled_from(["random", "close", "tied", "unit"]), st.integers(0, 8),
       st.integers(0, 2 ** 32 - 1))
def test_bitset_weighted_cover_matches_boolean_cover(rows, cols, density,
                                                     kind, empty, seed):
    rng = np.random.default_rng(seed)
    sets = rng.random((rows, cols)) < density
    sets[rng.integers(0, rows, size=empty)] = False  # rows covering nothing
    sets[rng.integers(0, rows), :] |= ~sets.any(axis=0)  # coverable
    weights = {"random": np.exp(rng.normal(size=rows)),
               "close": 1.0 + 1e-3 * rng.random(rows),
               "tied": rng.choice([0.25, 0.5, 1.0], size=rows),
               "unit": np.ones(rows)}[kind]
    assert bitset_cover(sets, weights) == \
        reference_greedy_weighted_cover(sets, weights)


@pytest.mark.parametrize("k,metric,eps", [(2, DISCRETE, 0.5),
                                          (3, ABSOLUTE, 0.3),
                                          (4, ABSOLUTE, 0.25)])
def test_bitset_weighted_cover_matches_on_fixed_order_families(k, metric,
                                                               eps):
    system = ShiftSystem(kind="grid-shift", alphabet_size=k, window=12,
                         symbol_metric=metric, eps_min=0.05)
    pts = system.enumerate_points(3 if k < 4 else 2)
    base = Potential.from_table(np.linspace(0.2, 1.0, k))
    cands = _build_candidates(system, pts, base, eps, 1, 4)
    rng = np.random.default_rng(k)
    L = len(cands.levels)  # levels 1..4; candidate c * L + level
    size = cands.exits.size * L
    for N in (1, 2, 4):
        idx = [i for i in range(size) if i % L >= N - 1]
        fixed = list(range(N - 1, size, L))
        for rows in (idx, fixed):
            sets = cands.open_members[rows]
            # the enumerated pool lists its origin cylinders in order
            bits = cands.open_bits.take(rows)
            assert whole_rows(bits) == rows_as_bits(sets)
            for weights in (np.exp(-N * rng.random() - cands.sup_open[rows]),
                            np.ones(len(rows))):
                assert greedy_weighted_cover(bits, weights) == \
                    reference_greedy_weighted_cover(sets, weights)


def test_bitset_weighted_cover_stalls_on_an_uncoverable_point():
    sets = np.array([[1, 0, 0], [0, 1, 0]], dtype=bool)
    for cover in (bitset_cover, reference_greedy_weighted_cover):
        with pytest.raises(ConfigurationError, match="stalled"):
            cover(sets, np.ones(2))


@pytest.mark.xfail(strict=True, reason="the heap is seeded with bare "
                   "weights, not weight / popcount")
def test_weighted_cover_within_chvatal_bound():
    # three unit singletons and one row of all three at weight 1.5: the
    # bare-weight seed takes the singletons (3.0) where the optimum is the
    # full row (1.5), past greedy's H(3) guarantee
    sets = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=bool)
    weights = np.array([1.0, 1.0, 1.0, 1.5])
    optimum = weights[min_weight_cover(sets, weights)].sum()
    assert optimum == 1.5
    greedy = weights[bitset_cover(sets, weights)].sum()
    assert greedy <= (1 + 1 / 2 + 1 / 3) * optimum


# -- fractional cover -----------------------------------------------------------


def random_cover_instance(rng, rows, cols, density, dup_rows, dup_cols,
                          all_ones):
    """A 0/1 cover of every column, with repeated rows and columns and,
    optionally, a row that holds every column."""
    sets = random_cover(rng, rows, cols, density)
    sets = np.vstack([sets, sets[rng.integers(0, rows, size=dup_rows)]])
    sets = np.hstack([sets, sets[:, rng.integers(0, cols, size=dup_cols)]])
    if all_ones:
        sets = np.vstack([sets, np.ones(sets.shape[1], dtype=bool)])
    return sets


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(1, 12), st.floats(0.05, 0.7),
       st.integers(0, 6), st.integers(0, 3), st.booleans(),
       st.floats(-700.0, 700.0), st.floats(-700.0, 700.0),
       st.integers(0, 2 ** 32 - 1))
# unit weights: pivot round-off once pushed a zero right-hand side below 0
@example(15, 11, 0.53125, 0, 0, False, 0.0, 0.0, 139)
def test_fractional_cover_is_certified_optimal(rows, cols, density, dup_rows,
                                              dup_cols, all_ones, lo, hi,
                                              seed):
    rng = np.random.default_rng(seed)
    sets = random_cover_instance(rng, rows, cols, density, dup_rows,
                                 dup_cols, all_ones)
    lo, hi = min(lo, hi), max(lo, hi)
    weights = np.exp(rng.uniform(lo, hi, size=len(sets)))
    value, x = fractional_cover(sets, weights)
    assert math.isfinite(value) and value >= 0.0
    # the primal cover
    assert (x >= 0.0).all()
    assert (sets.T.astype(float) @ x >= 1.0 - 1e-12).all()
    # the dual packing, on the scale the simplex solves at
    top = weights.max()
    b = weights / top
    objective, y, x_again = _packing_simplex(sets, b)
    assert np.array_equal(x, x_again) and value == top * objective
    assert (y >= 0.0).all()
    assert (sets.astype(float) @ y <= b * (1.0 + 1e-12)).all()
    primal = float(b @ x)
    assert abs(primal - objective) <= 1e-12 * max(primal, objective)
    assert abs(y.sum() - objective) <= 1e-12 * objective


def test_fractional_cover_stays_finite_when_weights_underflow():
    # w / max(w) is 0 for the two singletons, which cover both points
    sets = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
    weights = np.exp([-700.0, -700.0, 700.0])
    assert (weights / weights.max())[:2].tolist() == [0.0, 0.0]
    value, x = fractional_cover(sets, weights)
    assert value == 0.0
    assert x.tolist() == [1.0, 1.0, 0.0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.integers(1, 12), st.floats(0.05, 0.7),
       st.integers(0, 6), st.integers(0, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
# the optimum is the lightest covering row, 0.0018985...; HiGHS reads
# 2.1e-8 more, inside its absolute tolerance but not a relative 1e-7
@example(23, 1, 0.5, 4, 0, False, 8873)
def test_fractional_cover_matches_highs_on_moderate_weights(
        rows, cols, density, dup_rows, dup_cols, all_ones, seed):
    # HiGHS solves to absolute 1e-7 tolerances, which hold only while no
    # weight is far from 1; the duality test above certifies the optimum
    # exactly, so this one compares at HiGHS's own precision
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    sets = random_cover_instance(rng, rows, cols, density, dup_rows,
                                 dup_cols, all_ones)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, size=len(sets))
    res = linprog(c=weights, A_ub=-sets.T.astype(float),
                  b_ub=-np.ones(sets.shape[1]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    value, _ = fractional_cover(sets, weights)
    assert value == pytest.approx(res.fun, rel=1e-7, abs=1e-7)


def test_fractional_cover_rejects_an_uncoverable_point():
    sets = np.array([[1, 0, 0], [0, 1, 0]], dtype=bool)
    with pytest.raises(ConfigurationError, match="no set"):
        fractional_cover(sets, np.ones(2))
