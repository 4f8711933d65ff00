"""The blocked Bowen-distance engine against a per-pair reference.

The reference below is the straightforward computation: one centre at a
time, the documented recurrence over the pool's symbol distances (a
backward sweep for the right part of every shift, Horner for the
two-sided left part, integer differences divided by k at the end on the
absolute-difference metric), and a max over the shifts.  The engine must
agree with it exactly, not just approximately, so that every membership
decision ``d + slack < eps`` comes out the same wherever a pair sits.
The weight-kernel dot products the engine used before stay as a
tolerance check.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmdim import bowen, caratheodory, measures
from mmdim.bowen import (
    BallSpec,
    ball_masks,
    centre_exits,
    distance_blocks,
    exit_orders,
    five_r_disjointify,
    greedy_separated,
    max_separated,
    min_spanning,
)
from mmdim.errors import PoolInsufficientError, WindowExhaustedError
from mmdim.measures import MeasureModel, katok_rn
from mmdim.solvers import greedy_mass_cover, rows_as_bits
from mmdim.systems import (
    ABSOLUTE,
    DISCRETE,
    ONE_SIDED,
    TWO_SIDED,
    Points,
    Potential,
    ShiftSystem,
    birkhoff_sums,
)
from test_solvers import one_block, whole_rows


def symbol_differences(system: ShiftSystem, C: np.ndarray,
                       Z: np.ndarray) -> np.ndarray:
    """0/1 (discrete) or |a - b| per pair and position, (|C|, |Z|, L)."""
    if system.symbol_metric == DISCRETE:
        return (Z[None, :, :] != C[:, None, :]).astype(float)
    return np.abs(Z[None, :, :] - C[:, None, :]).astype(float)


def reference_distances(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                        n: int) -> np.ndarray:
    """Order-n distances from the rows of C to the rows of Z, pair by
    pair: every operation below is elementwise over the pairs."""
    L, o, w = system.word_length, system.origin_index, system.weight_base
    sd = symbol_differences(system, C, Z)
    zero = np.zeros(sd.shape[:2])
    right = {L: zero}
    for t in range(L - 1, -1, -1):
        right[t] = sd[:, :, t] + w * right[t + 1]
    best = None
    for j in range(min(n, L)):
        d = right.get(o + j, zero)
        if o:
            left = zero
            for t in range(j, min(o + j, L)):
                left = sd[:, :, t] + w * left
            d = w * left + d
        best = d if best is None else np.maximum(best, d)
    if system.symbol_metric != DISCRETE:
        best = best / system.alphabet_size
    return best


def kernel_distances(system: ShiftSystem, C: np.ndarray, Z: np.ndarray,
                     n: int) -> np.ndarray:
    """One weight kernel per shift, applied with a matrix product."""
    sd = symbol_differences(system, C, Z)
    if system.symbol_metric != DISCRETE:
        sd /= system.alphabet_size
    best = None
    for j in range(n):
        off = np.arange(system.word_length) - system.origin_index - j
        kern = system.weight_base ** np.abs(off).astype(float)
        if system.sidedness == ONE_SIDED:
            kern[off < 0] = 0.0
        else:
            kern[off < -system.window] = 0.0
        d = sd @ kern
        best = d if best is None else np.maximum(best, d)
    return best


def make_system(sidedness, metric, w, k, window):
    one_tail = w ** (window + 1) / (1.0 - w)
    return ShiftSystem(kind="full-shift", alphabet_size=k,
                       sidedness=sidedness, window=window,
                       symbol_metric=metric, weight_base=w,
                       eps_min=40.0 * one_tail)


def rows_per_block(system: ShiftSystem, n_max: int, m: int) -> int:
    """Centre rows in one engine block against a pool of m rows."""
    L = system.word_length
    sd_bytes = (1 if system.symbol_metric == DISCRETE
                else 2 * system.symbol_dtype.itemsize)
    pair_bytes = L * sd_bytes + 8 * (min(n_max, L) + 3) + 2
    return max(1, bowen._BLOCK_BYTES // (pair_bytes * m))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]),
       st.sampled_from([DISCRETE, ABSOLUTE]),
       st.sampled_from([0.3, 0.5]),
       st.integers(2, 7), st.integers(3, 8), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_engine_bit_identical_at_every_order(sidedness, metric, w, k, window,
                                             seed, data):
    system = make_system(sidedness, metric, w, k, window)
    L = system.word_length
    n_max = data.draw(st.integers(1, window), label="n_max")
    rng = np.random.default_rng(seed)
    m = int(rng.integers(200, 700))
    Z = rng.integers(0, k, size=(m, L))
    # more centres than one row block holds, so blocks are crossed
    C = rng.integers(0, k, size=(2 * rows_per_block(system, n_max, m) + 3,
                                 L))
    C[0] = Z[0]
    seen = set()
    for rows, n, d in distance_blocks(system, C, Z, n_max):
        assert d.shape == (rows.stop - rows.start, m)
        assert (d == reference_distances(system, C[rows], Z, n)).all()
        np.testing.assert_allclose(
            d, kernel_distances(system, C[rows], Z, n), rtol=1e-15, atol=0)
        seen.add((rows.start, n))
    assert len({start for start, _ in seen}) >= 3
    assert {n for _, n in seen} == set(range(1, n_max + 1))
    ref = reference_distances(system, C[-1:], Z, n_max)[0]
    for _, n, d in distance_blocks(system, C[-1:], Z, n_max):
        if n == n_max:
            assert (d[0] == ref).all()
    assert [float(d[0, 0]) for z in Z[:3]
            for _, n, d in distance_blocks(system, C[-1:], z[None], n_max)
            if n == n_max] == ref[:3].tolist()


def all_orders(system, C, Z, n_max) -> np.ndarray:
    """Engine distances at every order, shape (n_max, |C|, |Z|)."""
    out = np.empty((n_max, len(C), len(Z)))
    for rows, n, d in distance_blocks(system, C, Z, n_max):
        out[n - 1, rows] = d
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]),
       st.sampled_from([DISCRETE, ABSOLUTE]),
       st.sampled_from([3, 5, 7]), st.sampled_from([0.3, 0.5]),
       st.integers(7, 12), st.integers(0, 2 ** 32 - 1))
def test_pair_distance_independent_of_position(sidedness, metric, k, w,
                                               window, seed):
    system = make_system(sidedness, metric, w, k, window)
    L, n_max = system.word_length, window
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, k, size=(2, L))
    alone = all_orders(system, x[None], y[None], n_max)[:, 0, 0]
    pool = rng.integers(0, k, size=(1000, L))
    for r in (0, 1, 2, 3, 500, 997, 998, 999):
        pool[r] = y
    at_rows = all_orders(system, x[None], pool, n_max)[:, 0]
    for r in (0, 1, 2, 3, 500, 997, 998, 999):
        assert (at_rows[:, r] == alone).all(), r
    # x in the middle of a centre block, against y alone and in the pool
    per_block = rows_per_block(system, n_max, 1)
    C = rng.integers(0, k, size=(per_block + 5, L))
    mid = per_block // 2
    C[mid] = x
    assert (all_orders(system, C, y[None], n_max)[:, mid, 0] == alone).all()
    C = rng.integers(0, k, size=(9, L))
    C[4] = x
    assert (all_orders(system, C, pool, n_max)[:, 4, 500] == alone).all()


# -- greedy scan and the routed selections, on seeded pools ------------------

FULL = ShiftSystem(kind="full-shift", alphabet_size=4, window=12,
                   eps_min=0.1)
GRID = ShiftSystem(kind="grid-shift", alphabet_size=4, window=12,
                   eps_min=0.1)
# (system, n, eps): every word kept on the full shift, few on the grid
REGIMES = {"full": (FULL, 5, 0.6), "grid": (GRID, 2, 0.5)}


def seeded_pool(regime: str, size: int) -> Points:
    """``size`` distinct depth-5 words (full) or random windows (grid)."""
    rng = np.random.default_rng(size)
    if regime == "full":
        words = FULL.enumerate_points(5)
        return words[rng.choice(len(words), size, replace=False)]
    return GRID.points(rng.integers(0, 4, size=(size, GRID.word_length)))


def reference_scan(system, pts, n, eps) -> list[int]:
    Z = pts.symbols
    slack = system.truncation_slack(n)
    kept, rows = [], []
    for i in sorted(range(len(pts)), key=lambda i: Z[i].tolist()):
        if all(row[i] + slack >= eps for row in rows):
            kept.append(i)
            rows.append(reference_distances(system, Z[i:i + 1], Z, n)[0])
    return kept


def indices(pts, chosen) -> list[int]:
    where = {}
    for i, row in enumerate(pts.symbols.tolist()):
        where.setdefault(tuple(row), i)
    return [where[tuple(row)] for row in chosen.symbols.tolist()]


def fingerprint(idx: list[int]) -> str:
    return hashlib.sha256(repr(idx).encode()).hexdigest()[:16]


CASES = [("full", 300), ("full", 1000), ("grid", 300), ("grid", 1000)]


def test_greedy_scan_matches_naive_reference():
    for regime, size in CASES:
        system, n, eps = REGIMES[regime]
        pts = seeded_pool(regime, size)
        assert size > 4 * bowen._SCAN_ROWS
        got, exact = max_separated(system, pts, n, eps, exact_cap=0)
        assert not exact
        kept = indices(pts, got)
        assert kept == reference_scan(system, pts, n, eps)
        if regime == "full":
            assert len(kept) == size
        else:
            assert len(kept) < size / 10


# Values the per-centre implementation produced on the pools above.
# min_spanning: (count, fingerprint of the chosen indices in returned order)
SPANNING = {
    ("full", 300): (300, "3b5ea48495a5c440"),
    ("full", 1000): (1000, "3cb1024be3354a03"),
    ("grid", 300): (8, "63f02743d5b74940"),
    ("grid", 1000): (8, "8d831a9d9417c1f6"),
}
# five_r_disjointify: indices of the kept balls of the seeded 30-ball family
FIVE_R = {
    ("full", 300): [18, 27, 7, 10, 22, 25, 4, 15, 21, 20, 0, 5, 17, 9, 11,
                    23, 19, 3, 2, 28, 1, 8, 14, 26, 6, 12, 29, 16, 24, 13],
    ("full", 1000): [19, 23, 27, 24, 17, 0, 13, 9, 20, 16, 5, 1, 11, 28, 4,
                     10, 6, 2, 18, 3, 25, 7, 22, 14, 29, 15, 12, 8, 21, 26],
    ("grid", 300): [4, 8, 13, 29, 12],
    ("grid", 1000): [0, 18, 5, 6, 15],
}
# katok_rn at delta 0.5: (count, exact, covered mass), each gain a row's own
# pairwise sum
KATOK = {
    ("full", 300): (150, False, 0.5000000000000012),
    ("full", 1000): (500, False, 0.5000000000000003),
    ("grid", 300): (2, False, 0.6566666666666667),
    ("grid", 1000): (2, False, 0.646),
}


def seeded_family(pts, n, size) -> tuple[BallSpec, ...]:
    rng = np.random.default_rng(size + 1)
    idx = rng.choice(len(pts), 30, replace=False)
    radii = rng.choice([0.15, 0.3, 0.6, 0.9], size=30)
    return tuple(
        BallSpec(center=pts[i], order=n, radius=float(r), closed=True)
        for i, r in zip(idx, radii))


def routed_outputs(regime: str, size: int):
    system, n, eps = REGIMES[regime]
    pts = seeded_pool(regime, size)
    span = indices(pts, min_spanning(system, pts, n, eps, exact_cap=0)[0])
    family = seeded_family(pts, n, size)
    kept = five_r_disjointify(system, family, pts)
    five = [family.index(b) for b in kept]
    kc = katok_rn(MeasureModel.empirical(system, pts), n, eps, 0.5)
    return ((len(span), fingerprint(span)), five,
            (kc.count, kc.exact, kc.covered_mass))


def test_routed_selections_match_pinned_values():
    for case in CASES:
        span, five, katok = routed_outputs(*case)
        assert span == SPANNING[case], case
        assert five == FIVE_R[case], case
        assert katok == KATOK[case], case


# -- cylinder-run greedy scan -------------------------------------------------


def dense_scan(system, Z, n, eps) -> list[int]:
    """The whole-pool greedy scan, kept as the reference for the runs."""
    kept: list[int] = []
    for start in range(0, Z.shape[0], bowen._SCAN_ROWS):
        block = Z[start:start + bowen._SCAN_ROWS]
        free = ~ball_masks(system, block, Z[kept], n, eps).any(axis=1)
        conflicts = ball_masks(system, block, block, n, eps)
        for i in range(block.shape[0]):
            if free[i]:
                kept.append(start + i)
                free &= ~conflicts[i]
    return kept


def cylinder_pool(rng, system, n, m, shape) -> np.ndarray:
    """m rows; ``pairs`` gives 2-row n-cylinders, ``repeats`` equal rows."""
    k, L, o = system.alphabet_size, system.word_length, system.origin_index
    if shape == "pairs":
        Z = np.repeat(rng.integers(0, k, size=(m // 2, L)), 2, axis=0)
        outside = np.r_[0:o, o + n:L]
        Z[1::2, outside] = rng.integers(0, k, size=(m // 2, len(outside)))
        return Z
    if shape == "repeats":
        rows = rng.integers(0, k, size=(max(1, m // 4), L))
        return rows[rng.integers(0, len(rows), size=m)]
    if shape == "few-cylinders":
        Z = rng.integers(0, k, size=(m, L))
        heads = rng.integers(0, k, size=(3, n))
        Z[:, o:o + n] = heads[rng.integers(0, 3, size=m)]
        return Z
    return rng.integers(0, k, size=(m, L))


def near_floor(system) -> list[float]:
    """eps at, one ulp either side of, and well off the smallest non-zero
    symbol distance."""
    f = 1.0 if system.symbol_metric == DISCRETE else 1.0 / system.alphabet_size
    return [f, float(np.nextafter(f, 0.0)), float(np.nextafter(f, 2.0)),
            1.5 * f, 0.6 * f]


@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
@pytest.mark.parametrize("metric", [DISCRETE, ABSOLUTE])
def test_every_point_lies_in_its_own_ball_at_a_checked_order(sidedness,
                                                             metric):
    # katok_rn counts the whole support weight as coverable: at an order
    # that passes check_order, d_n(x, x) = 0 and the slack is below eps/10
    system = make_system(sidedness, metric, 0.5, 4, 8)
    rng = np.random.default_rng(3)
    Z = rng.integers(0, 4, size=(60, system.word_length))
    Z[30:] = Z[:30]  # repeated points, at distance 0 off the diagonal too
    for eps in near_floor(system)[:3]:  # at, one ulp below and above
        depth = system.max_reliable_order(eps)
        assert depth >= 1
        for n in range(1, depth + 1):
            system.check_order(n, eps)
            exits = exit_orders(system, Z, eps, n)
            for closed in (False, True):
                assert (exits.dense(closed).diagonal() > n).all(), (eps, n)
        with pytest.raises(WindowExhaustedError):
            system.check_order(depth + 1, eps)


def assert_scans_agree(system, Z, n, eps):
    Z = Z[bowen._lex_order(Z)]
    got = bowen._greedy_scan(system, Z, n, eps)
    assert got == dense_scan(system, Z, n, eps), (n, eps)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]),
       st.sampled_from([DISCRETE, ABSOLUTE]), st.integers(0, 2),
       st.integers(2, 7), st.integers(3, 7),
       st.sampled_from(["random", "pairs", "repeats", "few-cylinders"]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_cylinder_scan_matches_dense_scan(sidedness, metric, k_exp, k_any,
                                          window, shape, seed, data):
    # dyadic symbol distances on the absolute metric: k in {2, 4, 8}
    k = k_any if metric == DISCRETE else 2 ** (k_exp + 1)
    system = make_system(sidedness, metric, 0.5, k, window)
    n = data.draw(st.integers(1, window), label="n")
    rng = np.random.default_rng(seed)
    Z = cylinder_pool(rng, system, n, int(rng.integers(70, 300)), shape)
    for eps in near_floor(system):
        assert_scans_agree(system, Z, n, eps)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
def test_cylinder_scan_matches_dense_scan_odd_alphabets(k, sidedness):
    system = make_system(sidedness, ABSOLUTE, 0.5, k, 8)
    rng = np.random.default_rng(k)
    for shape in ["random", "pairs", "repeats", "few-cylinders"]:
        for n in (1, 2, 4):
            Z = cylinder_pool(rng, system, n, 200, shape)
            for eps in near_floor(system):
                assert_scans_agree(system, Z, n, eps)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]),
       st.sampled_from([DISCRETE, ABSOLUTE]), st.sampled_from([0.3, 0.5]),
       st.integers(2, 7), st.integers(3, 7), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_coordinate_distance_prunes_membership(sidedness, metric, w, k,
                                               window, seed, data):
    system = make_system(sidedness, metric, w, k, window)
    n = data.draw(st.integers(1, window), label="n")
    eps = data.draw(st.sampled_from(
        [a / k for a in range(1, k)] + [1.0, 0.37]), label="eps")
    rng = np.random.default_rng(seed)
    L, o = system.word_length, system.origin_index
    C = rng.integers(0, k, size=(40, L))
    Z = rng.integers(0, k, size=(60, L))
    if metric == DISCRETE:
        sd = (C[:, None, o:o + n] != Z[None, :, o:o + n]).astype(float)
    else:
        sd = np.abs(C[:, None, o:o + n] - Z[None, :, o:o + n]) / k
    worst = sd.max(axis=2)
    assert not ball_masks(system, C, Z, n, eps)[worst >= eps].any()
    assert not ball_masks(system, C, Z, n, eps,
                          closed=True)[worst > eps].any()


def test_singleton_cylinders_need_no_engine_call(monkeypatch):
    calls = []
    engine = bowen.distance_blocks

    def counting(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(bowen, "distance_blocks", counting)
    pts = FULL.enumerate_points(5)
    shuffled = pts[np.random.default_rng(5).permutation(len(pts))]
    got, exact = max_separated(FULL, shuffled, 5, 0.6, exact_cap=0)
    assert not exact
    assert len(calls) == 0
    assert got.symbols.tolist() == sorted(shuffled.symbols.tolist())


# -- cylinder-pruned whole-pool callers ---------------------------------------


def grid(k: int, sidedness: str, window: int = 12) -> ShiftSystem:
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       sidedness=sidedness, eps_min=0.1)


def floor_radii(k: int) -> list[float]:
    """eps = 1/k, the smallest non-zero grid distance, and one ulp either
    side of it."""
    f = 1.0 / k
    return [float(np.nextafter(f, 0.0)), f, float(np.nextafter(f, 1.0))]


def grid_points(system: ShiftSystem, m: int, seed: int) -> Points:
    """m random windows whose first coordinates share few prefixes."""
    rng = np.random.default_rng(seed)
    k, L, o = system.alphabet_size, system.word_length, system.origin_index
    Z = rng.integers(0, k, size=(m, L))
    Z[:, o + 1:o + 3] = rng.integers(0, 2, size=(m, 2))
    return system.points(Z)


def dense(monkeypatch):
    """Switch the cylinder rule off, so every caller takes its whole-pool
    path, and drop the memoised builds of both paths."""
    monkeypatch.setattr(bowen, "_prefix_runs", lambda *args: None)
    clear_memos()


def clear_memos():
    bowen.pool_exits.cache_clear()  # and the candidate families on it
    measures._sampled_hits.cache_clear()


PRUNED_CASES = [(k, side) for k in (3, 5, 7)
                for side in (ONE_SIDED, TWO_SIDED)]


def prunes(system, Z, eps) -> bool:
    """Whether the pool's pass splits into origin cylinders at eps."""
    return len(exit_orders(system, Z, eps, 1).blocks) > 1


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_exit_orders_match_ball_masks(k, sidedness, monkeypatch):
    system = grid(k, sidedness)
    Z = system.as_points(grid_points(system, 240, k)).symbols
    passes = []
    engine = bowen.distance_blocks

    def counting(*args):
        passes.append(1)
        return engine(*args)

    monkeypatch.setattr(bowen, "distance_blocks", counting)
    for eps in floor_radii(k):
        passes.clear()
        exits = exit_orders(system, Z, eps, 8)
        # pruning at and below the floor: one pass per origin cylinder
        assert len(passes) == len(exits.blocks)
        for closed in (False, True):
            for n in range(1, 9):
                assert np.array_equal(
                    exits.dense(closed) > n,
                    ball_masks(system, Z, Z, n, eps, closed=closed))
    assert [prunes(system, Z, eps)
            for eps in floor_radii(k)] == [True, True, False]


def test_tie_free_pass_shares_one_matrix():
    # every reach is dyadic here and eps = 0.6 is not, so the open and the
    # closed rule agree on every pair and the pass holds one matrix
    system = ShiftSystem(kind="full-shift", alphabet_size=2, window=12,
                         eps_min=0.1)
    Z = system.enumerate_points(6).symbols
    exits = exit_orders(system, Z, 0.6, 6)
    assert not exits.tied
    assert all(b.closed is b.opened for b in exits.blocks)
    opened, closed = exits.dense(), exits.dense(closed=True)
    for n in range(1, 7):
        assert np.array_equal(opened > n, ball_masks(system, Z, Z, n, 0.6))
        assert np.array_equal(closed > n, ball_masks(system, Z, Z, n, 0.6,
                                                     closed=True))


def test_tie_free_family_reads_its_closed_balls_off_the_open():
    # on one shared exit matrix the closed members and suprema are the
    # open ones, not a second computation of the same bits
    system = ShiftSystem(kind="full-shift", alphabet_size=2, window=12,
                         eps_min=0.1)
    bowen.pool_exits.cache_clear()
    cands = caratheodory._build_candidates(
        system, system.enumerate_points(4), Potential.from_table([0.2, 0.7]),
        0.6, 1, 3)
    assert not cands.exits.tied
    assert cands.sup_closed is cands.sup_open
    assert cands.closed_members is cands.open_members


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_closed_exits_part_from_the_open_at_the_first_tie(k, sidedness):
    system = grid(k, sidedness)
    Z = system.as_points(grid_points(system, 240, k)).symbols
    # eps is the order-3 reach of a pair of distinct rows, below the floor,
    # in the last origin cylinder that has one: the closed matrix parts
    # from the open one mid-pass, after other cylinders and orders
    o, n = system.origin_index, 3
    slack = system.truncation_slack(n)
    reach = reference_distances(system, Z, Z, n) + slack
    ok = (reach > slack) & (reach < 1.0 / k)
    top = Z[:, o][ok.any(axis=1)].max()
    ok &= Z[:, o, None] == top
    eps = float(reach[ok].max())
    assert prunes(system, Z, eps)
    exits = exit_orders(system, Z, eps, 8)
    # the tie's own cylinder holds a closed block of its own
    tied = [b for b in exits.blocks if b.closed is not b.opened]
    assert exits.tied and top in [Z[b.rows[0], o] for b in tied]
    opened, closed = exits.dense(), exits.dense(closed=True)
    assert (closed != opened).any()
    for n in range(1, 9):
        assert np.array_equal(opened > n, ball_masks(system, Z, Z, n, eps))
        assert np.array_equal(closed > n, ball_masks(system, Z, Z, n, eps,
                                                     closed=True))


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_pruned_exit_orders_match_dense(k, sidedness, monkeypatch):
    system = grid(k, sidedness)
    pts = grid_points(system, 240, k)
    support = system.as_points(pts)
    pool = system.as_points(grid_points(system, 90, k + 1))
    clear_memos()

    def exits(own, eps):
        """The memo's pass of the support, or a fresh pass of the pool."""
        if own:
            return bowen.pool_exits(system, support, eps, 8)
        return exit_orders(system, pool.symbols, eps, 8)

    got = {(eps, own): exits(own, eps)
           for eps in floor_radii(k) for own in (True, False)}
    assert [prunes(system, support.symbols, eps)
            for eps in floor_radii(k)] == [True, True, False]
    dense(monkeypatch)
    for (eps, own), store in got.items():
        ref = exits(own, eps)
        assert len(ref.blocks) == 1
        for closed in (False, True):
            assert (store.dense(closed) == ref.dense(closed)).all()


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_pruned_candidates_match_dense(k, sidedness, monkeypatch):
    system = grid(k, sidedness)
    pts = system.as_points(grid_points(system, 150, 10 + k))
    base = Potential.from_table(np.random.default_rng(k).random(k))
    fields = ("open_members", "closed_members", "sup_open", "sup_closed")
    clear_memos()
    got = {eps: caratheodory._build_candidates(system, pts, base, eps, 2, 5)
           for eps in floor_radii(k)}
    slacks = [system.truncation_slack(n) for n in range(2, 6)]
    assert [rule(system, eps, slacks)
            for eps in floor_radii(k)] == [True, True, False]
    dense(monkeypatch)
    for eps, cands in got.items():
        ref = caratheodory._build_candidates(system, pts, base, eps, 2, 5)
        # the same centres at the same orders, candidate c * L + level
        assert cands.exits.size == ref.exits.size == len(pts)
        assert np.array_equal(cands.levels, ref.levels)
        for name in fields:
            assert np.array_equal(getattr(cands, name), getattr(ref, name))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]),
       st.sampled_from([DISCRETE, ABSOLUTE]), st.integers(2, 5),
       st.integers(3, 8), st.integers(0, 2 ** 32 - 1), st.data())
def test_memo_reads_of_sub_pools_equal_a_fresh_pass(sidedness, metric, k,
                                                    window, seed, data):
    system = make_system(sidedness, metric, 0.5, k, window)
    floor = 1.0 if metric == DISCRETE else 1.0 / k
    # the cylinder rule holds up to the floor and fails past it
    eps = data.draw(st.sampled_from(
        [0.6 * floor, float(np.nextafter(floor, 0.0)), floor,
         float(np.nextafter(floor, 2.0)), 1.3 * floor]), label="eps")
    depth = data.draw(st.integers(1, window), label="depth")
    rng = np.random.default_rng(seed)
    m = int(rng.integers(20, 120))
    pool = Points(rng.integers(0, k, size=(m, system.word_length)),
                  np.full(m, np.inf), system.origin_index)
    bowen.pool_exits.cache_clear()
    bowen.pool_exits(system, pool, eps, depth)
    built = bowen._exits_memo[0]
    for _ in range(3):
        # rows in any order, repeats allowed
        Z = pool[rng.integers(0, len(pool), size=rng.integers(1, 60))]
        n = data.draw(st.integers(1, depth), label="n")
        got = bowen.pool_exits(system, Z, eps, n)
        assert bowen._exits_memo == [built]  # read, not rebuilt
        # read inside the pass's own blocks, not copied out of them
        own = [b.opened for b in built.exits.blocks]
        assert all(any(b.opened is a for a in own) for b in got.blocks)
        fresh = exit_orders(system, Z.symbols, eps, n)
        for closed in (False, True):
            # a read is uncapped: it equals the fresh pass at orders <= n
            assert np.array_equal(np.minimum(got.dense(closed), n + 1),
                                  fresh.dense(closed))


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_pruned_sampled_hits_match_dense(k, sidedness, monkeypatch):
    system = grid(k, sidedness)
    mu = MeasureModel.product_uniform(system, seed=k)
    xs = mu.sample_points(2, stream=3)
    clear_memos()
    got = {(eps, i): measures._sampled_hits(mu, x, eps, 30_000, 8, 5)
           for eps in floor_radii(k) for i, x in enumerate(xs)}
    assert any(sum(hits) for hits in got.values())
    dense(monkeypatch)
    for (eps, i), hits in got.items():
        assert measures._sampled_hits(mu, xs[i], eps, 30_000, 8, 5) == hits


@pytest.mark.parametrize("metric", [DISCRETE, ABSOLUTE])
@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(3, 8), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_centre_exits_match_ball_masks_at_every_order(sidedness, metric, k,
                                                      window, seed, data):
    system = make_system(sidedness, metric, 0.5, k, window)
    o = system.origin_index
    floor = 1.0 if metric == DISCRETE else 1.0 / k
    # the cylinder rule holds up to the floor and fails past it
    eps = data.draw(st.sampled_from(
        [0.6 * floor, float(np.nextafter(floor, 0.0)), floor,
         float(np.nextafter(floor, 2.0)), 1.3 * floor]), label="eps")
    n_max = data.draw(st.integers(1, window), label="n_max")
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 120))
    Y = rng.integers(0, k, size=(m, system.word_length))
    Y[:, o + 1:o + 3] = rng.integers(0, 2, size=(m, 2))  # shared prefixes
    c = Y[rng.integers(0, m)][None].copy()
    if data.draw(st.booleans(), label="lonely"):
        # no row shares the centre's origin symbol
        Y[:, o] = (c[0, o] + rng.integers(1, k, size=m)) % k
    exits = centre_exits(system, c, Y, eps, n_max)
    assert exits.dtype == np.min_scalar_type(n_max + 1)
    want = np.ones(m, dtype=np.int64)
    for n in range(1, n_max + 1):
        inside = ball_masks(system, c, Y, n, eps)[0]
        assert np.array_equal(exits > n, inside), n
        want += inside
    assert np.array_equal(exits, want)


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_pruned_spanning_matches_dense(k, sidedness, monkeypatch):
    system = grid(k, sidedness)
    pts = grid_points(system, 200, 20 + k)
    small = pts[:12]
    runs = [(pts, n, eps, 0) for n in (1, 3) for eps in floor_radii(k)]
    runs += [(small, 2, eps, len(small)) for eps in floor_radii(k)]
    got = [min_spanning(system, p, n, eps, exact_cap=cap)
           for p, n, eps, cap in runs]
    dense(monkeypatch)
    for (p, n, eps, cap), (chosen, exact) in zip(runs, got):
        ref, ref_exact = min_spanning(system, p, n, eps, exact_cap=cap)
        assert indices(p, chosen) == indices(p, ref) and exact == ref_exact


def rule(system, eps, closed_slacks=None) -> bool:
    """Whether the cylinder rule holds for (n, eps)-balls."""
    Z = np.zeros((1, system.word_length), dtype=np.int64)
    return bowen._prefix_runs(system, Z, 1, eps, closed_slacks) is not None


def test_closed_rule_needs_slack_above_an_ulp():
    system = grid(3, ONE_SIDED)
    f = 1.0 / 3
    assert rule(system, f)
    assert rule(system, f, [1e-3])
    assert not rule(system, f, [1e-3, 1e-20])
    assert rule(system, float(np.nextafter(f, 0.0)), [1e-20])
    assert not rule(system, float(np.nextafter(f, 1.0)))


def test_closed_ball_at_the_floor_reaches_across_cylinders():
    # the slack of every order vanishes next to eps, so a point one grid
    # step away at the origin and equal elsewhere is on the closed sphere
    system = ShiftSystem(kind="grid-shift", alphabet_size=3, window=40,
                         weight_base=0.3, eps_min=0.1)
    bowen.pool_exits.cache_clear()
    cands = caratheodory._build_candidates(
        system, system.points([[0], [1]]),
        Potential.from_table([0.1, 0.7, 0.2]), 1.0 / 3, 1, 2)
    assert cands.closed_members.all()
    assert not cands.open_members[np.arange(4), [1, 1, 0, 0]].any()


# -- the cylinder store against the dense pass ---------------------------------


def reference_exits(system, Z, eps, n_max, closed=False) -> np.ndarray:
    """Exit orders from one ``ball_masks`` call per order: a ball holds a
    row from order 1 up to the first order that drops it."""
    exits = np.ones((len(Z), len(Z)), dtype=np.int64)
    for n in range(1, n_max + 1):
        exits += ball_masks(system, Z, Z, n, eps, closed=closed)
    return exits


def outcome(reader, *args):
    """A reader's result, or the error that stopped it."""
    try:
        return reader(*args)
    except PoolInsufficientError as exc:
        return str(exc)


def dyadic_weights(rng, m: int) -> np.ndarray:
    """Masses that sum to 1 in multiples of one power of two, so every sum
    of them is exact in any order."""
    unit = 2.0 ** -(m.bit_length() + 3)
    w = rng.integers(1, 8, size=m) * unit
    w[0] += 1.0 - w.sum()
    assert w.min() > 0 and w.sum() == 1.0
    return w


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]),
       st.sampled_from([DISCRETE, ABSOLUTE]), st.integers(2, 5),
       st.integers(3, 7), st.integers(0, 2 ** 32 - 1), st.data())
def test_cylinder_store_answers_every_reader_as_the_dense_pass(
        sidedness, metric, k, window, seed, data):
    system = make_system(sidedness, metric, 0.5, k, window)
    o = system.origin_index
    rng = np.random.default_rng(seed)
    m = int(rng.integers(30, 90))
    Z = rng.integers(0, k, size=(m, system.word_length))
    Z[:, o + 1:o + 3] = rng.integers(0, 2, size=(m, 2))  # shared prefixes
    n_max = data.draw(st.integers(1, min(window, 4)), label="n_max")
    floor = 1.0 if metric == DISCRETE else 1.0 / k
    # the cylinder rule holds below and at the floor and fails above it;
    # "tie" takes the order-n_max reach of a pair in one origin cylinder
    # for eps, so the closed rule parts from the open one in its block
    eps = data.draw(st.sampled_from([0.6 * floor, floor, 1.3 * floor,
                                     "tie"]), label="eps")
    tie = eps == "tie"
    if tie:
        i, j = rng.choice(m, 2, replace=False)
        Z[j, o] = Z[i, o]
        *_, (_, _, d) = distance_blocks(system, Z[i:i + 1], Z[j:j + 1],
                                        n_max)
        eps = float(d[0, 0]) + system.truncation_slack(n_max)
        assume(d[0, 0] > 0.0)
    pool = Points(Z, np.full(m, np.inf), o)
    bowen.pool_exits.cache_clear()
    store = bowen.pool_exits(system, pool, eps, n_max)
    ref_open = reference_exits(system, Z, eps, n_max)
    ref_closed = reference_exits(system, Z, eps, n_max, closed=True)
    slacks = [system.truncation_slack(n) for n in range(1, n_max + 1)]
    assert (len(store.blocks) > 1) == (rule(system, eps, slacks)
                                       and len(set(Z[:, o])) > 1)
    assert np.array_equal(store.dense(), ref_open)
    assert np.array_equal(store.dense(closed=True), ref_closed)
    if tie:  # the tie's block, and only a block with a tie, holds two
        tied = store.blocks[store.where[0][i]]
        assert tied.closed is not tied.opened
        for b in store.blocks:
            cell = np.ix_(b.rows, b.rows)
            assert (b.closed is b.opened) == np.array_equal(
                ref_open[cell], ref_closed[cell])
    # sub-pools are read inside the pass's blocks: rows in any order,
    # repeats allowed
    idx = rng.integers(0, m, size=int(rng.integers(1, 50)))
    n = data.draw(st.integers(1, n_max), label="n")
    sub = bowen.pool_exits(system, pool[idx], eps, n)
    cell = np.ix_(idx, idx)
    for read, ref in [(sub.dense(), ref_open),
                      (sub.dense(closed=True), ref_closed)]:
        assert np.array_equal(np.minimum(read, n + 1),
                              np.minimum(ref[cell], n + 1))
    # the greedy readers against the dense pass as one block: Katok's
    # mass cover on dyadic masses, and PS's separated scan
    dense = one_block(ref_open.astype(store.dtype),
                      ref_closed.astype(store.dtype))
    mass = dyadic_weights(rng, m)
    free = rng.random(m) < 0.7
    for n in range(1, n_max + 1):
        assert outcome(greedy_mass_cover, store, n, mass, 0.5) == \
            outcome(greedy_mass_cover, dense, n, mass, 0.5)
        assert greedy_separated(Z, store, n, free) == \
            greedy_separated(Z, dense, n, free)
    # the Caratheodory candidates of the pool and of a sub-pool
    base = Potential.from_table(rng.uniform(-1.0, 1.0, k))
    for keep in (np.arange(m), np.unique(idx)):
        cands = caratheodory._build_candidates(system, pool[keep], base,
                                               eps, 1, n_max)
        sums = birkhoff_sums(system, base, Z[keep], n_max)
        for ref, members, sups in [
                (ref_open, cands.open_members, cands.sup_open),
                (ref_closed, cands.closed_members, cands.sup_closed)]:
            exits = ref[np.ix_(keep, keep)]
            np.fill_diagonal(exits, n_max + 1)  # a ball holds its centre
            levels = np.arange(1, n_max + 1)
            want = exits[:, None, :] > levels[:, None]
            assert np.array_equal(members, want.reshape(-1, len(keep)))
            want_sups = np.stack([np.where(exits > n, sums[:, n], -np.inf)
                                  .max(axis=1) for n in levels], axis=1)
            assert sups.tobytes() == want_sups.ravel().tobytes()
        # a ball's bits span its own block's columns, the blocks in order
        order = np.concatenate([b.rows for b in cands.exits.blocks])
        assert whole_rows(cands.open_bits) == \
            rows_as_bits(cands.open_members[:, order])


@pytest.mark.parametrize("k,sidedness", PRUNED_CASES)
def test_pruned_katok_and_ps_match_dense(k, sidedness, monkeypatch):
    system = grid(k, sidedness)
    pts = system.as_points(grid_points(system, 240, k))
    mu = MeasureModel.empirical(
        system, pts, dyadic_weights(np.random.default_rng(k), len(pts)))
    clear_memos()

    def readers(eps):
        """Katok counts with their covered masses, and PS's per-cell logs."""
        counts = []
        for n in range(1, 5):
            kc = outcome(katok_rn, mu, n, eps, 0.5)
            counts.append(kc if isinstance(kc, str) else
                          (kc.count, kc.exact, kc.covered_mass))
        ps = measures.ps_entropy(mu, eps, [2.0, 0.3], range(1, 5), pool=pts)
        return counts, ps.per_scale, ps.flags

    got = {eps: readers(eps) for eps in floor_radii(k)}
    assert any(len(bowen.pool_exits(system, pts, eps, 4).blocks) > 1
               for eps in floor_radii(k))
    dense(monkeypatch)
    for eps, read in got.items():
        assert readers(eps) == read, eps


def test_mass_cover_off_dyadic_masses_moves_only_last_bits():
    # the counts agree.  Each gain sums the same non-zero terms as the
    # dense pass, but over its block's columns, so numpy's pairwise sum
    # groups them otherwise: off dyadic masses a gain, and so the covered
    # mass that adds them, can move in its last bits (two ulps at most on
    # these draws, in a fifth of the covers).  Dyadic masses sum exactly in
    # any grouping, so there nothing moves.
    moved = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        system = grid(k, ONE_SIDED, window=8)
        m = int(rng.integers(100, 600))
        Z = rng.integers(0, k, size=(m, system.word_length))
        store = exit_orders(system, Z, 0.9 / k, 4)
        assert len(store.blocks) > 1
        whole = store.dense()
        mass = rng.dirichlet(np.ones(m))
        for n in (1, 2, 3):
            got = outcome(greedy_mass_cover, store, n, mass, 0.5)
            ref = outcome(greedy_mass_cover, one_block(whole), n, mass,
                          0.5)
            if isinstance(ref, str):
                assert got == ref
                continue
            assert got[0] == ref[0]
            assert abs(got[1] - ref[1]) <= 2 * np.spacing(ref[1])
            moved += got[1] != ref[1]
    assert moved  # the grouping does show off dyadic masses


def test_memo_replacement_frees_the_old_blocks():
    import gc
    import weakref

    system = grid(3, ONE_SIDED)
    pts = system.as_points(grid_points(system, 200, 3))
    clear_memos()
    store = bowen.pool_exits(system, pts, 1.0 / 3, 4)
    assert len(store.blocks) > 1
    old = [weakref.ref(a) for b in store.blocks for a in (b.opened, b.closed)]
    sub = weakref.ref(bowen.pool_exits(system, pts[:50], 1.0 / 3, 4))
    del store
    gc.collect()
    assert sub() is None and all(ref() is not None for ref in old)
    bowen.pool_exits(system, pts, 0.25, 4)  # another eps: a new pass
    assert all(ref() is None for ref in old)


def test_exit_pass_peaks_at_its_blocks_plus_two_runs():
    # generic-points' eps = 0.5 pool: 1,024 words of the k = 2 grid, orders
    # 1..5.  The pass keeps two 512 x 512 cylinder blocks (0.5 MiB); beyond
    # them it holds one engine run with its caller's reach and compares
    # (within _BLOCK_BYTES), the rows of one cylinder with their transposes
    # and the cylinder indices.  A dense |Z|^2 matrix with its gathers
    # peaked at 3.5 MiB for a 1 MiB result.
    import tracemalloc

    from mmdim.solvers import _BLOCK_BYTES

    system = ShiftSystem(kind="grid-shift", alphabet_size=2, window=16,
                         eps_min=0.25)
    pool = system.enumerate_points(10)
    clear_memos()
    tracemalloc.start()
    try:
        store = bowen.pool_exits(system, pool, 0.5, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [b.opened.shape for b in store.blocks] == [(512, 512)] * 2
    assert not store.tied
    blocks = sum(b.opened.nbytes for b in store.blocks)
    assert peak <= blocks + 2 * _BLOCK_BYTES + 64 * 1024, peak
