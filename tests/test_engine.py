"""The blocked Bowen-distance engine against a per-centre reference.

The reference below is the straightforward computation: one centre at a
time, one weight kernel per shift, each applied to the whole pool with a
matrix-vector product, and a max over the shifts.  The engine must agree
with it exactly, not just approximately, so that every membership decision
``d + slack < eps`` comes out the same.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdim import bowen
from mmdim.bowen import (
    BallSpec,
    SetFamily,
    ball_masks,
    distance_blocks,
    distances_to,
    five_r_disjointify,
    max_separated,
    min_spanning,
)
from mmdim.measures import MeasureModel, katok_rn
from mmdim.systems import (
    ABSOLUTE,
    DISCRETE,
    ONE_SIDED,
    TWO_SIDED,
    PointWindow,
    ShiftSystem,
)


def reference_kernels(system: ShiftSystem, n: int) -> list[np.ndarray]:
    L = system.word_length
    kernels = []
    for j in range(n):
        off = np.arange(L) - system.origin_index - j
        kern = system.weight_base ** np.abs(off).astype(float)
        if system.sidedness == ONE_SIDED:
            kern[off < 0] = 0.0
        else:
            kern[off < -system.window] = 0.0
        kernels.append(kern)
    return kernels


def reference_distances(system: ShiftSystem, center: np.ndarray,
                        Z: np.ndarray, n: int) -> np.ndarray:
    if system.symbol_metric == DISCRETE:
        sd = (Z != center[None, :]).astype(float)
    else:
        sd = np.abs(Z - center[None, :]) / system.alphabet_size
    best = None
    for kern in reference_kernels(system, n):
        d = sd @ kern
        best = d if best is None else np.maximum(best, d)
    return best


def make_system(sidedness, metric, w, k, window):
    one_tail = w ** (window + 1) / (1.0 - w)
    return ShiftSystem(kind="full-shift", alphabet_size=k,
                       sidedness=sidedness, window=window,
                       symbol_metric=metric, weight_base=w,
                       eps_min=40.0 * one_tail)


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
    per_block = max(1, bowen._BLOCK_BYTES // (8 * L * m))
    C = rng.integers(0, k, size=(2 * per_block + 3, L))
    C[0] = Z[0]
    seen = set()
    for rows, n, d in distance_blocks(system, C, Z, n_max):
        assert d.shape == (rows.stop - rows.start, m)
        for i, c in enumerate(C[rows]):
            assert (d[i] == reference_distances(system, c, Z, n)).all()
        seen.add((rows.start, n))
    assert len({start for start, _ in seen}) >= 3
    assert {n for _, n in seen} == set(range(1, n_max + 1))
    center = PointWindow(symbols=tuple(int(a) for a in C[-1]),
                         origin=system.origin_index)
    assert (distances_to(system, center, Z, n_max)
            == reference_distances(system, C[-1], Z, n_max)).all()


# -- greedy scan and the routed selections, on seeded pools ------------------

FULL = ShiftSystem(kind="full-shift", alphabet_size=4, window=12,
                   eps_min=0.1)
GRID = ShiftSystem(kind="grid-shift", alphabet_size=4, window=12,
                   eps_min=0.1)
# (system, n, eps): every word kept on the full shift, few on the grid
REGIMES = {"full": (FULL, 5, 0.6), "grid": (GRID, 2, 0.5)}


def seeded_pool(regime: str, size: int) -> list[PointWindow]:
    """``size`` distinct depth-5 words (full) or random windows (grid)."""
    rng = np.random.default_rng(size)
    if regime == "full":
        words = FULL.enumerate_points(5)
        return [words[i] for i in rng.choice(len(words), size, replace=False)]
    return [GRID.point(row) for row in
            rng.integers(0, 4, size=(size, GRID.word_length))]


def reference_scan(system, pts, n, eps) -> list[int]:
    Z = system.as_matrix(pts)
    slack = system.truncation_slack(n)
    kept, rows = [], []
    for i in sorted(range(len(pts)), key=lambda i: pts[i].symbols):
        if all(row[i] + slack >= eps for row in rows):
            kept.append(i)
            rows.append(reference_distances(system, Z[i], Z, n))
    return kept


def indices(pts, chosen) -> list[int]:
    where = {id(p): i for i, p in enumerate(pts)}
    return [where[id(p)] for p in chosen]


def fingerprint(idx: list[int]) -> str:
    return hashlib.sha256(repr(idx).encode()).hexdigest()[:16]


CASES = [("full", 300), ("full", 1000), ("grid", 300), ("grid", 1000)]


def test_greedy_scan_matches_naive_reference():
    for regime, size in CASES:
        system, n, eps = REGIMES[regime]
        pts = seeded_pool(regime, size)
        assert size > 4 * bowen._SCAN_ROWS
        got, exact = max_separated(system, pts, n, eps, mode="greedy")
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
# katok_rn at delta 0.5: (count, exact, covered mass)
KATOK = {
    ("full", 300): (150, False, 0.5000000000000012),
    ("full", 1000): (500, False, 0.5000000000000003),
    ("grid", 300): (2, False, 0.6566666666666667),
    ("grid", 1000): (2, False, 0.6460000000000001),
}


def seeded_family(pts, n, size) -> SetFamily:
    rng = np.random.default_rng(size + 1)
    idx = rng.choice(len(pts), 30, replace=False)
    radii = rng.choice([0.15, 0.3, 0.6, 0.9], size=30)
    return SetFamily(balls=tuple(
        BallSpec(center=pts[i], order=n, radius=float(r), closed=True)
        for i, r in zip(idx, radii)))


def routed_outputs(regime: str, size: int):
    system, n, eps = REGIMES[regime]
    pts = seeded_pool(regime, size)
    span = indices(pts, min_spanning(system, pts, n, eps, mode="greedy")[0])
    family = seeded_family(pts, n, size)
    kept = five_r_disjointify(system, family, pts)
    five = [family.balls.index(b) for b in kept.balls]
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
    shuffled = [pts[i] for i in np.random.default_rng(5).permutation(len(pts))]
    got, exact = max_separated(FULL, shuffled, 5, 0.6, mode="greedy")
    assert not exact
    assert len(calls) == 0
    assert got == sorted(shuffled, key=lambda p: p.symbols)
