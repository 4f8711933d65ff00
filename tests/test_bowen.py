from __future__ import annotations

import itertools

import numpy as np
import pytest

from mmdim.bowen import (
    BallSpec,
    ball_masks,
    centre_exits,
    exit_orders,
    five_r_disjointify,
    greedy_separated,
    max_separated,
    min_spanning,
)
from mmdim.errors import ConfigurationError
from mmdim.measures import MeasureModel, bs_entropy, ps_entropy
from mmdim.systems import ABSOLUTE, DISCRETE, Potential, ShiftSystem
from pointwise import bowen_distance


def full_shift(k=2, window=12, eps_min=0.1, **kw):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min, **kw)


def is_within(sys, x, y, n, eps, closed=False):
    """Whether y lies in B_n(x, eps): one pair of ``ball_masks``."""
    return bool(ball_masks(sys, x.symbols, y.symbols, n, eps, closed)[0, 0])


class TestBowenDistance:
    def test_shifted_difference_dominates(self):
        sys = full_shift()
        x, y = sys.points([[0, 0]]), sys.points([[0, 1]])
        # d(x, y) = 0.5, d(sigma x, sigma y) = 1
        assert bowen_distance(sys, x, y, 2) == pytest.approx(1.0)

    def test_zero_on_diagonal(self):
        sys = full_shift()
        x = sys.points([[1, 0, 1]])
        for n in range(1, 5):
            assert bowen_distance(sys, x, x, n) == 0.0

    def test_monotone_in_order(self):
        sys = full_shift(window=12, eps_min=0.2)
        pts = sys.enumerate_points(4)
        for x, y in itertools.combinations(pts[:8], 2):
            prev = 0.0
            for n in range(1, 4):
                d = bowen_distance(sys, x, y, n)
                assert d >= prev - 1e-12
                prev = d


class TestSeparated:
    def test_single_point(self):
        sys = full_shift()
        pts = sys.points([[0, 1]])
        got, exact = max_separated(sys, pts, 2, 0.5)
        assert len(got) == 1 and exact

    def test_depth2_n2_all_separated(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        # any two distinct words differ at coordinate 0 or 1, so d_2 >= 1
        got, _ = max_separated(sys, pts, 2, 0.6)
        assert len(got) == 4

    def test_depth2_n1_two_remain(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        # words differing only at coordinate 1 have d_1 = 0.5 < 0.6
        got, _ = max_separated(sys, pts, 1, 0.6)
        assert len(got) == 2

    def test_greedy_is_maximal_hence_spanning(self):
        sys = full_shift(window=12, eps_min=0.2)
        pts = sys.enumerate_points(4)
        for n, eps in [(1, 0.6), (2, 0.6), (2, 0.3), (3, 0.9)]:
            kept, _ = max_separated(sys, pts, n, eps, exact_cap=0)
            for z in pts:
                assert any(is_within(sys, c, z, n, eps) or c == z
                           for c in kept)

    @pytest.mark.parametrize("k,symbol_metric,eps",
                             [(2, DISCRETE, 0.5), (2, DISCRETE, 1.0),
                              (3, ABSOLUTE, 0.4), (3, ABSOLUTE, 1 / 3)])
    def test_exit_order_scan_matches_greedy(self, k, symbol_metric, eps):
        sys = full_shift(k=k, window=10, eps_min=0.05,
                         symbol_metric=symbol_metric)
        rng = np.random.default_rng(k)
        rows = rng.integers(0, k, size=(60, sys.word_length))
        rows = np.concatenate([rows, rows[:15]])  # repeated rows
        pts = sys.points(rows[rng.permutation(len(rows))])
        Z = pts.symbols
        exits = exit_orders(sys, Z, eps, 4)
        for n in range(1, 5):
            for free in (np.ones(len(pts), dtype=bool),
                         rng.random(len(pts)) < 0.5):
                kept = greedy_separated(Z, exits, n, free)
                want, _ = max_separated(sys, pts[free], n, eps, exact_cap=0)
                assert Z[kept].tolist() == want.symbols.tolist()

    def test_exact_cap(self):
        # both searches run exactly on a pool of exact_cap points and
        # greedily on one more; on this pool the two give different sets
        sys = full_shift(k=3, symbol_metric=ABSOLUTE)
        pts = sys.points([[0, 1], [0, 2], [1, 0], [2, 0], [2, 1], [2, 2]])
        cases = [(max_separated, [[0, 2], [1, 0], [2, 2]], [[0, 1], [2, 0]]),
                 (min_spanning, [[0, 1], [2, 0]], [[0, 1], [1, 0], [2, 0]])]
        for search, exact_words, greedy_words in cases:
            got, exact = search(sys, pts, 1, 0.6, exact_cap=len(pts))
            assert exact and got.symbols[:, :2].tolist() == exact_words
            got, exact = search(sys, pts, 1, 0.6, exact_cap=len(pts) - 1)
            assert not exact and got.symbols[:, :2].tolist() == greedy_words

    def test_greedy_no_worse_than_checkable(self):
        sys = full_shift(window=12, eps_min=0.2)
        pts = sys.enumerate_points(3)
        greedy, _ = max_separated(sys, pts, 2, 0.6, exact_cap=0)
        exact, _ = max_separated(sys, pts, 2, 0.6)
        assert len(greedy) <= len(exact)


class TestSpanning:
    def test_single_point(self):
        sys = full_shift()
        got, exact = min_spanning(sys, sys.points([[1, 1]]), 1, 0.5)
        assert len(got) == 1 and exact

    def test_depth2_large_radius_two_centers(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        got, _ = min_spanning(sys, pts, 2, 1.2)
        assert len(got) == 2

    def test_radius_beyond_diameter(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        diam = max(bowen_distance(sys, x, y, 1)
                   for x, y in itertools.combinations(pts, 2))
        got, _ = min_spanning(sys, pts, 1, diam + 1.0)
        assert len(got) == 1

    def test_every_point_covered(self):
        sys = full_shift(window=12, eps_min=0.2)
        pts = sys.enumerate_points(4)
        centers, _ = min_spanning(sys, pts, 2, 0.7, exact_cap=0)
        for z in pts:
            assert any(is_within(sys, c, z, 2, 0.7) for c in centers)


@pytest.mark.parametrize("order", [0, -1])
def test_order_below_one_is_a_configuration_error(order):
    # every reader of a Bowen order, or of a schedule of them, rejects one
    # below 1 up front, as ball_masks and estimate_ball_mass do
    sys = full_shift(k=3, symbol_metric=ABSOLUTE)
    pts = sys.points(np.random.default_rng(3).integers(0, 3, size=(30, 4)))
    mu = MeasureModel.empirical(sys, pts)
    runs = [lambda: sys.check_order(order, 0.3),
            lambda: min_spanning(sys, pts, order, 0.3, exact_cap=len(pts)),
            lambda: min_spanning(sys, pts, order, 0.3, exact_cap=0),
            lambda: max_separated(sys, pts, order, 0.3, exact_cap=len(pts)),
            lambda: max_separated(sys, pts, order, 0.3, exact_cap=0),
            lambda: mu.empirical_ball_mass(pts[0], order, 0.3),
            lambda: centre_exits(sys, pts.symbols[:1], pts.symbols, 0.3,
                                 order),
            lambda: ps_entropy(mu, 0.3, [0.5], [order, 1, 2], pool=pts),
            lambda: bs_entropy(mu, Potential.constant(1.0), 0.3,
                               [order, 1, 2])]
    for run in runs:
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            run()


class TestComparisons:
    def test_span_sep_sandwich_exhaustive(self):
        # r_n(eps) <= s_n(eps) <= r_n(eps/2) for k=2, depth <= 4, n <= 3
        sys = full_shift(window=14, eps_min=0.05)
        cases = 0
        for depth in (2, 3, 4):
            pts = sys.enumerate_points(depth)
            for n in (1, 2, 3):
                for eps in (1.2, 0.9, 0.6, 0.3):
                    s = len(max_separated(sys, pts, n, eps)[0])
                    r = len(min_spanning(sys, pts, n, eps)[0])
                    r_half = len(min_spanning(sys, pts, n, eps / 2)[0])
                    assert r <= s <= r_half
                    cases += 1
        assert cases == 36

    def test_separated_monotone_in_eps(self):
        sys = full_shift(window=12, eps_min=0.1)
        pts = sys.enumerate_points(3)
        for n in (1, 2):
            sizes = [len(max_separated(sys, pts, n, e)[0])
                     for e in (1.2, 0.9, 0.6, 0.3)]
            assert sizes == sorted(sizes)

    def test_separated_monotone_in_order(self):
        sys = full_shift(window=12, eps_min=0.1)
        pts = sys.enumerate_points(4)
        sizes = [len(max_separated(sys, pts, n, 0.6, exact_cap=0)[0])
                 for n in (1, 2, 3)]
        assert sizes == sorted(sizes)


class TestFiveR:
    def _family(self, sys, centers, radii, n):
        return tuple(BallSpec(center=c, order=n, radius=r, closed=True)
                     for c, r in zip(centers, radii))

    def test_single_ball(self):
        sys = full_shift()
        fam = self._family(sys, [sys.points([[0, 1]])], [0.5], 1)
        out = five_r_disjointify(sys, fam, sys.enumerate_points(2))
        assert len(out) == 1

    def test_duplicate_balls_merge(self):
        sys = full_shift()
        c = sys.points([[0, 1]])
        fam = self._family(sys, [c, c], [0.5, 0.5], 1)
        universe = sys.enumerate_points(2)
        out = five_r_disjointify(sys, fam, universe)
        assert len(out) == 1
        kept = out[0]
        for u in universe:
            inside_original = any(
                is_within(sys, b.center, u, b.order, b.radius, closed=True)
                for b in fam)
            if inside_original:
                assert is_within(sys, kept.center, u, kept.order,
                                 5 * kept.radius, closed=True)

    def test_a_center_is_one_point(self):
        sys = full_shift()
        with pytest.raises(ConfigurationError):
            BallSpec(center=sys.enumerate_points(1), order=1, radius=0.5)
        with pytest.raises(ConfigurationError):
            BallSpec(center=sys.points([]), order=1, radius=0.5)

    def test_postconditions_random_families(self):
        sys = full_shift(window=14, eps_min=0.05)
        universe = sys.enumerate_points(4)
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 7))
            idx = rng.choice(len(universe), size=m, replace=False)
            radii = rng.choice([0.15, 0.3, 0.6, 0.9], size=m)
            fam = self._family(sys, [universe[i] for i in idx], radii, n)
            out = five_r_disjointify(sys, fam, universe)
            # pairwise disjoint over the universe
            member_sets = []
            for b in out:
                members = {u.symbols.tobytes() for u in universe
                           if is_within(sys, b.center, u, n, b.radius,
                                        closed=True)}
                member_sets.append(members)
            for a, b in itertools.combinations(member_sets, 2):
                assert not (a & b)
            # 5r inflations cover the original union
            for u in universe:
                if any(is_within(sys, b.center, u, n, b.radius, closed=True)
                       for b in fam):
                    assert any(is_within(sys, b.center, u, n, 5 * b.radius,
                                         closed=True) for b in out)

