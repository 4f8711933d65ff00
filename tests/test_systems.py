from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from mmdim.errors import (
    ConfigurationError,
    EnumerationCapError,
    WindowExhaustedError,
)
from mmdim.systems import (
    ONE_SIDED,
    TWO_SIDED,
    Potential,
    ShiftSystem,
    birkhoff_sums,
    combine,
)
from pointwise import birkhoff_sum, bowen_distance


def full_shift(k=2, window=12, eps_min=0.1, **kw):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min, **kw)


def grid_shift(k=4, window=14, eps_min=0.05, **kw):
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       eps_min=eps_min, **kw)


class TestConstruction:
    def test_window_tail_check(self):
        # tail 2^{-W}/(1-1/2) = 2^{-W+1} must be < eps_min/10
        with pytest.raises(ConfigurationError):
            ShiftSystem(kind="full-shift", window=4, eps_min=0.1)
        ShiftSystem(kind="full-shift", window=9, eps_min=0.1)

    def test_metric_defaults_follow_kind(self):
        assert full_shift().symbol_metric == "discrete"
        assert grid_shift().symbol_metric == "absolute-difference"

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShiftSystem(kind="interval-map")
        with pytest.raises(ConfigurationError):
            ShiftSystem(weight_base=1.0, window=12)

    def test_symbols_fit_int64(self):
        # symbols and their differences lie in -k..k, which int64 holds
        # up to k = 2^63; past it numpy's symbol dtype was ``object``
        assert ShiftSystem(alphabet_size=2 ** 63).symbol_dtype == np.int64
        for k in (2 ** 63 + 1, 10 ** 20):
            with pytest.raises(ConfigurationError, match="int64"):
                ShiftSystem(alphabet_size=k)


class TestMetric:
    def test_identity(self):
        sys = full_shift()
        x = sys.points([[0, 1, 0, 1]])
        assert bowen_distance(sys, x, x, 1) == 0.0

    def test_coordinate_zero_weight_one(self):
        sys = full_shift()
        x = sys.points([[0, 0, 0]])
        y = sys.points([[1, 0, 0]])
        assert bowen_distance(sys, x, y, 1) == pytest.approx(1.0)

    def test_single_difference_at_coordinate_one(self):
        sys = full_shift()
        x = sys.points([[0, 1, 0]])
        y = sys.points([[0, 0, 0]])
        # direct summation: only coordinate 1 differs, weight 2^-1
        assert bowen_distance(sys, x, y, 1) == pytest.approx(0.5)

    def test_symmetry_and_positivity_exhaustive(self):
        sys = full_shift(window=10, eps_min=0.2)
        pts = sys.enumerate_points(3)
        for x, y in itertools.combinations(pts, 2):
            d = bowen_distance(sys, x, y, 1)
            assert d > 0
            assert d == pytest.approx(bowen_distance(sys, y, x, 1))

    def test_triangle_inequality_bruteforce(self):
        sys = full_shift(window=10, eps_min=0.2)
        pts = sys.enumerate_points(4)[:12]
        for x, y, z in itertools.permutations(pts, 3):
            assert bowen_distance(sys, x, z, 1) <= (
                bowen_distance(sys, x, y, 1) + bowen_distance(sys, y, z, 1)
                + 1e-12)

    def test_depends_only_on_window_differences(self):
        sys = grid_shift(k=3, window=10, eps_min=0.2)
        x = sys.points([[0, 1, 2, 0, 0]])
        y = sys.points([[1, 1, 2, 0, 0]])
        x2 = sys.points([[0, 1, 2, 2, 1]])
        y2 = sys.points([[1, 1, 2, 2, 1]])
        assert bowen_distance(sys, x, y, 1) == pytest.approx(
            bowen_distance(sys, x2, y2, 1))

    def test_mismatched_systems_rejected(self):
        a = full_shift(window=10, eps_min=0.2)
        b = full_shift(window=12, eps_min=0.2)
        with pytest.raises(ConfigurationError):
            a.as_points(b.points([[0]]))


class TestBirkhoff:
    def test_constant(self):
        sys = full_shift()
        phi = Potential.constant(0.3)
        x = sys.points([[1, 0, 1]])
        assert birkhoff_sum(sys, phi, x, 5) == pytest.approx(1.5)

    def test_identity_table(self):
        sys = full_shift()
        phi = Potential.from_table([0.0, 1.0])
        x = sys.points([[1, 0, 1, 1]])
        assert birkhoff_sum(sys, phi, x, 3) == pytest.approx(2.0)

    def test_table_direct(self):
        sys = full_shift()
        phi = Potential.from_table([0.2, 0.7])
        x = sys.points([[1, 1, 0]])
        assert birkhoff_sum(sys, phi, x, 2) == pytest.approx(1.4)

    def test_cocycle_additivity(self):
        sys = full_shift(window=12, eps_min=0.2)
        phi = Potential.from_table([0.2, 0.7])
        x = sys.points([[1, 0, 1, 1, 0, 1, 0, 0]])
        for n, m in [(2, 3), (1, 4), (3, 3)]:
            lhs = birkhoff_sum(sys, phi, x, n + m)
            sx = sys.points([x.symbols[0, n:]])  # sigma^n x
            rhs = birkhoff_sum(sys, phi, x, n) + birkhoff_sum(sys, phi, sx, m)
            assert lhs == pytest.approx(rhs)

    def test_window_exhausted_for_sampled_points(self):
        sys = full_shift()
        phi = Potential.from_table([0.2, 0.7])
        x = sys.points([[1] * sys.word_length], exact_tail=False)
        with pytest.raises(WindowExhaustedError):
            birkhoff_sum(sys, phi, x, sys.word_length + 1)
        # constants never exhaust the window
        birkhoff_sum(sys, Potential.constant(1.0), x, sys.word_length + 5)


class TestEnumeration:
    def test_counts(self):
        assert len(full_shift().enumerate_points(2)) == 4
        assert len(grid_shift(k=3, window=12, eps_min=0.1).enumerate_points(3)) == 27

    def test_cap(self):
        sys = ShiftSystem(kind="grid-shift", alphabet_size=16, window=13,
                          eps_min=0.05)
        with pytest.raises(EnumerationCapError):
            sys.enumerate_points(6)


class TestPotential:
    def test_affine_bounds(self):
        phi = Potential.from_table([0.2, 0.7])
        assert phi.min == pytest.approx(0.2)
        assert phi.max == pytest.approx(0.7)
        neg = phi.scaled(-2.0)
        assert neg.min == pytest.approx(-1.4)
        assert neg.max == pytest.approx(-0.4)
        assert neg.norm == pytest.approx(1.4)

    def test_combine_tables(self):
        sys = full_shift()
        phi = Potential.from_table([0.2, 0.7])
        psi = Potential.constant(1.0)
        mix = combine(phi, psi, -0.5, sys)
        x = sys.points([[1, 0]])
        assert birkhoff_sum(sys, mix, x, 1) == pytest.approx(0.7 - 0.5)

    def test_finite_range_table(self):
        sys = full_shift()
        # phi(x) = x0 XOR x1
        phi = Potential.from_range_table([0.0, 1.0, 1.0, 0.0], range_len=2)
        x = sys.points([[0, 1, 1, 0]])
        assert birkhoff_sum(sys, phi, x, 3) == pytest.approx(1.0 + 0.0 + 1.0)


def loop_birkhoff_sum(phi: Potential, x, n: int) -> float:
    """S_n phi(x) of a one-row pool as one Python loop over the coordinates,
    j = 0..n-1, where coordinates past the stored word read 0."""
    if phi.kind == "constant":
        return n * (phi.scale * phi.value + phi.offset)
    word = x.symbols[0].tolist()

    def coordinate(j):
        return word[x.origin + j] if x.origin + j < len(word) else 0

    r = phi.effective_range()
    k = round(len(phi.table) ** (1.0 / r))
    total = 0.0
    for j in range(n):
        idx = 0
        for t in range(r):
            idx = idx * k + coordinate(j + t)
        total += phi.table[idx]
    return phi.scale * total + n * phi.offset


@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
@pytest.mark.parametrize("kind", ["constant", "table", "range"])
def test_birkhoff_sums_columns_equal_the_loop_sum(sidedness, kind):
    # orders up to 17 reach past the window of 14; numpy's pairwise sum
    # would regroup the terms from n = 8 on
    system = ShiftSystem(kind="full-shift", alphabet_size=3,
                         sidedness=sidedness, window=14, eps_min=0.3)
    rng = np.random.default_rng(4)
    base = {"constant": Potential.constant(0.37),
            "table": Potential.from_table(rng.uniform(-1.0, 2.0, 3)),
            "range": Potential.from_range_table(rng.uniform(-1.0, 2.0, 27),
                                                3)}[kind]
    points = system.points(rng.integers(0, 3, size=(40, system.word_length)))
    for phi in (base, replace(base.scaled(-1.5), offset=0.7)):
        sums = birkhoff_sums(system, phi, points.symbols, 17)
        assert sums.shape == (len(points), 18)
        for x, row in zip(points, sums):
            for n in range(18):
                expected = loop_birkhoff_sum(phi, x, n)
                assert row[n] == expected
                assert birkhoff_sum(system, phi, x, n) == expected
