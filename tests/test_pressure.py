from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdim.bowen import max_separated
from mmdim.errors import BracketError, ConfigurationError, WindowExhaustedError
from mmdim.measures import MeasureModel, bs_entropy
from mmdim.pressure import (
    _logsumexp,
    _modulus,
    analytic_oracle_pressure,
    induced_mdim_estimate,
    induced_pressure,
    log_eps_fit,
    mdim_estimate,
    pressure_estimate,
    pressure_sum,
    solve_bowen_root,
    time_level_partition,
    validate_pressure_oracle,
)
from mmdim.systems import (
    ONE_SIDED,
    TWO_SIDED,
    Points,
    Potential,
    ShiftSystem,
)
from pointwise import birkhoff_sum


def full_shift(k=2, window=14, eps_min=0.05, **kw):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min, **kw)


def grid_system(eps: float) -> ShiftSystem:
    k = math.ceil(1.0 / eps)
    window = max(16, int(math.ceil(math.log2(20.0 / eps))) + 2)
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       eps_min=eps)


class TestPressureSum:
    def test_two_points_constant_potential(self):
        sys = full_shift()
        pts = sys.points([[0, 0], [1, 1]])
        # 2 * (1/eps)^{2} with eps = 1/2 and phi = 1: 2 * 4 = 8
        got = pressure_sum(sys, pts, Potential.constant(1.0), 2, 0.5)
        assert got == pytest.approx(math.log(8.0))

    def test_zero_potential_counts(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        got = pressure_sum(sys, pts, Potential.constant(0.0), 2, 0.3)
        assert got == pytest.approx(math.log(4.0))

    def test_constant_shift_identity(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        n, eps, c = 3, 0.3, 0.7
        base = pressure_sum(sys, pts, Potential.constant(0.0), n, eps)
        shifted = pressure_sum(sys, pts, Potential.constant(c), n, eps)
        assert shifted == pytest.approx(base + c * n * math.log(1 / eps))

    def test_empty_witness(self):
        sys = full_shift()
        assert pressure_sum(sys, sys.points([]), Potential.constant(0.0), 2,
                            0.5) == -math.inf


def scalar_pressure_sum(system, points, phi, n, eps) -> float:
    L = math.log(1.0 / eps)
    return _logsumexp([L * birkhoff_sum(system, phi, x, n) for x in points])


def drawn_potential(rng, kind, k) -> Potential:
    if kind == "constant":
        return Potential.constant(float(rng.uniform(-2.0, 2.0)))
    if kind == "table":
        return Potential.from_table(np.round(rng.uniform(-1.0, 2.0, k), 3))
    r = int(rng.integers(2, 4))
    return Potential.from_range_table(np.round(rng.uniform(-1.0, 2.0, k ** r),
                                               3), r)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ONE_SIDED, TWO_SIDED]), st.integers(2, 4),
       st.integers(3, 6), st.sampled_from(["constant", "table", "range"]),
       st.sampled_from([1.0, -1.5, 0.3]), st.sampled_from([0.0, 0.7, -2.0]),
       st.sampled_from([0.6, 0.3, 2.0 ** -5]), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_pressure_sum_matches_scalar_sums(sidedness, k, window, kind, scale,
                                          shift, eps, seed, data):
    system = ShiftSystem(kind="full-shift", alphabet_size=k,
                         sidedness=sidedness, window=window, eps_min=3.0)
    rng = np.random.default_rng(seed)
    phi = drawn_potential(rng, kind, k).scaled(scale)
    phi = replace(phi, offset=phi.offset + shift)
    # orders up to and past the stored word: exact tails read zeros there
    n = data.draw(st.integers(1, system.word_length + 3), label="n")
    rows = rng.integers(0, k, size=(int(rng.integers(1, 40)),
                                    system.word_length))
    points = system.points(rows)
    got = pressure_sum(system, points, phi, n, eps)
    assert got == scalar_pressure_sum(system, points, phi, n, eps)


@pytest.mark.parametrize("n", [8, 13, 17])
@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
def test_pressure_sum_matches_scalar_sums_at_long_orders(sidedness, n):
    # numpy's pairwise sum regroups the terms from n = 8 on
    system = ShiftSystem(kind="full-shift", alphabet_size=4,
                         sidedness=sidedness, window=14, eps_min=0.3)
    rng = np.random.default_rng(n)
    phi = Potential.from_range_table(rng.uniform(0.0, 1.0, 16), 2)
    points = system.points(rng.integers(0, 4, size=(300, system.word_length)))
    for p in (phi, replace(phi.scaled(-1.5), offset=0.7)):
        assert pressure_sum(system, points, p, n, 0.3) == \
            scalar_pressure_sum(system, points, p, n, 0.3)


def scalar_time_levels(system, points, psi, T) -> dict:
    """Time levels read one scalar Birkhoff sum at a time: S_1, S_2, ... per
    point up to its level."""
    levels = {}
    for z in points:
        prev = birkhoff_sum(system, psi, z, 1)
        if prev > T:
            continue
        for j in range(2, math.floor(T / psi.min) + 3):
            cur = birkhoff_sum(system, psi, z, j)
            if prev <= T < cur:
                levels.setdefault(j - 1, []).append(z)
                break
            prev = cur
    return {n: tuple(v) for n, v in levels.items()}


def tuples(levels: dict) -> dict:
    """Time levels with each level's points as a tuple of one-row pools."""
    return {n: tuple(members) for n, members in levels.items()}


def outcome(fn):
    """fn()'s value, or the message of the WindowExhaustedError it raises."""
    try:
        return fn()
    except WindowExhaustedError as exc:
        return f"raised: {exc}"


@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
def test_pressure_sum_sampled_windows_raise_as_scalar(sidedness):
    system = ShiftSystem(kind="full-shift", alphabet_size=3,
                         sidedness=sidedness, window=5, eps_min=1.0)
    rng = np.random.default_rng(3)
    phi = Potential.from_range_table(rng.uniform(0.0, 1.0, 9), 2).scaled(-1.0)
    rows = rng.integers(0, 3, size=(6, 11))[:, :system.word_length]
    right = system.word_length - system.origin_index
    # two exact words, then the six as sampled windows, which hold `right`
    # genuine coordinates from the origin
    points = Points(np.concatenate([rows[:2], rows]),
                    [math.inf] * 2 + [right] * len(rows), system.origin_index)
    n_ok = right - 1
    assert pressure_sum(system, points, phi, n_ok, 0.3) == \
        scalar_pressure_sum(system, points, phi, n_ok, 0.3)
    with pytest.raises(WindowExhaustedError) as scalar:
        scalar_pressure_sum(system, points, phi, n_ok + 1, 0.3)
    with pytest.raises(WindowExhaustedError) as vector:
        pressure_sum(system, points, phi, n_ok + 1, 0.3)
    assert str(vector.value) == str(scalar.value)

    # time levels, on exact and sampled windows
    psi = Potential.from_range_table(rng.uniform(0.5, 1.0, 9), 2)
    pool = points
    raised = []
    for T in (0.4, 1.2, 2.0, 3.0, 4.5):
        got = outcome(lambda: tuples(time_level_partition(system, pool, psi,
                                                          T).levels))
        assert got == outcome(lambda: scalar_time_levels(system, pool, psi, T))
        raised.append(isinstance(got, str))
    assert any(raised) and not all(raised)

    # BS entropy reads each sampled point's sums up to its last usable order
    measure = MeasureModel.product_uniform(system, seed=5)
    xs = measure.sample_points(4, stream=7)
    for ns in ([1, 2, 3], [2, 3, n_ok], [2, n_ok + 1], [1, n_ok + 2]):
        got = outcome(lambda: bs_entropy(measure, psi, 0.5, ns, x_samples=4,
                                         stream=7))
        ref = outcome(lambda: [birkhoff_sum(system, psi, x, ns[-1])
                               for x in xs])
        if ns[-1] > n_ok:
            assert isinstance(got, str) and got == ref
        else:
            assert not isinstance(got, str) and not isinstance(ref, str)


class TestOracle:
    def test_full_shift_zero_potential_pinched(self):
        sys = full_shift()
        for eps in (0.6, 0.3):
            br = analytic_oracle_pressure(sys, Potential.constant(0.0), eps)
            assert br.lo == pytest.approx(math.log(2.0), abs=1e-12)
            assert br.hi == pytest.approx(math.log(2.0), abs=1e-12)

    def test_validated_against_brute_force(self):
        sys = full_shift()
        for eps in (0.6, 0.3):
            validate_pressure_oracle(sys, Potential.constant(0.0), eps, n_max=3)
        phi = Potential.from_table([0.0, 0.4])
        validate_pressure_oracle(sys, phi, 0.5, n_max=3)

    def test_grid_dyadic_pinched_to_log_k(self):
        for eps in (2.0 ** -3, 2.0 ** -5):
            sys = grid_system(eps)
            br = analytic_oracle_pressure(sys, Potential.constant(0.0), eps)
            k = sys.alphabet_size
            assert br.lo == pytest.approx(math.log(k), abs=1e-12)
            assert br.hi == pytest.approx(math.log(k), abs=1e-12)
            validate_pressure_oracle(sys, Potential.constant(0.0), eps, n_max=2)

    def test_grid_bracket_contains_log_inv_eps(self):
        for eps in (2.0 ** -4, 2.0 ** -6):
            sys = grid_system(eps)
            br = analytic_oracle_pressure(sys, Potential.constant(0.0), eps)
            target = math.log(1.0 / eps)
            assert br.lo <= target + math.log(math.log(1 / eps)) + 1.0
            assert br.hi >= target - 1e-9

    def test_constant_shift_through_oracle(self):
        sys = grid_system(2.0 ** -4)
        eps = 2.0 ** -4
        base = analytic_oracle_pressure(sys, Potential.constant(0.0), eps)
        shifted = analytic_oracle_pressure(sys, Potential.constant(0.5), eps)
        assert shifted.lo == pytest.approx(base.lo + 0.5 * math.log(1 / eps))
        assert shifted.hi == pytest.approx(base.hi + 0.5 * math.log(1 / eps))

    def test_nonuniform_table_bracket_valid(self):
        sys = full_shift(k=3)
        phi = Potential.from_table([0.1, 0.5, 0.3])
        validate_pressure_oracle(sys, phi, 0.4, n_max=3)

    def test_finite_range_potential_rejected(self):
        sys = full_shift()
        phi = Potential.from_range_table([0.0, 1.0, 1.0, 0.0], range_len=2)
        with pytest.raises(ConfigurationError):
            analytic_oracle_pressure(sys, phi, 0.5)

    def test_constant_modulus_zero(self):
        sys = full_shift()
        assert _modulus(sys, Potential.constant(3.0), 0.5) == 0.0

    def test_table_modulus(self):
        sys = full_shift()
        phi = Potential.from_table([0.2, 0.7])
        assert _modulus(sys, phi, 0.5) == 0.0
        assert _modulus(sys, phi, 1.0) == pytest.approx(0.5)

    def test_modulus_pinned(self):
        # values pinned from the former Potential.modulus
        full = full_shift(k=3)
        grid = ShiftSystem(kind="grid-shift", alphabet_size=5, window=14,
                           eps_min=0.05)

        def affine(table, scale, offset):
            return replace(Potential.from_table(table).scaled(scale),
                           offset=offset)

        phi = affine([0.3, -1.2, 2.5], -1.7, 0.4)
        assert [_modulus(full, phi, r) for r in (0.5, 1.0, 1.3)] == [
            0.0, 6.29, 6.29]
        # rho = 0.2 ties the grid spacing: adjacent symbols are in reach
        phi = affine([0.0, 0.35, 0.9, 1.1, 2.45], -0.8, -2.0)
        assert [_modulus(grid, phi, r) for r in (0.1, 0.2, 0.4, 0.6, 0.8)] \
            == [0.0, 1.08, 1.2400000000000002, 1.6800000000000002,
                1.9600000000000002]
        assert _modulus(grid, affine([0.7] * 5, -3.0, 1.5), 0.3) == 0.0


class TestPressureEstimate:
    def test_full_shift_log2_exact(self):
        sys = full_shift()
        for eps in (0.6, 0.3):
            est = pressure_estimate(sys, Potential.constant(0.0), eps,
                                    range(2, 9))
            assert est.slope == pytest.approx(math.log(2.0), abs=1e-6)
            assert est.witness_kind == "analytic-oracle"

    def test_witness_path_matches_oracle_small(self):
        sys = full_shift()
        # a finite-range zero has no oracle and the constant's Birkhoff sums
        zero = Potential.from_range_table([0.0] * 2, 1)
        est_w = pressure_estimate(sys, zero, 0.6, [1, 2, 3])
        assert est_w.witness_kind == "separated-exact"
        assert est_w.slope == pytest.approx(math.log(2.0), abs=1e-9)

    def test_single_point_system_zero(self):
        sys = full_shift(k=1)
        zero = Potential.from_range_table([0.0], 1)
        est = pressure_estimate(sys, zero, 0.5, [1, 2, 3])
        assert est.witness_kind == "separated-exact"
        assert est.slope == pytest.approx(0.0, abs=1e-12)

    def test_constant_potential_shifts_slope(self):
        sys = full_shift()
        eps, c = 0.5, 0.8
        base = pressure_estimate(sys, Potential.constant(0.0), eps, [2, 3, 4])
        shifted = pressure_estimate(sys, Potential.constant(c), eps, [2, 3, 4])
        assert shifted.slope == pytest.approx(
            base.slope + c * math.log(1 / eps), abs=1e-9)


class TestMdimEstimate:
    def test_finite_alphabet_slope_zero(self):
        sys = full_shift()
        eps_schedule = [0.6, 0.3, 0.15, 0.075]
        est = mdim_estimate(sys, Potential.constant(0.0), eps_schedule,
                            range(2, 9))
        assert abs(est.slope) < 0.05

    def test_grid_slope_one(self):
        eps_schedule = [2.0 ** -j for j in range(3, 9)]
        est = mdim_estimate(None, Potential.constant(0.0), eps_schedule,
                            range(2, 9), system_factory=grid_system)
        assert est.slope == pytest.approx(1.0, abs=0.15)

    def test_constant_shift_identity(self):
        eps_schedule = [2.0 ** -j for j in range(3, 7)]
        base = mdim_estimate(None, Potential.constant(0.0), eps_schedule,
                             range(2, 6), system_factory=grid_system)
        c = 0.4
        shifted = mdim_estimate(None, Potential.constant(c), eps_schedule,
                                range(2, 6), system_factory=grid_system)
        assert shifted.slope == pytest.approx(base.slope + c, abs=1e-9)

    def test_requires_three_eps(self):
        sys = full_shift()
        with pytest.raises(ConfigurationError):
            mdim_estimate(sys, Potential.constant(0.0), [0.6, 0.3], [2, 3])


class TestTimeLevels:
    def test_unit_psi(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        part = time_level_partition(sys, pts, Potential.constant(1.0), 3.5)
        assert tuple(sorted(part.levels)) == (3,)
        assert len(part.levels[3]) == len(pts)

    def test_psi_two(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        part = time_level_partition(sys, pts, Potential.constant(2.0), 5.0)
        assert tuple(sorted(part.levels)) == (2,)

    def test_table_psi_levels(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        psi = Potential.from_table([1.0, 2.0])
        part = time_level_partition(sys, pts, psi, 3.0)
        # e.g. 111: S_1 = 2 <= 3 < S_2 = 4 -> level 1; 000: S_3 = 3 <= 3 < 4 -> 3
        got_levels = set(part.levels)
        assert got_levels == {1, 2, 3}
        m = psi.min
        for n, members in part.levels.items():
            assert n <= math.floor(3.0 / m) + 1
            for z in members:
                assert birkhoff_sum(sys, psi, z, n) <= 3.0
                assert birkhoff_sum(sys, psi, z, n + 1) > 3.0

    def test_nonpositive_psi_rejected(self):
        sys = full_shift()
        with pytest.raises(ConfigurationError):
            time_level_partition(sys, sys.enumerate_points(1),
                                 Potential.constant(0.0), 2.0)


class TestInducedPressure:
    def test_unit_psi_reduces_to_plain(self):
        sys = full_shift()
        phi = Potential.from_table([0.0, 0.3])
        for n, eps in [(2, 0.6), (3, 0.3)]:
            pts = sys.enumerate_points(n)
            val = induced_pressure(sys, pts, phi, Potential.constant(1.0),
                                   n + 0.5, eps)
            witness, _ = max_separated(sys, pts, n, eps)
            assert val.log_sum == pytest.approx(
                pressure_sum(sys, witness, phi, n, eps))

    def test_spanning_below_separated_everywhere(self):
        sys = full_shift()
        phi = Potential.from_table([0.0, 0.3])
        psi = Potential.from_table([1.0, 2.0])
        for T in (2.5, 3.5, 4.5):
            pts = sys.enumerate_points(int(T) + 1)
            p = induced_pressure(sys, pts, phi, psi, T, 0.4,
                                 witness="separated")
            q = induced_pressure(sys, pts, phi, psi, T, 0.4,
                                 witness="spanning")
            assert q.log_sum <= p.log_sum + 1e-12

    def test_psi_two_small_instance(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        eps = 0.6
        val = induced_pressure(sys, pts, Potential.constant(0.0),
                               Potential.constant(2.0), 5.0, eps)
        witness, _ = max_separated(sys, pts, 2, eps)
        assert val.log_sum == pytest.approx(math.log(len(witness)))

    def test_nonempty_level_gives_finite_value(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        val = induced_pressure(sys, pts, Potential.constant(0.0),
                               Potential.constant(1.0), 2.5, 0.5)
        assert val.log_sum > -math.inf

    def test_empty_points_minus_infinity(self):
        sys = full_shift()
        val = induced_pressure(sys, sys.points([]), Potential.constant(0.0),
                               Potential.constant(1.0), 2.5, 0.5)
        assert val.log_sum == -math.inf


class TestInducedMdim:
    def test_unit_psi_matches_plain(self):
        sys = full_shift()
        phi = Potential.constant(0.0)
        eps_schedule = [0.6, 0.3, 0.15]
        plain = mdim_estimate(sys, phi, eps_schedule, range(2, 6))
        induced = induced_mdim_estimate(sys, phi, Potential.constant(1.0),
                                        eps_schedule,
                                        [n + 0.5 for n in range(2, 6)])
        assert induced.slope == pytest.approx(plain.slope, abs=0.05)
        for eps in eps_schedule:
            assert induced.per_eps_pressure[eps] == pytest.approx(
                plain.per_eps_pressure[eps], abs=0.05)

    def test_psi_two_halves_the_rate(self):
        sys = full_shift()
        phi = Potential.constant(0.0)
        eps_schedule = [0.6, 0.3, 0.15]
        one = induced_mdim_estimate(sys, phi, Potential.constant(1.0),
                                    eps_schedule,
                                    [n + 0.5 for n in range(2, 6)])
        two = induced_mdim_estimate(sys, phi, Potential.constant(2.0),
                                    eps_schedule,
                                    [2 * n + 1.0 for n in range(2, 6)])
        for eps in eps_schedule:
            assert two.per_eps_pressure[eps] == pytest.approx(
                one.per_eps_pressure[eps] / 2.0, abs=0.05)


class TestPressureMonotonicity:
    """Per-term inequalities for the family phi - beta psi on a fixed witness."""

    def setup_method(self):
        self.sys = full_shift()
        self.pts = self.sys.enumerate_points(3)
        self.phi = Potential.from_table([0.1, 0.6])
        self.psi = Potential.from_table([1.0, 1.5])

    def _log_sum(self, beta, n=3, eps=0.4):
        from mmdim.systems import combine
        mix = combine(self.phi, self.psi, -beta, self.sys)
        return pressure_sum(self.sys, self.pts, mix, n, eps)

    def test_lipschitz_at_fixed_scale(self):
        n, eps = 3, 0.4
        L = math.log(1 / eps)
        norm = self.psi.norm
        for b1, b2 in [(0.0, 0.5), (0.2, 1.0), (-0.3, 0.4)]:
            lhs = abs(self._log_sum(b1) - self._log_sum(b2))
            assert lhs <= abs(b1 - b2) * norm * n * L + 1e-9

    def test_strict_decrease_at_fixed_scale(self):
        n, eps = 3, 0.4
        L = math.log(1 / eps)
        m = self.psi.min
        for b1, b2 in [(0.0, 0.5), (0.2, 1.0)]:
            assert self._log_sum(b2) <= self._log_sum(b1) \
                - (b2 - b1) * m * n * L + 1e-9


class TestRootSolver:
    def test_constant_shift_root(self):
        # mdim(phi - beta) = D - beta exactly: root at D
        psi = Potential.constant(1.0)
        D = 1.37
        res = solve_bowen_root(lambda b: D - b, psi, tol=1e-4)
        assert res.beta == pytest.approx(D, abs=2e-4)

    def test_psi_two_halves_root(self):
        psi2 = Potential.constant(2.0)
        D = 1.0
        res = solve_bowen_root(lambda b: D - 2 * b, psi2, tol=1e-4)
        assert res.beta == pytest.approx(0.5, abs=2e-4)

    def test_grid_oracle_root(self):
        eps_schedule = [2.0 ** -j for j in range(3, 9)]
        psi = Potential.constant(1.0)

        def mdim_fn(beta):
            phi = Potential.constant(0.5 - beta)
            est = mdim_estimate(None, phi, eps_schedule, range(2, 6),
                                system_factory=grid_system)
            return est.slope

        res = solve_bowen_root(mdim_fn, psi, tol=1e-3)
        assert res.beta == pytest.approx(1.5, abs=0.1)

    def test_negative_root(self):
        psi = Potential.constant(1.0)
        res = solve_bowen_root(lambda b: -0.7 - b, psi, tol=1e-4)
        assert res.beta == pytest.approx(-0.7, abs=2e-4)

    def test_bracket_failure_reported(self):
        psi = Potential.constant(1.0)
        with pytest.raises(BracketError):
            solve_bowen_root(lambda b: 1.0, psi, tol=1e-4)


def test_fit_residual_of_huge_values_is_finite():
    # the misses are near 1e307, so their squares overflow a double
    eps = [0.6, 0.3, 0.15]
    ys = [1e307, 5e307, 2e307]
    fit = log_eps_fit(eps, ys)
    assert math.isfinite(fit.residual)
    small = log_eps_fit(eps, [y * 1e-300 for y in ys])
    assert fit.residual == pytest.approx(small.residual * 1e300)
