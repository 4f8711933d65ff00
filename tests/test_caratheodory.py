from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mmdim.caratheodory import (
    BS_R,
    COVER_M,
    MAX_DOUBLINGS,
    PACKING_BS,
    PACKING_P,
    STRUCTURES,
    WEIGHTED_W,
    OuterMeasureProblem,
    Structure,
    critical_lambda,
    structure_valuation,
    subset_mdim,
    value,
)
from mmdim.bowen import min_spanning
from mmdim.errors import (BracketError, ConfigurationError,
                          WindowExhaustedError)
from mmdim.solvers import rows_as_bits
from mmdim.systems import (ONE_SIDED, TWO_SIDED, Points, Potential,
                           ShiftSystem, birkhoff_sums)
from pointwise import birkhoff_sum
from test_solvers import whole_rows


def full_shift(k=2, window=14, eps_min=0.05, **kw):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min, **kw)


def problem(sys, pts, phi, eps, N=1, n_max=3, structure=COVER_M, **kw):
    return OuterMeasureProblem(system=sys, points=pts, phi=phi,
                               eps=eps, N=N, n_max=n_max,
                               structure=structure, **kw)


BS_ROWS = [s for s in STRUCTURES if s.bs]
BOWEN_ROWS = [s for s in STRUCTURES if not s.bs]
REFUSED = "BS structures need phi > 0"


def row_id(structure):
    return structure.name


def test_the_table_has_five_rows_of_three_families():
    assert [s.name for s in STRUCTURES] == [
        "cover-M", "packing-P", "BS-R", "packing-BS", "weighted-W"]
    assert {s.family for s in STRUCTURES} == {"cover", "packing",
                                              "fractional"}
    assert len({s.cli for s in STRUCTURES}) == len(STRUCTURES)
    assert BS_ROWS == [BS_R, PACKING_BS, WEIGHTED_W]


@pytest.mark.parametrize("structure", BS_ROWS, ids=row_id)
def test_bs_rows_refuse_nonpositive_phi(structure):
    sys = full_shift()
    z = sys.points([[0]])
    positive = Potential.from_table([0.5, 1.0])
    for phi in (Potential.constant(0.0), Potential.from_table([-0.5, 1.0])):
        with pytest.raises(ConfigurationError, match=REFUSED):
            problem(sys, z, phi, 0.5, structure=structure)
        with pytest.raises(ConfigurationError, match=REFUSED):
            problem(sys, z, phi, 0.5).with_structure(structure)
        with pytest.raises(ConfigurationError, match=REFUSED):
            problem(sys, z, positive, 0.5,
                    structure=structure).with_potential(phi)


@pytest.mark.parametrize("structure", BOWEN_ROWS, ids=row_id)
def test_bowen_rows_accept_nonpositive_phi(structure):
    sys = full_shift()
    z = sys.points([[0]])
    positive = Potential.from_table([0.5, 1.0])
    for phi in (Potential.constant(0.0), Potential.from_table([-0.5, 1.0])):
        assert problem(sys, z, phi, 0.5,
                       structure=structure).structure is structure
        assert problem(sys, z, positive, 0.5, structure=BS_R).with_structure(
            structure).with_potential(phi).phi is phi


@pytest.mark.parametrize("structure", [
    Structure("cover-X", "cover-x", "cover", False), "cover-M", None],
    ids=["unlisted-row", "name", "none"])
def test_unknown_structures_are_refused(structure):
    sys = full_shift()
    with pytest.raises(ConfigurationError, match="unknown structure"):
        problem(sys, sys.points([[0]]), Potential.constant(1.0), 0.5,
                structure=structure)


@pytest.mark.parametrize("points,N,n_max,message", [
    ([], 1, 3, "Z must be nonempty"),
    ([[0]], 4, 3, "need N <= n_max"),
    ([[0]], 0, 3, "orders start at 1"),
], ids=["empty-Z", "N-past-n-max", "N-below-1"])
def test_problems_refuse_empty_pools_and_bad_orders(points, N, n_max,
                                                    message):
    sys = full_shift()
    with pytest.raises(ConfigurationError, match=message):
        problem(sys, sys.points(points), Potential.constant(0.0), 0.5, N=N,
                n_max=n_max)


def test_orders_past_the_reliable_depth_are_rejected():
    # on a window of 14 the slack reaches eps / 10 = 0.06 at order 11, and
    # 0.5 at order 14, where the candidate balls no longer measure distance
    sys = full_shift()
    pts = sys.enumerate_points(3)
    phi = Potential.constant(0.0)
    problem(sys, pts, phi, 0.6, n_max=10)
    for n_max in (11, 14):
        with pytest.raises(WindowExhaustedError,
                           match=f"order {n_max} at radius 0.6 exceeds "
                                 "reliable depth 10 for window 14"):
            problem(sys, pts, phi, 0.6, n_max=n_max)


class TestCoverValue:
    def test_single_point_lambda_zero(self):
        sys = full_shift()
        prob = problem(sys, sys.points([[0, 1]]), Potential.constant(0.0), 0.5)
        assert value(prob, 0.0).value == pytest.approx(1.0)

    def test_single_point_positive_lambda_deepest_ball(self):
        sys = full_shift()
        prob = problem(sys, sys.points([[0, 1]]), Potential.constant(0.0), 0.5,
                       N=1, n_max=4)
        lam = 0.7
        assert value(prob, lam).value == pytest.approx(
            math.exp(-4 * lam))

    def test_four_words_matches_min_spanning(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        prob = problem(sys, pts, Potential.constant(0.0), 0.6, N=1, n_max=1)
        got = value(prob, 0.0)
        centers, _ = min_spanning(sys, pts, 1, 0.6)
        assert got.value == pytest.approx(float(len(centers)))
        assert got.value == pytest.approx(2.0)

    def test_monotone_in_Z(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        rng = np.random.default_rng(7)
        phi = Potential.from_table([0.1, 0.4])
        for _ in range(6):
            size = int(rng.integers(2, len(pts)))
            sub_idx = sorted(rng.choice(len(pts), size=size, replace=False))
            sub = pts[sub_idx]
            for lam in (0.0, 0.5, 1.5):
                v_sub = value(
                    problem(sys, sub, phi, 0.5, n_max=2), lam).value
                v_all = value(
                    problem(sys, pts, phi, 0.5, n_max=2), lam).value
                assert v_sub <= v_all + 1e-12


class TestFixedLength:
    # a cover at the single order N is cover-M at n_max = N

    def test_zero_potential_counts_spanning(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        prob = problem(sys, pts, Potential.constant(0.0), 0.6, N=1, n_max=1)
        got = value(prob, 0.0)
        r = len(min_spanning(sys, pts, 1, 0.6)[0])
        assert got.value == pytest.approx(float(r))

    def test_single_point(self):
        sys = full_shift()
        prob = problem(sys, sys.points([[1, 0]]), Potential.constant(0.0), 0.5,
                       N=3, n_max=3)
        lam = 0.9
        assert value(prob, lam).value == pytest.approx(
            math.exp(-3 * lam))

    def test_matches_spanning_sum_discrete(self):
        # discrete metric at eps < 1 forces the first N coordinates of any
        # ball member to match the center, so the ball supremum is the
        # center value and the fixed-order cover optimum equals the
        # minimum over spanning subsets of the weighted spanning sum
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.from_table([0.2, 0.5])
        N, eps = 2, 0.6
        prob = problem(sys, pts, phi, eps, N=N, n_max=N)
        got = value(prob, 0.0)
        from mmdim.bowen import ball_masks
        L = math.log(1 / eps)
        best = math.inf
        for r in range(1, len(pts) + 1):
            for combo in itertools.combinations(range(len(pts)), r):
                if ball_masks(sys, pts[list(combo)].symbols, pts.symbols, N,
                              eps).any(axis=0).all():
                    ssum = sum(
                        math.exp(L * birkhoff_sum(sys, phi, pts[c], N))
                        for c in combo)
                    best = min(best, ssum)
        assert got.value == pytest.approx(best, abs=1e-9)


class TestPacking:
    def test_single_point(self):
        sys = full_shift()
        prob = problem(sys, sys.points([[0, 0]]), Potential.constant(0.0), 0.5,
                       structure=PACKING_P)
        assert value(prob, 0.0).value == pytest.approx(1.0)

    def test_four_depth2_words_all_disjoint(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        prob = problem(sys, pts, Potential.constant(0.0), 0.6, N=2, n_max=2,
                       structure=PACKING_P)
        assert value(prob, 0.0).value == pytest.approx(4.0)

    def test_large_lambda_vanishes(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        prob = problem(sys, pts, Potential.constant(0.0), 0.6, N=1, n_max=2,
                       structure=PACKING_P)
        vals = [value(prob, lam).value for lam in (0.0, 1.0, 4.0, 9.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3


class TestBSAndIdentities:
    def test_bs_unit_phi_equals_cover_zero(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        bs_prob = problem(sys, pts, Potential.constant(1.0), 0.6, n_max=3,
                          structure=BS_R)
        cover_prob = problem(sys, pts, Potential.constant(0.0), 0.6, n_max=3)
        for lam in (0.0, 0.7, 1.3):
            assert value(bs_prob, lam).value == pytest.approx(
                value(cover_prob, lam).value, abs=1e-12)

    def test_single_point_bs(self):
        sys = full_shift()
        prob = problem(sys, sys.points([[1, 1]]), Potential.constant(1.0), 0.5,
                       structure=BS_R)
        assert value(prob, 0.0).value == pytest.approx(1.0)

    def test_substitution_identity_randomized(self):
        # value(lam) == cover_value at potential -lam*phi/log(1/eps),
        # exponent 0, on 50 randomized small instances
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 50:
            k = int(rng.integers(2, 4))
            metric_kind = rng.choice(["full-shift", "grid-shift"])
            sys = ShiftSystem(kind=metric_kind, alphabet_size=k, window=14,
                              eps_min=0.05)
            depth = int(rng.integers(2, 4))
            pool = sys.enumerate_points(depth)
            size = int(rng.integers(2, min(7, len(pool) + 1)))
            idx = sorted(rng.choice(len(pool), size=size, replace=False))
            pts = pool[idx]
            phi = Potential.from_table(rng.uniform(0.2, 1.5, size=k))
            eps = float(rng.choice([0.6, 0.3, 0.15]))
            lam = float(rng.uniform(0.0, 3.0))
            L = math.log(1.0 / eps)
            bs_prob = problem(sys, pts, phi, eps, N=1,
                              n_max=int(rng.integers(1, 4)), structure=BS_R)
            got_bs = value(bs_prob, lam).value
            cover_prob = bs_prob.with_structure(COVER_M).with_potential(
                phi.scaled(-lam / L))
            got_cover = value(cover_prob, 0.0).value
            assert abs(got_bs - got_cover) < 1e-10
            # packing analogue
            pbs_prob = bs_prob.with_structure(PACKING_BS)
            got_pbs = value(pbs_prob, lam).value
            pack_prob = cover_prob.with_structure(PACKING_P)
            got_pack = value(pack_prob, 0.0).value
            assert abs(got_pbs - got_pack) < 1e-10
            checked += 1

    def test_substitution_instance_builds_one_geometry(self, monkeypatch):
        # the four valuations of one identity instance differ only in
        # structure and in an affine rescaling of the potential
        from mmdim import bowen, caratheodory
        builds = []
        blocks = bowen.distance_blocks

        def counted(*args):
            builds.append(args[3])  # n_max
            return blocks(*args)

        monkeypatch.setattr(bowen, "distance_blocks", counted)
        made, sums = [], caratheodory.birkhoff_sums  # once per family
        monkeypatch.setattr(caratheodory, "birkhoff_sums",
                            lambda *args: made.append(1) or sums(*args))
        bowen.pool_exits.cache_clear()  # the families go with the pass
        sys = full_shift(k=3)
        pts = sys.enumerate_points(2)[::2]
        phi = Potential.from_table([0.3, 0.9, 1.4])
        eps, lam = 0.3, 1.7
        bs_prob = problem(sys, pts, phi, eps, n_max=3, structure=BS_R)
        cover_prob = bs_prob.with_structure(COVER_M).with_potential(
            phi.scaled(-lam / math.log(1.0 / eps)))
        value(bs_prob, lam)
        value(cover_prob, 0.0)
        value(bs_prob.with_structure(PACKING_BS), lam)
        value(cover_prob.with_structure(PACKING_P), 0.0)
        # one family built, kept on the one pass
        assert len(made) == len(bowen._exits_memo[0].families) == 1
        # the one build makes one engine pass, at n_max = 3, per origin
        # cylinder of the points: words starting 0, 1 and 2
        assert builds == [3, 3, 3]

    def test_packing_bs_unit_phi(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        pbs = problem(sys, pts, Potential.constant(1.0), 0.6, n_max=2,
                      structure=PACKING_BS)
        pack = problem(sys, pts, Potential.constant(0.0), 0.6, n_max=2,
                       structure=PACKING_P)
        for lam in (0.0, 0.9):
            assert value(pbs, lam).value == pytest.approx(
                value(pack, lam).value, abs=1e-12)

    def test_packing_bs_single_point(self):
        sys = full_shift()
        z = sys.points([[1, 0]])
        phi = Potential.from_table([0.5, 1.0])
        prob = problem(sys, z, phi, 0.4, N=2, n_max=2, structure=PACKING_BS)
        lam = 0.8
        got = value(prob, lam)
        # sup over the closed ball around the single point is S_2 phi(z)
        expected = math.exp(-lam * birkhoff_sum(sys, phi, z, 2))
        assert got.value == pytest.approx(expected)

    def test_bs_requires_positive_phi(self):
        sys = full_shift()
        with pytest.raises(ConfigurationError):
            problem(sys, sys.points([[0]]), Potential.constant(0.0), 0.5,
                    structure=BS_R)


class TestWeighted:
    def test_single_point_cheapest_ball(self):
        sys = full_shift()
        z = sys.points([[1, 1]])
        phi = Potential.constant(1.0)
        prob = problem(sys, z, phi, 0.5, N=1, n_max=3, structure=WEIGHTED_W)
        lam = 0.6
        got = value(prob, lam)
        assert got.value == pytest.approx(math.exp(-lam * 3.0))

    def test_weighted_below_bs_everywhere(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.from_table([0.5, 1.0])
        for eps in (0.6, 0.3):
            for lam in (0.0, 0.4, 1.1):
                w_prob = problem(sys, pts, phi, eps, n_max=2,
                                 structure=WEIGHTED_W)
                b_prob = w_prob.with_structure(BS_R)
                assert value(w_prob, lam).value \
                    <= value(b_prob, lam).value + 1e-9

    @pytest.mark.parametrize("lam", [20.0, 40.0])
    def test_weighted_below_bs_at_tiny_weights(self, lam):
        # every weight is below 1e-8 here; an LP solved to absolute 1e-7
        # tolerances read them all as zero and put W up to 1e9 times R
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.from_table([0.5, 1.0])
        for eps in (0.6, 0.3):
            w_prob = problem(sys, pts, phi, eps, n_max=2, structure=WEIGHTED_W)
            w = value(w_prob, lam).value
            r = value(w_prob.with_structure(BS_R), lam).value
            assert 0.0 < w <= r * (1.0 + 1e-12)

    def test_fractional_strictly_beats_integral(self):
        # all four depth-2 grid words at eps=0.6, order 1: each ball covers
        # everything except the opposite corner, so the integral cover needs
        # two balls while c_i = 1/3 on all four is fractionally feasible
        sys = ShiftSystem(kind="grid-shift", alphabet_size=2, window=14,
                          eps_min=0.05)
        pts = sys.enumerate_points(2)
        prob = problem(sys, pts, Potential.constant(1.0), 0.6, N=1, n_max=1,
                       structure=WEIGHTED_W)
        for lam in (0.0, 0.5, 1.0):
            w = value(prob, lam).value
            r = value(prob.with_structure(BS_R), lam).value
            assert w == pytest.approx(4.0 / 3.0 * math.exp(-lam))
            assert r == pytest.approx(2.0 * math.exp(-lam))
            assert w < r - 1e-6

    def test_six_eps_inflation_inequality(self):
        # R(lam + delta, 6 eps) <= W(lam, eps) on exact small instances
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.from_table([0.5, 1.0])
        eps = 0.15
        for lam, delta in [(0.3, 0.1), (0.8, 0.3), (1.5, 0.05)]:
            w_prob = problem(sys, pts, phi, eps, n_max=3, structure=WEIGHTED_W)
            r_prob = problem(sys, pts, phi, 6 * eps, n_max=3, structure=BS_R)
            w = value(w_prob, lam).value
            r = value(r_prob, lam + delta).value
            assert r <= w + 1e-9


class TestChainComparison:
    def test_cover_3eps_below_packing_eps(self):
        # Prop-style chain: a maximal disjoint closed family at radius eps
        # yields a 3 eps cover, so the cover value at 3 eps is bounded by
        # the packing value at eps for the zero potential, same (lam, n).
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.constant(0.0)
        for n in (1, 2):
            for lam in (0.0, 0.4, 1.0):
                pack = value(
                    problem(sys, pts, phi, 0.3, N=n, n_max=n,
                            structure=PACKING_P), lam).value
                cover = value(
                    problem(sys, pts, phi, 0.9, N=n, n_max=n), lam).value
                assert cover <= pack + 1e-12


class TestCriticalLambda:
    @pytest.mark.parametrize("valuation,ends", [
        (lambda lam: 3.0, "values 3 and 3"),
        (lambda lam: 1.5 - lam / 2.0 ** 82, "values 1.5 and 1.25"),
    ], ids=["constant", "root-past-the-bracket"])
    def test_unbracketed_valuation_names_bracket_and_values(self, valuation,
                                                            ends):
        with pytest.raises(BracketError) as info:
            critical_lambda(valuation)
        message = str(info.value)
        assert (f"on [-1, {2.0 ** MAX_DOUBLINGS:.6g}] after {MAX_DOUBLINGS}"
                " doublings") in message
        assert f"({ends} at its ends)" in message
        assert "constant, or its root lies outside that bracket" in message

    def test_root_below_the_bracket_doubles_its_lower_end(self):
        # a constant phi = c shifts every cover weight by c n log(1/eps),
        # so lambda* moves by c log(1/eps): from log 2 to -1.86098, below
        # the first bracket [-1, 1]
        sys = full_shift()
        pts = sys.enumerate_points(2)
        tol = 1e-6
        probed = []
        valuation = structure_valuation(
            problem(sys, pts, Potential.constant(-5.0), 0.6, n_max=2))

        def recorded(lam):
            probed.append(lam)
            return valuation(lam)

        crit = critical_lambda(recorded, tol=tol)
        assert probed[:3] == [-1.0, 1.0, -2.0]  # lo doubled once
        zero = critical_lambda(structure_valuation(
            problem(sys, pts, Potential.constant(0.0), 0.6, n_max=2)),
            tol=tol).lambda_star
        assert crit.lambda_star == pytest.approx(
            zero - 5.0 * math.log(1.0 / 0.6), abs=2 * tol)
        assert crit.lambda_star == pytest.approx(-1.86098, abs=1e-5)

    def test_single_point_cover_crosses_at_zero(self):
        sys = full_shift()
        prob = problem(sys, sys.points([[0, 1]]), Potential.constant(0.0), 0.5,
                       N=1, n_max=4)
        crit = critical_lambda(structure_valuation(prob), tol=1e-6)
        assert crit.lambda_star == pytest.approx(0.0, abs=1e-5)
        assert crit.value_lo >= 1.0 >= crit.value_hi
        assert crit.bracket[1] - crit.bracket[0] <= 1e-6

    def test_bs_unit_phi_matches_cover_zero(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        bs_prob = problem(sys, pts, Potential.constant(1.0), 0.6, n_max=3,
                          structure=BS_R)
        cover_prob = problem(sys, pts, Potential.constant(0.0), 0.6, n_max=3)
        c1 = critical_lambda(structure_valuation(bs_prob), tol=1e-7)
        c2 = critical_lambda(structure_valuation(cover_prob), tol=1e-7)
        assert c1.lambda_star == pytest.approx(c2.lambda_star, abs=1e-7)

    def test_two_ball_hand_enumerable(self):
        # Z of two points far apart at order 1: cover needs both balls, so
        # the value is 2 e^{-lam} at n_max = N = 1 and crosses 1 at log 2.
        sys = full_shift()
        pts = sys.points([[0, 0], [1, 1]])
        prob = problem(sys, pts, Potential.constant(0.0), 0.5, N=1, n_max=1)
        crit = critical_lambda(structure_valuation(prob), tol=1e-8)
        assert crit.lambda_star == pytest.approx(math.log(2.0), abs=1e-6)

    def test_monotone_lambda_star_in_Z(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.constant(0.0)
        sub = pts[:3]
        c_sub = critical_lambda(structure_valuation(
            problem(sys, sub, phi, 0.4, n_max=2)), tol=1e-6)
        c_all = critical_lambda(structure_valuation(
            problem(sys, pts, phi, 0.4, n_max=2)), tol=1e-6)
        assert c_sub.lambda_star <= c_all.lambda_star + 1e-5

    def test_finite_union_max_rule(self):
        # the union value sits between max and sum of the block values, so
        # at threshold 1 the critical value can exceed the max of the block
        # critical values by at most log(2)/N (the constant-doubling shift)
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.constant(0.0)
        z1, z2 = pts[:4], pts[4:]
        crit = {}
        for name, z in [("z1", z1), ("z2", z2), ("union", pts)]:
            crit[name] = critical_lambda(structure_valuation(
                problem(sys, z, phi, 0.4, n_max=2)), tol=1e-6).lambda_star
        peak = max(crit["z1"], crit["z2"])
        assert peak - 1e-5 <= crit["union"] <= peak + math.log(2.0) / 1 + 1e-5

    def test_finite_union_nested_blocks_exact(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        phi = Potential.constant(0.0)
        z1, z2 = pts, pts[:3]  # z2 inside z1: union == z1 exactly
        c1 = critical_lambda(structure_valuation(
            problem(sys, z1, phi, 0.4, n_max=2)), tol=1e-7).lambda_star
        cu = critical_lambda(structure_valuation(
            problem(sys, pts[np.r_[0:len(z1), 0:len(z2)]], phi, 0.4,
                    n_max=2)),
            tol=1e-7).lambda_star
        assert cu == pytest.approx(c1, abs=1e-6)


    @pytest.mark.parametrize("depth", [3, 6])  # exact and greedy covers
    def test_cover_only_run_never_builds_the_closed_family(self, depth):
        from mmdim import bowen, caratheodory
        sys = full_shift()
        prob = problem(sys, sys.enumerate_points(depth),
                       Potential.from_table([0.2, 0.7]), 0.4, n_max=3)
        bowen.pool_exits.cache_clear()
        critical_lambda(structure_valuation(prob), tol=1e-3)
        built = vars(caratheodory._candidates(prob))
        # the exact search reads the dense open family, the greedy its bits
        read, unread = {3: ("open_members", "open_bits"),
                        6: ("open_bits", "open_members")}[depth]
        assert read in built and "sup_open" in built
        assert unread not in built
        assert "closed_members" not in built and "sup_closed" not in built

class TestSubsetMdim:
    def test_finite_set_estimate_small(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        est = subset_mdim(sys, pts, Potential.constant(0.0), COVER_M,
                          [0.6, 0.3, 0.15], N=1, n_max=3)
        # a finite set at fixed n_max: lambda* stays bounded, slope near 0
        lam_values = list(est.per_eps_pressure.values())
        assert max(lam_values) < math.log(len(pts)) + 0.5

    def test_grid_sample_consistent_with_whole_space(self):
        # per-scale grid family: Bowen subset critical values on a sampled
        # pool regress to the whole-space oracle slope (1.0) within 0.2
        from mmdim.measures import MeasureModel

        lams = {}
        for eps in (0.5, 0.25):
            k = math.ceil(1.0 / eps)
            sys = ShiftSystem(kind="grid-shift", alphabet_size=k, window=16,
                              eps_min=eps / 2)
            mu = MeasureModel.product_uniform(sys, seed=99)
            pool = mu.sample_points(1500, stream=5)
            prob = problem(sys, pool, Potential.constant(0.0), eps,
                           N=1, n_max=5, exact_cap=8)
            crit = critical_lambda(structure_valuation(prob), tol=1e-3)
            lams[eps] = crit.lambda_star
        slope = (lams[0.25] - lams[0.5]) / math.log(2.0)
        assert abs(slope - 1.0) <= 0.2

    def test_one_eps_is_refused(self):
        sys = full_shift()
        with pytest.raises(ConfigurationError, match="at least 2 eps"):
            subset_mdim(sys, sys.enumerate_points(2), Potential.constant(0.0),
                        COVER_M, [0.6, 0.6], n_max=3)

    def test_bs_unit_phi_matches_bowen_per_eps(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        bowen = subset_mdim(sys, pts, Potential.constant(0.0), COVER_M,
                            [0.6, 0.3], n_max=3)
        bs = subset_mdim(sys, pts, Potential.constant(1.0), BS_R,
                         [0.6, 0.3], n_max=3)
        for eps in (0.6, 0.3):
            assert bs.per_eps_pressure[eps] == pytest.approx(
                bowen.per_eps_pressure[eps], abs=1e-3)


@pytest.mark.parametrize("sidedness", [ONE_SIDED, TWO_SIDED])
@pytest.mark.parametrize("eps", [0.5, 1.5])
def test_candidate_suprema_equal_scalar_sums_at_long_orders(sidedness, eps):
    # from order 8 on a numpy row sum regroups the terms of S_n phi; the
    # suprema must still be maxima of the scalar sums over the members
    from mmdim import caratheodory

    system = ShiftSystem(kind="full-shift", alphabet_size=3,
                         sidedness=sidedness, window=12, eps_min=0.3)
    rng = np.random.default_rng(4)
    base = Potential.from_table(rng.uniform(0.0, 1.0, 3))
    pts = system.points(rng.integers(0, 3, size=(40, system.word_length)))
    cands = caratheodory._build_candidates(system, pts, base, eps, 1, 10)
    sums = {n: np.array([birkhoff_sum(system, base, z, n) for z in pts])
            for n in range(1, 11)}
    L = len(cands.levels)
    assert len(cands.sup_open) == len(pts) * L
    for i in range(len(pts) * L):
        c, n = i // L, int(cands.levels[i % L])  # candidate c * L + level
        assert cands.orders[i] == n
        assert cands.open_members[i, c] and cands.closed_members[i, c]
        assert cands.sup_open[i] == sums[n][cands.open_members[i]].max()
        assert cands.sup_closed[i] == sums[n][cands.closed_members[i]].max()


@pytest.mark.parametrize("n_max", [5, 10])
@pytest.mark.parametrize("metric", ["discrete", "absolute-difference"])
def test_blocked_suprema_equal_dense_bit_for_bit(metric, n_max):
    # 1,600 centres span many blocks; the dense reference puts n_max + 1
    # on the diagonal, as a ball holds its centre.  At order 10 the slack
    # of the window-10 system (0.5) exceeds eps, so the ball rule alone
    # would drop every centre.
    from mmdim import bowen, caratheodory

    system = full_shift(k=3, window=10, symbol_metric=metric)
    rng = np.random.default_rng(11)
    Z = rng.integers(0, 3, size=(1600, system.word_length))
    pts = Points(Z, np.full(len(Z), np.inf), system.origin_index)
    base = Potential.from_table(rng.uniform(-1.0, 1.0, 3))
    N, eps = 2, 0.3
    bowen.pool_exits.cache_clear()
    cands = caratheodory._build_candidates(system, pts, base, eps, N, n_max)
    # each origin cylinder's centres span many runs
    assert all(bowen._BLOCK_BYTES // (n_max * len(b.rows)) < len(b.rows) // 4
               for b in cands.exits.blocks)
    dropped = np.diagonal(cands.exits.dense(closed=True)) <= n_max
    assert dropped.all() == (n_max == 10)
    sums = birkhoff_sums(system, base, Z, n_max)
    levels = range(N, n_max + 1)
    for closed, (members, sups) in enumerate([
            (cands.open_members, cands.sup_open),
            (cands.closed_members, cands.sup_closed)]):
        exits = cands.exits.dense(closed)
        np.fill_diagonal(exits, n_max + 1)
        dense = np.stack([np.where(exits > n, sums[:, n], -np.inf)
                          .max(axis=1) for n in levels], axis=1).ravel()
        assert sups.tobytes() == dense.tobytes(), closed
        assert np.array_equal(members, (exits[:, None, :] > np.array(
            levels)[:, None]).reshape(-1, len(pts))), closed
    # a ball's bits span its own block's columns, the blocks in order
    order = np.concatenate([b.rows for b in cands.exits.blocks])
    assert whole_rows(cands.open_bits) == \
        rows_as_bits(cands.open_members[:, order])


def test_families_go_with_their_pass():
    # the family of a critical-lambda search lives on the pass it read;
    # a Katok pass at another eps on another pool frees both
    import weakref

    from mmdim import bowen, caratheodory
    from mmdim.measures import MeasureModel, katok_entropy

    system = full_shift()
    prob = problem(system, system.enumerate_points(5),
                   Potential.from_table([0.2, 0.7]), 0.4, n_max=3)
    bowen.pool_exits.cache_clear()
    critical_lambda(structure_valuation(prob), tol=1e-3)
    family = weakref.ref(caratheodory._candidates(prob))
    pass_made = weakref.ref(bowen._exits_memo[0])
    value(prob, 0.5)  # read again, not rebuilt
    assert family() is caratheodory._candidates(prob)
    mu = MeasureModel.empirical(system, system.enumerate_points(4))
    katok_entropy(mu, 0.3, 0.5, range(1, 4))
    assert pass_made() is None and family() is None


def test_greedy_cover_never_builds_the_dense_open_family():
    # generic-points' eps = 0.5 subset: 912 points, orders 1..5.  Its dense
    # open family is 912 x 5 x 912 bools (4.0 MiB); the first greedy
    # valuation peaked at 5.2 MiB with it and peaks at 1.3 MiB without
    import tracemalloc

    from mmdim import bowen, caratheodory
    from mmdim.measures import MeasureModel, generic_subset

    system = ShiftSystem(kind="grid-shift", alphabet_size=2, window=16,
                         eps_min=0.25)
    zg = generic_subset(system, system.enumerate_points(10),
                        MeasureModel.product_uniform(system, seed=1), 10, 0.2)
    assert len(zg) == 912
    prob = problem(system, zg, Potential.constant(0.0), 0.5, n_max=5)
    bowen.pool_exits.cache_clear()
    bowen.pool_exits(system, zg, 0.5, 5)  # the pass the family reads
    tracemalloc.start()
    try:
        sv = value(prob, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sv.exact
    assert "open_members" not in vars(caratheodory._candidates(prob))
    assert peak < len(zg) * 5 * len(zg)
