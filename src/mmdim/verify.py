"""Verification suites: module invariants as executable assertions.

Every assertion runs with fixed seeds and reports the measured slack of
its inequality (negative slack = violation).  The CLI maps any failure to
exit code 2; the pytest acceptance module reuses the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bowen import (
    BallSpec,
    ball_masks,
    five_r_disjointify,
    max_separated,
    min_spanning,
)
from .caratheodory import (
    BS_R,
    COVER_M,
    PACKING_BS,
    PACKING_P,
    WEIGHTED_W,
    OuterMeasureProblem,
    critical_lambda,
    structure_valuation,
    value,
)
from .measures import (
    MeasureModel,
    ball_mass_bracket,
    brin_katok,
    bs_entropy,
    estimate_ball_mass,
    exact_cylinder_bracket,
    katok_entropy,
    ps_entropy,
)
from .pressure import (
    induced_pressure,
    pressure_sum,
    validate_pressure_oracle,
)
from .systems import Potential, ShiftSystem, combine


@dataclass(frozen=True)
class AssertionResult:
    suite: str
    name: str
    passed: bool
    slack: float


def _full_shift(k=2, window=14, eps_min=0.05):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min)


def _grid_shift(k=2, window=14, eps_min=0.05):
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       eps_min=eps_min)


# -- counting suite -------------------------------------------------------------


def counting_suite() -> list[AssertionResult]:
    out = []
    cases = 0
    worst = math.inf
    ok = True
    for metric in ("discrete", "absolute-difference"):
        sys = ShiftSystem(kind="full-shift", alphabet_size=2, window=14,
                          eps_min=0.05, symbol_metric=metric)
        for depth in (2, 3, 4):
            pts = sys.enumerate_points(depth)
            for n in (1, 2, 3):
                for eps in (1.2, 0.9, 0.6, 0.3):
                    s = len(max_separated(sys, pts, n, eps)[0])
                    r = len(min_spanning(sys, pts, n, eps)[0])
                    rh = len(min_spanning(sys, pts, n, eps / 2)[0])
                    ok &= r <= s <= rh
                    worst = min(worst, s - r, rh - s)
                    cases += 1
    out.append(AssertionResult(
        "counting", f"span-sep sandwich on {cases} exact cases", ok,
        float(worst)))

    sys = _full_shift()
    pts = sys.enumerate_points(4)
    Z = pts.symbols
    maximal_ok = True
    for n, eps in [(1, 0.6), (2, 0.6), (3, 0.9)]:
        K = max_separated(sys, pts, n, eps, exact_cap=0)[0].symbols
        same = (K[:, None, :] == Z[None, :, :]).all(axis=2)
        covered = ball_masks(sys, K, Z, n, eps) | same
        maximal_ok &= bool(covered.any(axis=0).all())
    out.append(AssertionResult(
        "counting", "maximal separated set spans", maximal_ok,
        0.0 if maximal_ok else -1.0))

    mono_ok = True
    for n in (1, 2):
        sizes = [len(max_separated(sys, pts, n, e, exact_cap=0)[0])
                 for e in (1.2, 0.9, 0.6, 0.3)]
        mono_ok &= sizes == sorted(sizes)
    sizes_n = [len(max_separated(sys, pts, n, 0.6, exact_cap=0)[0])
               for n in (1, 2, 3)]
    mono_ok &= sizes_n == sorted(sizes_n)
    out.append(AssertionResult("counting", "separated-count monotonicity",
                               mono_ok, 0.0 if mono_ok else -1.0))

    # 5r postconditions on seeded random families
    rng = np.random.default_rng(515151)
    universe = pts

    def members(balls, n, inflate=1.0):
        centers = np.concatenate([b.center.symbols for b in balls])
        radii = [inflate * b.radius for b in balls]
        return ball_masks(sys, centers, Z, n, radii, closed=True)

    five_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        idx = rng.choice(len(universe), size=m, replace=False)
        radii = rng.choice([0.15, 0.3, 0.6, 0.9], size=m)
        balls = tuple(
            BallSpec(center=universe[i], order=n, radius=float(r), closed=True)
            for i, r in zip(idx, radii))
        kept = five_r_disjointify(sys, balls, universe)
        # kept balls pairwise disjoint over the universe
        five_ok &= bool(members(kept, n).sum(axis=0).max() <= 1)
        # 5r inflations of the kept balls cover the original union
        union = members(balls, n).any(axis=0)
        inflated = members(kept, n, 5.0).any(axis=0)
        five_ok &= bool((inflated | ~union).all())
    out.append(AssertionResult(
        "counting", "5r disjointify postconditions on 100 families",
        five_ok, 0.0 if five_ok else -1.0))
    return out


# -- pressure suite -------------------------------------------------------------


def pressure_suite() -> list[AssertionResult]:
    out = []
    sys = _full_shift()
    pts = sys.enumerate_points(3)
    phi = Potential.from_table([0.1, 0.6])
    psi = Potential.from_table([1.0, 1.5])
    n, eps = 3, 0.4
    L = math.log(1 / eps)

    def log_sum(beta):
        mix = combine(phi, psi, -beta, sys)
        return pressure_sum(sys, pts, mix, n, eps)

    lip_ok, lip_worst = True, math.inf
    dec_ok, dec_worst = True, math.inf
    for b1, b2 in [(0.0, 0.5), (0.2, 1.0), (-0.3, 0.4)]:
        bound = abs(b1 - b2) * psi.norm * n * L
        gap = bound - abs(log_sum(b1) - log_sum(b2))
        lip_ok &= gap >= -1e-9
        lip_worst = min(lip_worst, gap)
        if b2 > b1:
            gap2 = (log_sum(b1) - (b2 - b1) * psi.min * n * L) - log_sum(b2)
            dec_ok &= gap2 >= -1e-9
            dec_worst = min(dec_worst, gap2)
    out.append(AssertionResult("pressure", "Lipschitz bound at fixed scale",
                               lip_ok, float(lip_worst)))
    out.append(AssertionResult("pressure", "strict decrease at fixed scale",
                               dec_ok, float(dec_worst)))

    # spanning-sum below separated-sum on every induced cell
    psi_t = Potential.from_table([1.0, 2.0])
    q_ok, q_worst = True, math.inf
    for T in (2.5, 3.5, 4.5):
        pool = sys.enumerate_points(int(T) + 1)
        for eps_i in (0.6, 0.3):
            p = induced_pressure(sys, pool, phi, psi_t, T, eps_i,
                                 witness="separated")
            q = induced_pressure(sys, pool, phi, psi_t, T, eps_i,
                                 witness="spanning")
            gap = p.log_sum - q.log_sum
            q_ok &= gap >= -1e-12
            q_worst = min(q_worst, gap)
    out.append(AssertionResult("pressure", "Q below P on induced cells",
                               q_ok, float(q_worst)))

    # unit psi reduces the induced pipeline to the plain one
    unit_ok = True
    for n_i, eps_i in [(2, 0.6), (3, 0.3)]:
        pool = sys.enumerate_points(n_i)
        val = induced_pressure(sys, pool, phi, Potential.constant(1.0),
                               n_i + 0.5, eps_i)
        witness, _ = max_separated(sys, pool, n_i, eps_i)
        plain = pressure_sum(sys, witness, phi, n_i, eps_i)
        unit_ok &= abs(val.log_sum - plain) < 1e-9
    out.append(AssertionResult("pressure", "unit-psi record equality",
                               unit_ok, 0.0 if unit_ok else -1.0))

    oracle_ok = True
    try:
        validate_pressure_oracle(_full_shift(), Potential.constant(0.0), 0.6)
        validate_pressure_oracle(_full_shift(k=3),
                                 Potential.from_table([0.1, 0.5, 0.3]), 0.4)
        validate_pressure_oracle(_grid_shift(k=4), Potential.constant(0.0),
                                 0.3)
    except Exception:
        oracle_ok = False
    out.append(AssertionResult("pressure", "oracle brute-force validation",
                               oracle_ok, 0.0 if oracle_ok else -1.0))
    return out


# -- caratheodory suite ----------------------------------------------------------


def caratheodory_suite() -> list[AssertionResult]:
    out = []
    rng = np.random.default_rng(97531)
    ident_ok, ident_worst = True, 0.0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        kind = ["full-shift", "grid-shift"][int(rng.integers(0, 2))]
        sys = ShiftSystem(kind=kind, alphabet_size=k, window=14, eps_min=0.05)
        pool = sys.enumerate_points(int(rng.integers(2, 4)))
        size = int(rng.integers(2, min(7, len(pool) + 1)))
        idx = sorted(rng.choice(len(pool), size=size, replace=False))
        pts = pool[idx]
        phi = Potential.from_table(rng.uniform(0.2, 1.5, size=k))
        eps = float(rng.choice([0.6, 0.3, 0.15]))
        lam = float(rng.uniform(0.0, 3.0))
        L = math.log(1.0 / eps)
        prob = OuterMeasureProblem(system=sys, points=pts, phi=phi, eps=eps,
                                   N=1, n_max=int(rng.integers(1, 4)),
                                   structure=BS_R)
        scaled = prob.with_structure(COVER_M).with_potential(
            phi.scaled(-lam / L))
        res1 = abs(value(prob, lam).value - value(scaled, 0.0).value)
        res2 = abs(value(prob.with_structure(PACKING_BS), lam).value
                   - value(scaled.with_structure(PACKING_P), 0.0).value)
        ident_worst = max(ident_worst, res1, res2)
        ident_ok &= res1 < 1e-10 and res2 < 1e-10
    out.append(AssertionResult(
        "caratheodory", "BS/cover substitution identity (50 instances)",
        ident_ok, 1e-10 - ident_worst))

    sys = _full_shift()
    pts = sys.enumerate_points(2)
    bs_prob = OuterMeasureProblem(system=sys, points=pts,
                                  phi=Potential.constant(1.0), eps=0.6,
                                  n_max=3, structure=BS_R)
    cover_prob = OuterMeasureProblem(system=sys, points=pts,
                                     phi=Potential.constant(0.0), eps=0.6,
                                     n_max=3, structure=COVER_M)
    c1 = critical_lambda(structure_valuation(bs_prob), tol=1e-7).lambda_star
    c2 = critical_lambda(structure_valuation(cover_prob), tol=1e-7).lambda_star
    crit_ok = abs(c1 - c2) < 1e-6
    out.append(AssertionResult(
        "caratheodory", "critical value: BS(1) equals cover(0)", crit_ok,
        1e-6 - abs(c1 - c2)))

    # chain: cover at 3 eps below packing at eps (zero potential)
    pool = sys.enumerate_points(3)
    chain_ok, chain_worst = True, math.inf
    for n in (1, 2):  # one side at a time, so each family is built once
        pks = {lam: value(OuterMeasureProblem(
            system=sys, points=pool, phi=Potential.constant(0.0),
            eps=0.3, N=n, n_max=n, structure=PACKING_P), lam).value
            for lam in (0.0, 0.4, 1.0)}
        for lam, pk in pks.items():
            cv = value(OuterMeasureProblem(
                system=sys, points=pool, phi=Potential.constant(0.0),
                eps=0.9, N=n, n_max=n, structure=COVER_M), lam).value
            chain_ok &= cv <= pk + 1e-12
            chain_worst = min(chain_worst, pk - cv)
    out.append(AssertionResult("caratheodory", "cover(3eps) below packing(eps)",
                               chain_ok, float(chain_worst)))

    # weighted: W <= R everywhere, R(lam+delta, 6eps) <= W(lam, eps); at
    # lam = 20 and 40 both sides are below 1e-8, so W <= R is compared
    # relatively and the slack is the least (R - W) / R
    phi_pos = Potential.from_table([0.5, 1.0])
    w_ok, w_worst = True, math.inf
    for eps in (0.6, 0.3):
        for lam in (0.0, 0.4, 1.1, 20.0, 40.0):
            wp = OuterMeasureProblem(system=sys, points=pool, phi=phi_pos,
                                     eps=eps, n_max=2, structure=WEIGHTED_W)
            r = value(wp.with_structure(BS_R), lam).value
            rel_gap = (r - value(wp, lam).value) / r
            w_ok &= rel_gap >= -1e-9
            w_worst = min(w_worst, rel_gap)
    out.append(AssertionResult("caratheodory", "W below R", w_ok,
                               float(w_worst)))

    infl_ok, infl_worst = True, math.inf
    eps = 0.15
    wp = OuterMeasureProblem(system=sys, points=pool, phi=phi_pos,
                             eps=eps, n_max=3, structure=WEIGHTED_W)
    rp = OuterMeasureProblem(system=sys, points=pool, phi=phi_pos,
                             eps=6 * eps, n_max=3, structure=BS_R)
    ws = {lam: value(wp, lam).value for lam in (0.3, 0.8, 1.5)}
    for lam, dlt in [(0.3, 0.1), (0.8, 0.3), (1.5, 0.05)]:
        gap = ws[lam] - value(rp, lam + dlt).value
        infl_ok &= gap >= -1e-9
        infl_worst = min(infl_worst, gap)
    out.append(AssertionResult(
        "caratheodory", "R(lam+delta, 6eps) below W(lam, eps)", infl_ok,
        float(infl_worst)))
    return out


# -- entropy suite ----------------------------------------------------------------


def entropy_suite() -> list[AssertionResult]:
    out = []
    eps = 2.0 ** -4
    k = math.ceil(1.0 / eps)
    sys = ShiftSystem(kind="grid-shift", alphabet_size=k, window=16,
                      eps_min=eps / 2)
    mu = MeasureModel.product_uniform(sys, seed=424242)

    nest_ok = True
    nest_worst = math.inf
    for x in mu.sample_points(4, stream=1):
        for n in range(1, 7):
            glo, ghi = exact_cylinder_bracket(mu, x, n, eps)
            clo, chi = ball_mass_bracket(mu, x, n, eps)
            nest_ok &= clo <= glo <= ghi <= chi
            nest_worst = min(nest_worst, glo - clo, chi - ghi, ghi - glo)
    out.append(AssertionResult(
        "entropy", "exact bracket nested in closed form", nest_ok,
        float(nest_worst)))

    mc_ok = True
    for x in mu.sample_points(2, stream=2):
        for n in (1, 2, 3):
            est = estimate_ball_mass(mu, x, n, eps, samples=20_000)
            lo, hi = ball_mass_bracket(mu, x, n, eps)
            mc_ok &= not est.refutes(lo, hi)
    out.append(AssertionResult(
        "entropy", "Monte-Carlo mass consistent with bracket", mc_ok,
        0.0 if mc_ok else -1.0))

    lo_est = brin_katok(mu, eps, range(1, 7), x_samples=12, bound="lower")
    hi_est = brin_katok(mu, eps, range(1, 7), x_samples=12, bound="upper")
    window_lo = math.log(1.0 / (4 * eps))
    window_hi = math.log(6.0 / eps)
    win_ok = (window_lo - 1e-9 <= lo_est.extrapolated
              <= hi_est.extrapolated <= window_hi + 1e-9)
    out.append(AssertionResult(
        "entropy", "BK estimate inside the product-measure window", win_ok,
        min(lo_est.extrapolated - window_lo,
            window_hi - hi_est.extrapolated)))

    fsys = _full_shift()
    mu_b = MeasureModel.bernoulli(fsys, [0.5, 0.5], seed=5)
    bk = brin_katok(mu_b, 0.5, range(1, 9), x_samples=12, bound="lower")
    bs = bs_entropy(mu_b, Potential.constant(1.0), 0.5, range(1, 9),
                    x_samples=12, bound="lower")
    collapse_ok = (bk.extrapolated == bs.extrapolated
                   and bk.per_scale == bs.per_scale)
    out.append(AssertionResult(
        "entropy", "BS at unit potential collapses to BK", collapse_ok,
        0.0 if collapse_ok else -1.0))

    depth = 9
    esys = ShiftSystem(kind="full-shift", alphabet_size=2, window=depth + 4,
                       eps_min=0.05)
    pool = esys.enumerate_points(depth)
    mu_e = MeasureModel.empirical(esys, pool, seed=3)
    ineq_ok, ineq_worst = True, math.inf
    for eps_i in (0.75, 0.5, 0.3):
        bk_hi = brin_katok(mu_b, eps_i, range(1, 9), x_samples=16,
                           bound="upper").extrapolated
        kat2 = katok_entropy(mu_e, 2 * eps_i, 0.5, range(3, 7)).extrapolated
        kat1 = katok_entropy(mu_e, eps_i, 0.5, range(3, 7)).extrapolated
        ps = ps_entropy(mu_e, eps_i, [0.5, 0.25], range(3, 7), pool=pool)
        if eps_i == 0.5:  # the eta check below reads this estimate
            est = ps
        g1 = bk_hi + 0.05 - kat2
        g2 = ps.extrapolated + 0.1 - kat1
        ineq_ok &= g1 >= 0 and g2 >= 0
        ineq_worst = min(ineq_worst, g1, g2)
    out.append(AssertionResult(
        "entropy", "Katok below BK-upper and PS with tolerance", ineq_ok,
        float(ineq_worst)))

    eta_ok, eta_worst = True, math.inf
    for n in range(3, 7):
        if (n, 0.25) in est.per_scale and (n, 0.5) in est.per_scale:
            gap = est.per_scale[(n, 0.5)] - est.per_scale[(n, 0.25)]
            eta_ok &= gap >= -1e-12
            eta_worst = min(eta_worst, gap)
    out.append(AssertionResult(
        "entropy", "PS feasible set shrinks as eta tightens", eta_ok,
        float(eta_worst)))
    return out


SUITES = {
    "counting": counting_suite,
    "pressure": pressure_suite,
    "caratheodory": caratheodory_suite,
    "entropy": entropy_suite,
}


def run_suite(name: str) -> list[AssertionResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        from .errors import ConfigurationError
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from "
            f"{sorted(SUITES)} or 'all'"
        )
    return SUITES[name]()
