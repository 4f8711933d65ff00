"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass lines and timings.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from mmdim.bowen import max_separated
from mmdim.caratheodory import (
    BS_R,
    COVER_M,
    PACKING_BS,
    PACKING_P,
    OuterMeasureProblem,
    critical_lambda,
    structure_valuation,
    value,
)
from mmdim.cli import main
from mmdim.measures import (
    MeasureModel,
    ball_mass_bracket,
    brin_katok,
    estimate_ball_mass,
    exact_cylinder_bracket,
    gmu_mdim_estimate,
)
from mmdim.pressure import (
    induced_pressure,
    mdim_estimate,
    pressure_estimate,
    pressure_sum,
    solve_bowen_root,
    validate_pressure_oracle,
)
from mmdim.systems import Potential, ShiftSystem
from mmdim.verify import caratheodory_suite, counting_suite, entropy_suite, pressure_suite


def report(criterion: str, elapsed: float, detail: str = ""):
    print(f"[acceptance] {criterion}: PASS ({elapsed:.1f}s) {detail}")


def full_shift(k=2, window=14, eps_min=0.05):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min)


def grid_system(eps):
    k = math.ceil(1.0 / eps)
    window = max(16, int(math.ceil(math.log2(40.0 / eps))))
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       eps_min=eps / 2)


def test_criterion_1_finite_alphabet_baseline():
    t0 = time.monotonic()
    sys = full_shift()
    phi = Potential.constant(0.0)
    # oracle validated against exact brute-force counts at n <= 3
    for eps in (0.6, 0.3):
        validate_pressure_oracle(sys, phi, eps, n_max=3)
        est = pressure_estimate(sys, phi, eps, range(2, 9))
        assert est.slope == pytest.approx(math.log(2.0), abs=1e-6)
    # slope fit needs >= 3 scales; extend the schedule, pressure is log 2
    # at every eps < 1 on this model
    est = mdim_estimate(sys, phi, [0.6, 0.3, 0.15, 0.075], range(2, 9))
    assert abs(est.slope) <= 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("criterion 1 (finite-alphabet baseline)", elapsed,
           f"slope={est.slope:.2e}")


def test_criterion_2_grid_surrogate():
    t0 = time.monotonic()
    eps_schedule = [2.0 ** -j for j in range(3, 9)]
    est = mdim_estimate(None, Potential.constant(0.0), eps_schedule,
                        range(2, 9), system_factory=grid_system)
    assert est.slope == pytest.approx(1.0, abs=0.15)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("criterion 2 (grid-shift surrogate)", elapsed,
           f"slope={est.slope:.4f}")


def test_criterion_3_brin_katok_bracket():
    t0 = time.monotonic()
    samples = 100_000
    zero_hit_cells = 0
    checked_cells = 0
    for eps in (2.0 ** -4, 2.0 ** -5):
        sys = grid_system(eps)
        mu = MeasureModel.product_uniform(sys, seed=31415)
        xs = mu.sample_points(2, stream=3)
        for n in range(1, 7):
            for xi, x in enumerate(xs):
                lo, hi = ball_mass_bracket(mu, x, n, eps)
                glo, ghi = exact_cylinder_bracket(mu, x, n, eps)
                # grid-exact bracket nested inside the closed form
                assert lo <= glo <= ghi <= hi
                est = estimate_ball_mass(mu, x, n, eps, samples=samples,
                                         stream=100 + xi)
                checked_cells += 1
                if est.zero_hits:
                    # only the upper end is informative; it must not
                    # refute the bracket
                    zero_hit_cells += 1
                    assert est.ci[1] >= lo
                else:
                    assert lo <= est.ci[0] <= est.ci[1] <= hi
        # BK ratio inside the product-measure window
        bk_lo = brin_katok(mu, eps, range(1, 7), x_samples=16, bound="lower")
        bk_hi = brin_katok(mu, eps, range(1, 7), x_samples=16, bound="upper")
        window = (math.log(1.0 / (4 * eps)), math.log(6.0 / eps))
        assert window[0] - 1e-9 <= bk_lo.extrapolated
        assert bk_hi.extrapolated <= window[1] + 1e-9
        L = math.log(1.0 / eps)
        assert window[0] / L <= bk_lo.extrapolated / L \
            <= bk_hi.extrapolated / L <= window[1] / L
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("criterion 3 (Brin-Katok bracket)", elapsed,
           f"{checked_cells} cells, {zero_hit_cells} zero-hit")


def test_criterion_4_bowen_roots():
    t0 = time.monotonic()
    eps_schedule = [2.0 ** -j for j in range(3, 9)]
    psi1 = Potential.constant(1.0)
    psi2 = Potential.constant(2.0)

    def mdim_fn(phi_val, psi_val):
        def fn(beta):
            mix = Potential.constant(phi_val - beta * psi_val)
            return mdim_estimate(None, mix, eps_schedule, range(2, 7),
                                 system_factory=grid_system).slope
        return fn

    res_a = solve_bowen_root(mdim_fn(0.5, 1.0), psi1, tol=1e-3)
    assert res_a.beta == pytest.approx(1.5, abs=0.1)
    res_b = solve_bowen_root(mdim_fn(0.0, 1.0), psi1, tol=1e-3)
    res_c = solve_bowen_root(mdim_fn(0.0, 2.0), psi2, tol=1e-3)
    assert res_c.beta == pytest.approx(res_b.beta / 2.0, abs=0.05)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("criterion 4 (Bowen-equation roots)", elapsed,
           f"roots: {res_a.beta:.3f}, {res_b.beta:.3f}, {res_c.beta:.3f}")


def test_criterion_5_induced_consistency():
    t0 = time.monotonic()
    sys = full_shift()
    phi = Potential.from_table([0.0, 0.3])
    psi1 = Potential.constant(1.0)
    # record-for-record equality of the induced and plain pipelines
    for n in (2, 3, 4):
        for eps in (0.6, 0.3):
            pool = sys.enumerate_points(n)
            witness, exact = max_separated(sys, pool, n, eps)
            plain = pressure_sum(sys, witness, phi, n, eps)
            induced = induced_pressure(sys, pool, phi, psi1, n + 0.5, eps)
            assert induced.per_level.keys() == {n}
            assert induced.log_sum == pytest.approx(plain, abs=1e-12)
    # Q <= P on every grid cell, including non-constant psi levels
    psi_t = Potential.from_table([1.0, 2.0])
    cells = 0
    for T in (2.5, 3.5, 4.5, 5.5):
        pool = sys.enumerate_points(int(T) + 1)
        for eps in (0.6, 0.3):
            p = induced_pressure(sys, pool, phi, psi_t, T, eps,
                                 witness="separated")
            q = induced_pressure(sys, pool, phi, psi_t, T, eps,
                                 witness="spanning")
            assert q.log_sum <= p.log_sum + 1e-12
            cells += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("criterion 5 (induced-pressure consistency)", elapsed,
           f"{cells} Q<=P cells")


def test_criterion_6_caratheodory_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(271828)
    worst = 0.0
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
        r1 = abs(value(prob, lam).value - value(scaled, 0.0).value)
        r2 = abs(value(prob.with_structure(PACKING_BS), lam).value
                 - value(scaled.with_structure(PACKING_P), 0.0).value)
        assert r1 < 1e-10 and r2 < 1e-10
        worst = max(worst, r1, r2)
    # critical-value agreement at unit potential
    sys = full_shift()
    pts = sys.enumerate_points(2)
    tol = 1e-7
    c_bs = critical_lambda(structure_valuation(OuterMeasureProblem(
        system=sys, points=pts, phi=Potential.constant(1.0), eps=0.6,
        n_max=3, structure=BS_R)), tol=tol)
    c_cover = critical_lambda(structure_valuation(OuterMeasureProblem(
        system=sys, points=pts, phi=Potential.constant(0.0), eps=0.6,
        n_max=3, structure=COVER_M)), tol=tol)
    assert abs(c_bs.lambda_star - c_cover.lambda_star) <= tol
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("criterion 6 (Caratheodory identities)", elapsed,
           f"max residual {worst:.2e}")


def test_criterion_7_finite_scale_inequality_suite():
    t0 = time.monotonic()
    for suite in (counting_suite, pressure_suite, caratheodory_suite,
                  entropy_suite):
        for result in suite():
            assert result.passed, f"{result.suite}:{result.name} " \
                                  f"(slack {result.slack:.3g})"
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    report("criterion 7 (finite-scale inequality suite)", elapsed)


def test_criterion_8_generic_points_coherence():
    t0 = time.monotonic()

    def factory(eps):
        sys = grid_system(eps)
        return sys, MeasureModel.product_uniform(sys, seed=2024)

    sys0, mu0 = factory(0.5)
    rep = gmu_mdim_estimate(sys0, mu0, [0.5, 0.25], range(1, 6), tol=0.2,
                            model_factory=factory,
                            pool_depth=lambda eps: 10 if eps >= 0.5 else 6,
                            subset_orders=(1, 5))
    summary = rep.ratio_summary()
    for name, value in summary.items():
        assert 0.7 <= value <= 1.3, f"{name} ratio {value:.3f} out of band"
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    report("criterion 8 (generic-points coherence)", elapsed,
           " ".join(f"{k}={v:.2f}" for k, v in summary.items()))


ACCEPTANCE_CONFIG = """\
[system]
kind = grid-shift
alphabet_size = per-scale
sidedness = one-sided
window = 16

[potential.phi]
kind = constant
value = 0

[schedules]
eps = 2^-3 2^-4 2^-5
n = 2 3 4

[run]
seed = 4242
"""


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ACCEPTANCE_CONFIG)
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert main(["estimate-mdim", "--config", str(cfg), "--out",
                     str(out)]) == 0
        rows = []
        for line in out.read_text().splitlines():
            d = json.loads(line)
            d.pop("timestamp", None)
            rows.append(json.dumps(d, sort_keys=True))
        outs.append(rows)
    assert outs[0] == outs[1]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("criterion 9 (determinism)", elapsed,
           f"{len(outs[0])} records byte-identical")
