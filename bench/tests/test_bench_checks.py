"""The output checks count a perturbed record as a failure."""

import copy
import math

import checks

K, PHI_MIN, PHI_MAX = 4, 0.1, 0.9


def witness_step(log_sum_shift=0.0, slope=0.5):
    records = []
    for eps in (0.6, 0.3):
        L = math.log(1.0 / eps)
        for n in (3, 4):
            mid = n * (math.log(K) + L * 0.5)
            records.append({"quantity": "log-sum", "key.eps": eps,
                            "key.n": n, "value": mid + log_sum_shift})
    records.append({"quantity": "mdim-slope", "value": slope})
    return checks.StepResult("estimate-mdim", 0, "", records)


def ball_mass_step():
    cell = {"quantity": "cell", "key.eps": 0.0625, "key.n": 1, "key.x": 0,
            "lo": 0.1, "hi": 0.3, "glo": 0.15, "ghi": 0.25, "ci_lo": 0.19,
            "ci_hi": 0.21, "hits": 20000, "zero_hits": False}
    bk = {"quantity": "bk", "key.eps": 0.0625, "lower": 2.77, "upper": 2.78}
    return checks.StepResult("ball-mass", 0, "", [cell, bk])


def tally_of(fn, *args):
    tally = checks.Tally()
    fn(tally, *args)
    return tally


def test_witness_records_pass_and_perturbed_cell_fails():
    good = tally_of(checks.check_witness, witness_step(), K, PHI_MIN, PHI_MAX)
    assert good.attempted == 5 and good.failed == 0
    step = witness_step()
    step.records[2]["value"] += 10.0
    bad = tally_of(checks.check_witness, step, K, PHI_MIN, PHI_MAX)
    assert bad.attempted == 5 and bad.failed == 1
    off = tally_of(checks.check_witness, witness_step(slope=0.95), K,
                   PHI_MIN, PHI_MAX)
    assert off.failed == 1


def test_ball_mass_perturbations_fail():
    assert tally_of(checks.check_ball_mass, ball_mass_step()).failed == 0
    step = ball_mass_step()
    step.records[0]["ci_hi"] = 0.35          # CI leaves the bracket
    assert tally_of(checks.check_ball_mass, step).failed == 1
    step = ball_mass_step()
    step.records[0].update(zero_hits=True, ci_lo=0.0, ci_hi=0.05)
    assert tally_of(checks.check_ball_mass, step).failed == 1
    step = ball_mass_step()
    step.records[1]["upper"] = 10.0          # outside the BK window
    assert tally_of(checks.check_ball_mass, step).failed == 1


def test_generic_ratio_out_of_band_fails():
    records = [{"quantity": "ratio", "key.name": name, "value": 1.0}
               for name in ("bowen-subset", "ps", "katok", "bk-lower",
                            "bk-upper")]
    step = checks.StepResult("gmu-mdim", 0, "", records)
    assert tally_of(checks.check_generic, step).failed == 0
    bad = copy.deepcopy(step)
    bad.records[1]["value"] = 0.69
    assert tally_of(checks.check_generic, bad).failed == 1


def test_cli_sweep_root_and_slope_bands():
    steps = {
        "grid-estimate-mdim": checks.StepResult(
            "a", 0, "", [{"quantity": "mdim-slope", "value": 1.5}]),
        "grid-solve-root": checks.StepResult(
            "b", 0, "", [{"quantity": "root", "value": 1.5}]),
    }
    assert tally_of(checks.check_cli_sweep, steps).failed == 0
    steps["grid-solve-root"].records[0]["value"] = 1.65
    assert tally_of(checks.check_cli_sweep, steps).failed == 1


def test_exit_code_traceback_and_bad_records_fail():
    assert tally_of(checks.check_process, witness_step()).failed == 0
    crashed = checks.StepResult("x", 1, "Traceback (most recent call last)",
                                None)
    assert tally_of(checks.check_process, crashed).failed == 2
    assert checks.parse_records('{"a": 1}\nnot json\n') is None


def test_digest_ignores_timestamps():
    a = checks.parse_records('{"value": 1.0, "timestamp": 1.0}\n')
    b = checks.parse_records('{"value": 1.0, "timestamp": 2.0}\n')
    c = checks.parse_records('{"value": 1.5, "timestamp": 1.0}\n')
    digest = lambda recs: checks.digest([checks.StepResult("s", 0, "", recs)])
    assert digest(a) == digest(b) != digest(c)
