from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmdim
from mmdim.caratheodory import STRUCTURES
from mmdim.cli import build_parser, main
from mmdim.config import load_config_text, parse_number
from mmdim.errors import ConfigurationError
from mmdim.records import ResultRecord, write_jsonl
from mmdim.systems import birkhoff_sums

BASE_CONFIG = """\
[system]
kind = full-shift
alphabet_size = 2
sidedness = one-sided
window = 14

[potential.phi]
kind = constant
value = 0

[potential.psi]
kind = constant
value = 1

[schedules]
eps = 0.6 0.3 0.15
n = 2 3 4
T = 2.5 3.5 4.5

[caps]
enumeration = 2000000
exact_search = 24

[run]
seed = 1234
"""

GRID_CONFIG = """\
[system]
kind = grid-shift
alphabet_size = per-scale
sidedness = one-sided
window = 16

[potential.phi]
kind = constant
value = 0

[schedules]
eps = 2^-3 2^-4 2^-5 2^-6
n = 2 3 4 5

[run]
seed = 77
"""


class TestNumberParsing:
    def test_decimal(self):
        assert parse_number("0.5") == 0.5
        assert parse_number("3") == 3.0

    def test_power_notation(self):
        assert parse_number("2^-5") == 2.0 ** -5
        assert parse_number("2^3") == 8.0

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_number("five")


class TestConfig:
    def test_roundtrip(self):
        cfg = load_config_text(BASE_CONFIG)
        assert cfg.measure.seed == 1234
        assert cfg.eps_schedule == (0.6, 0.3, 0.15)
        system = cfg.build_system()
        x = system.points([[0]])
        assert birkhoff_sums(system, cfg.potential("psi"), x.symbols,
                             1)[0, 1] == 1.0

    def test_point_mass_sits_on_the_zero_word(self):
        cfg = load_config_text(BASE_CONFIG + "\n[measure]\nkind = point-mass\n")
        system = cfg.build_system()
        mu = cfg.measure
        assert mu.support == system.points([[0] * system.word_length])
        assert mu.support_weights == (1.0,) and mu.seed == 1234

    def test_missing_seed_names_key(self):
        bad = BASE_CONFIG.replace("[run]\nseed = 1234\n", "")
        with pytest.raises(ConfigurationError, match="seed"):
            load_config_text(bad)

    def test_bad_eps_order(self):
        bad = BASE_CONFIG.replace("eps = 0.6 0.3 0.15", "eps = 0.3 0.6")
        with pytest.raises(ConfigurationError, match="eps"):
            load_config_text(bad)

    def test_unknown_potential_referenced(self):
        cfg = load_config_text(BASE_CONFIG)
        with pytest.raises(ConfigurationError, match="chi"):
            cfg.potential("chi")

    def test_per_scale_alphabet(self):
        cfg = load_config_text(GRID_CONFIG)
        assert cfg.alphabet_for(2.0 ** -5) == 32

    @pytest.mark.parametrize("alphabet,kind,body,fits", [
        ("4", "finite-range", "range = 2\nvalues = " + "0 " * 16, True),
        ("4", "finite-range", "range = 2\nvalues = " + "0 " * 15, False),
        ("4", "finite-range", "range = 2\nvalues = " + "0 " * 25, False),
        ("4", "finite-range", "range = 0\nvalues = 0", False),
        ("3", "coordinate-table", "values = 0 1 2", True),
        ("3", "coordinate-table", "values = 0 1 2 3", True),
        ("3", "coordinate-table", "values = 0 1", False),
    ])
    def test_potential_tables_fit_the_alphabet(self, alphabet, kind, body,
                                               fits):
        text = BASE_CONFIG.replace(
            "alphabet_size = 2", f"alphabet_size = {alphabet}").replace(
            "kind = constant\nvalue = 0\n", f"kind = {kind}\n{body}\n", 1)
        if fits:
            load_config_text(text)
        else:
            with pytest.raises(ConfigurationError, match="potential.phi"):
                load_config_text(text)

    def test_pinned_bench_configs_load(self):
        configs = Path(__file__).resolve().parents[1] / "bench" / "configs"
        for name in ("grid.cfg", "shift.cfg"):
            load_config_text((configs / name).read_text())
        witness = (configs / "witness.cfg").read_text().format(
            values=" ".join(str(i / 16) for i in range(16)), seed=1)
        assert load_config_text(witness).potential("phi").range_len == 2


MEASURE = "\n[measure]\nkind = bernoulli\np = 0.5 0.5\n"
BAD_NUMBERS = [
    ("window = 14", "window = abc", "window", "estimate-mdim"),
    ("seed = 1234", "seed = x", "seed", "estimate-mdim"),
    ("alphabet_size = 2", "alphabet_size = two", "alphabet_size",
     "estimate-mdim"),
    ("enumeration = 2000000", "enumeration = lots", "enumeration",
     "estimate-mdim"),
    ("exact_search = 24", "exact_search = 2.5", "exact_search",
     "estimate-mdim"),
    ("n = 2 3 4", "n = 2 3.5 4", "'n'", "estimate-mdim"),
    ("[run]", "[potential.fr]\nkind = finite-range\nrange = two\n"
     "values = 0 1 2 3\n\n[run]", "range", "estimate-mdim"),
    ("[run]", "[subset-dim]\ndepth = deep\n\n[run]", "depth",
     "subset-dim"),
    ("[run]", "[entropy]\nx_samples = many\n\n[run]", "x_samples",
     "entropy"),
]


# every key is parsed at load, so a malformed one fails every command
LOAD_TIME_KEYS = [
    ("[run]", "[subset-dim]\ndepth = deep\n\n[run]", "depth",
     "estimate-mdim"),
    ("[run]", "[subset-dim]\nn_max = deep\n\n[run]", "n_max",
     "estimate-mdim"),
    ("[run]", "[entropy]\nx_samples = many\n\n[run]", "x_samples",
     "estimate-mdim"),
    ("T = 2.5 3.5 4.5", "T = 2.5 3.5 4.5\ndelta = 2", "delta",
     "subset-dim"),
    ("T = 2.5 3.5 4.5", "T = 2.5 3.5 4.5\neta = 0.5 -0.25", "eta",
     "subset-dim"),
    ("[run]", "[subset-dim]\ndepth = 0\n\n[run]", "depth", "entropy"),
    ("[run]", "[subset-dim]\nn_max = 0\n\n[run]", "n_max", "entropy"),
]


@pytest.mark.parametrize("old,new,key,command", BAD_NUMBERS + LOAD_TIME_KEYS,
                         ids=[case[2].strip("'") for case in BAD_NUMBERS]
                         + [f"{case[2]}-{case[3]}" for case in LOAD_TIME_KEYS])
def test_malformed_integer_key_exits_1(tmp_path, capsys, old, new, key,
                                       command):
    assert old in BASE_CONFIG
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace(old, new) + MEASURE)
    extra = {"estimate-mdim": [], "subset-dim": ["--structure", "bowen"],
             "entropy": ["--quantity", "bk"]}[command]
    code = main([command, "--config", str(path), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind,body", [
    ("finite-range",
     "range = 2\nvalues = " + " ".join(str(i / 16) for i in range(16))),
    ("coordinate-table", "values = 0.25 0.5"),
])
def test_potential_misfitting_a_scale_exits_1(tmp_path, capsys, kind, body):
    # per-scale alphabets have 2 symbols at eps = 0.5 and 5 at eps = 0.2
    text = BASE_CONFIG.replace(
        "alphabet_size = 2", "alphabet_size = per-scale").replace(
        "eps = 0.6 0.3 0.15", "eps = 0.5 0.2").replace(
        "kind = constant\nvalue = 0\n", f"kind = {kind}\n{body}\n", 1)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code = main(["estimate-mdim", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: [potential.phi]") and "eps = " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("quantity", ["katok", "bk", "ps"])
@pytest.mark.parametrize("p", ["1.5 -0.5", "nan 0.5"],
                         ids=["negative", "nan"])
def test_bad_probability_vector_exits_1(tmp_path, capsys, p, quantity):
    # both sum to 1 within the tolerance (nan compares false), and once
    # reached Generator.choice, which raised a bare ValueError
    shift = Path(__file__).resolve().parents[1] / "bench" / "configs"
    text = (shift / "shift.cfg").read_text()
    assert "p = 0.5 0.5" in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace("p = 0.5 0.5", f"p = {p}"))
    code = main(["entropy", "--config", str(path), "--quantity", quantity,
                 "--out", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: probability vector entries")
    assert "Traceback" not in err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("eps", ["0", "nan", "1e-320"],
                         ids=["zero", "nan", "reciprocal-overflows"])
def test_unusable_eps_exits_1(tmp_path, capsys, eps):
    # each once crashed in the per-scale alphabet ceil(1/eps)
    text = GRID_CONFIG.replace("eps = 2^-3 2^-4 2^-5 2^-6",
                               f"eps = 2^-3 2^-4 {eps}")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code = main(["estimate-mdim", "--config", str(path),
                 "--out", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: schedule 'eps' entries must be positive")
    assert "Traceback" not in err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("argv,argument", [
    (["entropy", "--quantity", "foo"], "--quantity"),
    (["solve-root", "--phi", "phi", "--psi", "psi", "--tol", "abc"],
     "--tol"),
    (["verify", "--seed", "x"], "--seed"),
], ids=["choice", "float", "int"])
def test_bad_argument_exits_1(capsys, argv, argument):
    # argparse once exited 2, the code of a failed verify assertion
    config = Path(__file__).resolve().parents[1] / "bench" / "configs"
    argv = argv[:1] + ["--config", str(config / "shift.cfg")] + argv[1:]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: argument {argument}")
    assert "Traceback" not in err
    with pytest.raises(SystemExit) as help_exit:
        main(argv[:1] + ["--help"])
    assert help_exit.value.code == 0


FRESH_INTERPRETER = """
import json
import sys

from mmdim.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

seen = {"import": scipy_modules()}
seen["grid"] = main(["estimate-mdim", "--config", sys.argv[1],
                     "--out", sys.argv[2]])
seen["after_grid"] = scipy_modules()
seen["weighted"] = main(["subset-dim", "--config", sys.argv[3],
                         "--structure", "weighted", "--out", sys.argv[4]])
seen["after_weighted"] = scipy_modules()
seen["verify"] = main(["verify", "--suite", "all", "--out", sys.argv[5]])
seen["after_verify"] = scipy_modules()
print(json.dumps(seen))
"""


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this mmdim."""
    src = str(Path(mmdim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_scipy_never_loads(tmp_path):
    grid, weighted = tmp_path / "grid.cfg", tmp_path / "weighted.cfg"
    grid.write_text(GRID_CONFIG)
    weighted.write_text(BASE_CONFIG.replace("value = 0\n", "value = 1\n", 1)
                        + "\n[subset-dim]\ndepth = 2\nn_max = 3\n")
    grid_out, weighted_out = tmp_path / "grid.jsonl", tmp_path / "w.jsonl"
    verify_out = tmp_path / "verify.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(FRESH_INTERPRETER),
         str(grid), str(grid_out), str(weighted), str(weighted_out),
         str(verify_out)],
        capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["grid"] == 0 and seen["weighted"] == 0 and seen["verify"] == 0
    for stage in ("import", "after_grid", "after_weighted", "after_verify"):
        assert seen[stage] == [], stage
    rows = [json.loads(line) for line in weighted_out.read_text().splitlines()]
    lams = [r for r in rows if r["quantity"] == "critical-lambda"]
    assert [r["key.eps"] for r in lams] == [0.6, 0.3, 0.15]
    assert all(r["key.structure"] == "weighted" for r in lams)
    checks = [json.loads(line) for line in verify_out.read_text().splitlines()]
    assert any(r["quantity"] == "W below R" for r in checks)


BOOTSTRAP_INTERPRETER = """
import sys

from mmdim.measures import MeasureModel, bs_entropy
from mmdim.systems import Potential, ShiftSystem

system = ShiftSystem(kind="full-shift", alphabet_size=2, window=14,
                     eps_min=0.05)
mu = MeasureModel.bernoulli(system, [0.5, 0.5], seed=5)
est = bs_entropy(mu, Potential.from_table([0.5, 1.5]), 0.5, range(1, 6),
                 x_samples=8)
assert est.ci[0] < est.ci[1], est.ci  # the quantiles were taken
print("numpy.ma" in sys.modules)
"""


def test_bootstrap_interval_never_loads_numpy_ma():
    # np.quantile imports numpy.ma through np.unique: about 17 ms and
    # 1.2 MB of peak RSS in every process that reports a bootstrap interval
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(BOOTSTRAP_INTERPRETER)],
        capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


EXIT_FREEZE_INTERPRETER = """
import atexit
import gc

calls = []
freeze = gc.freeze


def counted_freeze():
    calls.append(1)
    freeze()


gc.freeze = counted_freeze
# hooks run last in, first out: this one runs after every hook mmdim adds
atexit.register(lambda: print("exit", len(calls), gc.get_freeze_count()))

from mmdim.cli import main

codes = [main(["verify", "--suite", "counting"]) for _ in range(2)]
print("codes", *codes)
"""


def test_main_freezes_the_heap_once_at_exit():
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(EXIT_FREEZE_INTERPRETER)],
        capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] == "codes 0 0"
    word, calls, frozen = lines[-1].split()
    # one freeze however often main ran, and it held the import's objects
    assert (word, calls) == ("exit", "1")
    assert int(frozen) > 0


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    # the freeze waits for exit: a caller's garbage stays collectable
    before = gc.get_freeze_count()
    for _ in range(2):
        assert main(["verify", "--suite", "counting"]) == 0
    assert gc.get_freeze_count() == before


def test_piped_records_survive_the_exit_freeze(tmp_path):
    # without --out the records are the last bytes the process writes
    config = str(BENCH_CONFIGS / "grid.cfg")
    out = tmp_path / "records.jsonl"
    runs = [subprocess.run(
        [sys.executable, "-m", "mmdim.cli", "estimate-mdim", "--config",
         config, *extra], capture_output=True, text=True, env=fresh_env(),
        timeout=300) for extra in ([], ["--out", str(out)])]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr

    def strip(lines):
        return [{k: v for k, v in json.loads(line).items()
                 if k != "timestamp"} for line in lines]

    piped = runs[0].stdout.splitlines()
    assert piped and strip(piped) == strip(out.read_text().splitlines())


class TestCli:
    def _write(self, tmp_path, text, name="exp.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_missing_seed_exit_1(self, tmp_path, capsys):
        path = self._write(tmp_path, BASE_CONFIG.replace(
            "[run]\nseed = 1234\n", ""))
        code = main(["estimate-mdim", "--config", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "seed" in captured.err

    def test_estimate_mdim_summary(self, tmp_path, capsys):
        path = self._write(tmp_path, GRID_CONFIG)
        out = tmp_path / "records.jsonl"
        code = main(["estimate-mdim", "--config", path, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "mdim-slope" in captured.out
        lines = out.read_text().splitlines()
        payloads = [json.loads(line) for line in lines]
        slope_rows = [p for p in payloads if p["quantity"] == "mdim-slope"]
        assert len(slope_rows) == 1
        assert abs(slope_rows[0]["value"] - 1.0) < 0.15

    def test_determinism_byte_identical(self, tmp_path):
        path = self._write(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["estimate-mdim", "--config", path, "--out",
                     str(out1)]) == 0
        assert main(["estimate-mdim", "--config", path, "--out",
                     str(out2)]) == 0

        def strip(path):
            rows = []
            for line in path.read_text().splitlines():
                d = json.loads(line)
                d.pop("timestamp", None)
                rows.append(json.dumps(d, sort_keys=True))
            return rows

        assert strip(out1) == strip(out2)

    def test_one_run_shares_one_header(self, tmp_path, capsys):
        # every record of a run carries the command, the config hash
        # ("builtin" for verify without a config) and one timestamp
        path = self._write(tmp_path, BASE_CONFIG)
        runs = [(["estimate-mdim", "--config", path],
                 load_config_text(BASE_CONFIG).config_hash()),
                (["verify", "--suite", "counting"], "builtin")]
        for argv, config in runs:
            out = tmp_path / "records.jsonl"
            assert main([*argv, "--out", str(out)]) == 0
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert len(rows) > 1
            assert {(r["command"], r["config"]) for r in rows} == \
                {(argv[0], config)}
            assert len({r["timestamp"] for r in rows}) == 1

    def test_stdout_records_equal_out_file(self, tmp_path, capsys):
        path = self._write(tmp_path, BASE_CONFIG)
        out = tmp_path / "records.jsonl"

        def strip(lines):
            return [{k: v for k, v in json.loads(line).items()
                     if k != "timestamp"} for line in lines]

        assert main(["estimate-mdim", "--config", path]) == 0
        captured = capsys.readouterr()
        assert main(["estimate-mdim", "--config", path, "--out",
                     str(out)]) == 0
        assert strip(captured.out.splitlines()) == \
            strip(out.read_text().splitlines())
        assert captured.err.startswith("intercept,quantity,residual,value")

    def test_exact_cap_reaches_the_witness_search(self, tmp_path, capsys):
        # a cap above the default 24 runs the 32-word pools at n = 5 exactly
        cfg = (BASE_CONFIG.replace("exact_search = 24", "exact_search = 40")
               .replace("kind = constant\nvalue = 0\n",
                        "kind = finite-range\nrange = 2\n"
                        "values = 0.1 0.5 0.2 0.9\n")
               .replace("n = 2 3 4", "n = 3 4 5"))
        path = self._write(tmp_path, cfg)
        out = tmp_path / "records.jsonl"
        code = main(["estimate-mdim", "--config", path, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        cells = [r for r in rows
                 if r["quantity"] == "log-sum" and r["key.n"] == 5]
        assert [r["key.eps"] for r in cells] == [0.6, 0.3, 0.15]
        assert all(r["key.witness"] == "separated-exact" and r["exact"]
                   for r in cells)

    def test_seed_override_changes_hash(self, tmp_path):
        path = self._write(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["estimate-mdim", "--config", path, "--out", str(out1)])
        main(["estimate-mdim", "--config", path, "--seed", "999", "--out",
              str(out2)])
        h1 = json.loads(out1.read_text().splitlines()[0])["config"]
        h2 = json.loads(out2.read_text().splitlines()[0])["config"]
        assert h1 != h2

    def test_solve_root_command(self, tmp_path, capsys):
        cfg = GRID_CONFIG.replace(
            "[potential.phi]\nkind = constant\nvalue = 0",
            "[potential.phi]\nkind = constant\nvalue = 0.5")
        cfg += "\n[potential.psi]\nkind = constant\nvalue = 1\n"
        path = self._write(tmp_path, cfg)
        out = tmp_path / "root.jsonl"
        code = main(["solve-root", "--config", path, "--phi", "phi",
                     "--psi", "psi", "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        payloads = [json.loads(l) for l in out.read_text().splitlines()]
        root = [p for p in payloads if p["quantity"] == "root"][0]
        assert abs(root["value"] - 1.5) < 0.1

    def test_induced_mdim_command(self, tmp_path, capsys):
        path = self._write(tmp_path, BASE_CONFIG)
        code = main(["induced-mdim", "--config", path])
        captured = capsys.readouterr()
        assert code == 0
        # records stream on stdout, summary on stderr
        assert "induced-mdim-slope" in captured.err
        assert '"quantity": "induced-log-sum"' in captured.out

    def test_subset_dim_command(self, tmp_path, capsys):
        cfg = BASE_CONFIG + "\n[subset-dim]\ndepth = 2\nn_max = 3\n"
        path = self._write(tmp_path, cfg)
        for structure in ("bowen", "packing"):
            code = main(["subset-dim", "--config", path, "--structure",
                         structure])
            assert code == 0

    def test_subset_dim_bs_needs_positive_phi(self, tmp_path):
        cfg = BASE_CONFIG.replace("value = 0\n", "value = 1\n", 1)
        cfg += "\n[subset-dim]\ndepth = 2\nn_max = 3\n"
        path = self._write(tmp_path, cfg)
        assert main(["subset-dim", "--config", path, "--structure",
                     "bs"]) == 0

    def test_entropy_command(self, tmp_path, capsys):
        cfg = BASE_CONFIG + "\n[measure]\nkind = bernoulli\np = 0.5 0.5\n"
        path = self._write(tmp_path, cfg)
        code = main(["entropy", "--config", path, "--quantity", "bk"])
        captured = capsys.readouterr()
        assert code == 0
        assert "bk-lower" in captured.err
        assert '"quantity": "bk-lower"' in captured.out

    def test_entropy_determinism_and_ci(self, tmp_path):
        # a stochastic command must rerun byte-identically (same seed) and
        # every stochastic record must carry a confidence interval
        cfg = BASE_CONFIG + "\n[measure]\nkind = bernoulli\np = 0.5 0.5\n"
        path = self._write(tmp_path, cfg)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["entropy", "--config", path, "--quantity", "katok",
                         "--out", str(out)]) == 0
            rows = []
            for line in out.read_text().splitlines():
                d = json.loads(line)
                d.pop("timestamp", None)
                rows.append(d)
            outs.append(rows)
        assert outs[0] == outs[1]
        for row in outs[0]:
            assert "ci_lo" in row and "ci_hi" in row

    def test_verify_counting_suite_exit_0(self, capsys):
        code = main(["verify", "--suite", "counting"])
        captured = capsys.readouterr()
        assert code == 0
        assert "pass" in captured.out
        assert "FAIL" not in captured.out

    def test_verify_failure_exits_2(self, monkeypatch, capsys):
        from mmdim import cli
        from mmdim.verify import AssertionResult

        def failing_suite(name):
            return [AssertionResult("demo", "forced failure", False, -1.0)]

        monkeypatch.setattr(cli, "run_suite", failing_suite)
        code = main(["verify", "--suite", "counting"])
        captured = capsys.readouterr()
        assert code == 2
        assert "FAIL" in captured.out

    def test_worker_count_does_not_change_records(self, tmp_path,
                                                  monkeypatch):
        path = self._write(tmp_path, GRID_CONFIG)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["estimate-mdim", "--config", path, "--out", str(out1)])
        monkeypatch.setenv("MMDIM_WORKERS", "4")
        main(["estimate-mdim", "--config", path, "--out", str(out2)])

        def strip(p):
            rows = []
            for line in p.read_text().splitlines():
                d = json.loads(line)
                d.pop("timestamp", None)
                rows.append(json.dumps(d, sort_keys=True))
            return rows

        assert strip(out1) == strip(out2)

    def test_workers_variable_is_ignored(self, tmp_path, monkeypatch,
                                         capsys):
        # a thread count that is not a number once ended in a traceback
        path = self._write(tmp_path, GRID_CONFIG)
        monkeypatch.setenv("MMDIM_WORKERS", "x")
        code = main(["estimate-mdim", "--config", path,
                     "--out", str(tmp_path / "r.jsonl")])
        captured = capsys.readouterr()
        assert code == 0
        assert "mdim-slope" in captured.out
        assert "Traceback" not in captured.err

    def test_order_below_one_exits_1(self, tmp_path, capsys):
        # the oracle path once emitted records at n = -1 and n = 0
        path = self._write(tmp_path, GRID_CONFIG.replace("n = 2 3 4 5",
                                                         "n = -1 0 2"))
        code = main(["estimate-mdim", "--config", path,
                     "--out", str(tmp_path / "r.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(
            "error: schedule 'n' entries must be >= 1")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "r.jsonl").exists()

    def test_katok_single_order_exits_1(self, tmp_path, capsys):
        # one order gives no slope; it once printed katok 0.000000
        cfg = (BASE_CONFIG.replace("n = 2 3 4", "n = 2")
               + "\n[measure]\nkind = bernoulli\np = 0.5 0.5\n")
        path = self._write(tmp_path, cfg)
        code = main(["entropy", "--config", path, "--quantity", "katok",
                     "--out", str(tmp_path / "r.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: need at least two distinct grid values" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "r.jsonl").exists()

    def test_repeated_eps_schedule_exits_1(self, tmp_path, capsys):
        text = GRID_CONFIG.replace("eps = 2^-3 2^-4 2^-5 2^-6",
                                   "eps = 2^-3 2^-3")
        path = self._write(tmp_path, text)
        code = main(["estimate-mdim", "--config", path,
                     "--out", str(tmp_path / "r.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: need at least two distinct grid values" in captured.err
        assert not (tmp_path / "r.jsonl").exists()


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
# inputs the config fuzz below found; each once raised or hung
FUZZ_FOUND = [
    ("number-overflow", "grid.cfg", "eps = 2^-3", "eps = 2^2000",
     "estimate-mdim", "cannot parse number '2^2000'"),
    ("nan-time-level", "shift.cfg", "T = 2.5", "T = nan", "induced-mdim",
     "schedule 'T' entries must be finite"),
    ("infinite-time-level", "shift.cfg", "T = 2.5 3.5 4.5", "T = 2.5 3.5 inf",
     "induced-mdim", "schedule 'T' entries must be finite"),
    ("negative-time-level", "shift.cfg", "T = 2.5", "T = -1", "induced-mdim",
     "schedule 'T' entries must be finite and non-negative"),
    ("unit-eps-subset", "shift.cfg", "eps = 0.6", "eps = 1",
     "subset-dim --structure bowen", "subset dimensions need eps != 1"),
    ("nan-potential", "shift.cfg", "values = 1 2", "values = nan 2",
     "induced-mdim", "potential values must be finite"),
    ("tiny-psi-depth", "shift.cfg", "values = 1 2", "values = 1 1e-300",
     "induced-mdim", "depth"),
    ("oversized-window", "shift.cfg", "window = 14",
     "window = 99999999999999999999", "entropy --quantity bk",
     "window must be positive"),
    ("negative-seed", "shift.cfg", "seed = 1", "seed = -1",
     "entropy --quantity bk", "seed must be non-negative"),
    ("negative-x-samples", "shift.cfg", "x_samples = 16", "x_samples = -1",
     "entropy --quantity bk", "[entropy] x_samples must lie in"),
    ("oversized-x-samples", "shift.cfg", "x_samples = 16",
     "x_samples = 99999999999999999999", "entropy --quantity bk",
     "[entropy] x_samples must lie in"),
    ("n-max-past-window", "shift.cfg", "n_max = 3",
     "n_max = 99999999999999999999", "subset-dim --structure bowen",
     "too far past the window"),
    ("katok-order-past-window", "shift.cfg", "n = 2 3 4 5",
     "n = 2 3 4 99999999999999999999", "entropy --quantity katok",
     "too far past the window"),
    ("ps-order-past-window", "shift.cfg", "n = 2 3 4 5", "n = 2 3 4 1100",
     "entropy --quantity ps", "too far past the window"),
    # once a numpy ValueError from the Birkhoff kernel's arange
    ("bk-order-past-window", "shift.cfg", "n = 2 3 4 5",
     "n = 2 3 4 99999999999999999999", "entropy --quantity bk",
     "too far past the window"),
    ("bs-order-past-window", "shift.cfg", "n = 2 3 4 5",
     "n = 2 3 4 99999999999999999999", "entropy --quantity bs",
     "too far past the window"),
    # once a numpy ValueError: np.min_scalar_type(-k) is object past int64
    ("int64-alphabet", "grid.cfg", "alphabet_size = per-scale",
     "alphabet_size = 99999999999999999999", "estimate-mdim",
     "do not fit the int64 symbol matrix"),
    ("alphabet-past-the-cap", "shift.cfg", "alphabet_size = 2",
     "alphabet_size = 3000000", "induced-mdim",
     "exceed the enumeration cap 2000000"),
]


@pytest.mark.parametrize("name,old,new,command,message",
                         [case[1:] for case in FUZZ_FOUND],
                         ids=[case[0] for case in FUZZ_FOUND])
def test_fuzz_found_input_exits_1(tmp_path, capsys, name, old, new, command,
                                  message):
    text = (BENCH_CONFIGS / name).read_text()
    assert text.count(old) == 1
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    code = main([*command.split(), "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# (name, edit of shift.cfg, command): each once exited 0, as the command
# never built the model the bad key describes; the config now builds its
# system and measure at load, so no command runs
BAD_MODELS = [
    ("binomial-measure", ("kind = bernoulli", "kind = binomial"),
     "subset-dim --structure bowen", "unknown measure kind 'binomial'"),
    ("unnormalised-p", ("p = 0.5 0.5", "p = 0.9 0.5"), "induced-mdim",
     "probability vector must sum to 1"),
    ("sideways", ("sidedness = one-sided", "sidedness = sideways"),
     "verify --suite counting", "unknown sidedness 'sideways'"),
    ("delta-past-1", ("delta = 0.5", "delta = 2"),
     "subset-dim --structure bowen", "[schedules] delta must lie in (0, 1)"),
    ("negative-seed-flag", None, "subset-dim --structure bowen --seed -1",
     "seed must be non-negative, got -1"),
]


@pytest.mark.parametrize("edit,command,message",
                         [case[1:] for case in BAD_MODELS],
                         ids=[case[0] for case in BAD_MODELS])
def test_bad_model_exits_1_at_load(tmp_path, capsys, monkeypatch, edit,
                                   command, message):
    from mmdim import cli
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    if edit:
        assert text.count(edit[0]) == 1
        text = text.replace(*edit)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    # a command that ran would fail here with a TypeError
    monkeypatch.setattr(cli, "COMMANDS", dict.fromkeys(cli.COMMANDS))
    monkeypatch.setattr(cli, "cmd_verify", None)
    code = main([*command.split(), "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_subset_dim_choices_are_the_tables_cli_names():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in sub.choices["subset-dim"]._actions
                   if a.dest == "structure")
    assert choices == sorted(s.cli for s in STRUCTURES) == [
        "bowen", "bs", "packing", "packing-bs", "weighted"]


@pytest.mark.parametrize("structure", sorted(s.cli for s in STRUCTURES))
def test_undefined_subset_phi_exits_1(capsys, structure):
    # bowen and packing once fell back to the zero potential with exit 0
    code = main(["subset-dim", "--structure", structure, "--phi", "nosuch",
                 "--config", str(BENCH_CONFIGS / "shift.cfg")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: potential 'nosuch' not defined in the config\n"


def test_subset_phi_defaults_to_the_configs_phi_or_zero(tmp_path, capsys):
    shift = BENCH_CONFIGS / "shift.cfg"
    runs = {}
    for name, args in [("default", []), ("named", ["--phi", "phi"]),
                       ("zero", ["--phi", "zero"])]:
        path = tmp_path / f"{name}.cfg"
        path.write_text(shift.read_text()
                        + "\n[potential.zero]\nkind = constant\nvalue = 0\n")
        assert main(["subset-dim", "--structure", "bowen", "--config",
                     str(path), "--out", str(tmp_path / f"{name}.jsonl"),
                     *args]) == 0
        runs[name] = [json.loads(line)["value"] for line in
                      (tmp_path / f"{name}.jsonl").read_text().splitlines()]
    assert runs["default"] == runs["named"] != runs["zero"]
    # without a phi in the config the default is zero, which BS refuses
    text = shift.read_text().replace("[potential.phi]", "[potential.chi]")
    path = tmp_path / "no-phi.cfg"
    path.write_text(text)
    code = main(["subset-dim", "--structure", "bs", "--config", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: BS structures need phi > 0")


def test_subset_order_past_the_reliable_depth_exits_1(tmp_path, capsys):
    # at order 14 on a window of 14 the truncation slack (0.5), not the
    # distance, decides which points a candidate ball holds
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    assert text.count("n_max = 3") == 1
    path = tmp_path / "deep.cfg"
    path.write_text(text.replace("n_max = 3", "n_max = 14"))
    code = main(["subset-dim", "--structure", "bowen", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: order 14 at radius 0.6 exceeds reliable "
                          "depth 10 for window 14")
    assert "Traceback" not in err


def test_katok_order_past_the_reliable_depth_exits_1(tmp_path, capsys):
    # order 12 lies past the reliable depth at every eps of the schedule;
    # the Katok sweep used to count balls there and exit 0
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    assert text.count("n = 2 3 4 5\n") == 1
    path = tmp_path / "deep.cfg"
    path.write_text(text.replace("n = 2 3 4 5\n", "n = 2 3 4 12\n"))
    code = main(["entropy", "--quantity", "katok", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: order 12 at radius 0.6 exceeds reliable "
                          "depth 10 for window 14")
    assert "Traceback" not in err


@pytest.mark.parametrize("quantity", ["bk", "bs"])
def test_point_mass_order_past_the_reliable_depth_exits_1(tmp_path, capsys,
                                                          quantity):
    # past the reliable depth the centre leaves its own ball, so the ball
    # masses read 0 and every record read 0.0 with exit 0
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    assert text.count("n = 2 3 4 5\n") == 1
    assert text.count("kind = bernoulli\n") == 1
    path = tmp_path / "deep.cfg"
    path.write_text(text.replace("n = 2 3 4 5\n", "n = 2 3 4 12\n")
                    .replace("kind = bernoulli\n", "kind = point-mass\n"))
    code = main(["entropy", "--quantity", quantity, "--config", str(path),
                 "--out", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: order 12 at radius 0.6 exceeds reliable "
                          "depth 10 for window 14")
    assert "Traceback" not in err


def test_huge_potential_ends_its_bisection(tmp_path, capsys):
    # the critical lambda lies near 1e20, where bisection to tol never ended
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("values = 0.4 0.9", "values = 0.4 1e20"))
    assert main(["subset-dim", "--structure", "bowen",
                 "--config", str(path)]) == 0
    assert "subset-dim-slope" in capsys.readouterr().err


def test_unbracketed_subset_dimension_names_its_bracket(tmp_path, capsys):
    # log weights near 1e300 clip at every lambda the bracket reaches, so
    # the valuation is constant there and its root lies past 2^80
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("values = 0.4 0.9", "values = 1e300 0.9"))
    assert main(["subset-dim", "--structure", "bowen",
                 "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "did not cross 1 on [-1, 1.20893e+24] after 80 doublings" in err
    assert "it is constant, or its root lies outside that bracket" in err
    assert "Traceback" not in err


def test_bs_entropy_band_skips_steps_lost_to_rounding(tmp_path, capsys):
    # with phi = 1e300 on symbol 0 the Birkhoff sums reach 1e300 and a
    # 0.9 step no longer changes them; the step band leaves such steps out
    # instead of dividing by zero, which this suite would raise as an error
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("values = 0.4 0.9", "values = 1e300 0.9"))
    assert main(["entropy", "--quantity", "bs", "--config", str(path)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 6 and all(math.isfinite(r["value"]) for r in rows)


@pytest.mark.parametrize("value", ["1e300", "1e307", "1e308"])
def test_huge_potential_values_end_cleanly(tmp_path, value):
    # a fresh interpreter, as a user runs it: numpy's overflow warnings
    # stay warnings there, and only the exit code and records count
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("values = 0.4 0.9", f"values = {value} 0.9"))
    env = fresh_env()
    for command in ("estimate-mdim", "induced-mdim", "entropy --quantity bs",
                    "subset-dim --structure bowen"):
        out = tmp_path / "records.jsonl"
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "mmdim.cli", *command.split(),
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert "Traceback" not in proc.stderr, (command, proc.stderr)
        assert proc.returncode in (0, 1), (command, proc.stderr)
        if proc.returncode == 0:
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert rows and all(math.isfinite(r["value"]) for r in rows)
        elif value == "1e308":
            assert "[potential.phi] overflows" in proc.stderr


def test_records_refuse_non_finite_values(tmp_path):
    ok = ResultRecord("entropy", "cfg", "bs-lower", {"eps": 0.6}, 0.5, False,
                      (0.25, 0.75))
    out = tmp_path / "records.jsonl"
    for value, ci in ((math.inf, (0.25, 0.75)), (0.5, (0.25, math.nan)),
                      (-math.inf, None)):
        bad = dataclasses.replace(ok, value=value, ci=ci)
        with pytest.raises(ConfigurationError,
                           match=r"bs-lower record at \{'eps': 0.6\} is not"):
            write_jsonl([ok, bad], str(out))
        assert not out.exists()  # refused before the file is opened
    write_jsonl([ok], str(out))
    assert json.loads(out.read_text())["ci_hi"] == 0.75


def test_non_finite_bs_records_exit_1(tmp_path):
    # at seed 4 one sampled point's Birkhoff span under phi = (1e300, 0.9)
    # rounds to 0, and its rate is infinite; the run once exited 0 with
    # "value": Infinity and "ci_hi": NaN in its records, which are not JSON
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    path = tmp_path / "huge.cfg"
    path.write_text(text.replace("values = 0.4 0.9", "values = 1e300 0.9"))
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "mmdim.cli", "entropy", "--quantity", "bs",
         "--seed", "4", "--config", str(path), "--out", str(out)],
        capture_output=True, text=True, env=fresh_env(), timeout=300)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "error: bs-lower record at {'eps': 0.6} is not finite" \
        in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("edits,where", [
    ({"values = 0.4 0.9": "values = 1e308 0.9"}, "n = 4, eps = 0.6"),
    ({"values = 0.4 0.9": "values = 1e307 0.9", "n_max = 3": "n_max = 99"},
     "n = 99, eps = 0.6"),
], ids=["schedule-n", "subset-n-max"])
def test_overflowing_potential_exits_1(tmp_path, capsys, edits, where):
    text = (BENCH_CONFIGS / "shift.cfg").read_text()
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    assert main(["estimate-mdim", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [potential.phi] overflows") and where in err


FUZZ_NUMBER = re.compile(
    r"(?<![\w.^-])[-+]?\d+(?:\.\d+)?(?:\^[-+]?\d+)?(?![\w.])")
# malformed, non-finite, overflowing, tiny and huge numbers; mid-sized
# valid ones would only make a slow but well-formed run
FUZZ_VALUES = ["", "x", "1,", "5 4", "-1", "0", "0.5", "1", "2", "3", "1.5",
               "nan", "inf", "-inf", "1e308", "1e-300", "2^2000", "2^-1100",
               "99999999999999999999"]
FUZZ_KEYS = ["kind", "alphabet_size", "sidedness", "window", "weight_base",
             "symbol_metric", "value", "values", "range", "eps", "n", "T",
             "delta", "eta", "p", "depth", "n_max", "x_samples", "seed",
             "enumeration", "exact_search"]
FUZZ_COMMANDS = {"grid.cfg": ["estimate-mdim"],
                 "shift.cfg": ["estimate-mdim", "induced-mdim"]}


@st.composite
def mutated_configs(draw):
    """A bench config with 1-3 of its numbers replaced, keys renamed or
    lines dropped, and a cheap command to run it with."""
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    lines = (BENCH_CONFIGS / name).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(
            [i for i, line in enumerate(lines) if "=" in line]))
        key, value = lines[i].split("=", 1)
        numbers = list(FUZZ_NUMBER.finditer(value))
        op = draw(st.sampled_from(["number", "key", "drop"]))
        if op == "number" and numbers:
            m = draw(st.sampled_from(numbers))
            lines[i] = (key + "=" + value[:m.start()]
                        + draw(st.sampled_from(FUZZ_VALUES)) + value[m.end():])
        elif op == "key":
            lines[i] = draw(st.sampled_from(FUZZ_KEYS)) + " =" + value
        else:
            del lines[i]
    command = draw(st.sampled_from(FUZZ_COMMANDS[name]))
    return "\n".join(lines) + "\n", command


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_configs_exit_without_a_traceback(tmp_path_factory, case):
    text, command = case
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    # numpy's overflow warnings stay warnings here, as on the command line
    # (a potential value near 1e308 overflows the pressure: CHANGES.md)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        code = main([command, "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")
