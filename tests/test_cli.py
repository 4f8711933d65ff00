from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mmdim
from mmdim.cli import main
from mmdim.config import load_config_text, parse_number
from mmdim.errors import ConfigurationError

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
        assert cfg.seed == 1234
        assert cfg.eps_schedule == (0.6, 0.3, 0.15)
        assert cfg.potential("psi").at(cfg.build_system().point([0])) == 1.0

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


@pytest.mark.parametrize("old,new,key,command", BAD_NUMBERS,
                         ids=[case[2].strip("'") for case in BAD_NUMBERS])
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
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_the_weighted_structure(tmp_path):
    grid, weighted = tmp_path / "grid.cfg", tmp_path / "weighted.cfg"
    grid.write_text(GRID_CONFIG)
    weighted.write_text(BASE_CONFIG.replace("value = 0\n", "value = 1\n", 1)
                        + "\n[subset-dim]\ndepth = 2\nn_max = 3\n")
    grid_out, weighted_out = tmp_path / "grid.jsonl", tmp_path / "w.jsonl"
    src = str(Path(mmdim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(FRESH_INTERPRETER),
         str(grid), str(grid_out), str(weighted), str(weighted_out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["after_grid"] == []
    assert seen["grid"] == 0 and seen["weighted"] == 0
    assert "scipy.optimize" in seen["after_weighted"]
    rows = [json.loads(line) for line in weighted_out.read_text().splitlines()]
    lams = [r for r in rows if r["quantity"] == "critical-lambda"]
    assert [r["key.eps"] for r in lams] == [0.6, 0.3, 0.15]
    assert all(r["key.structure"] == "weighted" for r in lams)


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
