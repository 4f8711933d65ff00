"""The traced run rebinds every copy of a span and reports what it finds."""

import json
import sys
import textwrap
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

FAKE = {
    "__init__.py": "",
    "bowen.py": """
        def max_separated(system, points, n, eps):
            return list(points), False
    """,
    "caratheodory.py": """
        from types import SimpleNamespace
        from .bowen import max_separated

        def cover_value(problem, lam):
            return SimpleNamespace(value=1.0, exact=True)

        _VALUATIONS = {"cover": cover_value}

        def use_copy(points):
            return max_separated(None, points, 1, 0.5)
    """,
}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakemm"
    pkg.mkdir()
    for name, text in FAKE.items():
        (pkg / name).write_text(textwrap.dedent(text))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakemm"
    for key in [k for k in sys.modules if k.split(".")[0] == "fakemm"]:
        del sys.modules[key]


def test_copies_and_tables_are_rebound_and_missing_names_absent(fake_package):
    tracer = spans.Tracer()
    tracer.install(package=fake_package)
    import fakemm.bowen
    import fakemm.caratheodory as cara

    assert cara.max_separated is fakemm.bowen.max_separated
    cara.use_copy([1, 2, 3])
    cara._VALUATIONS["cover"](None, 0.0)
    values = spans.layer_values(spans.merge([tracer.summary()]))
    assert values["bowen.max_separated.calls"] == 1
    assert values["bowen.max_separated.kept_ratio"] == 1.0
    assert values["caratheodory.cover_value.calls"] == 1
    assert values["caratheodory.exact_ratio"] == 1.0
    absent = set(tracer.summary()["absent"])
    assert {"bowen.distances_to", "bowen.pairwise_bowen",
            "systems.birkhoff_sum", "verify.counting_suite"} <= absent
    assert values["bowen.distances_to.calls"] == 0


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == spans.layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.PLANS)


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_each_span_records_a_call_on_its_workload(workload, tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    runner.warm_up()
    result = runner.run_once(workloads.PLANS[workload](5, tmp_path),
                             traced=True)
    assert result["tally"].failed == 0, result["tally"].notes
    trace = result["trace"]
    values = spans.layer_values(trace)
    for module, attr, home in spans.SPANS:
        name = f"{module}.{attr}"
        if home != workload or name in trace["absent"]:
            continue
        key = f"{name}.total_s" if name in spans.TOTAL_ONLY \
            else f"{name}.calls"
        assert values[key] > 0, f"{name} recorded nothing on {workload}"
