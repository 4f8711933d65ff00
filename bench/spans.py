"""Span tracing of mmdim's public functions, installed from outside.

The traced child wraps each function named in ``SPANS`` and rebinds every
copy of it: module globals made by ``from .x import y``, class attributes,
and module-level dispatch tables such as ``caratheodory._VALUATIONS`` and
``verify.SUITES``.  Each call is a span with a name, a parent span, a start
and an end, kept in memory until the process ends.  A span's self time is
its duration minus the duration of its child spans.  A name that no longer exists in ``mmdim`` is
reported as absent instead of failing the run.

Each span yields ``<span>.calls`` and ``<span>.self_s``; the spans in
``TOTAL_ONLY`` yield ``<span>.total_s`` (time spent in them, children
included) instead, and ``cli.main`` yields both.  ``COUNTERS`` lists the
extra counts some spans record from their arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, workload on which the span must record a call)
SPANS = (
    ("systems", "ShiftSystem.enumerate_points", "witness-mdim"),
    ("systems", "birkhoff_sum", "witness-mdim"),
    ("bowen", "distances_to", "witness-mdim"),
    ("bowen", "pairwise_bowen", "cli-sweep"),
    ("bowen", "max_separated", "witness-mdim"),
    ("bowen", "min_spanning", "cli-sweep"),
    ("bowen", "five_r_disjointify", "cli-sweep"),
    ("pressure", "pressure_estimate", "witness-mdim"),
    ("pressure", "pressure_sum", "witness-mdim"),
    ("pressure", "analytic_oracle_pressure", "cli-sweep"),
    ("pressure", "induced_pressure", "cli-sweep"),
    ("pressure", "solve_bowen_root", "cli-sweep"),
    ("caratheodory", "subset_mdim", "generic-points"),
    ("caratheodory", "critical_lambda", "generic-points"),
    ("caratheodory", "cover_value", "generic-points"),
    ("caratheodory", "packing_value", "cli-sweep"),
    ("caratheodory", "bs_value", "cli-sweep"),
    ("caratheodory", "packing_bs_value", "cli-sweep"),
    ("caratheodory", "weighted_value", "cli-sweep"),
    ("measures", "MeasureModel.sample_matrix", "ball-mass"),
    ("measures", "estimate_ball_mass", "ball-mass"),
    ("measures", "ball_mass_bracket", "ball-mass"),
    ("measures", "exact_cylinder_bracket", "ball-mass"),
    ("measures", "bs_entropy", "generic-points"),
    ("measures", "katok_rn", "generic-points"),
    ("measures", "katok_entropy", "generic-points"),
    ("measures", "ps_entropy", "generic-points"),
    ("measures", "gmu_mdim_estimate", "generic-points"),
    ("verify", "counting_suite", "cli-sweep"),
    ("verify", "pressure_suite", "cli-sweep"),
    ("verify", "caratheodory_suite", "cli-sweep"),
    ("verify", "entropy_suite", "cli-sweep"),
    ("cli", "main", "cli-sweep"),
    ("config", "load_config", "cli-sweep"),
    ("records", "write_jsonl", "cli-sweep"),
)

TOTAL_ONLY = frozenset({
    "verify.counting_suite", "verify.pressure_suite",
    "verify.caratheodory_suite", "verify.entropy_suite",
})
WITH_TOTAL = frozenset({"cli.main"})

VALUATIONS = ("caratheodory.cover_value", "caratheodory.packing_value",
              "caratheodory.bs_value", "caratheodory.packing_bs_value",
              "caratheodory.weighted_value")

# name -> (unit, numerator counter, denominator counter or None)
COUNTERS = {
    "bowen.distances_to.rows": ("count", "distances_to.rows", None),
    "bowen.distances_to.madds_computed":
        ("count", "distances_to.madds", None),
    "bowen.max_separated.kept_ratio":
        ("ratio", "max_separated.kept", "max_separated.points"),
    "pressure.pressure_estimate.oracle_ratio":
        ("ratio", "pressure_estimate.oracle", "pressure_estimate.calls"),
    "caratheodory.critical_lambda.valuations":
        ("count", "critical_lambda.valuations", "critical_lambda.calls"),
    "caratheodory.exact_ratio":
        ("ratio", "valuation.exact", "valuation.calls"),
    "measures.MeasureModel.sample_matrix.rows":
        ("count", "sample_matrix.rows", None),
    "measures.estimate_ball_mass.hit_ratio":
        ("ratio", "estimate_ball_mass.hits", "estimate_ball_mass.samples"),
    "measures.katok_rn.exact_ratio":
        ("ratio", "katok_rn.exact", "katok_rn.calls"),
}


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    out = []
    for module, attr, _ in SPANS:
        name = f"{module}.{attr}"
        if name not in TOTAL_ONLY:
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in TOTAL_ONLY or name in WITH_TOTAL:
            out.append((f"{name}.total_s", "s"))
    out += [(name, unit) for name, (unit, _, _) in COUNTERS.items()]
    out += [("setup.import_s", "s"), ("trace.untraced_wall_s", "s"),
            ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s")]
    return out


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _count_distances(counts, args, kwargs, result):
    system, Z, n = args[0], _arg(args, kwargs, 2, "Z"), _arg(args, kwargs, 3, "n")
    counts["distances_to.rows"] += Z.shape[0]
    counts["distances_to.madds"] += Z.shape[0] * system.word_length * n


def _count_separated(counts, args, kwargs, result):
    counts["max_separated.points"] += len(_arg(args, kwargs, 1, "points"))
    counts["max_separated.kept"] += len(result[0])


def _count_pressure(counts, args, kwargs, result):
    counts["pressure_estimate.calls"] += 1
    counts["pressure_estimate.oracle"] += result.witness_kind == "analytic-oracle"


def _count_valuation(counts, args, kwargs, result):
    counts["valuation.calls"] += 1
    counts["valuation.exact"] += bool(result.exact)


def _count_samples(counts, args, kwargs, result):
    counts["sample_matrix.rows"] += result.shape[0]


def _count_mass(counts, args, kwargs, result):
    if result.samples > 0:
        counts["estimate_ball_mass.hits"] += result.hits
        counts["estimate_ball_mass.samples"] += result.samples


def _count_katok(counts, args, kwargs, result):
    counts["katok_rn.calls"] += 1
    counts["katok_rn.exact"] += bool(result.exact)


AFTER = {
    "bowen.distances_to": _count_distances,
    "bowen.max_separated": _count_separated,
    "pressure.pressure_estimate": _count_pressure,
    "measures.MeasureModel.sample_matrix": _count_samples,
    "measures.estimate_ball_mass": _count_mass,
    "measures.katok_rn": _count_katok,
    **{name: _count_valuation for name in VALUATIONS},
}


class Tracer:
    """In-memory spans of one process: name, parent, start and end."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index or -1, t0, t1]
        self.open: list[int] = []        # indices of the spans still running
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self.open
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "caratheodory.critical_lambda":
                args, kwargs = self._count_valuations(args, kwargs)
            span = [name, open_spans[-1] if open_spans else -1,
                    time.perf_counter(), 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def _count_valuations(self, args, kwargs):
        self.counts["critical_lambda.calls"] += 1
        valuation = _arg(args, kwargs, 0, "valuation")

        def counted(lam):
            self.counts["critical_lambda.valuations"] += 1
            return valuation(lam)

        if "valuation" in kwargs:
            return args, {**kwargs, "valuation": counted}
        return (counted,) + tuple(args[1:]), kwargs

    def install(self, package: str = "mmdim") -> None:
        """Wrap every span and rebind each copy of the original function."""
        found = {}
        for module_name in {m for m, _, _ in SPANS}:
            try:
                found[module_name] = importlib.import_module(
                    f"{package}.{module_name}")
            except ImportError:
                pass
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for module_name, attr, _ in SPANS:
            name = f"{module_name}.{attr}"
            module = found.get(module_name)
            if module is None:
                self.absent.append(name)
                continue
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            traced = self.wrap(name, original)
            if owner is not module:
                setattr(owner, leaf, traced)
                continue
            for mod in modules:
                _rebind(vars(mod), original, traced)

    def summary(self) -> dict:
        """Calls, self time and total time per span name, and the counts."""
        child_time = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats: dict[str, list[float]] = {}
        for (name, _, t0, t1), inner in zip(self.spans, child_time):
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0 - inner
            acc[2] += t1 - t0
        return {"stats": stats, "counts": dict(self.counts),
                "absent": list(self.absent)}

    def dump(self, path) -> None:
        """Write every span as one JSON line; ids are list positions."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _rebind(namespace: dict, original, traced) -> None:
    """Replace ``original`` in a module namespace and its dict tables."""
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = traced
        elif isinstance(value, dict) and not key.startswith("__"):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = traced


def merge(summaries: list[dict]) -> dict:
    """Sum the per-process summaries of one workload run."""
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    absent: set[str] = set()
    for s in summaries:
        for name, vals in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in s["counts"].items():
            counts[key] = counts.get(key, 0.0) + v
        absent.update(s["absent"])
    return {"stats": stats, "counts": counts, "absent": sorted(absent)}


def layer_values(merged: dict) -> dict[str, float]:
    """Per-layer metric values of one traced workload run (no trace.*)."""
    out: dict[str, float] = {}
    for module, attr, _ in SPANS:
        name = f"{module}.{attr}"
        calls, self_s, total_s = merged["stats"].get(name, (0, 0.0, 0.0))
        if name not in TOTAL_ONLY:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        if name in TOTAL_ONLY or name in WITH_TOTAL:
            out[f"{name}.total_s"] = total_s
    counts = merged["counts"]
    for name, (_, num, den) in COUNTERS.items():
        value = counts.get(num, 0.0)
        if den is not None:
            d = counts.get(den, 0.0)
            value = value / d if d else 0.0
        out[name] = value
    return out
