"""One benchmark child process: a fresh interpreter that runs one step.

    child.py --report R --src DIR [--trace] import
    child.py --report R --src DIR [--trace] cli <mmdim command line>
    child.py --report R --src DIR [--trace] lib <workload> <seed> <out>

``mmdim`` is imported from DIR only.  The report file gets the monotonic
time at which set-up ended (imports, config load or model build, right
before the first estimator call), the import time, the peak resident set
and, with ``--trace``, the span summary; the spans themselves go to the
report's name with ``.spans.jsonl``.  The exit code is the step's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import sys
import time
from pathlib import Path

import workloads


def _import_mmdim(src: Path):
    t0 = time.perf_counter()
    import mmdim
    import mmdim.cli
    import_s = time.perf_counter() - t0
    where = Path(mmdim.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"mmdim imported from {where}, not from {src}")
    return import_s


def _grid_system(eps: float):
    # the per-scale grid model of acceptance criteria 3 and 8
    from mmdim.systems import ShiftSystem
    k = math.ceil(1.0 / eps)
    window = max(16, int(math.ceil(math.log2(40.0 / eps))))
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       eps_min=eps / 2)


def run_generic_points(seed: int, mark) -> list[dict]:
    from mmdim.measures import MeasureModel, gmu_mdim_estimate

    def factory(eps):
        system = _grid_system(eps)
        return system, MeasureModel.product_uniform(system, seed=seed)

    system, measure = factory(workloads.GENERIC_EPS[0])
    mark()
    rep = gmu_mdim_estimate(
        system, measure, workloads.GENERIC_EPS, workloads.GENERIC_N, tol=0.2,
        model_factory=factory,
        pool_depth=lambda eps: workloads.GENERIC_DEPTH[eps],
        subset_orders=workloads.GENERIC_SUBSET_ORDERS)
    records = [{"quantity": "ratio", "key.name": name, "value": value}
               for name, value in rep.ratio_summary().items()]
    for est in (rep.bowen_subset, rep.ps_ratio, rep.katok_ratio,
                rep.bk_lower_ratio, rep.bk_upper_ratio):
        for eps, value in est.per_eps_pressure.items():
            records.append({"quantity": "per-eps",
                            "key.name": est.details["quantity"],
                            "key.eps": eps, "value": value})
    return records


def run_ball_mass(seed: int, mark) -> list[dict]:
    from mmdim.measures import (MeasureModel, ball_mass_bracket, brin_katok,
                                estimate_ball_mass, exact_cylinder_bracket)

    models = []
    for eps in workloads.BALL_EPS:
        mu = MeasureModel.product_uniform(_grid_system(eps), seed=seed)
        models.append((eps, mu, mu.sample_points(workloads.BALL_CENTRES,
                                                 stream=3)))
    mark()
    records = []
    for eps, mu, centres in models:
        for n in workloads.BALL_N:
            for xi, x in enumerate(centres):
                lo, hi = ball_mass_bracket(mu, x, n, eps)
                glo, ghi = exact_cylinder_bracket(mu, x, n, eps)
                est = estimate_ball_mass(mu, x, n, eps,
                                         samples=workloads.BALL_SAMPLES,
                                         stream=100 + xi)
                records.append({
                    "quantity": "cell", "key.eps": eps, "key.n": n,
                    "key.x": xi, "lo": lo, "hi": hi, "glo": glo, "ghi": ghi,
                    "ci_lo": est.ci[0], "ci_hi": est.ci[1], "hits": est.hits,
                    "zero_hits": est.zero_hits})
        orders = workloads.BALL_N
        bk_lo = brin_katok(mu, eps, orders, x_samples=workloads.BALL_BK_X,
                           bound="lower")
        bk_hi = brin_katok(mu, eps, orders, x_samples=workloads.BALL_BK_X,
                           bound="upper")
        records.append({"quantity": "bk", "key.eps": eps,
                        "lower": bk_lo.extrapolated,
                        "upper": bk_hi.extrapolated})
    return records


LIBRARY = {"generic-points": run_generic_points, "ball-mass": run_ball_mass}


def _stamp_commands(cli, mark) -> None:
    """Mark the end of set-up when the CLI enters its command function."""
    def stamped(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)
        return inner

    for name, fn in list(getattr(cli, "COMMANDS", {}).items()):
        cli.COMMANDS[name] = stamped(fn)
    if hasattr(cli, "cmd_verify"):
        cli.cmd_verify = stamped(cli.cmd_verify)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("mode", choices=["import", "cli", "lib"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    mode, args = opts.mode, opts.args
    report: dict = {}

    def mark():
        report.setdefault("setup_end", time.monotonic())

    rc = 1
    tracer = None
    try:
        report["import_s"] = _import_mmdim(opts.src)
        if opts.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        if mode == "import":
            import numpy
            import scipy
            report["versions"] = {
                "python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__}
            rc = 0
        elif mode == "cli":
            import mmdim.cli as cli
            _stamp_commands(cli, mark)
            try:
                rc = cli.main(args)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        else:
            workload, seed, out = args
            records = LIBRARY[workload](int(seed), mark)
            Path(out).write_text("".join(
                json.dumps(r, sort_keys=True) + "\n" for r in records))
            rc = 0
    finally:
        mark()
        report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report["trace"] = tracer.summary()
            tracer.dump(opts.report.with_suffix(".spans.jsonl"))
        opts.report.write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
