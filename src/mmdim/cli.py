"""Command-line experiment runner.

Commands: estimate-mdim, induced-mdim, solve-root, subset-dim, entropy,
verify.  Records go to --out as JSON lines (sorted keys, one per cell);
the summary table is printed as CSV on stdout.  Exit codes: 0 success,
1 configuration error, 2 failed verification assertion.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .caratheodory import (
    BS_R,
    COVER_M,
    PACKING_BS,
    PACKING_P,
    WEIGHTED_W,
    subset_mdim,
)
from .config import ExperimentConfig, load_config, parse_int
from .errors import MMDimError, ConfigurationError
from .measures import brin_katok, bs_entropy, katok_entropy, ps_entropy
from .pressure import (
    _slope,
    induced_mdim_estimate,
    mdim_estimate,
    pressure_estimate,
    solve_bowen_root,
)
from .records import ResultRecord, stamp, summary_csv, write_jsonl
from .systems import Potential, combine
from .verify import run_suite

STRUCTURE_NAMES = {
    "bowen": COVER_M,
    "packing": PACKING_P,
    "bs": BS_R,
    "packing-bs": PACKING_BS,
    "weighted": WEIGHTED_W,
}


def _phi(cfg: ExperimentConfig, args) -> Potential:
    name = getattr(args, "phi", None) or "phi"
    return cfg.potential(name)


def cmd_estimate_mdim(cfg: ExperimentConfig, args) -> tuple[list, list]:
    phi = _phi(cfg, args)
    if len(cfg.eps_schedule) < 2:
        raise ConfigurationError("estimate-mdim needs at least 2 eps values")
    factory = cfg.system_factory()
    estimates = [pressure_estimate(factory(eps), phi, eps, cfg.n_schedule,
                                   exact_cap=cfg.exact_cap)
                 for eps in cfg.eps_schedule]
    records = []
    h = cfg.config_hash()
    for est in estimates:
        for rec in est.records:
            records.append(ResultRecord(
                command="estimate-mdim", config_hash=h, quantity="log-sum",
                keys={"eps": rec.eps, "n": rec.n,
                      "witness": rec.witness_kind},
                value=rec.log_sum,
                exact=rec.witness_kind in ("analytic-oracle",
                                           "separated-exact")))
        records.append(ResultRecord(
            command="estimate-mdim", config_hash=h, quantity="pressure",
            keys={"eps": est.eps}, value=est.slope,
            exact=est.witness_kind == "analytic-oracle"))
    xs = [math.log(1.0 / e) for e in cfg.eps_schedule]
    ys = [est.slope for est in estimates]
    slope, intercept, residual = _slope(xs, ys)
    records.append(ResultRecord(
        command="estimate-mdim", config_hash=h, quantity="mdim-slope",
        keys={}, value=float(slope), exact=False))
    summary = [{"quantity": "mdim-slope", "value": f"{slope:.6f}",
                "intercept": f"{intercept:.6f}",
                "residual": f"{residual:.6f}"}]
    return records, summary


def cmd_induced_mdim(cfg: ExperimentConfig, args) -> tuple[list, list]:
    phi = cfg.potential(getattr(args, "phi", None) or "phi")
    psi = cfg.potential(getattr(args, "psi", None) or "psi")
    if not cfg.T_schedule:
        raise ConfigurationError("schedule 'T' must be nonempty for "
                                 "induced-mdim")
    system = cfg.build_system()
    est = induced_mdim_estimate(system, phi, psi, cfg.eps_schedule,
                                cfg.T_schedule, exact_cap=cfg.exact_cap)
    h = cfg.config_hash()
    records = []
    for (eps, T), val in sorted(est.details["values"].items()):
        records.append(ResultRecord(
            command="induced-mdim", config_hash=h, quantity="induced-log-sum",
            keys={"eps": eps, "T": T}, value=val.log_sum, exact=False))
    for eps, rate in est.per_eps_pressure.items():
        records.append(ResultRecord(
            command="induced-mdim", config_hash=h, quantity="induced-rate",
            keys={"eps": eps}, value=rate, exact=False))
    records.append(ResultRecord(
        command="induced-mdim", config_hash=h, quantity="induced-mdim-slope",
        keys={}, value=est.slope, exact=False))
    summary = [{"quantity": "induced-mdim-slope", "value": f"{est.slope:.6f}",
                "residual": f"{est.residual:.6f}"}]
    return records, summary


def cmd_solve_root(cfg: ExperimentConfig, args) -> tuple[list, list]:
    phi = cfg.potential(args.phi)
    psi = cfg.potential(args.psi)
    factory = cfg.system_factory()
    probe = factory(min(cfg.eps_schedule))

    def mdim_fn(beta: float) -> float:
        mix = combine(phi, psi, -beta, probe)
        est = mdim_estimate(None, mix, cfg.eps_schedule, cfg.n_schedule,
                            system_factory=factory, exact_cap=cfg.exact_cap)
        return est.slope

    res = solve_bowen_root(mdim_fn, psi, tol=args.tol)
    h = cfg.config_hash()
    records = [ResultRecord(
        command="solve-root", config_hash=h, quantity="evaluation",
        keys={"beta": b}, value=v, exact=False)
        for b, v in res.evaluations]
    records.append(ResultRecord(
        command="solve-root", config_hash=h, quantity="root",
        keys={"phi": args.phi, "psi": args.psi}, value=res.beta, exact=False))
    summary = [{"quantity": "root", "value": f"{res.beta:.6f}",
                "residual": f"{res.value:.3g}",
                "iterations": str(res.iterations)}]
    return records, summary


def cmd_subset_dim(cfg: ExperimentConfig, args) -> tuple[list, list]:
    structure = STRUCTURE_NAMES[args.structure]
    opts = cfg.options.get("subset-dim", {})
    depth = parse_int(opts.get("depth", "3"), "[subset-dim] depth")
    n_max = parse_int(opts.get("n_max", str(max(cfg.n_schedule))),
                      "[subset-dim] n_max")
    system = cfg.build_system()
    points = system.enumerate_points(depth)
    if structure in (BS_R, PACKING_BS, WEIGHTED_W):
        phi = cfg.potential(getattr(args, "phi", None) or "phi")
    else:
        phi = cfg.potentials.get(getattr(args, "phi", None) or "phi",
                                 Potential.constant(0.0))
    est = subset_mdim(system, points, phi, structure,
                      cfg.eps_schedule, N=min(cfg.n_schedule), n_max=n_max,
                      exact_cap=cfg.exact_cap)
    h = cfg.config_hash()
    records = []
    for eps, lam in est.per_eps_pressure.items():
        records.append(ResultRecord(
            command="subset-dim", config_hash=h, quantity="critical-lambda",
            keys={"eps": eps, "structure": args.structure}, value=lam,
            exact=False))
    records.append(ResultRecord(
        command="subset-dim", config_hash=h, quantity="subset-dim-slope",
        keys={"structure": args.structure}, value=est.slope, exact=False))
    summary = [{"quantity": "subset-dim-slope", "structure": args.structure,
                "value": f"{est.slope:.6f}"}]
    return records, summary


def cmd_entropy(cfg: ExperimentConfig, args) -> tuple[list, list]:
    system = cfg.build_system()
    measure = cfg.build_measure(system)
    opts = cfg.options.get("entropy", {})
    x_samples = parse_int(opts.get("x_samples", "24"), "[entropy] x_samples")
    h = cfg.config_hash()
    records, summary = [], []
    for eps in cfg.eps_schedule:
        if args.quantity == "bk":
            lo = brin_katok(measure, eps, cfg.n_schedule, x_samples, "lower")
            hi = brin_katok(measure, eps, cfg.n_schedule, x_samples, "upper")
            pairs = [("bk-lower", lo), ("bk-upper", hi)]
        elif args.quantity == "bs":
            phi = cfg.potential(getattr(args, "phi", None) or "phi")
            lo = bs_entropy(measure, phi, eps, cfg.n_schedule, x_samples,
                            "lower")
            hi = bs_entropy(measure, phi, eps, cfg.n_schedule, x_samples,
                            "upper")
            pairs = [("bs-lower", lo), ("bs-upper", hi)]
        elif args.quantity == "katok":
            est = katok_entropy(measure, eps, cfg.delta, cfg.n_schedule)
            pairs = [("katok", est)]
        elif args.quantity == "ps":
            est = ps_entropy(measure, eps, cfg.eta_schedule, cfg.n_schedule)
            pairs = [("ps", est)]
        else:
            raise ConfigurationError(f"unknown quantity {args.quantity!r}")
        for name, est in pairs:
            records.append(ResultRecord(
                command="entropy", config_hash=h, quantity=name,
                keys={"eps": eps}, value=est.extrapolated,
                exact=False, ci=est.ci))
            summary.append({"quantity": name, "eps": f"{eps:g}",
                            "value": f"{est.extrapolated:.6f}"})
    return records, summary


def cmd_verify(cfg: ExperimentConfig | None, args) -> tuple[list, list, bool]:
    results = run_suite(args.suite)
    h = cfg.config_hash() if cfg else "builtin"
    records = [ResultRecord(
        command="verify", config_hash=h, quantity=r.name,
        keys={"suite": r.suite}, value=r.slack, exact=True)
        for r in results]
    summary = [{"suite": r.suite, "assertion": r.name,
                "status": "pass" if r.passed else "FAIL",
                "slack": f"{r.slack:.3g}"} for r in results]
    all_passed = all(r.passed for r in results)
    return records, summary, all_passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdim",
        description="desk-scale metric mean dimension estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="experiment config path")
        p.add_argument("--out", default=None, help="records output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("estimate-mdim", help="whole-space mean dimension")
    common(p)
    p.add_argument("--phi", default=None)

    p = sub.add_parser("induced-mdim", help="induced mean dimension")
    common(p)
    p.add_argument("--phi", default=None)
    p.add_argument("--psi", default=None)

    p = sub.add_parser("solve-root", help="Bowen-equation root")
    common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("subset-dim", help="subset dimension estimates")
    common(p)
    p.add_argument("--structure", required=True,
                   choices=sorted(STRUCTURE_NAMES))
    p.add_argument("--phi", default=None)

    p = sub.add_parser("entropy", help="measure entropy estimates")
    common(p)
    p.add_argument("--quantity", required=True,
                   choices=["bk", "bs", "katok", "ps"])
    p.add_argument("--phi", default=None)

    p = sub.add_parser("verify", help="run invariant suites")
    common(p, config_required=False)
    p.add_argument("--suite", default="all",
                   choices=["counting", "pressure", "caratheodory",
                            "entropy", "all"])
    return parser


COMMANDS = {
    "estimate-mdim": cmd_estimate_mdim,
    "induced-mdim": cmd_induced_mdim,
    "solve-root": cmd_solve_root,
    "subset-dim": cmd_subset_dim,
    "entropy": cmd_entropy,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "verify":
            records, summary, ok = cmd_verify(cfg, args)
            write_jsonl(stamp(records), args.out)
            sys.stdout.write(summary_csv(summary))
            return 0 if ok else 2
        if cfg is None:
            raise ConfigurationError("--config is required")
        records, summary = COMMANDS[args.command](cfg, args)
        write_jsonl(stamp(records), args.out,
                    stream=None if args.out else sys.stdout)
        # keep piped record streams clean: summary moves to stderr when
        # the records are already on stdout
        sink = sys.stdout if args.out else sys.stderr
        sink.write(summary_csv(summary))
        return 0
    except MMDimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
