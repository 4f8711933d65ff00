"""Command-line experiment runner.

Commands: estimate-mdim, induced-mdim, solve-root, subset-dim, entropy,
verify.  Each returns rows ``(quantity, keys, value, exact[, ci])`` and a
summary; ``main`` makes every record from them, adding the command, the
config hash and the run's one timestamp.  Records go to --out as JSON
lines (sorted keys, one per cell); without it they go to stdout, except
verify's, which then go nowhere.  The summary table is CSV on stdout, or
on stderr when the records take stdout.  Exit codes: 0 success, 1
configuration error, 2 failed verification assertion.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
import time
from typing import NoReturn, Sequence

from .caratheodory import STRUCTURES, subset_mdim
from .config import ExperimentConfig, load_config
from .errors import MMDimError, ConfigurationError
from .measures import bs_entropy, katok_entropy, ps_entropy
from .pressure import (
    induced_mdim_estimate,
    log_eps_fit,
    mdim_estimate,
    pressure_estimate,
    solve_bowen_root,
)
from .records import ResultRecord, summary_csv, write_jsonl
from .systems import Potential, combine
from .verify import run_suite

def cmd_estimate_mdim(cfg: ExperimentConfig, args) -> tuple[list, list]:
    phi = cfg.potential(args.phi)
    if len(cfg.eps_schedule) < 2:
        raise ConfigurationError("estimate-mdim needs at least 2 eps values")
    estimates = [pressure_estimate(cfg.build_system(eps), phi, eps,
                                   cfg.n_schedule, exact_cap=cfg.exact_cap)
                 for eps in cfg.eps_schedule]
    rows = []
    for est in estimates:
        rows += [("log-sum", {"eps": rec.eps, "n": rec.n,
                              "witness": rec.witness_kind}, rec.log_sum,
                  rec.witness_kind in ("analytic-oracle", "separated-exact"))
                 for rec in est.records]
        rows.append(("pressure", {"eps": est.eps}, est.slope,
                     est.witness_kind == "analytic-oracle"))
    # the schedule is fitted as given: 2 eps values are enough here
    fit = log_eps_fit(cfg.eps_schedule, [est.slope for est in estimates])
    rows.append(("mdim-slope", {}, fit.slope, False))
    summary = [{"quantity": "mdim-slope", "value": f"{fit.slope:.6f}",
                "intercept": f"{fit.intercept:.6f}",
                "residual": f"{fit.residual:.6f}"}]
    return rows, summary


def cmd_induced_mdim(cfg: ExperimentConfig, args) -> tuple[list, list]:
    phi, psi = cfg.potential(args.phi), cfg.potential(args.psi)
    if not cfg.T_schedule:
        raise ConfigurationError("schedule 'T' must be nonempty for "
                                 "induced-mdim")
    est = induced_mdim_estimate(cfg.system, phi, psi, cfg.eps_schedule,
                                cfg.T_schedule, exact_cap=cfg.exact_cap)
    rows = [("induced-log-sum", {"eps": eps, "T": T}, val.log_sum, False)
            for (eps, T), val in sorted(est.details["values"].items())]
    rows += [("induced-rate", {"eps": eps}, rate, False)
             for eps, rate in est.per_eps_pressure.items()]
    rows.append(("induced-mdim-slope", {}, est.slope, False))
    summary = [{"quantity": "induced-mdim-slope", "value": f"{est.slope:.6f}",
                "residual": f"{est.residual:.6f}"}]
    return rows, summary


def cmd_solve_root(cfg: ExperimentConfig, args) -> tuple[list, list]:
    phi, psi = cfg.potential(args.phi), cfg.potential(args.psi)

    def mdim_fn(beta: float) -> float:
        mix = combine(phi, psi, -beta, cfg.system)
        est = mdim_estimate(None, mix, cfg.eps_schedule, cfg.n_schedule,
                            system_factory=cfg.build_system,
                            exact_cap=cfg.exact_cap)
        return est.slope

    res = solve_bowen_root(mdim_fn, psi, tol=args.tol)
    rows = [("evaluation", {"beta": b}, v, False) for b, v in res.evaluations]
    rows.append(("root", {"phi": args.phi, "psi": args.psi}, res.beta, False))
    summary = [{"quantity": "root", "value": f"{res.beta:.6f}",
                "residual": f"{res.value:.3g}",
                "iterations": str(res.iterations)}]
    return rows, summary


def cmd_subset_dim(cfg: ExperimentConfig, args) -> tuple[list, list]:
    structure = next(s for s in STRUCTURES if s.cli == args.structure)
    points = cfg.system.enumerate_points(cfg.subset_depth)
    # a named potential must exist; without --phi, the config's phi or else
    # zero, which the BS structures refuse
    phi = (cfg.potential(args.phi) if args.phi is not None
           else cfg.potentials.get("phi", Potential.constant(0.0)))
    est = subset_mdim(cfg.system, points, phi, structure,
                      cfg.eps_schedule, N=min(cfg.n_schedule),
                      n_max=cfg.subset_n_max, exact_cap=cfg.exact_cap)
    rows = [("critical-lambda", {"eps": eps, "structure": args.structure},
             lam, False) for eps, lam in est.per_eps_pressure.items()]
    rows.append(("subset-dim-slope", {"structure": args.structure},
                 est.slope, False))
    summary = [{"quantity": "subset-dim-slope", "structure": args.structure,
                "value": f"{est.slope:.6f}"}]
    return rows, summary


def cmd_entropy(cfg: ExperimentConfig, args) -> tuple[list, list]:
    rows, summary = [], []
    for eps in cfg.eps_schedule:
        if args.quantity in ("bk", "bs"):  # BK is BS at the unit potential
            phi = (Potential.constant(1.0) if args.quantity == "bk"
                   else cfg.potential(args.phi))
            pairs = [(f"{args.quantity}-{bound}",
                      bs_entropy(cfg.measure, phi, eps, cfg.n_schedule,
                                 cfg.x_samples, bound))
                     for bound in ("lower", "upper")]
        elif args.quantity == "katok":
            est = katok_entropy(cfg.measure, eps, cfg.delta, cfg.n_schedule)
            pairs = [("katok", est)]
        else:
            est = ps_entropy(cfg.measure, eps, cfg.eta_schedule,
                             cfg.n_schedule)
            pairs = [("ps", est)]
        for name, est in pairs:
            rows.append((name, {"eps": eps}, est.extrapolated, False, est.ci))
            summary.append({"quantity": name, "eps": f"{eps:g}",
                            "value": f"{est.extrapolated:.6f}"})
    return rows, summary


def cmd_verify(cfg: ExperimentConfig | None, args) -> tuple[list, list, bool]:
    results = run_suite(args.suite)
    rows = [(r.name, {"suite": r.suite}, r.slack, True) for r in results]
    summary = [{"suite": r.suite, "assertion": r.name,
                "status": "pass" if r.passed else "FAIL",
                "slack": f"{r.slack:.3g}"} for r in results]
    all_passed = all(r.passed for r in results)
    return rows, summary, all_passed


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are configuration errors (exit 1),
    so exit code 2 stays a failed verification assertion.  Subparsers are
    made of the same class."""

    def error(self, message: str) -> NoReturn:
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--phi", default="phi")

    p = sub.add_parser("induced-mdim", help="induced mean dimension")
    common(p)
    p.add_argument("--phi", default="phi")
    p.add_argument("--psi", default="psi")

    p = sub.add_parser("solve-root", help="Bowen-equation root")
    common(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("subset-dim", help="subset dimension estimates")
    common(p)
    p.add_argument("--structure", required=True,
                   choices=sorted(s.cli for s in STRUCTURES))
    p.add_argument("--phi", default=None)

    p = sub.add_parser("entropy", help="measure entropy estimates")
    common(p)
    p.add_argument("--quantity", required=True,
                   choices=["bk", "bs", "katok", "ps"])
    p.add_argument("--phi", default="phi")

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


def _records(command: str, cfg: ExperimentConfig | None,
             rows: list) -> list[ResultRecord]:
    """The one maker of records: each row of a run with the command, the
    config hash ("builtin" without a config) and the run's timestamp."""
    h = cfg.config_hash() if cfg else "builtin"
    now = time.time()
    return [ResultRecord(command, h, *row, timestamp=now) for row in rows]


def main(argv: Sequence[str] | None = None) -> int:
    # Freeze the heap at exit: the interpreter's final collections then
    # skip the ~22k objects numpy and mmdim made at import, and a run exits
    # in ~9 ms where it took 23-32 ms (2 cores, Python 3.11).  Registered
    # here, not at import, so library users keep the normal exit; never
    # frozen now, so an in-process caller's garbage stays collectable.
    # Every file is closed before main returns, so no output is lost.
    atexit.unregister(gc.freeze)  # one registration however often main runs
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "verify":
            rows, summary, ok = cmd_verify(cfg, args)
            write_jsonl(_records(args.command, cfg, rows), args.out)
            sys.stdout.write(summary_csv(summary))
            return 0 if ok else 2
        rows, summary = COMMANDS[args.command](cfg, args)
        write_jsonl(_records(args.command, cfg, rows), args.out,
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
