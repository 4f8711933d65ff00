"""The four benchmark workloads: inputs made from a seed, child steps, checks.

A workload's plan lists the child processes of one workload run, in order,
with the input sizes they handle.  The seed reaches the program only as
generated inputs: the witness table and config seed, the measure seeds of
the library workloads, and ``--seed`` on every CLI command.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

WHY = {
    "witness-mdim": "witness path of estimate-mdim: greedy separation over "
                    "enumerated word pools dominates, every word is kept",
    "generic-points": "criterion-8 estimators: Katok cover, PS, BK brackets "
                      "and Caratheodory candidates on enumerated pools",
    "ball-mass": "criterion-3 ball masses: sampled 20k-row blocks against one "
                 "centre, dominated by MeasureModel.sample_matrix",
    "cli-sweep": "13 CLI processes on two pinned configs plus verify: "
                 "start-up and the small exact solvers",
}

# witness-mdim inputs; the pool at order n is every word of length n
WITNESS_K = 4
WITNESS_EPS = (0.6, 0.3)
WITNESS_N = (3, 4, 5, 6)

# generic-points inputs (criterion 8 with a smaller pool at eps = 0.25)
GENERIC_EPS = (0.5, 0.25)
GENERIC_N = (1, 2, 3, 4, 5)
GENERIC_DEPTH = {0.5: 10, 0.25: 5}
GENERIC_SUBSET_ORDERS = (1, 5)

# ball-mass inputs (criterion 3)
BALL_EPS = (2.0 ** -4, 2.0 ** -5)
BALL_N = (1, 2, 3, 4, 5, 6)
BALL_CENTRES = 2
BALL_SAMPLES = 100_000
BALL_BK_X = 16


@dataclass
class Step:
    label: str
    args: list[str]          # child arguments after the common options
    out: Path                # where the step leaves its records


@dataclass
class Plan:
    steps: list[Step]
    inputs: dict
    check: Callable[[checks.Tally, dict[str, checks.StepResult]], None]


def witness_table(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [round(rng.uniform(0.0, 1.0), 3) for _ in range(WITNESS_K ** 2)]


def plan_witness(seed: int, work: Path) -> Plan:
    table = witness_table(seed)
    cfg = work / "witness.cfg"
    cfg.write_text((CONFIGS / "witness.cfg").read_text().format(
        values=" ".join(f"{v:.3f}" for v in table), seed=seed))
    out = work / "witness.jsonl"
    step = Step("estimate-mdim", ["cli", "estimate-mdim", "--config",
                                  str(cfg), "--out", str(out)], out)

    def check(tally, results):
        checks.check_witness(tally, results["estimate-mdim"], WITNESS_K,
                             min(table), max(table))

    inputs = {"processes": 1, "alphabet": WITNESS_K,
              "eps": list(WITNESS_EPS), "n": list(WITNESS_N),
              "pool_sizes": [WITNESS_K ** n for n in WITNESS_N],
              "cells": len(WITNESS_EPS) * len(WITNESS_N),
              "phi_min": min(table), "phi_max": max(table)}
    return Plan([step], inputs, check)


def plan_generic(seed: int, work: Path) -> Plan:
    out = work / "generic.jsonl"
    step = Step("gmu-mdim", ["lib", "generic-points", str(seed), str(out)],
                out)

    def check(tally, results):
        checks.check_generic(tally, results["gmu-mdim"])

    inputs = {"processes": 1, "eps": list(GENERIC_EPS), "n": list(GENERIC_N),
              "pool_sizes": [math.ceil(1 / e) ** GENERIC_DEPTH[e]
                             for e in GENERIC_EPS],
              "subset_orders": list(GENERIC_SUBSET_ORDERS)}
    return Plan([step], inputs, check)


def plan_ball_mass(seed: int, work: Path) -> Plan:
    out = work / "ball_mass.jsonl"
    step = Step("ball-mass", ["lib", "ball-mass", str(seed), str(out)], out)

    def check(tally, results):
        checks.check_ball_mass(tally, results["ball-mass"])

    cells = len(BALL_EPS) * len(BALL_N) * BALL_CENTRES
    inputs = {"processes": 1, "eps": list(BALL_EPS), "n": list(BALL_N),
              "centres": BALL_CENTRES, "cells": cells,
              "samples_per_cell": BALL_SAMPLES,
              "samples": cells * BALL_SAMPLES, "bk_x_samples": BALL_BK_X}
    return Plan([step], inputs, check)


def plan_cli_sweep(seed: int, work: Path) -> Plan:
    grid, shift = str(CONFIGS / "grid.cfg"), str(CONFIGS / "shift.cfg")
    commands = [
        ("grid-estimate-mdim", ["estimate-mdim", "--config", grid]),
        ("grid-solve-root", ["solve-root", "--config", grid,
                             "--phi", "phi", "--psi", "psi"]),
        ("shift-induced-mdim", ["induced-mdim", "--config", shift]),
    ]
    for structure in ("bowen", "packing", "bs", "packing-bs", "weighted"):
        commands.append((f"shift-subset-dim-{structure}",
                         ["subset-dim", "--config", shift,
                          "--structure", structure]))
    for quantity in ("bk", "bs", "katok", "ps"):
        commands.append((f"shift-entropy-{quantity}",
                         ["entropy", "--config", shift,
                          "--quantity", quantity]))
    commands.append(("verify-all", ["verify", "--suite", "all"]))
    steps = []
    for label, argv in commands:
        out = work / f"{label}.jsonl"
        steps.append(Step(label, ["cli", *argv, "--seed", str(seed),
                                  "--out", str(out)], out))

    def check(tally, results):
        checks.check_cli_sweep(tally, results)

    return Plan(steps, {"processes": len(steps),
                        "configs": ["grid.cfg", "shift.cfg"]}, check)


PLANS = {
    "witness-mdim": plan_witness,
    "generic-points": plan_generic,
    "ball-mass": plan_ball_mass,
    "cli-sweep": plan_cli_sweep,
}
