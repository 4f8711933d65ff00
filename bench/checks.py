"""Output checks of the benchmark workloads.

Every check is one attempt; a check that does not hold is one failure.
The bounds come from the theory, not from recorded values, so a change
that moves an estimate inside its band still passes.  ``digest`` hashes
the records with their timestamps removed; it is reported, never gated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

TOL = 1e-9


@dataclass
class StepResult:
    """What one child process left behind."""

    label: str
    rc: int
    stderr: str
    records: list[dict] | None   # None when the records did not parse


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(label)
        return ok


def parse_records(text: str) -> list[dict] | None:
    """JSON lines with the timestamp dropped; None if any line is bad."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(rec, dict):
            return None
        rec.pop("timestamp", None)
        out.append(rec)
    return out


def digest(steps: list[StepResult]) -> str:
    h = hashlib.sha256()
    for step in steps:
        for rec in step.records or ():
            h.update(json.dumps(rec, sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()[:16]


def check_process(tally: Tally, step: StepResult) -> None:
    """Exit code 0, no traceback, and records that parse."""
    tally.check(step.rc == 0 and "Traceback" not in step.stderr,
                f"{step.label}: exit code {step.rc}")
    tally.check(bool(step.records), f"{step.label}: no parsable records")


def _of(records, quantity):
    return [r for r in records or () if r.get("quantity") == quantity]


def check_witness(tally: Tally, step: StepResult, k: int,
                  phi_min: float, phi_max: float) -> None:
    """Every word is kept for eps < 1 on the discrete metric, so each
    log-sum cell lies in n(log k + L min phi) .. n(log k + L max phi),
    L = log(1/eps), and the mdim slope lies in [min phi, max phi]."""
    for rec in _of(step.records, "log-sum"):
        n, eps, value = rec["key.n"], rec["key.eps"], rec["value"]
        L = math.log(1.0 / eps)
        lo = n * (math.log(k) + L * phi_min)
        hi = n * (math.log(k) + L * phi_max)
        tally.check(lo - TOL <= value <= hi + TOL,
                    f"log-sum eps={eps} n={n}: {value} not in [{lo}, {hi}]")
    slopes = _of(step.records, "mdim-slope")
    tally.check(len(slopes) == 1
                and phi_min - TOL <= slopes[0]["value"] <= phi_max + TOL,
                f"mdim-slope not in [{phi_min}, {phi_max}]")


def check_generic(tally: Tally, step: StepResult) -> None:
    """Every ratio of the generic-points report lies in [0.7, 1.3]."""
    ratios = _of(step.records, "ratio")
    tally.check(len(ratios) == 5, f"expected 5 ratios, got {len(ratios)}")
    for rec in ratios:
        tally.check(0.7 <= rec["value"] <= 1.3,
                    f"{rec['key.name']} ratio {rec['value']} out of band")


def check_ball_mass(tally: Tally, step: StepResult) -> None:
    """Bracket nesting, CI inside the bracket (upper end only on zero
    hits) and the Brin-Katok window log(1/(4 eps)) .. log(6/eps)."""
    for rec in _of(step.records, "cell"):
        where = f"cell eps={rec['key.eps']} n={rec['key.n']} x={rec['key.x']}"
        lo, hi = rec["lo"], rec["hi"]
        tally.check(lo <= rec["glo"] <= rec["ghi"] <= hi,
                    f"{where}: brackets not nested")
        if rec["zero_hits"]:
            tally.check(rec["ci_hi"] >= lo, f"{where}: zero-hit CI below")
        else:
            tally.check(lo <= rec["ci_lo"] <= rec["ci_hi"] <= hi,
                        f"{where}: CI outside the bracket")
    for rec in _of(step.records, "bk"):
        eps = rec["key.eps"]
        w_lo, w_hi = math.log(1.0 / (4 * eps)), math.log(6.0 / eps)
        tally.check(w_lo - TOL <= rec["lower"] <= rec["upper"] <= w_hi + TOL,
                    f"bk eps={eps}: outside [{w_lo}, {w_hi}]")


def check_cli_sweep(tally: Tally, steps: dict[str, StepResult]) -> None:
    """Oracle mdim slope 1.5 +- 0.15 and Bowen root 1.5 +- 0.1 on the grid
    config (phi = 0.5, psi = 1); the other commands are checked by exit
    code, which for verify means every assertion held."""
    slope = _of(steps["grid-estimate-mdim"].records, "mdim-slope")
    tally.check(len(slope) == 1 and abs(slope[0]["value"] - 1.5) <= 0.15,
                "oracle mdim-slope outside 1.5 +- 0.15")
    root = _of(steps["grid-solve-root"].records, "root")
    tally.check(len(root) == 1 and abs(root[0]["value"] - 1.5) <= 0.1,
                "Bowen root outside 1.5 +- 0.1")
