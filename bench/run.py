"""mmdim benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``src/mmdim``).  Each workload run is one or more fresh child interpreters,
started one at a time; runs repeat until ``--seconds`` is used up and the
metrics are medians over runs.  With ``--trace 1`` traced and untraced
runs alternate and the per-layer metrics are printed instead.  The last
line of standard output is the JSON result; the lines before it are for
people.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
# every child is killed once the invocation has run this long, so that the
# benchmark ends within its 180 s limit even if the program hangs
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    # the caller's shell must not change the load
    env.pop("MMDIM_WORKERS", None)
    # compiled modules are cached in the checkout after the warm-up child
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.src = root / "src"
        self.work = work
        self.env = child_env(self.src)
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, label: str, args: list[str], traced: bool) -> dict:
        """Run one child to completion; return its timings and report."""
        report = self.work / f"{label}.report.json"
        report.unlink(missing_ok=True)
        report.with_suffix(".spans.jsonl").unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report),
               "--src", str(self.src)]
        if traced:
            cmd.append("--trace")
        with open(self.work / f"{label}.stdout", "wb") as out, \
                open(self.work / f"{label}.stderr", "wb+") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd + args, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            # a blocking wait returns at exit; wait(timeout=...) polls
            # and would add up to 50 ms to every child
            killer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            finally:
                killer.cancel()
            t1 = time.monotonic()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        try:
            rep = json.loads(report.read_text())
        except (OSError, json.JSONDecodeError):
            rep = {}
        setup_end = min(max(rep.get("setup_end", t1), t0), t1)
        return {"rc": rc, "stderr": stderr, "wall": t1 - t0,
                "setup": setup_end - t0, "rss_kb": rep.get("rss_kb", 0),
                "import_s": rep.get("import_s", 0.0), "report": rep}

    def warm_up(self) -> dict:
        """Compile and cache mmdim, and read the library versions."""
        res = self.spawn("warm-up", ["import"], traced=False)
        if res["rc"] != 0:
            raise BenchError("cannot import mmdim from "
                             f"{self.src}:\n{res['stderr'][-2000:]}")
        return res["report"].get("versions", {})

    def run_once(self, plan: workloads.Plan, traced: bool) -> dict:
        """One workload run: every step of the plan, in order."""
        wall = setup = import_s = 0.0
        rss_kb = 0
        results: dict[str, checks.StepResult] = {}
        summaries = []
        for step in plan.steps:
            step.out.unlink(missing_ok=True)
            res = self.spawn(step.label, step.args, traced)
            wall += res["wall"]
            setup += res["setup"]
            import_s += res["import_s"]
            rss_kb = max(rss_kb, res["rss_kb"])
            try:
                records = checks.parse_records(step.out.read_text())
            except OSError:
                records = None
            results[step.label] = checks.StepResult(
                step.label, res["rc"], res["stderr"], records)
            if "trace" in res["report"]:
                summaries.append(res["report"]["trace"])
        tally = checks.Tally()
        for result in results.values():
            checks.check_process(tally, result)
        try:
            plan.check(tally, results)
        except (KeyError, TypeError, ValueError) as exc:
            tally.check(False, f"check could not read the records: {exc!r}")
        return {
            "wall_s": wall, "setup_s": setup, "solve_s": wall - setup,
            "peak_rss_mb": rss_kb / 1024.0, "import_s": import_s,
            "tally": tally, "digest": checks.digest(list(results.values())),
            "trace": spans.merge(summaries) if traced else None,
        }


def machine_facts(versions: dict) -> dict:
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "MMDIM_WORKERS_found": os.environ.get("MMDIM_WORKERS"),
    }


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mmdim" / "__init__.py").is_file():
        print(f"error: no src/mmdim under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / "py" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    try:
        versions = runner.warm_up()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # measure seeds must be non-negative; any integer seed is accepted
    plan = workloads.PLANS[args.workload](args.seed % 2**31, work)
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        trace_turn = bool(args.trace) and len(traced) < len(plain)
        batch = traced if trace_turn else plain
        batch.append(runner.run_once(plan, traced=trace_turn))
        if args.trace and not traced:
            continue
        # stop when another run of the same length would overrun
        if time.monotonic() - start + batch[-1]["wall_s"] > args.seconds:
            break

    runs = plain + traced
    attempted = sum(r["tally"].attempted for r in runs)
    failed = sum(r["tally"].failed for r in runs)
    digests = sorted({r["digest"] for r in runs})

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced runs in {time.monotonic() - start:.1f} s")
    print("why", workloads.WHY[args.workload])
    print("machine", json.dumps(machine_facts(versions), sort_keys=True))
    print("inputs", json.dumps(plan.inputs, sort_keys=True))
    for name, unit in END_TO_END:
        vals = [r[name] for r in plain]
        print(f"{name:12s} {statistics.median(vals):10.4f} {unit:3s} "
              f"median of {len(vals)}, min {min(vals):.4f} "
              f"max {max(vals):.4f}")
    print(f"failed_frac  {failed / attempted:10.4f} ratio "
          f"{failed} of {attempted} checks failed")
    for note in sorted({n for r in runs for n in r["tally"].notes})[:20]:
        print("  FAILED", note)
    print("digest", ",".join(digests),
          "(informational; records without timestamps)")

    if args.trace:
        metrics = trace_metrics(plain, traced)
        absent = sorted({a for r in traced for a in r["trace"]["absent"]})
        if absent:
            print("absent spans", ", ".join(absent))
        print(f"tracing overhead {metrics['trace.overhead_s']['value']:.4f} s "
              "(traced wall_s minus untraced wall_s, medians)")
    else:
        metrics = {name: {"value": median_of(plain, name), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(plain: list[dict], traced: list[dict]) -> dict:
    per_run = [spans.layer_values(r["trace"]) for r in traced]
    out = {}
    for name, unit in spans.layer_metrics():
        if name.startswith("trace."):
            continue
        if name == "setup.import_s":
            value = median_of(traced, "import_s")
        else:
            value = statistics.median(v[name] for v in per_run)
        out[name] = {"value": value, "unit": unit}
    untraced_wall = median_of(plain, "wall_s")
    traced_wall = median_of(traced, "wall_s")
    out["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    out["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                               "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
