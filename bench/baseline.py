"""Rebuild the benchmark's baseline: repeat bench/run.py and check its noise.

    python3 bench/baseline.py --out bench/BASELINE.json
    python3 bench/baseline.py --stages set_a --workloads sweep --seeds 1 2 3 4 5

Stages, all by default and in this order:
  set_a     end-to-end runs of seeds 1 to 10 per workload (--seeds)
  set_b     the same runs again: two sets of the same code must agree
  repeat    end-to-end runs of the default seed, as many per workload as
            there are seeds: the noise a comparison at one seed sees
  held_out  one end-to-end run of the held-out seed per workload
  traced    traced runs of seeds 1 to 3, then of the default seed again

Each run is a fresh `run.py --seconds S` process, S being run_seconds of
BENCHMARK.json.  For every stage, workload and metric this prints and
records the median, the quartiles Q1 and Q3 (`statistics.quantiles(values,
n=4)`) and the spread (Q3 - Q1) / median of the per-run values.  It then
checks, as far as the stages run allow:
  - every run is correct;
  - every end-to-end spread, setup_s included, is at most a third of the
    metric's bound in BENCHMARK.json;
  - no set_b median is worse than the set_a median by more than the bound;
  - the traced predictions: analysis.self_s is the largest layer self time
    on construct and shatter.self_s on certify, analysis.calls is 0 on
    certify, and shatter.tuples and cli.output_bytes repeat exactly across
    the two traced runs of the default seed.
It exits 0 only if every check holds.  With --out, the machine record, every
run, the summaries and the checks are written as JSON after each stage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = ("set_a", "set_b", "repeat", "held_out", "traced")
TRACED_SEEDS = (1, 2, 3)
MACHINE_LINE = "# machine: "


def run_once(workload: str, seed: int, trace: int, seconds: float) -> tuple:
    """One fresh run; returns its result line and its machine record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln[len(MACHINE_LINE):]) for ln in lines if ln.startswith(MACHINE_LINE))
    return {"seed": seed, **json.loads(lines[-1])}, machine


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "min": min(values),
        "max": max(values),
    }


def stage_plan(stage: str, args) -> tuple:
    """(trace, seeds) of a stage."""
    return {
        "set_a": (0, args.seeds),
        "set_b": (0, args.seeds),
        "repeat": (0, [DEFAULT_SEED] * len(args.seeds)),
        "held_out": (0, [HELD_OUT_SEED]),
        "traced": (1, [*TRACED_SEEDS, DEFAULT_SEED]),
    }[stage]


def checks(stages: dict, bounds: dict) -> list:
    out = []

    def check(name: str, ok: bool, detail) -> None:
        out.append({"check": name, "ok": bool(ok), "detail": detail})

    for stage, data in stages.items():
        for workload, runs in data["runs"].items():
            check(f"{stage} {workload}: every run correct",
                  all(r["correct"] and r["failed"] == 0 for r in runs),
                  [r["seed"] for r in runs if not r["correct"]])
    for stage in ("set_a", "set_b", "repeat"):
        for workload, summary in stages.get(stage, {}).get("summary", {}).items():
            for name, bound in bounds.items():
                if summary[name]["n"] > 1:
                    spread = summary[name]["spread"] or 0.0
                    check(f"{stage} {workload} {name}: spread <= bound / 3 = {bound / 3:.4f}",
                          spread <= bound / 3, round(spread, 4))
    if "set_a" in stages and "set_b" in stages:
        for workload, summary in stages["set_b"]["summary"].items():
            for name, bound in bounds.items():
                change = summary[name]["median"] / stages["set_a"]["summary"][workload][name]["median"] - 1
                check(f"set_b vs set_a {workload} {name}: median worse by <= {bound}",
                      change <= bound, round(change, 4))
    traced = stages.get("traced", {})
    for workload, summary in traced.get("summary", {}).items():
        selfs = {k: v["median"] for k, v in summary.items() if k.endswith(".self_s")}
        largest = max(selfs, key=selfs.get)
        expected = {"construct": "analysis.self_s", "certify": "shatter.self_s"}.get(workload)
        if expected:
            check(f"traced {workload}: largest layer self time is {expected}", largest == expected, largest)
        if workload == "certify":
            calls = summary["analysis.calls"]["max"]
            check("traced certify: analysis.calls = 0", calls == 0, calls)
        again = [r for r in traced["runs"][workload] if r["seed"] == DEFAULT_SEED]
        for name in ("shatter.tuples", "cli.output_bytes"):
            values = [r["metrics"][name]["value"] for r in again]
            check(f"traced {workload} seed {DEFAULT_SEED}: {name} repeats exactly",
                  len(values) > 1 and len(set(values)) == 1, values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--stages", nargs="+", choices=STAGES, default=list(STAGES))
    ap.add_argument("--workloads", nargs="+", default=["construct", "certify", "sweep"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {
        "about": "Baseline of the ffsalem benchmark, written by `python3 bench/baseline.py --out "
                 "bench/BASELINE.json`. Each run is one fresh `python3 bench/run.py --seconds "
                 "run_seconds` process; a run's wall_s and cpu_s are means over its passes and its "
                 "setup_s a median over its set-up samples, each time scaled by its speed factor "
                 "(bench/probe.py). For every stage, "
                 "workload and metric, summary gives the median, quartiles (statistics.quantiles, n=4) "
                 "and spread (Q3 - Q1) / median over the stage's runs.",
        "machine": None,
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "bounds": bounds,
        "stages": {},
        "checks": [],
    }
    for stage in (s for s in STAGES if s in args.stages):
        trace, seeds = stage_plan(stage, args)
        data = record["stages"][stage] = {"trace": trace, "seeds": seeds, "summary": {}, "runs": {}}
        for workload in args.workloads:
            runs = data["runs"][workload] = []
            for seed in seeds:
                run, machine = run_once(workload, seed, trace, seconds)
                record["machine"] = record["machine"] or machine
                runs.append(run)
                shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items())
                print(f"{stage} {workload} seed={seed} correct={run['correct']} {shown}", flush=True)
            summary = data["summary"][workload] = {}
            for name in runs[0]["metrics"]:
                stats = summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
                print(f"  {stage} {workload} {name}: median {stats['median']:.6g} "
                      f"[{stats['q1']:.6g}, {stats['q3']:.6g}] spread {stats['spread'] or 0:.4f}", flush=True)
        record["checks"] = checks(record["stages"], bounds)
        if args.out is not None:
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    for c in record["checks"]:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    return 0 if all(c["ok"] for c in record["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
