"""ffsalem benchmark: three CLI workloads, timed end to end and per layer.

    python3 bench/run.py --workload construct|certify|sweep --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from a checkout: the library is imported from `src/` next to this
directory, never from an installed copy, and the run fails (exit 2, no
result) when `src/ffsalem` is missing.  Each job is one `ffsalem.cli.main(argv)`
call in this process with stdout captured; jobs run back to back (a closed
loop with one client).  A pass is one run of the workload's job list.

`--trace 0` reports the end-to-end metrics:
  wall_s        mean wall time of a pass, at the reference machine speed
  cpu_s         mean process user+sys CPU time of a pass (all threads), at
                the reference machine speed
  setup_s       median time for a fresh interpreter to import ffsalem.cli
                and build its parser, at the reference machine speed (about
                SETUP_SAMPLES interpreters per run, a few after every pass,
                so they span the whole run)
  peak_rss_mib  peak resident set of this process
Each timed pass and each set-up sample runs under bench/probe.py's speed
probe, and its times are multiplied by the probe's speed factor: the CPU
of a shared VM can switch between a fast and a slow state, and the factor
takes out how much of the pass fell in the slow one.  The raw times and
the factors go to the results file.
`fail_frac` (failed jobs / attempted jobs) is printed too; the final JSON
carries it as `failed` and `attempted`, since a fraction that is 0 whenever
the answers are right cannot carry a relative bound.

`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of bench/spans.py from the traced ones (medians), with
`trace.overhead_frac` = (traced - untraced wall) / untraced.

Before the timed passes the run warms up on the workload's smoke job list.
Every answer is checked: the first pass against the checks in
bench/workloads.py, every later pass against the first pass, and, at the
default seed, every pass against bench/reference.json.  Seed
HELD_OUT_SEED is kept for confirming claims and is not used while tuning.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; a results file with the machine record, every pass
and the answer digests goes to bench/results/.  The digests recorded there
are the answers' own, also when they differ from bench/reference.json, so
after an intended answer change that file is what reference.json is
refreshed from (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe, speed
from spans import PER_LAYER, Tracer
from workloads import SIZES, WORKLOADS, CheckFailed, job_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1017
SETUP_SAMPLES = 12
PASS_PROBE_INTERVAL_S = 0.025
SETUP_PROBE_INTERVAL_S = 0.01

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# answers drop timing fields; cli.output_bytes does not count their digits
_TIMING_KEY = re.compile(r"elapsed|.*_seconds")
_TIMING_TEXT = re.compile(r'"(?:elapsed|\w+_seconds)": ([-+.\w]+)')

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "from probe import SpeedProbe\n"
    "with SpeedProbe(float(sys.argv[3])) as probe:\n"
    "    t = time.perf_counter()\n"
    "    import ffsalem.cli\n"
    "    ffsalem.cli.build_parser()\n"
    "    t = time.perf_counter() - t\n"
    "print(t, *probe.samples)\n"
)


# -- answers ------------------------------------------------------------------------


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if not _TIMING_KEY.fullmatch(k)}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _canonical(obj):
    # 9 significant digits: FFT round-off in the last bits must not move a digest
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(cli, argv) -> dict:
    """One in-process CLI call; the traceback of an escaping exception is kept."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--format", "json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code, err = None, io.StringIO(traceback.format_exc())
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall": time.perf_counter() - start,
    }


def answer_of(raw: dict) -> dict:
    if raw["exit"] is None:
        raise CheckFailed(f"raised: {raw['stderr'].strip().splitlines()[-1]}")
    try:
        payload = json.loads(raw["stdout"])
        result = payload["result"]
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"no JSON result on stdout ({exc}); stderr: {raw['stderr'][-200:]}") from None
    return {"exit": raw["exit"], "status": payload.get("status"), "result": _strip_timing(result)}


def output_bytes(raw: dict) -> int:
    text = raw["stdout"]
    return len(text.encode()) - sum(len(m.group(1)) for m in _TIMING_TEXT.finditer(text))


class Checker:
    """Checks every pass of one job list and counts attempted and failed jobs."""

    def __init__(self, jobs: list, pinned: list | None):
        self.jobs = jobs
        self.pinned = pinned
        self.first: list | None = None
        self.attempted = 0
        self.failures: list = []

    def check(self, raws: list) -> None:
        digests = []
        for i, (job, raw) in enumerate(zip(self.jobs, raws)):
            self.attempted += 1
            d = None
            try:
                answer = answer_of(raw)
                d = digest(answer)
                if self.first is None or self.first[i] is None:
                    job.check(answer)
                elif d != self.first[i]:
                    raise CheckFailed("answer differs from this run's first pass")
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                self._fail(job, f"{type(exc).__name__}: {exc}")
                d = None
            if d is not None and self.pinned is not None and d != self.pinned[i]:
                # the digest is kept: it is what reference.json is refreshed from
                self._fail(job, "answer differs from bench/reference.json")
            digests.append(d)
        if self.first is None:
            self.first = digests

    def _fail(self, job, why: str) -> None:
        self.failures.append(f"{' '.join(job.argv)}: {why}")

    def workload_digest(self) -> str:
        return hashlib.sha256("\n".join(map(str, self.first or [])).encode()).hexdigest()


# -- measurements ---------------------------------------------------------------------


def run_pass(cli, jobs: list) -> tuple:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    raws = [run_job(cli, job.argv) for job in jobs]
    return time.perf_counter() - wall0, time.process_time() - cpu0, raws


def setup_times(n: int) -> list:
    """n fresh interpreters; each gives (raw seconds, speed factor)."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE), str(SETUP_PROBE_INTERVAL_S)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw, *samples = map(float, proc.stdout.split())
        times.append((raw, speed(samples)))
    return times


def machine_record(cli, numpy_version: str) -> dict:
    model = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    threads = cli.build_parser().parse_args(
        ["random-trials", "-p", "3", "--size", "1", "--trials", "1", "--seed", "0"]
    ).threads
    affinity = len(os.sched_getaffinity(0))
    cpus = os.cpu_count()
    return {
        "affinity_cpus": affinity,
        "os_cpu_count": cpus,
        "random_trials_threads": threads,
        "oversubscribed": bool(cpus and cpus > affinity),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def timed_passes(run_one, seconds: float, min_passes: int) -> None:
    """Call run_one(i) until the next pass would overrun `seconds`."""
    start = time.perf_counter()
    walls: list = []
    while True:
        walls.append(run_one(len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return


# -- entry point ----------------------------------------------------------------------


def _pinned(size: str, workload: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text())
    return ref.get(size, {}).get(workload, {}).get("jobs")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ffsalem" / "cli.py").is_file():
        print(f"error: no library sources at {SRC / 'ffsalem'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import ffsalem.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: ffsalem imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    machine = machine_record(cli, numpy.__version__)
    jobs = job_list(args.workload, args.seed, args.size)
    checker = Checker(jobs, _pinned(args.size, args.workload, args.seed))
    warm = job_list(args.workload, args.seed, "smoke")
    warm_checker = Checker(warm, _pinned("smoke", args.workload, args.seed))

    _, _, raws = run_pass(cli, warm)
    warm_checker.check(raws)

    tracer = Tracer() if args.trace else None
    passes: list = []
    setup: list = []
    setup_per_pass = 0

    def run_one(i: int) -> float:
        nonlocal setup_per_pass
        traced = tracer is not None and i % 2 == 1
        # the traced mode compares traced with untraced passes, so neither is probed
        probe = SpeedProbe(PASS_PROBE_INTERVAL_S) if tracer is None else contextlib.nullcontext()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            with probe:
                wall, cpu, raws = run_pass(cli, jobs)
        finally:
            if traced:
                tracer.uninstall()
        record = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "speed": probe.speed() if tracer is None else None,
            "job_walls": [r["wall"] for r in raws],
            "output_bytes": sum(output_bytes(r) for r in raws),
        }
        if traced:
            record["layers"] = tracer.layer_metrics(wall)
        passes.append(record)
        checker.check(raws)
        if tracer is None:
            # import time drifts with the machine within seconds, so the
            # fresh interpreters are spread over the run like the passes
            setup_per_pass = setup_per_pass or max(1, math.ceil(SETUP_SAMPLES * wall / args.seconds))
            setup.extend(setup_times(setup_per_pass))
        return wall

    timed_passes(run_one, args.seconds, 2 if tracer else 1)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [p for p in passes if not p["traced"]]
    if tracer is None:
        # a mean over passes: with the speed factor applied the passes scatter
        # narrowly, and a run holds as few as four of them
        values = {
            "wall_s": statistics.fmean(p["wall_s"] * p["speed"] for p in plain),
            "cpu_s": statistics.fmean(p["cpu_s"] * p["speed"] for p in plain),
            "setup_s": statistics.median(raw * factor for raw, factor in setup),
            "peak_rss_mib": peak_rss_mib,
        }
        samples = {"wall_s": len(plain), "cpu_s": len(plain), "setup_s": len(setup), "peak_rss_mib": 1}
        units = dict(END_TO_END)
    else:
        traced = [p for p in passes if p["traced"]]
        values = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        untraced_wall = statistics.median(p["wall_s"] for p in plain)
        values["cli.output_bytes"] = traced[0]["output_bytes"]
        values["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / untraced_wall - 1
        values["trace.missing"] = len(tracer.missing)
        samples = {k: len(traced) for k in values}
        units = dict(PER_LAYER)
        values = {k: values[k] for k in units}

    failures = warm_checker.failures + checker.failures
    attempted = warm_checker.attempted + checker.attempted
    print(f"# ffsalem benchmark: workload={args.workload} size={args.size} seed={args.seed} trace={args.trace}")
    print(f"# machine: {json.dumps(machine)}")
    if machine["oversubscribed"]:
        print("# warning: os.cpu_count() exceeds the CPUs this process may use; the default pool oversubscribes")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit} (n = {samples[name]})")
    if tracer is None:
        print(f"# unscaled: wall_s = {statistics.fmean(p['wall_s'] for p in plain):.6g} s, "
              f"cpu_s = {statistics.fmean(p['cpu_s'] for p in plain):.6g} s, "
              f"setup_s = {statistics.median(raw for raw, _ in setup):.6g} s; speed factor "
              f"{min(p['speed'] for p in plain):.4g} to {max(p['speed'] for p in plain):.4g} over passes")
    print(f"fail_frac = {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} jobs)")
    print(f"answer_digest = {checker.workload_digest()}")
    if tracer is not None and tracer.missing:
        print(f"# traced names missing from the library: {', '.join(tracer.missing)}")
    for failure in failures:
        print(f"# FAILED {failure}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "args": vars(args),
        "machine": machine,
        "metrics": {k: {"value": values[k], "unit": units[k], "samples": samples[k]} for k in units},
        "setup": [{"raw_s": raw, "speed": factor} for raw, factor in setup],
        "passes": passes,
        "jobs": [" ".join(j.argv) for j in jobs],
        "answer_digests": checker.first,
        "workload_digest": checker.workload_digest(),
        "failures": failures,
        "missing": tracer.missing if tracer else [],
    }, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
