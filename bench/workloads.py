"""Job lists of the benchmark workloads and the checks on their answers.

A job is one `ffsalem` CLI invocation (argv without `--format json`, which
the runner appends) plus a check on its answer.  An answer is the JSON
`result` with timing fields removed, the `status` and the exit code.  The
checks recompute what they can with plain Python or plain numpy, never
through the library: point sets from their defining equations, every
shattering witness cell by cell, edge counts by direct lookup, and the
seeded trial streams.

Every seeded parameter is drawn from `random.Random(f"{workload}:{seed}")`,
so a workload seed fixes the whole job list and the library sees only argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIZES = ("full", "smoke")


class CheckFailed(Exception):
    """An answer differs from what the job must produce."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable[[dict], None]


# -- plain-Python point sets ------------------------------------------------------


def circle_points(p: int, t: int) -> frozenset:
    roots: dict = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return frozenset((x, y) for x in range(p) for y in roots.get((t - x * x) % p, ()))


def conic_points(p: int, a: int, b: int, c: int, f: int) -> frozenset:
    """Zero set of a x^2 + b x y + c y^2 + f."""
    return frozenset(
        (x, y)
        for x in range(p)
        for y in range(p)
        if (a * x * x + b * x * y + c * y * y + f) % p == 0
    )


def sym_parabola_points(p: int) -> frozenset:
    return frozenset((t, t * t % p) for t in range(p)) | frozenset(
        (t, -t * t % p) for t in range(p)
    )


def check_witness(points: list, witnesses: dict, S: frozenset, p: int) -> None:
    """x^i - y_I in S exactly when i in I, for every I in [0, 2^k)."""
    xs = [tuple(x) for x in points]
    ys = {int(m): tuple(y) for m, y in witnesses.items()}
    _require(len(set(xs)) == len(xs), f"witness points repeat: {xs}")
    _require(sorted(ys) == list(range(1 << len(xs))), "witness misses a subset")
    for mask, y in ys.items():
        for i, x in enumerate(xs):
            inside = ((x[0] - y[0]) % p, (x[1] - y[1]) % p) in S
            _require(inside == bool(mask >> i & 1), f"witness fails at I={mask:b}, x^{i + 1}")


def sample_indices(p: int, size: int, seed: int) -> list:
    """The uniform sample `edge-count --sample` draws, by a sparse Fisher-Yates
    over the same Philox stream (the library shuffles a dense index array)."""
    n = p * p
    rng = np.random.Generator(np.random.Philox(seed))
    jumps = rng.integers(0, n - np.arange(size), dtype=np.int64)
    moved: dict = {}
    for i in range(size):
        j = i + int(jumps[i])
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(i, i) for i in range(size)]


def edge_count_nu(p: int, E: list, S: frozenset) -> int:
    """|{(x, y) in E x E : x - y in S}| as a sum over s in S of |E cap (E + s)|."""
    idx = np.asarray(E, dtype=np.int64)
    ex, ey = idx % p, idx // p
    member = np.zeros(p * p, dtype=bool)
    member[idx] = True
    nu = 0
    for sx, sy in S:
        nu += int(member[(ex - sx) % p + p * ((ey - sy) % p)].sum())
    return nu


# -- answer checks ------------------------------------------------------------------


def _expect(answer: dict, status, code: int) -> dict:
    _require(answer["exit"] == code, f"exit code {answer['exit']}, expected {code}")
    _require(answer["status"] == status, f"status {answer['status']!r}, expected {status!r}")
    return answer["result"]


def _found(S: frozenset, p: int, k: int, tuples: int | None = None):
    def check(answer: dict) -> None:
        res = _expect(answer, "FOUND", 0)
        w = res["witness"]
        _require(w["k"] == k and len(w["points"]) == k, f"witness is not a {k}-tuple")
        check_witness(w["points"], w["witnesses"], S, p)
        if tuples is not None:
            _require(res["tuples_examined"] == tuples, f"{res['tuples_examined']} tuples, pinned {tuples}")

    return check


def _budget_spent(budget: int):
    def check(answer: dict) -> None:
        res = _expect(answer, "BUDGET EXHAUSTED", 1)
        _require(res["tuples_examined"] == budget, "random search stopped short of its budget")

    return check


def _vc_exact(exact: int):
    def check(answer: dict) -> None:
        res = _expect(answer, None, 0)
        _require(res["lower"] == exact and res["exact"] == exact, f"vc {res}, expected exact {exact}")

    return check


def _salem_pass(size: int):
    def check(answer: dict) -> None:
        res = _expect(answer, "PASS", 0)
        _require(res["pass"] is True and res["set_size"] == size, f"salem {res}")

    return check


def _edge_count(p: int, S: frozenset, size: int, seed: int):
    def check(answer: dict) -> None:
        res = _expect(answer, None, 0)
        _require(res["set_size"] == size, "sample size differs")
        nu = edge_count_nu(p, sample_indices(p, size, seed), S)
        _require(res["nu"] == nu, f"nu = {res['nu']}, direct count {nu}")

    return check


def _trials(p: int, size: int, trials: int, seed: int, epsilon=0.5, beta=0.45):
    def check(answer: dict) -> None:
        res = _expect(answer, None, 0)
        _require(res["trials"] == trials and res["skipped"] == 0, "trial count differs")
        seeds = [
            int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])
            for i in range(trials)
        ]
        _require(res["trial_seeds"] == seeds, "derived trial seeds differ")
        phis, omegas = res["phi_values"], res["omega_values"]
        _require(len(phis) == trials and len(omegas) == trials, "per-trial lists are short")
        n = p * p
        m = min(size, n - size)
        bound = 2.0 * math.sqrt(2.0 * (1.0 + epsilon) * m * math.log(n))
        _require(res["pass_fraction"] == sum(f < bound for f in phis) / trials, "pass_fraction")
        exceed = sum(w > p**beta for w in omegas) / trials
        _require(res["omega_exceed_fraction"] == exceed, "omega_exceed_fraction")

    return check


def _preset(extra: Callable[[dict], None] | None = None):
    def check(answer: dict) -> None:
        res = _expect(answer, "PASS", 0)
        _require(res["pass"] is True, "preset reports pass = false")
        if extra is not None:
            extra(res)

    return check


def _x_tuple(p: int):
    def extra(res: dict) -> None:
        check_witness(res["points"], res["witnesses"], sym_parabola_points(p), p)

    return _preset(extra)


def _census(p: int, count: int):
    def extra(res: dict) -> None:
        hist = {int(k): v for k, v in res["size_histogram"].items()}
        _require(sum(hist.values()) == count, "census histogram does not add up")
        _require(set(hist) <= {p - 1, p, p + 1}, f"conic sizes {sorted(hist)}")
        _require(not (res["bad_point_counts"] or res["bad_salem"] or res["bad_overlap"]), "census lists failures")

    return _preset(extra)


def _weil(p: int):
    def extra(res: dict) -> None:
        _require(not res["gauss_failures"] and not res["weil_failures"], "character-sum failures")
        _require(res["kloosterman_max"] <= res["kloosterman_bound"], "Kloosterman bound")

    return _preset(extra)


# -- job lists ------------------------------------------------------------------------


def _circle(p: int, t: int):
    return f"circle:{t}", circle_points(p, t)


def _symmetric_conic(rng: random.Random, p: int) -> tuple:
    """Smooth conic a x^2 + b xy + c y^2 + f = 0; symmetric, as construct3 needs."""
    while True:
        a, b, c, f = (rng.randrange(p) for _ in range(4))
        if f and (4 * a * c - b * b) % p:
            return f"conic:{a},{b},{c},0,0,{f}", conic_points(p, a, b, c, f)


def _construct(rng: random.Random, smoke: bool) -> list:
    big, mid, cap, sample = (13, 13, 11, 60) if smoke else (1009, 409, 2039, 20_000)
    jobs = []
    for p in sorted({mid, big}):
        desc, S = _circle(p, rng.randrange(1, p))
        jobs.append(Job(("construct3", "-p", str(p), "--curve", desc), _found(S, p, 3)))
    desc, S = _symmetric_conic(rng, mid)
    jobs.append(Job(("construct3", "-p", str(mid), "--curve", desc), _found(S, mid, 3)))
    desc, S = _circle(big, rng.randrange(1, big))
    seed = rng.randrange(2**31)
    jobs.append(Job(
        ("edge-count", "-p", str(big), "--curve", desc, "--sample", str(sample), "--seed", str(seed)),
        _edge_count(big, S, sample, seed),
    ))
    # cap = 3 mod 4, so circles have cap + 1 points and the Weil bound certifies them
    desc, S = _circle(cap, rng.randrange(1, cap))
    jobs.append(Job(("salem-check", "-p", str(cap), "--curve", desc), _salem_pass(cap + 1)))
    return jobs


def _unit_circle_translate(rng: random.Random, p: int) -> str:
    """(x - a)^2 + (y - b)^2 = 1 for a seeded centre (a, b), as a conic descriptor.

    With E = W = the whole plane the region search is translation invariant:
    every translate takes exactly the tuples the unit circle takes, so the
    seed moves the answer's witnesses but not the amount of work."""
    a, b = rng.randrange(p), rng.randrange(p)
    return f"conic:1,0,1,{-2 * a % p},{-2 * b % p},{(a * a + b * b - 1) % p}"


# tuples_examined pinned by tests/test_shatter.py
PINNED_TUPLES = {("sym-parabola", 4, 11): 26539}


def _certify(rng: random.Random, smoke: bool) -> list:
    jobs = []
    # smoke keeps circle:1 at p = 11: the test suite pins its k = 3 and k = 4 counts
    for p in (11,) if smoke else (13, 17):
        desc = "circle:1" if smoke else _unit_circle_translate(rng, p)
        jobs.append(Job(("vc", "-p", str(p), "--curve", desc, "--k-max", "4"), _vc_exact(3)))
    for p in (11,) if smoke else (11, 17):
        S = sym_parabola_points(p)
        jobs.append(Job(
            ("shatter", "-p", str(p), "--curve", "sym-parabola", "-k", "4"),
            _found(S, p, 4, PINNED_TUPLES.get(("sym-parabola", 4, p))),
        ))
    # circles have VC dimension 3, so a random k = 4 search always spends its budget
    p, budget = (13, 500) if smoke else (23, 20_000)
    desc = _unit_circle_translate(rng, p)
    seed = rng.randrange(2**31)
    jobs.append(Job(
        ("shatter", "-p", str(p), "--curve", desc, "-k", "4", "--strategy", "random",
         "--seed", str(seed), "--budget", str(budget)),
        _budget_spent(budget),
    ))
    return jobs


def _sweep(rng: random.Random, smoke: bool) -> list:
    trial_runs = ((11, 30, 5), (7, 7, 20)) if smoke else ((101, 1015, 40), (31, 31, 500))
    jobs = []
    for p, size, trials in trial_runs:
        seed = rng.randrange(2**31)
        jobs.append(Job(
            ("random-trials", "-p", str(p), "--size", str(size), "--trials", str(trials), "--seed", str(seed)),
            _trials(p, size, trials, seed),
        ))
    p, count = (13, 10) if smoke else (101, 200)
    seed = rng.randrange(2**31)
    jobs.append(Job(
        ("reproduce", "conic-census", "-p", str(p), "--count", str(count), "--seed", str(seed)),
        _census(p, count),
    ))
    p = 13 if smoke else 211
    jobs.append(Job(("reproduce", "weil-suite", "-p", str(p)), _weil(p)))
    jobs.append(Job(("reproduce", "f11-table"), _preset()))
    if not smoke:
        for q in (17, 23, 29):
            jobs.append(Job(("reproduce", f"f{q}-x"), _x_tuple(q)))
    return jobs


_BUILDERS = {"construct": _construct, "certify": _certify, "sweep": _sweep}
WORKLOADS = tuple(_BUILDERS)


def job_list(workload: str, seed: int, size: str = "full") -> list:
    """The workload's jobs for one seed; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), size == "smoke")
