"""Frontier runs: commands at the edge of what ffsalem answers, each with its
expected exit code, its answer and a bound on its peak resident set.

    python .github/frontier.py          # ffsalem installed
    PYTHONPATH=src python3 .github/frontier.py   # from a checkout

Each row runs as its own child process.  Its peak RSS is the child's own
ru_maxrss, read by os.wait4 (RUSAGE_CHILDREN would keep the largest peak of
every child so far).  Linux starts that figure at this script's resident
size when the child execs, about 15 MiB, below every row's own peak.  One
line is printed per row; the exit status is 1 when any row fails.  Rows that named the `ffsalem` console script run it when it is
installed and `python -m ffsalem.cli` otherwise.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

MODULE = (sys.executable, "-m", "ffsalem.cli")
SCRIPT = (shutil.which("ffsalem"),) if shutil.which("ffsalem") else MODULE
TIME_LIMIT_S = 120  # a hung row fails here, well inside the CI job's limit
MiB = 1024  # KiB


def result(out: str) -> dict:
    return json.loads(out)["result"]


@dataclass(frozen=True)
class Row:
    argv: tuple
    code: int
    answer: Callable[[str], bool]  # on the child's stdout
    kib: int | None  # peak RSS must stay below this; None for no bound
    note: str


ROWS = [
    Row(
        (*MODULE, "vc", "-p", "211", "--curve", "circle:1", "--format", "json"),
        0, lambda out: result(out)["lower"] == result(out)["exact"] == 3, 450 * MiB,
        "one walk over one neighborhood table: circle VC = 3 at the guard's largest "
        "prime peaks near one table (288 MiB), not three (799 MiB)",
    ),
    Row(
        (*MODULE, "shatter", "-p", "2039", "--curve", "circle:1", "-k", "4",
         "--strategy", "random", "--seed", "1", "--format", "json"),
        1, lambda out: json.loads(out)["status"] == "BUDGET EXHAUSTED"
        and result(out)["tuples_examined"] == 10000, 200 * MiB,
        "counting refutes circle k = 4 (m_2 = 2) before the neighborhood table, so the "
        "largest prime answers without one (2039^4 bits would be about 2 TiB)",
    ),
    Row(
        (*MODULE, "construct3", "-p", "2039", "--curve", "circle:1", "--format", "json"),
        0, lambda out: json.loads(out)["status"] == "FOUND"
        and len(result(out)["witness"]["points"]) == 3, 200 * MiB,
        "construct3's rhombus stage works on the curve's points, so the largest prime "
        "finds a 3-shattered tuple within a few q^d bool tables (~110 MiB)",
    ),
    Row(
        (*MODULE, "curve", "-p", "2039", "--curve", "conic:1,1,3,2,5,7", "--format", "text"),
        0, lambda out: out.splitlines()[0] == "2039 2" and len(out.splitlines()[1:]) == 2038,
        50 * MiB,
        "every curve is solved for x_d line by line, so a conic at the largest prime "
        "builds no q^d integer table (about 69 MiB peak RSS with one, 37 without)",
    ),
    Row(
        (*SCRIPT, "edge-count", "-p", "2039", "--curve", "circle:1", "--sample", "20000",
         "--seed", "1", "--format", "json"),
        0, lambda out: result(out)["nu"] == 195906, 120 * MiB,
        "edge counts gather E's membership at x + u for x in E and S's shifts u, so a "
        "20 000-point sample at the largest prime holds no complex q^d table (about "
        "192 MiB peak RSS with the FFT autocorrelation, 75 MiB without)",
    ),
    Row(
        (*SCRIPT, "intersect-profile", "-p", "2039", "--curve", "circle:1", "--format", "json"),
        0, lambda out: result(out)["max"] == 2 and result(out)["at_zero"] == 2040
        and result(out)["histogram"] == {"0": 2076720, "1": 2040, "2": 2078760}, 130 * MiB,
        "a circle's overlaps at the largest prime list its |S|^2 ~ q^d pairs in blocks "
        "of q^d (about 97 MiB peak RSS)",
    ),
    Row(
        (*SCRIPT, "intersect-profile", "-p", "101", "-d", "3", "--curve", "circle:1",
         "--format", "json"),
        0, lambda out: result(out)["max"] == 202 and result(out)["at_zero"] == 10302
        and result(out)["histogram"] == {"100": 504798, "102": 505000, "201": 10302, "202": 10200},
        100 * MiB,
        "a sphere in F_101^3 has about p^2 points, too many pairs, so its overlaps take "
        "one transform |S^|^2 (about 68 MiB)",
    ),
    Row(
        (*SCRIPT, "salem-check", "-p", "2039", "--curve", "sym-parabola", "--format", "json"),
        0, lambda out: result(out)["pass"] is True
        and result(out)["max_nontrivial"] == 2.19626873925e-05, 84 * MiB,
        "the Salem maximum transforms each distinct x_1 line once: sym-parabola's lines "
        "pair off as y and -y (110 MiB peak RSS with one transform per held line, 78 MiB "
        "with one per distinct line and 4 MiB slabs, 70 MiB with 1 MiB slabs)",
    ),
    Row(
        (*SCRIPT, "salem-check", "-p", "157", "-d", "3", "--curve", "circle:1", "--format", "json"),
        0, lambda out: result(out)["pass"] is True
        and result(out)["max_nontrivial"] == 8.11229505248e-05, 45 * MiB,
        "a sphere in F_p^3 has about p distinct lines among its p^2/2 held ones (76 MiB "
        "peak RSS with one transform per held line, 46 MiB with one per distinct line "
        "and 4 MiB slabs, 38 MiB with 1 MiB slabs)",
    ),
    Row(
        (*SCRIPT, "salem-check", "-p", "2039", "--curve", "paraboloid", "--format", "json"),
        0, lambda out: result(out)["pass"] is True
        and result(out)["max_nontrivial"] == 1.08611087279e-05, 84 * MiB,
        "the paraboloid's maximum is exactly p^(-(d+1)/2), here 2039^(-3/2), and ties at "
        "almost every frequency, so the near-maximal rescale keeps nearly every cell of "
        "each slab (69 MiB; 78 MiB with 4 MiB slabs)",
    ),
    Row(
        (*SCRIPT, "random-trials", "-p", "31", "--size", "31", "--trials", "20000",
         "--seed", "1", "--format", "json"),
        0, lambda out: result(out)["trials"] == len(result(out)["phi_values"])
        == len(result(out)["omega_values"]) == 20000 and result(out)["skipped"] == 0,
        60 * MiB,
        "Monte Carlo trials run in stacks of max(1, 2^14 // q^d) sets, so memory follows "
        "the stack, not the trial count: 20 000 trials over F_31^2 peak near 47 MiB RSS "
        "(38 MiB at 500 trials; the difference is the per-trial lists and their JSON) in "
        "about 3 s on 2 vCPUs",
    ),
    Row(
        (*SCRIPT, "random-trials", "-p", "2039", "--size", "2078760", "--trials", "1",
         "--seed", "1", "--format", "json"),
        0, lambda out: result(out)["phi_values"] == [4137.19266134]
        and result(out)["omega_values"] == [1041986] and result(out)["skipped"] == 0,
        192 * MiB,
        "a dense set at the cap reads Omega from the Salem pass's |S^|^2, one inverse "
        "transform in place of a forward and an inverse one, and the sample turns its "
        "2 078 760 jumps into Python ints 2^16 at a time: 153 MiB peak RSS, set by the "
        "Salem pass (163 MiB when all the jumps were ints at once), in about 2 s on 2 vCPUs",
    ),
    Row(
        (*MODULE, "shatter", "-p", "17", "--curve", "circle:1", "-k", "4", "--format", "json"),
        0, lambda out: json.loads(out)["status"] == "NOT SHATTERABLE"
        and result(out)["tuples_examined"] == 11045529, None,
        "a complete walk over a full N(x) table, built by rotating one row per line "
        "class: circle k = 4 at p = 17 is refuted by enumeration",
    ),
    Row(
        (*MODULE, "vc", "-p", "41", "--curve", "sym-parabola", "--k-max", "5", "--format", "json"),
        0, lambda out: result(out)["lower"] == result(out)["exact"] == 4, None,
        "the walk tries only the points that can split its smallest region and counts "
        "the ones it skips, so answers and tuple counts stay as pinned",
    ),
    Row(
        (*SCRIPT, "reproduce", "weil-suite", "-p", "1123", "--format", "json"),
        0, lambda out: json.loads(out)["status"] == "PASS" and result(out)["gauss_failures"] == []
        and result(out)["weil_failures"] == [] and result(out)["kloosterman_max"] == 66.5415883197,
        None,
        "one Kloosterman sum per class ab and one Weil sum per (n, a), with every pair "
        "summed only inside the rounding margin, so the cap prime answers in about 0.1 s "
        "(13-15 s when every pair was summed) with the same values",
    ),
]


def run(row: Row) -> tuple[int, str, int, float]:
    """(exit code, stdout, peak RSS in KiB, seconds) of one child; a child past
    TIME_LIMIT_S is killed."""
    start = time.monotonic()
    with tempfile.TemporaryFile() as out:
        child = subprocess.Popen(row.argv, stdout=out)
        while not (reaped := os.wait4(child.pid, os.WNOHANG))[0]:
            if time.monotonic() - start > TIME_LIMIT_S:
                child.kill()
            time.sleep(0.02)
        _, status, usage = reaped
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        return child.returncode, out.read().decode(), usage.ru_maxrss, time.monotonic() - start


def main() -> int:
    failed = 0
    for row in ROWS:
        code, out, kib, seconds = run(row)
        try:
            answered = bool(row.answer(out))
        except (ValueError, KeyError, IndexError, TypeError):
            answered = False
        ok = code == row.code and answered and (row.kib is None or kib < row.kib)
        failed += not ok
        bound = "no bound" if row.kib is None else f"bound {row.kib} KiB"
        command = shlex.join([os.path.basename(row.argv[0]), *row.argv[1:]])
        print(
            f"{'ok  ' if ok else 'FAIL'} {command}: exit {code} (want {row.code}), "
            f"answer {'right' if answered else 'WRONG'}, peak {kib} KiB ({bound}), {seconds:.1f} s",
            flush=True,
        )
        if not ok:
            print(f"     why the row holds: {row.note}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} frontier rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
