"""Self-test of the benchmark at its smoke size (p <= 13, a few seconds).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# smoke certify at seed 1: vc on circle:1 over F_11 (k = 1, 2, 3, 4 take
# 1 + 2 + 26 + 704297 tuples), sym-parabola k = 4 over F_11 (26539) and a
# random search that spends its whole budget of 500; tests/test_shatter.py
# pins 26, 704297 and 26539
SMOKE_CERTIFY_TUPLES = 1 + 2 + 26 + 704297 + 26539 + 500


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=["construct", "certify", "sweep"])
def runs(request):
    return request.param, {trace: bench(request.param, trace) for trace in (0, 1)}


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_unit(runs):
    _, by_trace = runs
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = by_trace[trace]
        result = _result(proc)
        lines = proc.stdout.splitlines()
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(ln.startswith(f"{m['name']} = ") and f" {m['unit']} " in ln for ln in lines)


def test_no_failed_jobs(runs):
    _, by_trace = runs
    for proc in by_trace.values():
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert any(ln.startswith("fail_frac = 0 ratio") for ln in proc.stdout.splitlines())


def test_smoke_certify_counts():
    first = _result(bench("certify", 1))["metrics"]
    second = _result(bench("certify", 1))["metrics"]
    assert first["shatter.tuples"]["value"] == SMOKE_CERTIFY_TUPLES
    assert first["analysis.calls"]["value"] == 0
    assert first["trace.missing"]["value"] == 0
    for name in ("shatter.tuples", "cli.output_bytes"):
        assert first[name]["value"] == second[name]["value"]


def test_speed_factor_drops_preempted_samples():
    from probe import PROBE_REF_S, speed

    # nine loops at half the reference speed and one preempted far longer
    assert speed([2 * PROBE_REF_S] * 9 + [50 * PROBE_REF_S]) == pytest.approx(0.5)
    # the mean loop time, not the median, sets the factor
    assert speed([PROBE_REF_S / 2, PROBE_REF_S]) == pytest.approx(4 / 3)


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
