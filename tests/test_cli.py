import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ffsalem
from ffsalem import FieldContext, SearchStatus, dump_points, load_points, pointset, sphere
from ffsalem.cli import EXIT_CODES, build_parser, main
from ffsalem.presets import CONIC_CENSUS_MAX_CELLS, WEIL_SUITE_MAX_CELLS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(tmp_path, name, p, d, pts):
    path = tmp_path / name
    lines = [f"{p} {d}"] + [" ".join(str(c) for c in pt) for pt in pts]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_salem_check_pass(capsys):
    code, out, _ = run(capsys, "salem-check", "-p", "7", "--curve", "circle:1")
    assert code == 0
    assert "PASS" in out


def test_salem_check_fail_on_line(capsys, tmp_path):
    # a coordinate line has a constant-magnitude spectrum at 1/p, far over 2 p^(-3/2) * sqrt(p)
    pts = write_points(tmp_path, "line.txt", 11, 2, [(x, 0) for x in range(11)])
    code, out, _ = run(capsys, "salem-check", "--points", pts)
    assert code == 1
    assert "FAIL" in out


def test_salem_check_json_payload(capsys):
    code, out, _ = run(
        capsys, "salem-check", "-p", "7", "--curve", "paraboloid", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert data["config"]["command"] == "salem-check"
    assert data["config"]["dim"] == 2  # -d defaults to 2 for a curve
    assert data["version"]
    assert data["result"]["set_size"] == 7
    assert data["result"]["pass"] is True


def test_missing_source_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["salem-check", "-p", "7"])
    assert exc.value.code == 2
    assert "--curve" in capsys.readouterr().err


def test_both_sources_is_usage_error(capsys, tmp_path):
    pts = write_points(tmp_path, "s.txt", 7, 2, [(0, 0)])
    with pytest.raises(SystemExit) as exc:
        main(["salem-check", "-p", "7", "--curve", "circle:1", "--points", pts])
    assert exc.value.code == 2


def test_bad_descriptor_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["salem-check", "-p", "7", "--curve", "astroid:1"])
    assert exc.value.code == 2


def test_bad_prime_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "-p", "9", "--curve", "paraboloid"])
    assert exc.value.code == 2
    assert "prime" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("dim", [[], ["-d", "3"]], ids=["no-dim", "dim-3"])
def test_point_file_header_sets_the_echoed_dim(capsys, tmp_path, dim):
    pts = write_points(tmp_path, "s.txt", 5, 3, [(1, 2, 3)])
    for prime in ([], ["-p", "5"]):
        code, out, _ = run(capsys, "spectrum", "--points", pts, *dim, *prime, "--format", "json")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["prime"], config["dim"]) == (5, 3)


def test_header_mismatch_is_usage_error(capsys, tmp_path):
    pts = write_points(tmp_path, "s.txt", 7, 2, [(1, 2)])
    with pytest.raises(SystemExit) as exc:
        main(["salem-check", "-p", "11", "--points", pts])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct3", "-p", "11", "--curve", "paraboloid"],
        ["shatter", "-p", "5", "--curve", "circle:1", "-k", "-1"],
        ["vc", "-p", "5", "--curve", "circle:1", "--k-max", "0"],
        ["shatter", "-p", "5", "--curve", "circle:1", "-k", "2", "--budget", "-1"],
        ["reproduce", "weil-suite", "-p", "1129"],
        ["reproduce", "conic-census", "-p", "1129", "--seed", "1"],
        ["vc", "-p", "5", "--curve", "circle:1", "--k-max", "7"],
        ["shatter", "-p", "409", "--curve", "circle:1", "-k", "2"],
        ["vc", "-p", "409", "--curve", "circle:1"],
    ],
    ids=[
        "construct3", "shatter", "vc", "shatter-budget", "weil-suite-cap", "conic-census-cap",
        "vc-k-max-cap", "shatter-table-cap", "vc-table-cap",
    ],
)
def test_library_value_error_is_usage_error(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(ffsalem.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ffsalem.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith(f"ffsalem {argv[0]}: error: ")


# p or d so large that trial division of p, or p**d itself, would run for minutes
HUGE_FIELDS = [("1000000000000000003", "2"), ("4611686018427387847", "2"), ("3", "100000000")]
# {file} stands for a point file whose header is the field
HUGE_FIELD_ARGVS = {
    "spectrum": ["spectrum", "-p", "{p}", "-d", "{d}", "--curve", "circle:1"],
    "points-header": ["spectrum", "--points", "{file}"],
    "classify": ["classify", "-p", "{p}", "-d", "{d}", "--coeffs", "1,0,1,0,0,-1"],
    "random-trials": [
        "random-trials", "-p", "{p}", "-d", "{d}", "--size", "1", "--trials", "1", "--seed", "1",
    ],
    "weil-suite": ["reproduce", "weil-suite", "-p", "{p}"],
    "conic-census": ["reproduce", "conic-census", "-p", "{p}", "--seed", "1"],
}
# main on each argv of a JSON list, one JSON line [exit code, stdout, stderr] apiece
MAIN_PER_ARGV = """
import contextlib, io, json, sys
from ffsalem.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.parametrize("template", HUGE_FIELD_ARGVS.values(), ids=HUGE_FIELD_ARGVS.keys())
def test_huge_field_is_a_usage_error_before_trial_division(tmp_path, template):
    argvs = []
    for p, d in HUGE_FIELDS:
        if d != "2" and template[0] == "reproduce":  # a preset fixes its own d
            continue
        path = tmp_path / f"header-{p}-{d}.txt"
        path.write_text(f"{p} {d}\n")
        argvs.append([a.format(p=p, d=d, file=path) for a in template])
    env = dict(os.environ, PYTHONPATH=str(Path(ffsalem.__file__).parents[1]))
    # a subprocess, so that a hang fails the test at its timeout
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_PER_ARGV, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.stderr == ""
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == len(argvs)
    for code, out, err in runs:
        assert (code, out) == (2, "")
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"ffsalem {template[0]}: error: ")
        assert err.endswith(" exceeds the dense-table cap 4194304\n")


# {c7}, {c11} and {empty} stand for point files the test writes, {missing} for one it does not
HANDLER_USAGE_ERRORS = {
    "no-prime": ["spectrum", "--curve", "circle:1"],
    "no-source": ["salem-check", "-p", "7"],
    "curve-and-points": ["salem-check", "-p", "7", "--curve", "circle:1", "--points", "{c7}"],
    "points-unreadable": ["spectrum", "--points", "{missing}"],
    "points-header-mismatch": ["spectrum", "-p", "11", "--points", "{c7}"],
    "points-dim-mismatch": ["salem-check", "-d", "3", "--points", "{c7}"],
    "coeffs-count": ["classify", "-p", "7", "--coeffs", "1,2"],
    "sym-parabola-arg": ["spectrum", "-p", "7", "--curve", "sym-parabola:9"],
    "paraboloid-arg": ["salem-check", "-p", "7", "--curve", "paraboloid:junk"],
    "set-unreadable": ["edge-count", "-p", "7", "--curve", "circle:1", "--set", "{missing}"],
    "set-context": ["edge-count", "-p", "7", "--curve", "circle:1", "--set", "{c11}"],
    "sample-no-seed": ["edge-count", "-p", "11", "--curve", "circle:1", "--sample", "20"],
    "no-counted-set": ["edge-count", "-p", "7", "--curve", "circle:1"],
    "empty-counted-set": ["edge-count", "-p", "7", "--curve", "circle:1", "--set", "{empty}"],
    # counting refutes k = 1 for the empty set, so no search checks the budget
    "vc-negative-budget": ["vc", "--points", "{empty}", "--budget", "-1"],
    "random-no-seed": ["shatter", "-p", "5", "--curve", "circle:1", "-k", "1", "--strategy", "random"],
    "size-range": ["random-trials", "-p", "3", "--size", "10", "--trials", "1", "--seed", "1"],
    "trials-zero": ["random-trials", "-p", "3", "--size", "1", "--trials", "0", "--seed", "1"],
    "negative-seed": ["random-trials", "-p", "5", "--size", "3", "--trials", "1", "--seed", "-1"],
    "preset-flag-missing": ["reproduce", "conic-census", "--seed", "1"],
    "count-zero": ["reproduce", "conic-census", "-p", "7", "--seed", "1", "--count", "0"],
}


@pytest.mark.parametrize("argv", HANDLER_USAGE_ERRORS.values(), ids=HANDLER_USAGE_ERRORS.keys())
def test_handler_usage_error_is_one_line_naming_the_subcommand(capsys, tmp_path, argv):
    files = {
        "{c7}": write_points(tmp_path, "c7.txt", 7, 2, [(1, 0), (6, 0), (0, 1), (0, 6)]),
        "{c11}": write_points(tmp_path, "c11.txt", 11, 2, [(1, 0), (10, 0)]),
        "{empty}": write_points(tmp_path, "empty.txt", 7, 2, []),
        "{missing}": str(tmp_path / "missing.txt"),
    }
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"ffsalem {argv[0]}: error: ")


@pytest.mark.parametrize(
    "argv,status,code",
    [
        (["salem-check", "-p", "7", "--curve", "circle:1"], "PASS", 0),
        (["salem-check", "--points", "{line}"], "FAIL", 1),
        (["shatter", "-p", "5", "--curve", "circle:1", "-k", "2"], "FOUND", 0),
        (["shatter", "-p", "11", "--curve", "paraboloid", "-k", "3"], "NOT SHATTERABLE", 0),
        (["construct3", "-p", "5", "--curve", "circle:1"], "NOT FOUND", 1),
        (["shatter", "-p", "11", "--curve", "sym-parabola", "-k", "4", "--budget", "100"],
         "BUDGET EXHAUSTED", 1),
        (["reproduce", "f11-table"], "PASS", 0),
        (["spectrum", "-p", "5", "--curve", "circle:1"], None, 0),
    ],
    ids=["pass", "fail", "found", "not-shatterable", "not-found", "budget-exhausted",
         "preset-pass", "no-status"],
)
def test_exit_code_follows_from_status(capsys, tmp_path, argv, status, code):
    line = write_points(tmp_path, "line.txt", 11, 2, [(x, 0) for x in range(11)])
    argv = [line if a == "{line}" else a for a in argv]
    got, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out).get("status") == status
    assert got == code


# one run per status word a search or a check prints, {line} a point file the test writes
STATUS_RUNS = [
    ["shatter", "-p", "5", "--curve", "circle:1", "-k", "2"],
    ["shatter", "-p", "11", "--curve", "paraboloid", "-k", "3"],
    ["shatter", "-p", "11", "--curve", "sym-parabola", "-k", "4", "--budget", "100"],
    ["construct3", "-p", "11", "--curve", "circle:1"],
    ["construct3", "-p", "5", "--curve", "circle:1"],
    ["salem-check", "-p", "7", "--curve", "circle:1"],
    ["salem-check", "--points", "{line}"],
]


def test_status_words_are_the_search_statuses_and_the_exit_codes(capsys, tmp_path):
    line = write_points(tmp_path, "line.txt", 11, 2, [(x, 0) for x in range(11)])
    codes, searched = {}, set()
    for argv in STATUS_RUNS:
        code, out, err = run(capsys, *[line if a == "{line}" else a for a in argv])
        word = out.splitlines()[0]
        assert codes.setdefault(word, code) == code
        if argv[0] in ("shatter", "construct3"):
            searched.add(word)
        # only a spent budget explains itself, on one stderr line
        reason = "BUDGET EXHAUSTED: 100 tuples examined, budget 100\n"
        assert err == (reason if word == "BUDGET EXHAUSTED" else "")
    assert searched == {status.value for status in SearchStatus}
    assert {word for word, code in codes.items() if code == 1} == set(EXIT_CODES)
    assert {code for word, code in codes.items() if word not in EXIT_CODES} == {0}


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "-p", "5", "--curve", "circle:1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert "max_nontrivial" in keys


@pytest.mark.parametrize(
    "argv,cells",
    [
        # 67^3 = 300 763 cells: the default slab streams it
        (("salem-check", "-p", "67", "-d", "3", "--curve", "circle:1"), None),
        (("spectrum", "-p", "67", "-d", "3", "--curve", "circle:2"), None),
        (("spectrum", "-p", "31", "--curve", "sym-parabola"), 100),
        (("reproduce", "conic-census", "-p", "31", "--count", "20", "--seed", "4"), 100),
    ],
)
def test_streamed_spectrum_answers_are_the_table_answers(capsys, monkeypatch, argv, cells):
    def answer(slab_cells):
        monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", slab_cells)
        code, out, _ = run(capsys, *argv, "--format", "json")
        data = json.loads(out)
        return code, data.get("status"), data["result"]

    streamed = answer(cells or pointset.SPECTRUM_SLAB_CELLS)
    assert streamed == answer(1 << 30)  # one slab holds the whole table


def test_curve_text_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "curve", "-p", "7", "--curve", "circle:2")
    assert code == 0
    path = tmp_path / "curve.txt"
    path.write_text(out)
    S = load_points(path)
    assert S == sphere(FieldContext(7, 2), 2).points


def test_curve_json_parameters_carry_values(capsys):
    code, out, _ = run(capsys, "curve", "-p", "7", "--curve", "circle:2", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["parameters"] == {"t": 2}


def test_classify_smooth_and_degenerate(capsys):
    code, out, _ = run(
        capsys, "classify", "-p", "7", "--coeffs", "1,0,1,0,0,6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["kind"] == "diagonal"
    assert data["result"]["smooth"] is True
    assert data["result"]["zero_set_size"] == 8

    code, out, _ = run(
        capsys, "classify", "-p", "7", "--coeffs", "1,2,1,0,0,6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["kind"] == "degenerate"
    assert data["result"]["smooth"] is False


def test_intersect_profile(capsys):
    code, out, _ = run(
        capsys, "intersect-profile", "-p", "11", "--curve", "sym-parabola", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["max"] <= 6
    assert data["result"]["at_zero"] == 21


def test_edge_count_with_sample(capsys):
    code, out, _ = run(
        capsys,
        "edge-count", "-p", "11", "--curve", "circle:1",
        "--sample", "20", "--seed", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["set_size"] == 20
    assert isinstance(data["result"]["nu"], int)


@pytest.mark.parametrize("flags", [["--sample", "5"], ["--seed", "3"], ["--sample", "5", "--seed", "3"]])
def test_edge_count_set_excludes_sample_and_seed(capsys, tmp_path, flags):
    c7 = write_points(tmp_path, "c7.txt", 7, 2, [(1, 0), (6, 0), (0, 1), (0, 6)])
    with pytest.raises(SystemExit) as exc:
        main(["edge-count", "-p", "7", "--curve", "circle:1", "--set", c7, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ffsalem edge-count: error: --set and --sample/--seed are mutually exclusive\n"
    )


def test_edge_count_sample_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["edge-count", "-p", "11", "--curve", "circle:1", "--sample", "20"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_shatter_found(capsys):
    code, out, _ = run(
        capsys, "shatter", "-p", "5", "--curve", "circle:1", "-k", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "FOUND"
    assert len(data["result"]["witness"]["points"]) == 2


def test_shatter_refuted_exits_zero(capsys):
    code, out, _ = run(capsys, "shatter", "-p", "11", "--curve", "paraboloid", "-k", "3")
    assert code == 0
    assert "NOT SHATTERABLE" in out


def test_shatter_budget_exit_one(capsys):
    code, out, err = run(
        capsys,
        "shatter", "-p", "11", "--curve", "sym-parabola", "-k", "4", "--budget", "100",
    )
    assert code == 1
    assert "BUDGET" in out
    assert err == "BUDGET EXHAUSTED: 100 tuples examined, budget 100\n"


def test_shatter_random_pigeonhole_reason(capsys):
    # 2^4 regions cannot be disjoint and nonempty in the 12 points of the circle
    argv = ["shatter", "-p", "11", "--curve", "circle:1", "-k", "4", "--strategy", "random",
            "--seed", "1", "--witness-domain", "self", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("BUDGET EXHAUSTED: 2^4 > |W| = 12: no 4-tuple can be shattered")
    assert err.count("\n") == 1
    data = json.loads(out)
    assert data["status"] == "BUDGET EXHAUSTED"
    assert data["result"]["tuples_examined"] == 10_000
    assert set(data["result"]) == {"set", "k", "strategy", "tuples_examined", "search_seconds"}


def test_shatter_zero_budget_examines_nothing(capsys):
    code, out, _ = run(
        capsys, "shatter", "-p", "11", "--curve", "sym-parabola", "-k", "4", "--budget", "0"
    )
    assert code == 1
    assert "BUDGET EXHAUSTED" in out
    assert "tuples_examined = 0" in out


def test_shatter_random_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shatter", "-p", "5", "--curve", "circle:1", "-k", "1", "--strategy", "random"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_shatter_witness_domain_self(capsys):
    code, out, _ = run(
        capsys,
        "shatter", "-p", "11", "--curve", "circle:1", "-k", "1",
        "--witness-domain", "self", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "FOUND"


def test_construct3_found(capsys):
    code, out, _ = run(capsys, "construct3", "-p", "11", "--curve", "circle:1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "FOUND"
    assert data["result"]["witness"]["k"] == 3


def test_vc_circle(capsys):
    code, out, _ = run(capsys, "vc", "-p", "11", "--curve", "circle:1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["lower"] == 3
    assert data["result"]["exact"] == 3


def test_vc_budget_keeps_the_certified_lower_bound(capsys):
    code, out, err = run(
        capsys, "vc", "-p", "7", "--curve", "circle:1", "--k-max", "4", "--budget", "50",
        "--format", "json",
    )
    assert code == 1
    assert err == "BUDGET EXHAUSTED: k = 3: 50 tuples examined, budget 50\n"
    data = json.loads(out)
    assert data["status"] == "BUDGET EXHAUSTED"
    assert data["result"] == {"set": "circle:1", "lower": 2, "exact": None}


@pytest.mark.parametrize(
    "fmt, rows",
    [
        ("text", "BUDGET EXHAUSTED\nset = circle:1\nlower = 2\nexact = null\n"),
        ("csv", "key,value\nstatus,BUDGET EXHAUSTED\nset,circle:1\nlower,2\nexact,null\n"),
    ],
)
def test_null_prints_as_null_in_text_and_csv(capsys, fmt, rows):
    code, out, _ = run(
        capsys, "vc", "-p", "7", "--curve", "circle:1", "--k-max", "4", "--budget", "50",
        "--format", fmt,
    )
    assert code == 1
    assert out == rows


def test_csv_quotes_fields_that_hold_commas(capsys):
    conic = "conic:1,0,1,0,0,4"  # x^2 + y^2 = 1 over F_5
    code, out, _ = run(capsys, "shatter", "-p", "5", "--curve", conic, "-k", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    assert dict(rows)["status"] == "FOUND" and dict(rows)["set"] == conic
    _, out, _ = run(capsys, "curve", "-p", "5", "--curve", conic, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    _, text, _ = run(capsys, "curve", "-p", "5", "--curve", conic, "--format", "json")
    assert json.loads(dict(rows)["points"]) == json.loads(text)["result"]["points"]


def test_vc_certifies_circle_p31(capsys):
    code, out, _ = run(
        capsys, "vc", "-p", "31", "--curve", "circle:1", "--k-max", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["result"]["lower"], data["result"]["exact"]) == (3, 3)


def test_neighborhood_table_guard_names_the_point_file(capsys, tmp_path):
    path = tmp_path / "circle409.txt"
    with path.open("w") as fh:
        dump_points(sphere(FieldContext(409, 2), 1).points, fh)
    with pytest.raises(SystemExit) as exc:
        main(["shatter", "--points", str(path), "-k", "2", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("ffsalem shatter: error: neighborhood table needs")


def test_counted_out_random_search_answers_past_the_table_guard(capsys):
    # m_2 = 2 refutes k = 4 before any table is needed, at the largest prime
    code, out, err = run(
        capsys, "shatter", "-p", "2039", "--curve", "circle:1", "-k", "4",
        "--strategy", "random", "--seed", "1", "--format", "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "BUDGET EXHAUSTED"
    assert data["result"]["tuples_examined"] == 10000
    assert "m_2 = 2" in err


FUZZ_CURVES = [
    "circle:1", "circle:0", "circle:-3", "circle:", "circle:x", "sym-parabola",
    "paraboloid", "polygraph:0,0,1", "polygraph:1", "polygraph:", "conic:1,0,1,0,0,-1",
    "conic:1,2", "conic:0,0,0,0,0,1", "hyperbola", "", ":", "CIRCLE:2",
]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["shatter", "vc"]))
    # half the draws are well-formed problems, so the searches themselves run
    primes, curves = st.sampled_from([5, 7, 11, 13]), st.sampled_from(["circle:1", "sym-parabola"])
    argv = [command, "-p", str(draw(primes | st.integers(-3, 15)))]
    argv += ["--curve", draw(curves | st.sampled_from(FUZZ_CURVES))]
    if command == "shatter":
        argv += ["-k", str(draw(st.integers(-2, 6)))]
        argv += ["--strategy", draw(st.sampled_from(["exhaustive", "random"]))]
        argv += ["--witness-domain", draw(st.sampled_from(["full", "self"]))]
        seed = draw(st.none() | st.integers(0, 2**31))
        if seed is not None:
            argv += ["--seed", str(seed)]
    else:
        argv += ["--k-max", str(draw(st.integers(-1, 7)))]
    argv += ["--budget", str(draw(st.integers(-5, 10**5)))]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


# 2^k > |W| for the circle's 4 (p = 5) and 12 (p = 11) points: the random
# search ends at once with the pigeonhole reason
@example(["shatter", "-p", "5", "--curve", "circle:1", "-k", "6", "--strategy", "random",
          "--seed", "3", "--witness-domain", "self", "--budget", "100000"])
@example(["shatter", "-p", "11", "--curve", "circle:1", "-k", "5", "--strategy", "random",
          "--seed", "0", "--witness-domain", "self", "--budget", "99999", "--format", "csv"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_argv_fuzz_shatter_vc(argv):
    code, err = assert_clean_exit(argv)
    if code == 1:  # an exhausted budget, with its reason on one stderr line
        assert err.startswith("BUDGET EXHAUSTED: ") and err.count("\n") == 1, (argv, err)


# the least prime whose weil-suite sweep is above WEIL_SUITE_MAX_CELLS
ABOVE_WEIL_CAP = 1129
FUZZ_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.floats(-2, 2)


@st.composite
def reproduce_or_trials_argv(draw):
    p_values = st.integers(-3, 40)
    if draw(st.booleans()):
        argv = ["reproduce", draw(st.sampled_from(
            ["f11-table", "f17-x", "f23-x", "f29-x", "conic-census", "weil-suite"]
        ))]
        optional = (
            ("-p", p_values | st.just(ABOVE_WEIL_CAP)),
            ("--count", st.integers(-2, 30)),
            ("--seed", st.integers(-5, 2**31)),
        )
        for flag, values in optional:
            if draw(st.booleans()):
                argv += [flag, str(draw(values))]
    else:
        # weighted towards primes, so valid runs reach monte_carlo
        argv = ["random-trials", "-p", str(draw(st.sampled_from([3, 5, 7, 37]) | p_values))]
        argv += ["--size", str(draw(st.integers(-2, 30) | st.integers(-5, 1700)))]
        argv += ["--trials", str(draw(st.integers(-2, 8)))]
        argv += ["--seed", str(draw(st.integers(0, 2**31)))]
        # the = form keeps argparse from reading "-inf" as a flag
        argv += [f"--epsilon={draw(FUZZ_FLOATS)}", f"--beta={draw(FUZZ_FLOATS)}"]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reproduce_or_trials_argv())
def test_argv_fuzz_reproduce_random_trials(argv):
    assert_clean_exit(argv)


FUZZ_COEFFS = [
    "1,0,1,0,0,6", "1,0,1,0,0,-1", "2,1,2,0,0,1", "0,0,1,1,0,0", "0,0,0,0,0,0",
    "1,2", "1,0,1,0,0,6,7", "a,b,c,d,e,f", "", ",,,,,",
]


@st.composite
def field_argv(draw):
    command = draw(st.sampled_from([
        "curve", "classify", "salem-check", "spectrum", "intersect-profile", "edge-count",
        "construct3",
    ]))
    argv = [command]
    # weighted towards valid fields, curves and flags, so valid runs get deep
    present = st.sampled_from([True, True, True, False])
    if draw(present):
        argv += ["-p", str(draw(st.sampled_from([5, 7, 11, 13]) | st.integers(-3, 15)))]
    argv += ["-d", str(draw(st.just(2) | st.integers(-1, 3)))]
    if command == "classify":
        argv += ["--coeffs", draw(st.sampled_from(FUZZ_COEFFS[:4]) | st.sampled_from(FUZZ_COEFFS))]
    else:
        curves = st.sampled_from(["circle:1", "sym-parabola", "paraboloid", "conic:1,1,3,0,0,5"])
        argv += ["--curve", draw(curves | st.sampled_from(FUZZ_CURVES))]
    floats = st.floats(0, 3) | FUZZ_FLOATS
    if command == "salem-check":
        argv += [f"--gamma={draw(floats)}", f"--const={draw(floats)}"]
    if command == "edge-count":
        if draw(present):
            argv += ["--sample", str(draw(st.integers(1, 60) | st.integers(-3, 300)))]
        if draw(present):
            argv += ["--seed", str(draw(st.integers(-5, 2**31)))]
        argv += [f"--gamma={draw(floats)}"]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv


# a --const this small makes the Salem bound underflow to 0.0, and to nan
# when (log p)^gamma overflows
@example(["salem-check", "-p", "5", "--curve", "circle:1", "--const", "5e-324"])
@example(["salem-check", "-p", "5", "--curve", "circle:1", "--const", "5e-324", "--gamma", "1e6"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(field_argv())
def test_argv_fuzz_field_commands(argv):
    assert_clean_exit(argv)


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


FLOAT_FLAG_RUNS = {
    "--gamma": [["salem-check", "-p", "5", "--curve", "circle:1"],
                ["edge-count", "-p", "5", "--curve", "circle:1", "--sample", "5", "--seed", "1"]],
    "--const": [["salem-check", "-p", "5", "--curve", "circle:1"]],
    "--epsilon": [["random-trials", "-p", "5", "--size", "5", "--trials", "3", "--seed", "1"]],
    "--beta": [["random-trials", "-p", "5", "--size", "5", "--trials", "3", "--seed", "1"]],
}


@pytest.mark.parametrize("value", ["inf", "1e308"])
@pytest.mark.parametrize("flag", sorted(FLOAT_FLAG_RUNS))
def test_float_flags_never_print_non_finite_json(flag, value):
    # --const inf and --gamma 1e308 (through an overflowing (log p)^gamma)
    # made an infinite bound, and --gamma inf was echoed, as `Infinity`,
    # which strict JSON parsers reject
    for argv in FLOAT_FLAG_RUNS[flag]:
        argv = [*argv, f"{flag}={value}", "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, (argv, err.getvalue())
        else:
            assert code in (0, 1), argv
            json.loads(out.getvalue(), parse_constant=_reject_constant)


@pytest.mark.parametrize("gamma", ["1e308", "1492"])
def test_edge_count_gamma_past_the_float_range_is_a_usage_error(capsys, gamma):
    # (log 5)^gamma overflows, which printed a normalized error of 0.0
    argv = ["edge-count", "-p", "5", "--curve", "circle:1", "--sample", "5", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--gamma", gamma, "--format", "json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.count("\n") == 1 and "leaves the float range" in err


def test_random_trials_deterministic(capsys):
    args = [
        "random-trials", "-p", "11", "--size", "11", "--trials", "10",
        "--seed", "5", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["result"] == b["result"]
    assert a["result"]["generator"] == "philox"


def test_random_trials_threads_is_a_constant_no_flag_sets(capsys):
    # bench/run.py reads .threads for its machine record
    argv = ["random-trials", "-p", "3", "--size", "1", "--trials", "1", "--seed", "0"]
    assert build_parser().parse_args(argv).threads == 1
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["threads"] == 1
    assert list(config)[-3:] == ["beta", "threads", "format"]


SOURCE_KEYS = ["command", "prime", "dim", "curve", "points"]
# the JSON config of one run per subcommand, key for key in order: the flags'
# dests as each subcommand declares them, set_defaults entries, format last
CONFIG_KEYS = {
    "salem-check": (
        ["salem-check", "-p", "7", "--curve", "circle:1"],
        [*SOURCE_KEYS, "gamma", "const", "format"],
    ),
    "spectrum": (["spectrum", "-p", "7", "--curve", "circle:1"], [*SOURCE_KEYS, "format"]),
    "curve": (
        ["curve", "-p", "5", "--curve", "circle:1"],
        ["command", "prime", "dim", "curve", "format"],
    ),
    "classify": (
        ["classify", "-p", "7", "--coeffs", "1,0,1,0,0,6"],
        ["command", "prime", "dim", "coeffs", "format"],
    ),
    "intersect-profile": (
        ["intersect-profile", "-p", "7", "--curve", "circle:1"],
        [*SOURCE_KEYS, "format"],
    ),
    "edge-count": (
        ["edge-count", "-p", "7", "--curve", "circle:1", "--sample", "10", "--seed", "1"],
        [*SOURCE_KEYS, "set", "sample", "seed", "gamma", "format"],
    ),
    "shatter": (
        ["shatter", "-p", "7", "--curve", "circle:1", "-k", "2"],
        [*SOURCE_KEYS, "k", "witness_domain", "strategy", "budget", "seed", "format"],
    ),
    "construct3": (["construct3", "-p", "11", "--curve", "circle:1"], [*SOURCE_KEYS, "format"]),
    "vc": (
        ["vc", "-p", "7", "--curve", "circle:1", "--k-max", "3"],
        [*SOURCE_KEYS, "k_max", "budget", "format"],
    ),
    "random-trials": (
        ["random-trials", "-p", "7", "--size", "10", "--trials", "3", "--seed", "1"],
        ["command", "prime", "dim", "size", "trials", "seed", "epsilon", "beta", "threads",
         "format"],
    ),
    "reproduce-f11-table": (
        ["reproduce", "f11-table"],
        ["command", "preset", "prime", "seed", "count", "format"],
    ),
    "reproduce-conic-census": (
        ["reproduce", "conic-census", "-p", "7", "--seed", "1", "--count", "3"],
        ["command", "preset", "prime", "seed", "count", "format"],
    ),
}


@pytest.mark.parametrize("argv, keys", CONFIG_KEYS.values(), ids=CONFIG_KEYS.keys())
def test_json_config_keys_in_order(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["config"]) == keys


SOURCE_FLAGS = ["-h", "-p", "-d", "--curve", "--points", "--format"]
FIELD_FLAGS = ["-h", "-p", "-d", "--format"]
# each subcommand's options as --help lists them: the shared flags first
HELP_FLAGS = {
    "salem-check": [*SOURCE_FLAGS, "--gamma", "--const"],
    "spectrum": SOURCE_FLAGS,
    "curve": [*FIELD_FLAGS, "--curve"],
    "classify": [*FIELD_FLAGS, "--coeffs"],
    "intersect-profile": SOURCE_FLAGS,
    "edge-count": [*SOURCE_FLAGS, "--set", "--sample", "--seed", "--gamma"],
    "shatter": [*SOURCE_FLAGS, "-k", "--witness-domain", "--strategy", "--budget", "--seed"],
    "construct3": SOURCE_FLAGS,
    "vc": [*SOURCE_FLAGS, "--k-max", "--budget"],
    "random-trials": [*FIELD_FLAGS, "--size", "--trials", "--seed", "--epsilon", "--beta"],
    "reproduce": ["-h", "--format", "-p", "--seed", "--count"],
}


@pytest.mark.parametrize("command, flags", HELP_FLAGS.items(), ids=HELP_FLAGS.keys())
def test_help_lists_each_flag_once(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    # an option's own line is indented two spaces and starts with its first flag
    listed = [
        line.split()[0].rstrip(",")
        for line in options.splitlines()
        if line.startswith("  -") and not line.startswith("   ")
    ]
    assert listed == flags


def test_build_parser_returns_one_parser():
    assert build_parser() is build_parser()


def test_second_main_call_adds_no_argument(capsys, monkeypatch):
    argv = ["spectrum", "-p", "5", "--curve", "circle:1"]
    assert run(capsys, *argv)[0] == 0
    added = []
    original = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    assert run(capsys, *argv)[0] == 0
    assert added == []


def test_reproduce_f11_table(capsys):
    code, out, _ = run(capsys, "reproduce", "f11-table", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert data["result"]["pass"] is True


def test_reproduce_x_tuple(capsys):
    code, out, _ = run(capsys, "reproduce", "f17-x")
    assert code == 0
    assert "PASS" in out


def test_reproduce_census_requires_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "conic-census"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["f11-table", "-p", "11"], "--prime"),
        (["f17-x", "--seed", "3"], "--seed"),
        (["f29-x", "--count", "22"], "--count"),
        (["weil-suite", "-p", "7", "--seed", "3"], "--seed"),
        (["weil-suite", "-p", "7", "--count", "5"], "--count"),
    ],
    ids=["f11-table-prime", "f17-x-seed", "f29-x-count", "weil-suite-seed", "weil-suite-count"],
)
def test_reproduce_rejects_unread_flags(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ffsalem reproduce: error: preset {argv[0]} does not read {flag}")
    assert err.count("\n") == 1


def test_reproduce_census_default_count(capsys):
    argv = ["reproduce", "conic-census", "-p", "5", "--seed", "3", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sum(json.loads(out)["result"]["size_histogram"].values()) == 100


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "--prime is required"),
        # trials run serially: no --threads value is accepted
        (["-p", "7", "--threads", "0"], "unrecognized arguments: --threads 0"),
        (["-p", "7", "--threads", "-1"], "unrecognized arguments: --threads -1"),
        (["-p", "7", "--threads", "2"], "unrecognized arguments: --threads 2"),
    ],
    ids=["no-prime", "threads-0", "threads-negative", "threads-2"],
)
def test_random_trials_field_and_threads_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["random-trials", "--size", "7", "--trials", "2", "--seed", "1", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_reproduce_census_zero_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "conic-census", "-p", "7", "--seed", "1", "--count", "0"])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


def test_reproduce_census_runs(capsys):
    code, out, _ = run(
        capsys,
        "reproduce", "conic-census", "-p", "7", "--seed", "1007",
        "--count", "25", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert sum(data["result"]["size_histogram"].values()) == 25


def test_reproduce_weil_suite(capsys):
    code, out, _ = run(capsys, "reproduce", "weil-suite", "-p", "13", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"


def test_reproduce_weil_suite_cap_is_usage_error_before_allocating(capsys):
    import tracemalloc

    assert 3 * 1123**3 <= WEIL_SUITE_MAX_CELLS < 3 * ABOVE_WEIL_CAP**3
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "weil-suite", "-p", str(ABOVE_WEIL_CAP)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("ffsalem reproduce: error: weil-suite at p = 1129")
    assert err.count("\n") == 1


def test_reproduce_census_cap_is_usage_error_before_the_first_conic(capsys, monkeypatch):
    # the benchmark's census fits; the default count at p = 1129 does not
    assert 101**2 * 200 <= 409**2 * 100 <= CONIC_CENSUS_MAX_CELLS < 1129**2 * 100
    monkeypatch.setattr(ffsalem.presets, "Quadratic", None)  # any draw would fail
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "conic-census", "-p", "1129", "--seed", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("ffsalem reproduce: error: conic-census at p = 1129 with 100 conics")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "-p", "11", "--curve", "circle:1"],
        ["construct3", "-p", "13", "--curve", "circle:1", "--format", "json"],
    ],
    ids=["curve", "construct3"],
)
def test_closed_stdout_exits_quietly(argv):
    # a pipe whose reader is gone before the command starts: every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(ffsalem.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ffsalem.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141
