"""Command-line surface: one subcommand per library operation plus presets.

Each handler returns (result, status) and `main` is the one boundary: it
times the handler, emits the envelope and maps the status to the exit code
through EXIT_CODES (FAIL, NOT FOUND and BUDGET EXHAUSTED exit 1; every other
status, and no status, exits 0).  `shatter` and `construct3` print their
outcome's SearchStatus value.  BUDGET EXHAUSTED means only that a search
spent its tuple budget; `shatter` and `vc` then print the reason on one
stderr line, and `vc` reports the largest certified k with exact null.  2 is
for usage errors and 141 (the shell's SIGPIPE code) for a reader of stdout
that went away, as in `| head`.  Every input a handler rejects (the errors.py
ValueError family included, so every up-front cost cap: the neighborhood
table, vc's k_max, the weil-suite and conic-census sweeps and the p^d cap)
ends in one stderr line `ffsalem CMD: error: ...` and exit 2, never a
traceback; argparse's own parse errors print its usage first.  Randomized
paths all require an explicit --seed.  JSON output echoes the full run
configuration with the library version and elapsed wall time; floats print
with 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__, presets
from .analysis import edge_count, intersection_profile
from .curves import Quadratic, classify_quadratic, make_curve, reduce_quadratic
from .field import FieldContext
from .pointset import PointSet, SalemParams, dump_points, load_points, salem_report, spectrum_max
from .randomsets import monte_carlo, sample_subset
from .shatter import (
    Exhaustive,
    RandomSearch,
    SearchStatus,
    ShatterProblem,
    construct_shatter3,
    shatter_search,
    vc_bounds,
)


EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for a process killed by SIGPIPE
# the statuses that exit 1; every other status, and no status, exits 0
EXIT_CODES = {"FAIL": 1, "NOT FOUND": 1, "BUDGET EXHAUSTED": 1}


def _fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round12(obj):
    """Clamp every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _flatten_rows(obj):
    rows = []
    for k, v in obj.items():
        if isinstance(v, dict):
            rows.extend((f"{k}.{sk}", sv) for sk, sv in _flatten_rows(v))
        elif isinstance(v, (list, tuple)):
            rows.append((k, json.dumps(_round12(v))))
        else:
            rows.append((k, _fmt(v)))
    return rows


def _emit(args, result: dict, status: str | None, elapsed: float) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "format")}
    config["format"] = args.format  # last, after set_defaults entries too
    if args.format == "json":
        payload = {
            "config": config,
            "version": __version__,
            "elapsed": elapsed,
            "result": result,
        }
        if status is not None:
            payload["status"] = status
        # strict JSON: a non-finite float is a ValueError, never `Infinity`
        print(json.dumps(_round12(payload), indent=2, allow_nan=False))
    elif args.format == "csv":
        # imported here: at start-up it added 0.7 ms (-X importtime) to every run
        import csv

        # quotes only a field that needs them, such as a list or a conic descriptor
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(("key", "value"))
        if status is not None:
            rows.writerow(("status", status))
        rows.writerows(_flatten_rows(result))
    else:
        if status is not None:
            print(status)
        for k, v in _flatten_rows(result):
            print(f"{k} = {v}")


# -- input resolution -----------------------------------------------------------


def _context(args) -> FieldContext:
    if args.prime is None:
        raise ValueError("--prime is required")
    args.dim = 2 if args.dim is None else args.dim  # the JSON config echoes the d used
    return FieldContext(args.prime, args.dim)


def _resolve_set(args) -> tuple:
    """(context, point set, label) from --curve or --points."""
    curve, path = args.curve, args.points
    if curve and path:
        raise ValueError("--curve and --points are mutually exclusive")
    if path:
        try:
            S = load_points(path)
        except OSError as exc:
            raise ValueError(f"--points: {exc}") from exc
        if args.prime is not None and args.prime != S.context.p:
            raise ValueError(
                f"--prime {args.prime} disagrees with the point file header p = {S.context.p}"
            )
        if args.dim is not None and args.dim != S.context.d:
            raise ValueError(
                f"--dim {args.dim} disagrees with the point file header d = {S.context.d}"
            )
        args.prime, args.dim = S.context.p, S.context.d  # the JSON config echoes the header
        return S.context, S, f"file:{path}"
    if not curve:
        raise ValueError("one of --curve or --points is required")
    ctx = _context(args)
    return ctx, make_curve(ctx, curve).points, curve


def _budget(args) -> dict:
    """--budget as a keyword argument, only when given: each search states its own default."""
    return {} if args.budget is None else {"budget": args.budget}


# -- subcommand handlers -----------------------------------------------------------
#
# Each handler takes the parsed args and returns (result, status); main emits
# them.  A handler that prints its own output returns (None, None).


def _cmd_salem_check(args) -> tuple:
    _, S, label = _resolve_set(args)
    report = salem_report(S, SalemParams(gamma=args.gamma, constant=args.const))
    return {"set": label, **report.to_json()}, "PASS" if report.passed else "FAIL"


def _cmd_spectrum(args) -> tuple:
    ctx, S, label = _resolve_set(args)
    worst = spectrum_max(S)
    result = {
        "set": label,
        "size": S.size,
        "max_nontrivial": worst,
        "scaled_max": ctx.order * worst,
    }
    return result, None


def _cmd_curve(args) -> tuple:
    handle = make_curve(_context(args), args.curve)
    if args.format == "text":
        # plain text doubles as the point-file format, ready to pipe to a file
        dump_points(handle.points, sys.stdout)
        return None, None
    result = {
        "family": handle.family,
        "parameters": dict(handle.parameters),
        "size": handle.points.size,
        "points": [list(pt) for pt in handle.points],
    }
    return result, None


def _cmd_classify(args) -> tuple:
    ctx = _context(args)
    vals = [int(v) for v in args.coeffs.split(",")]
    if len(vals) != 6:
        raise ValueError("--coeffs: need exactly 6 comma-separated integers")
    quad = Quadratic(ctx, *vals)
    cls = classify_quadratic(quad)
    result = {
        "det2": cls.det2,
        "det3": cls.det3,
        "smooth": cls.smooth,
        "degenerate_quadratic_part": cls.degenerate_quadratic_part,
    }
    if cls.smooth:
        form = reduce_quadratic(quad)
        result["kind"] = form.kind
        if form.diag is not None:
            result["diagonal"] = list(form.diag)
        result["zero_set_size"] = quad.zero_set().size
    else:
        result["kind"] = "degenerate"
    return result, None


def _cmd_intersect_profile(args) -> tuple:
    _, S, label = _resolve_set(args)
    return {"set": label, **intersection_profile(S).to_json()}, None


def _cmd_edge_count(args) -> tuple:
    ctx, S, label = _resolve_set(args)
    if args.set is not None:
        if args.sample is not None or args.seed is not None:
            raise ValueError("--set and --sample/--seed are mutually exclusive")
        try:
            E = load_points(args.set)
        except OSError as exc:
            raise ValueError(f"--set: {exc}") from exc
        if E.context != ctx:
            raise ValueError("--set: point file context differs from the shape set's")
        e_label = f"file:{args.set}"
    elif args.sample is not None:
        if args.seed is None:
            raise ValueError("--seed is required with --sample")
        E = sample_subset(ctx, args.sample, args.seed)
        e_label = f"sample:{args.sample}:{args.seed}"
    else:
        raise ValueError("one of --set or --sample is required for the counted set")
    if E.size == 0 or S.size == 0:
        raise ValueError("edge counting needs nonempty sets")
    report = edge_count(E, S, gamma=args.gamma)
    return {"shape": label, "counted_set": e_label, "set_size": E.size, **report.to_json()}, None


def _cmd_shatter(args) -> tuple:
    ctx, S, label = _resolve_set(args)
    full = PointSet.full(ctx)
    W = full if args.witness_domain == "full" else S
    problem = ShatterProblem(S, full, W, args.k)
    if args.strategy == "random":
        if args.seed is None:
            raise ValueError("--seed is required with --strategy random")
        strategy = RandomSearch(args.seed, **_budget(args))
    else:
        strategy = Exhaustive(**_budget(args))
    outcome = shatter_search(problem, strategy)
    result = {
        "set": label,
        "k": args.k,
        "strategy": args.strategy,
        "tuples_examined": outcome.stats.tuples_examined,
        "search_seconds": outcome.stats.elapsed,
    }
    if outcome.found:
        result["witness"] = outcome.witness.to_json()
    if outcome.reason:
        print(f"{outcome.status.value}: {outcome.reason}", file=sys.stderr)
    return result, outcome.status.value


def _cmd_construct3(args) -> tuple:
    ctx, S, label = _resolve_set(args)
    outcome = construct_shatter3(S, PointSet.full(ctx))
    result = {"set": label, "k": 3}
    if outcome.found:
        result["witness"] = outcome.witness.to_json()
    return result, outcome.status.value


def _cmd_vc(args) -> tuple:
    _, S, label = _resolve_set(args)
    bounds = vc_bounds(S, k_max=args.k_max, **_budget(args))
    result = {"set": label, **bounds.to_json()}
    if bounds.reason:
        status = SearchStatus.BUDGET_EXHAUSTED.value
        print(f"{status}: {bounds.reason}", file=sys.stderr)
        return result, status
    return result, None


def _cmd_random_trials(args) -> tuple:
    summary = monte_carlo(
        _context(args),
        args.size,
        args.trials,
        args.seed,
        epsilon=args.epsilon,
        beta=args.beta,
    )
    return summary.to_json(), None


# the flags each preset reads, all required but --count (default 100)
_PRESET_FLAGS = {"conic-census": ("prime", "seed", "count"), "weil-suite": ("prime",)}


def _cmd_reproduce(args) -> tuple:
    name = args.preset
    reads = _PRESET_FLAGS.get(name, ())
    for dest in ("prime", "seed", "count"):
        given = getattr(args, dest) is not None
        if given and dest not in reads:
            raise ValueError(f"preset {name} does not read --{dest}")
        if not given and dest in reads and dest != "count":
            raise ValueError(f"--{dest} is required for {name}")
    if name == "f11-table":
        result = presets.f11_table()
    elif name == "conic-census":
        count = 100 if args.count is None else args.count
        if count < 1:
            raise ValueError("--count must be >= 1")
        result = presets.conic_census(args.prime, args.seed, count=count)
    elif name == "weil-suite":
        result = presets.weil_suite(args.prime)
    else:
        result = presets.x_tuple_check(int(name[1:3]))
    return result, "PASS" if result.get("pass") else "FAIL"


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process and shared: main parses every
    argv with it, so no caller may add to it."""
    # the flags subcommands share, as parents; --help lists them before a
    # subcommand's own flags, and _emit moves format last in the config
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("-p", "--prime", type=int, default=None, help="field characteristic")
    field.add_argument("-d", "--dim", type=int, help="dimension (default 2, or the point file's)")
    source = argparse.ArgumentParser(add_help=False, parents=[field])
    source.add_argument("--curve", help="curve descriptor, e.g. circle:1, polygraph:0,0,1")
    source.add_argument("--points", help="point-set file (header 'p d', one point per line)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="ffsalem",
        description="Fourier analysis, Salem-set checks, and shattering searches "
        "over prime-field planes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "salem-check", parents=[source, fmt], help="spectral bound check for a set"
    )
    sub.add_argument("--gamma", type=float, default=0.0, help="log exponent (default 0)")
    sub.add_argument("--const", type=float, default=2.0, help="bound constant (default 2)")
    sub.set_defaults(func=_cmd_salem_check)

    sub = subs.add_parser(
        "spectrum", parents=[source, fmt], help="largest nontrivial Fourier coefficient"
    )
    sub.set_defaults(func=_cmd_spectrum)

    sub = subs.add_parser(
        "curve", parents=[field, fmt], help="materialize a named curve's points"
    )
    sub.add_argument("--curve", required=True, help="curve descriptor")
    sub.set_defaults(func=_cmd_curve)

    sub = subs.add_parser(
        "classify", parents=[field, fmt], help="conic classification by determinants"
    )
    sub.add_argument("--coeffs", required=True, help="A,B,C,D,E,F")
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser(
        "intersect-profile", parents=[source, fmt], help="overlap sizes with all translates"
    )
    sub.set_defaults(func=_cmd_intersect_profile)

    sub = subs.add_parser(
        "edge-count", parents=[source, fmt], help="difference-set edge count with main term"
    )
    sub.add_argument("--set", help="point-set file for the counted set")
    sub.add_argument("--sample", type=int, help="sample a uniform counted set of this size")
    sub.add_argument("--seed", type=int, help="seed for --sample")
    sub.add_argument("--gamma", type=float, default=0.0)
    sub.set_defaults(func=_cmd_edge_count)

    sub = subs.add_parser(
        "shatter", parents=[source, fmt], help="search for a shattered k-tuple"
    )
    sub.add_argument("-k", type=int, required=True, help="tuple size")
    sub.add_argument(
        "--witness-domain",
        choices=("full", "self"),
        default="full",
        help="center domain: full plane or the set itself",
    )
    sub.add_argument(
        "--strategy", choices=("exhaustive", "random"), default="exhaustive"
    )
    sub.add_argument("--budget", type=int, default=None, help="tuple budget")
    sub.add_argument("--seed", type=int, help="seed (required for --strategy random)")
    sub.set_defaults(func=_cmd_shatter)

    sub = subs.add_parser(
        "construct3", parents=[source, fmt], help="pigeonhole 3-shattering construction"
    )
    sub.set_defaults(func=_cmd_construct3)

    sub = subs.add_parser(
        "vc", parents=[source, fmt], help="exhaustive shattering bounds up to k-max"
    )
    sub.add_argument("--k-max", type=int, default=4, help="largest k to certify (at most 5)")
    sub.add_argument("--budget", type=int, default=None, help="tuple budget of one walk over all k")
    sub.set_defaults(func=_cmd_vc)

    sub = subs.add_parser(
        "random-trials", parents=[field, fmt], help="seeded Monte Carlo over uniform subsets"
    )
    sub.add_argument("--size", type=int, required=True, help="points per sample")
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True, help="master seed")
    sub.add_argument("--epsilon", type=float, default=0.5)
    sub.add_argument("--beta", type=float, default=0.45)
    # no flag sets threads: bench/run.py reads it for its machine record
    sub.set_defaults(func=_cmd_random_trials, threads=1)

    # reproduce's -p/--prime has no -d, so it takes only the format parent
    sub = subs.add_parser(
        "reproduce", parents=[fmt], help="run a stored reference configuration"
    )
    sub.add_argument(
        "preset",
        choices=("f11-table", "f17-x", "f23-x", "f29-x", "conic-census", "weil-suite"),
    )
    sub.add_argument("-p", "--prime", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument(
        "--count", type=int, default=None, help="conic-census sample count (default 100)"
    )
    sub.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        start = time.perf_counter()
        result, status = args.func(args)
        if result is not None:
            _emit(args, result, status, time.perf_counter() - start)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return EXIT_CODES.get(status, 0)
    except ValueError as exc:
        # the usage-error exit, like argparse's own; internal errors propagate
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    except BrokenPipeError:
        # the reader went away (`| head`): stop quietly, and point stdout at
        # devnull so the final flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
