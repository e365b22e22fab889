"""Reference configurations and one-command reproduction checks.

The shattering tables here are frozen data: a 4-point configuration for the
symmetrized parabola over F_11 with explicit witness centers for every
nonempty subset, and x-tuples over F_17, F_23, F_29 whose witnesses are
recovered by region search.  The remaining presets sweep character-sum and
conic families.  Every preset returns a plain dict with a top-level "pass"
so the CLI can turn it into an exit code.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .analysis import intersection_profile
from .curves import Quadratic, symmetrized_parabola
from .errors import SweepTooLarge
from .field import FieldContext, character_row_sums, legendre
from .pointset import PointSet, spectrum_max
from .shatter import (
    SearchStatus,
    ShatterProblem,
    ShatterWitness,
    verify_witness,
    witness_for_points,
)

# 4-point shattering of the symmetrized parabola over F_11: the tuple and
# the centers for all fifteen nonempty subsets (mask bit i-1 set when point
# i is inside).  The empty-subset center is the least-index point of the
# plane whose translate misses all four, found once and frozen.
F11_X_TUPLE = ((0, 0), (1, 2), (2, 8), (7, 4))
F11_CENTERS = {
    0b0001: (0, 0),
    0b0010: (0, 3),
    0b0100: (0, 4),
    0b1000: (0, 9),
    0b0011: (9, 4),
    0b0101: (10, 10),
    0b1001: (1, 1),
    0b0110: (0, 1),
    0b1010: (2, 1),
    0b1100: (1, 7),
    0b0111: (7, 5),
    0b1011: (5, 8),
    0b1101: (6, 3),
    0b1110: (10, 6),
    0b1111: (3, 9),
}
F11_EMPTY_CENTER = (1, 0)

# 4-tuples over larger fields; witnesses are cheap to recover per subset, so
# only the points are stored.
X_TUPLES = {
    17: ((0, 0), (0, 1), (1, 8), (12, 13)),
    23: ((0, 0), (1, 2), (10, 17), (13, 6)),
    29: ((0, 0), (0, 2), (8, 7), (11, 2)),
}


def f11_table() -> dict:
    """Verify the frozen F_11 4-shattering configuration center by center."""
    ctx = FieldContext(11, 2)
    S = symmetrized_parabola(ctx).points
    witnesses = dict(F11_CENTERS)
    witnesses[0] = F11_EMPTY_CENTER
    witness = ShatterWitness(
        points=[tuple(x) for x in F11_X_TUPLE], witnesses=witnesses
    )
    problem = ShatterProblem(S, PointSet.full(ctx), PointSet.full(ctx), 4)
    start = time.perf_counter()
    ok = verify_witness(problem, witness)
    elapsed = time.perf_counter() - start
    return {
        "pass": ok,
        "p": 11,
        "k": 4,
        "points": [list(x) for x in F11_X_TUPLE],
        "verify_seconds": elapsed,
    }


def x_tuple_check(p: int) -> dict:
    """Recover witnesses for the frozen x-tuple over F_p by region search."""
    if p not in X_TUPLES:
        raise ValueError(f"no stored x-tuple for p = {p}; have {sorted(X_TUPLES)}")
    ctx = FieldContext(p, 2)
    S = symmetrized_parabola(ctx).points
    full = PointSet.full(ctx)
    problem = ShatterProblem(S, full, full, 4)
    start = time.perf_counter()
    outcome = witness_for_points(problem, X_TUPLES[p])
    elapsed = time.perf_counter() - start
    found = outcome.status is SearchStatus.FOUND
    report = {
        "pass": found,
        "p": p,
        "k": 4,
        "points": [list(x) for x in X_TUPLES[p]],
        "search_seconds": elapsed,
    }
    if found:
        report["witnesses"] = outcome.witness.to_json()["witnesses"]
    return report


# Plane cells a conic census may transform, p^2 per conic.  The default
# count of 100 fits up to p = 409; at the cap a census takes about 1 s.
CONIC_CENSUS_MAX_CELLS = 1 << 24


def conic_census(p: int, seed: int, count: int = 100) -> dict:
    """Random smooth conics: point counts, spectral bound, translate overlap.

    Rejection-samples coefficient tuples until `count` conics with a genuine
    quadratic part and nonzero bordered determinant are collected, then
    checks |Z| in {q-1, q, q+1}, q^2 max|S^| <= 2 sqrt(q) + 1e-6, and
    intersection profile max <= 2.  Each conic costs one complex FFT over
    the plane (the spectrum) and a listing of its ~p^2 point pairs (the
    profile), so p^2 * count > CONIC_CENSUS_MAX_CELLS raises SweepTooLarge
    before the first conic is drawn (about 0.06 us per cell on one core of a
    2-vCPU Xeon VM: 0.95 s for 100 conics at p = 409).
    """
    ctx = FieldContext(p, 2)
    if p * p * count > CONIC_CENSUS_MAX_CELLS:
        raise SweepTooLarge(
            f"conic-census at p = {p} with {count} conics transforms p^2 * count = "
            f"{p * p * count} cells, above the cap {CONIC_CENSUS_MAX_CELLS}"
        )
    q = float(p)
    rng = np.random.Generator(np.random.Philox(seed))
    checked = 0
    attempts = 0
    bad_counts: list = []
    bad_salem: list = []
    bad_overlap: list = []
    sizes: dict = {}
    while checked < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("rejection sampling failed to find smooth conics")
        a, b, c, d, e, f = (int(v) for v in rng.integers(0, p, size=6))
        try:
            quad = Quadratic(ctx, a, b, c, d, e, f)
        except ValueError:  # no quadratic part, or univariate draw
            continue
        if quad.det3 == 0:
            continue
        checked += 1
        Z = quad.zero_set()
        sizes[Z.size] = sizes.get(Z.size, 0) + 1
        coeffs = [a, b, c, d, e, f]
        if Z.size not in (p - 1, p, p + 1):
            bad_counts.append(coeffs)
            continue
        phi = p**2 * spectrum_max(Z)
        if phi > 2.0 * math.sqrt(q) + 1e-6:
            bad_salem.append(coeffs)
        if intersection_profile(Z).max_size > 2:
            bad_overlap.append(coeffs)
    ok = not bad_counts and not bad_salem and not bad_overlap
    return {
        "pass": ok,
        "p": p,
        "seed": seed,
        "count": count,
        "attempts": attempts,
        "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        "bad_point_counts": bad_counts,
        "bad_salem": bad_salem,
        "bad_overlap": bad_overlap,
    }


# Gathered cells a weil-suite sweep may touch; about 3 p^3 per prime (see
# weil_suite), so p = 1123 is the largest prime under the cap.
WEIL_SUITE_MAX_CELLS = 1 << 32


def _kloosterman_magnitudes(ctx: FieldContext) -> np.ndarray:
    """|sum_j chi(a j + b j^{-1})| for all a, b != 0, as a (p-1, p-1) array.

    One (p-1, p-1) phase block per a (rows b, columns j), so memory is O(p^2).
    """
    p = ctx.p
    j = np.arange(1, p, dtype=np.int64)
    b_jinv = np.arange(1, p, dtype=np.int64)[:, None] * ctx.inverse_table[1:] % p
    phases = np.empty_like(b_jinv)
    chars = np.empty(phases.shape, dtype=complex)
    out = np.empty((p - 1, p - 1))
    for a in range(1, p):
        np.add(a * j % p, b_jinv, out=phases)
        out[a - 1] = np.abs(character_row_sums(ctx, phases, out=chars))
    return out


def weil_suite(p: int) -> dict:
    """Character-sum bounds at one prime, swept deterministically.

    Gauss sums for every k != 0 (magnitude sqrt(p) and the epsilon_q eta(k)
    sqrt(p) evaluation), every Kloosterman pair a, b != 0 against 2 sqrt(p),
    and the square-root cancellation bound |sum chi(f(j))| <= (n-1) sqrt(p)
    for the trinomial families x^n + a x + b, n in {3, 4}, over all a, b.
    A constant shift multiplies the sum by a unit, so degrees divisible by
    p are skipped rather than twisted around.

    Every sum is one row of a 2-D phase block summed by
    `character_row_sums`: one (p-1, p) Gauss block, one (p-1, p-1)
    Kloosterman block per a and one (p, p) Weil block (rows b) per (n, a).
    Memory is O(p^2) and time O(p^3), about 3 p^3 gathered cells; a prime
    with 3 p^3 > WEIL_SUITE_MAX_CELLS = 2^32 raises SweepTooLarge before any
    array is built.  At the cap, p = 1123, the sweep took 15-16 s and 78 MiB
    peak RSS on one core of a 2-vCPU Xeon VM (p = 211: 0.12 s; p = 701: 3.8 s).
    """
    ctx = FieldContext(p, 1)
    if 3 * p**3 > WEIL_SUITE_MAX_CELLS:
        raise SweepTooLarge(
            f"weil-suite at p = {p} gathers about 3 p^3 = {3 * p**3} cells, "
            f"above the cap {WEIL_SUITE_MAX_CELLS}"
        )
    sqrt_p = math.sqrt(p)
    eps = ctx.epsilon_q
    x = np.arange(p, dtype=np.int64)
    ks = np.arange(1, p, dtype=np.int64)[:, None]
    gauss = character_row_sums(ctx, ks * (x * x % p) % p)
    gauss_bad = []
    for k, g in enumerate(gauss.tolist(), start=1):
        predicted = eps * legendre(ctx, k) * sqrt_p
        if abs(abs(g) - sqrt_p) > 1e-9 or abs(g - predicted) > 1e-9:
            gauss_bad.append(k)
    kmax = float(_kloosterman_magnitudes(ctx).max())
    kloosterman_ok = kmax <= 2.0 * sqrt_p + 1e-9
    weil_bad = []
    degrees = [n for n in (3, 4) if n % p != 0]
    b = x[:, None]
    phases = np.empty((p, p), dtype=np.int64)
    chars = np.empty((p, p), dtype=complex)
    for n in degrees:
        x_n = x
        for _ in range(n - 1):  # x^n mod p without leaving int64
            x_n = x_n * x % p
        bound = (n - 1) * sqrt_p + 1e-9
        for a in range(p):
            np.add((x_n + a * x) % p, b, out=phases)
            sums = character_row_sums(ctx, phases, out=chars)
            weil_bad.extend([n, a, int(bb)] for bb in np.nonzero(np.abs(sums) > bound)[0])
    ok = not gauss_bad and kloosterman_ok and not weil_bad
    return {
        "pass": ok,
        "p": p,
        "gauss_failures": gauss_bad,
        "kloosterman_max": kmax,
        "kloosterman_bound": 2.0 * sqrt_p,
        "weil_degrees": degrees,
        "weil_failures": weil_bad,
    }
