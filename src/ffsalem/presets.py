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

from .analysis import overlap_maxima
from .curves import Quadratic, symmetrized_parabola
from .errors import SweepTooLarge
from .field import FieldContext, character_row_sums, legendre
from .pointset import PointSet, spectrum_maxima
from .randomsets import STACK_CELLS
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
    largest overlap), so p^2 * count > CONIC_CENSUS_MAX_CELLS raises SweepTooLarge
    before the first conic is drawn (about 0.06 us per cell on one core of a
    2-vCPU Xeon VM: 0.95 s for 100 conics at p = 409).  Conics of the right
    size are evaluated as monte_carlo's trials are, a stack of
    max(1, STACK_CELLS // p^2) at a time, so each list keeps conic order.
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
    stack = np.empty((min(count, max(1, STACK_CELLS // ctx.order)), ctx.order), dtype=bool)
    stacked: list = []  # the coefficients of the conics in stack[:len(stacked)]
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
        if Z.size in (p - 1, p, p + 1):
            stack[len(stacked)] = Z.membership
            stacked.append(coeffs)
        else:
            bad_counts.append(coeffs)
        if stacked and (len(stacked) == len(stack) or checked == count):
            block = stack[: len(stacked)]
            phis = (p**2 * spectrum_maxima(ctx, block)).tolist()
            for coeffs, phi, overlap in zip(stacked, phis, overlap_maxima(ctx, block).tolist()):
                if phi > 2.0 * math.sqrt(q) + 1e-6:
                    bad_salem.append(coeffs)
                if overlap > 2:
                    bad_overlap.append(coeffs)
            stacked = []
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


# Slack for a float screen that compares character sums which are equal in
# exact arithmetic: K(a, b) against K(ab, 1), and |W_n(a, b)| against
# |W_n(a, 0)| (see weil_suite).  The largest spread measured between such
# sums is 3.0e-14 at p = 211 and 1.8e-13 at p = 1123.
CHARACTER_SUM_MARGIN = 1e-6

# Gathered cells a weil-suite sweep may touch.  In the worst case every
# Kloosterman class and every (n, a) lies within CHARACTER_SUM_MARGIN of its
# screen's threshold, and the suite evaluates every row of the full sweep,
# about 3 p^3 cells (see weil_suite); p = 1123 is the largest prime under the cap.
WEIL_SUITE_MAX_CELLS = 1 << 32


def _kloosterman_max(ctx: FieldContext) -> float:
    """max |K(a, b)| over a, b != 0, bit for bit the maximum over the
    (p-1)^2 rows with phases a j + b j^{-1}: one block screens the classes
    ab, then each class near the top gets one block of its p - 1 pairs (see
    weil_suite)."""
    p = ctx.p
    j = np.arange(1, p, dtype=np.int64)
    jinv = ctx.inverse_table[1:]
    phases = np.empty((p - 1, p - 1), dtype=np.int64)
    chars = np.empty(phases.shape, dtype=complex)
    np.multiply(j[:, None], j, out=phases)
    phases %= p
    phases += jinv  # row c: c j + j^{-1}, the pair (c, 1)
    classes = np.abs(character_row_sums(ctx, phases, out=chars))
    candidates = np.flatnonzero(classes >= classes.max() - CHARACTER_SUM_MARGIN) + 1
    kmax = 0.0
    for c in candidates.tolist():
        # row a is the pair (a, c a^{-1}): with k = a j mod p its phase
        # a j + (c a^{-1} j^{-1} mod p) is k + (c k^{-1} mod p), one lookup in k
        lookup = np.zeros(p, dtype=np.int64)
        lookup[1:] = j + c * jinv % p
        np.multiply(j[:, None], j, out=phases)
        phases %= p
        lookup.take(phases, out=phases, mode="clip")  # reads entry i before writing it
        kmax = max(kmax, float(np.abs(character_row_sums(ctx, phases, out=chars)).max()))
    return kmax


def weil_suite(p: int) -> dict:
    """Character-sum bounds at one prime, swept deterministically.

    Gauss sums for every k != 0 (magnitude sqrt(p) and the epsilon_q eta(k)
    sqrt(p) evaluation), every Kloosterman pair a, b != 0 against 2 sqrt(p),
    and the square-root cancellation bound |sum chi(f(j))| <= (n-1) sqrt(p)
    for the trinomial families x^n + a x + b, n in {3, 4}, over all a, b.
    A constant shift multiplies the sum by a unit, so degrees divisible by
    p are skipped rather than twisted around.

    The result is the one that sums every pair: one row of a 2-D phase
    block per character sum, summed by `character_row_sums` (a (p-1, p)
    Gauss block, a (p-1, p-1) Kloosterman block per a with rows b, a (p, p)
    Weil block per (n, a) with rows b), about 3 p^3 gathered cells.  Two
    identities let the suite gather O(p^2) cells instead:

    - K(a, b) = K(ab, 1), by j -> b j.  One block with rows (c, 1) screens
      the classes c = ab; M is its largest magnitude.  Only a class c with
      |K(c, 1)| >= M - CHARACTER_SUM_MARGIN gets its p - 1 rows (a, c a^{-1}),
      and kloosterman_max is the largest magnitude among them.  This is the
      full sweep's maximum bit for bit: each row has the phases that the full
      sweep gives the same pair, and `character_row_sums` gives a row the
      same float whichever block holds it.  The full sweep's maximum V is at
      least M, since (M's class, 1) is one of its pairs, and the computed
      magnitudes of one class differ by rounding alone (far below the
      margin), so the class of V's pair is a candidate.
    - chi(f + b) = chi(b) chi(f), so |W_n(a, b)| = |W_n(a, 0)|.  One (p, p)
      block per n, rows a with b = 0, screens the a; only an a whose
      magnitude exceeds bound - CHARACTER_SUM_MARGIN runs the full sweep's
      block over b, and its failures are listed as the full sweep lists
      them.  Every other a has |W_n(a, b)| <= bound - margin + rounding <
      bound for every b, so the full sweep lists no failure there either.

    At every prime tried (3 to 1123) exactly one Kloosterman class lay
    within the margin of M and no Weil row came within 0.08 of its bound,
    so a run gathers about 5 p^2 cells: Gauss p^2, the class screen p^2,
    one class p^2 and a Weil screen p^2 per degree.  Memory is O(p^2).  The
    worst case, every class and every a inside the margin, is the full sweep
    plus the two screens, O(p^3) time; a prime with 3 p^3 >
    WEIL_SUITE_MAX_CELLS = 2^32 raises SweepTooLarge before any array is
    built.  On one core of a 2-vCPU Xeon VM the suite takes about 3 ms at
    p = 211 and 0.1 s at the cap, p = 1123.
    """
    ctx = FieldContext(p, 1)
    if 3 * p**3 > WEIL_SUITE_MAX_CELLS:
        raise SweepTooLarge(
            f"weil-suite at p = {p} gathers at most about 3 p^3 = {3 * p**3} cells, "
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
    kmax = _kloosterman_max(ctx)
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
        np.multiply(x[:, None], x, out=phases)
        phases += x_n
        phases %= p  # row a: x^n + a x, the pair (a, 0)
        screen = np.abs(character_row_sums(ctx, phases, out=chars))
        for a in np.flatnonzero(screen > bound - CHARACTER_SUM_MARGIN).tolist():
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
