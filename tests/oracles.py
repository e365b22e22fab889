"""Independent reference implementations used to check the fast paths.

Everything here is written for obviousness, not speed: direct double sums
for transforms, explicit loops for counts, and a dichotomy-materializing
shattering decider; `fourier_spectrum` builds the whole fftn spectrum that
the streamed Salem maximum must match bit for bit.  None of it shares code
with the library internals it checks, except `reference_weil_suite`, which
pins the row-batched sweep to one public character-sum call per sum,
`block_weil_suite`, which pins the screened sweep to one row of
`character_row_sums` per pair at primes where the per-call reference is too
slow, `reference_random_search`, which pins the batched random search to
one `Generator.choice` call per tuple, `reference_sample_subset`, which pins
the sampler's swaps to the same Philox stream, `reference_vc_bounds`, which
pins vc's single walk to one `reference_walk` per k, and `reference_walk`,
which pins the walk that skips positions to one that tries every position
over the same table and region step.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations, product

import numpy as np

from ffsalem import (
    FieldContext,
    PointSet,
    SearchStats,
    SearchStatus,
    ShatterProblem,
    ShatterWitness,
    TranslateCounts,
    character_row_sums,
    gauss_sum,
    kloosterman,
    legendre,
    weil_poly_sum,
)
from ffsalem.shatter import _bits_from_bool, _regions_extend, _table, _witness_from_regions


def direct_dft(S: PointSet) -> dict:
    """S^(m) = q^(-d) sum_x chi(-m.x) S(x) by the definition, all m."""
    ctx = S.context
    p, d, order = ctx.p, ctx.d, ctx.order
    pts = list(S)
    out = {}
    for m in product(range(p), repeat=d):
        total = 0j
        for x in pts:
            dot = sum(mi * xi for mi, xi in zip(m, x)) % p
            total += cmath.exp(-2j * cmath.pi * dot / p)
        out[m] = total / order
    return out


class SpectrumTable:
    """All Fourier coefficients S^(m) = p^(-d) sum_x chi(-m.x) S(x)."""

    def __init__(self, context: FieldContext, values: np.ndarray):
        self.context = context
        self.values = values

    def value_at(self, m) -> complex:
        return complex(self.values[self.context.index_of(m)])

    @property
    def max_nontrivial(self) -> float:
        """max over m != 0 of |S^(m)|."""
        return float(np.abs(self.values[1:]).max()) if self.context.order > 1 else 0.0


def fourier_spectrum(S: PointSet) -> SpectrumTable:
    """The whole spectrum from one fftn, the reference `spectrum_max` must
    match bit for bit; `direct_dft` pins it to the definition.

    The grid layout puts coordinate x_1 on the last axis, so the flattened
    transform output is indexed by index(m) in the same little-endian order.
    """
    ctx = S.context
    values = np.fft.fftn(S.grid().astype(np.float64))
    values /= ctx.order
    return SpectrumTable(ctx, values.reshape(ctx.order))


def fourier_edge_count(E: PointSet, S: PointSet) -> float:
    """q^(2d) sum_m |E^(m)|^2 S^(m), real part: the edge count nu_S(E) read
    off the full spectra."""
    e_hat = fourier_spectrum(E).values
    s_hat = fourier_spectrum(S).values
    return float((E.context.order**2 * (np.abs(e_hat) ** 2 * s_hat).sum()).real)


def reference_affine_image(S: PointSet, matrix, shift) -> PointSet:
    """{T x + shift : x in S}, one point at a time by coordinate arithmetic."""
    p = S.context.p
    image = []
    for x in S:
        image.append(tuple(
            (sum(int(t) * xi for t, xi in zip(row, x)) + int(c)) % p
            for row, c in zip(matrix, shift)
        ))
    return PointSet.from_points(S.context, image)


def brute_points(ctx: FieldContext, predicate) -> PointSet:
    """The points x = (x_1, ..., x_d) of the group with predicate(x), by enumeration."""
    return PointSet.from_points(
        ctx, [x for x in product(range(ctx.p), repeat=ctx.d) if predicate(x)]
    )


def brute_rhombus(E: PointSet, S: PointSet, v, avoid=None) -> list | None:
    """find_rhombus by its definition, for symmetric S.

    u is the least-index s in S minus {0, +-v} with the most y in E having
    y + s in E; then over E_u = {y in E : y + u in E}, the pair (b, a) with
    the least b, then the least a, whose difference a - b lies in S minus
    {0, +-u, +-v, +-u+-v}, and for every shift t of avoid(u, v) has
    a - b - t outside S.  Returns [a + u, a, b + u, b] or None.
    """
    ctx = E.context
    p, d = ctx.p, ctx.d

    def add(x, y, sign=1):
        return tuple((a + sign * b) % p for a, b in zip(x, y))

    zero = (0,) * d
    neg_v = add(zero, v, -1)
    best = None
    for s in sorted(S, key=ctx.index_of):
        if s in (zero, tuple(v), neg_v):
            continue
        overlap = sum(1 for y in E if add(y, s) in E)
        if overlap > 0 and (best is None or overlap > best[0]):
            best = (overlap, s)
    if best is None:
        return None
    u = best[1]
    neg_u = add(zero, u, -1)
    banned = {zero, u, neg_u, tuple(v), neg_v,
              add(u, v), add(u, v, -1), add(v, u, -1), add(neg_u, v, -1)}
    shifts = [] if avoid is None else avoid(u, tuple(v))
    e_u = sorted((y for y in E if add(y, u) in E), key=ctx.index_of)
    for b in e_u:
        for a in e_u:
            w = add(a, b, -1)
            if w in S and w not in banned and all(add(w, t, -1) not in S for t in shifts):
                return [add(a, u), a, add(b, u), b]
    return None


def brute_edge_count(E: PointSet, S: PointSet) -> int:
    p = E.context.p
    pts = list(E)
    count = 0
    for x in pts:
        for y in pts:
            if tuple((a - b) % p for a, b in zip(x, y)) in S:
                count += 1
    return count


def brute_convolution(E: PointSet, S: PointSet) -> dict:
    """E*S(x) = |{y in E : x - y in S}| for every x of the group."""
    ctx = E.context
    p = ctx.p
    out = {}
    for x in product(range(p), repeat=ctx.d):
        out[x] = sum(
            1 for y in E if tuple((a - b) % p for a, b in zip(x, y)) in S
        )
    return out


def brute_triple_count(E: PointSet, S: PointSet) -> int:
    """|{(y1, y2, x) in E^3 : x - y1 in S and x - y2 in S}|, which is
    sum over x in E of (E*S(x))^2."""
    p = E.context.p
    pts = list(E)
    count = 0
    for x in pts:
        for y1 in pts:
            for y2 in pts:
                d1 = tuple((a - b) % p for a, b in zip(x, y1))
                d2 = tuple((a - b) % p for a, b in zip(x, y2))
                if d1 in S and d2 in S:
                    count += 1
    return count


def kloosterman_circle_max(p: int, t: int) -> float:
    """max over xi != 0 of |S^(xi)| for the circle x.x = t in F_p^2, by its
    Kloosterman sums, for p = 3 mod 4 and t != 0 mod p.

    p^2 |S^(xi)| = |K(t, xi.xi / 4)| with K(a, b) = sum_{s != 0} e((a s + b s^-1)/p),
    and as xi runs over the nonzero frequencies xi.xi runs over every b != 0
    (only xi = 0 has xi.xi = 0 when -1 is not a square).  K(t, b) for every b
    is one length-p DFT of u -> e(t u^-1 / p), u != 0 (at -b, the same |.|).
    """
    assert p % 4 == 3 and t % p
    f = np.zeros(p, dtype=complex)
    for u in range(1, p):
        f[u] = cmath.exp(2j * cmath.pi * (t * pow(u, p - 2, p) % p) / p)
    return float(np.abs(np.fft.fft(f)[1:]).max()) / p**2


def naive_shatterable(S: PointSet, k: int, E: PointSet, W: PointSet) -> bool:
    """Materialize every dichotomy by scanning W; True iff some k-tuple of E
    realizes all 2^k of them.

    A point-vs-center membership matrix makes the scan tolerable at p <= 7
    without borrowing anything from the search's region machinery.
    """
    ctx = S.context
    p = ctx.p
    e_pts = list(E)
    w_pts = list(W)
    if len(e_pts) < k:
        return False
    if k == 0:
        return len(w_pts) > 0
    hits = np.zeros((len(e_pts), len(w_pts)), dtype=np.int64)
    for i, x in enumerate(e_pts):
        for j, y in enumerate(w_pts):
            if tuple((a - b) % p for a, b in zip(x, y)) in S:
                hits[i, j] = 1
    want = 1 << k
    weights = 1 << np.arange(k)
    for tup in combinations(range(len(e_pts)), k):
        patterns = (hits[list(tup)] * weights[:, None]).sum(axis=0)
        if len(np.unique(patterns)) == want:
            return True
    return False


def brute_m(S: PointSet, j: int) -> int:
    """m_j for j >= 1: the most points that j translates of S by distinct
    shifts share, by listing every set of j - 1 distinct nonzero shifts.

    An intersection of translates S + u_1, ..., S + u_j has the size of its
    translate by -u_1, so one of the shifts may be taken to be 0.
    """
    p, d = S.context.p, S.context.d
    pts = set(S)
    shifts = [u for u in product(range(p), repeat=d) if any(u)]
    best = 0
    for us in combinations(shifts, j - 1):
        shared = [
            x for x in pts
            if all(tuple((a - b) % p for a, b in zip(x, u)) in pts for u in us)
        ]
        best = max(best, len(shared))
    return best


def reference_random_search(problem, seed: int, budget: int) -> tuple:
    """RandomSearch(seed, budget) for k >= 1 as one rng.choice call per
    tuple: (status, witness or None, tuples_examined).

    Tuple t is sorted(rng.choice(|E|, k, replace=False)) from the t-th call
    on a Philox(seed) generator, as positions into E in index order.  It is
    shattered when its centers in W show all 2^k membership patterns; the
    witness for a pattern is the least-index center showing it.
    """
    S, E, W, k = problem.S, problem.E, problem.W, problem.k
    p = S.context.p
    e_pts, w_pts = list(E), list(W)
    if not w_pts or len(e_pts) < k:
        return SearchStatus.EXHAUSTED_NO, None, 0
    hits = np.array([
        [tuple((a - b) % p for a, b in zip(x, y)) in S for y in w_pts] for x in e_pts
    ], dtype=np.int64)
    weights = 1 << np.arange(k)
    rng = np.random.Generator(np.random.Philox(seed))
    for examined in range(1, budget + 1):
        picks = sorted(int(i) for i in rng.choice(len(e_pts), size=k, replace=False))
        patterns = (hits[picks] * weights[:, None]).sum(axis=0)
        seen, first = np.unique(patterns, return_index=True)
        if len(seen) == 1 << k:
            witness = ShatterWitness(
                [e_pts[i] for i in picks],
                {int(m): w_pts[j] for m, j in zip(seen, first)},
            )
            return SearchStatus.FOUND, witness, examined
    return SearchStatus.BUDGET_EXHAUSTED, None, budget


def reference_sample_subset(ctx: FieldContext, size: int, seed: int) -> list:
    """The first `size` entries of sample_subset's partial Fisher-Yates
    permutation, swapping numpy scalars one position at a time: position i
    swaps with i + jumps[i], jumps[i] uniform in [0, q^d - i)."""
    rng = np.random.Generator(np.random.Philox(seed))
    idx = np.arange(ctx.order, dtype=np.int64)
    jumps = rng.integers(0, ctx.order - np.arange(size), dtype=np.int64)
    for i in range(size):
        j = i + int(jumps[i])
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:size].tolist()


def reference_vc_bounds(S: PointSet, E: PointSet, W: PointSet, k_max: int, budget: int) -> tuple:
    """vc_bounds as a fresh walk per k: (lower, exact, reason, refuted_by).

    Before each k the counting certificate is asked; when it does not refute
    k, k gets its own reference_walk with the whole budget, anchored when E
    and W are the full group, drained to its yield at k.
    """
    anchored = E.size == W.size == S.context.order
    counts = TranslateCounts(S, W)
    lower = 0
    for k in range(1, k_max + 1):
        refuted = counts.refutation(k)
        if refuted is not None:
            return lower, lower, "", refuted
        reached = list(reference_walk(ShatterProblem(S, E, W, k), anchored, budget, SearchStats()))
        if reached and reached[-1] is None:
            return lower, None, f"k = {k}: {budget} tuples examined, budget {budget}", None
        if len(reached) < k:
            return lower, lower, "", None
        lower = k
    return lower, None, "", None


def reference_weil_suite(p: int) -> dict:
    """presets.weil_suite by one gauss_sum / kloosterman / weil_poly_sum call
    per character sum, each sum on its own 1-D array."""
    ctx = FieldContext(p, 1)
    sqrt_p = math.sqrt(p)
    eps = ctx.epsilon_q
    gauss_bad = []
    for k in range(1, p):
        g = gauss_sum(ctx, k)
        predicted = eps * legendre(ctx, k) * sqrt_p
        if abs(abs(g) - sqrt_p) > 1e-9 or abs(g - predicted) > 1e-9:
            gauss_bad.append(k)
    kmax = max(abs(kloosterman(ctx, a, b)) for a in range(1, p) for b in range(1, p))
    weil_bad = []
    degrees = [n for n in (3, 4) if n % p != 0]
    for n in degrees:
        for a in range(p):
            for b in range(p):
                s = weil_poly_sum(ctx, [b, a] + [0] * (n - 2) + [1])
                if abs(s) > (n - 1) * sqrt_p + 1e-9:
                    weil_bad.append([n, a, b])
    return {
        "pass": not gauss_bad and kmax <= 2.0 * sqrt_p + 1e-9 and not weil_bad,
        "p": p,
        "gauss_failures": gauss_bad,
        "kloosterman_max": kmax,
        "kloosterman_bound": 2.0 * sqrt_p,
        "weil_degrees": degrees,
        "weil_failures": weil_bad,
    }



def _block_kloosterman_magnitudes(ctx: FieldContext) -> np.ndarray:
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


def block_weil_suite(p: int) -> dict:
    """presets.weil_suite by the full sweep, one row of a 2-D phase block per
    character sum and every pair evaluated: one (p-1, p) Gauss block, one
    (p-1, p-1) Kloosterman block per a and one (p, p) Weil block (rows b)
    per (n, a), about 3 p^3 gathered cells.  The suite's cost cap is left to
    the suite."""
    ctx = FieldContext(p, 1)
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
    kmax = float(_block_kloosterman_magnitudes(ctx).max())
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

def reference_walk(problem, anchored: bool, budget: int, stats):
    """shatter._walk as it was before it skipped positions: every position of
    E is tried at every level, one _regions_extend call and one tuple each."""
    ctx, k = problem.context, problem.k
    e_idx, neigh = _table(problem)
    n, root_stop = len(e_idx), 1 if anchored else len(e_idx)
    chosen, path = [], [[_bits_from_bool(problem.W.membership)]]  # path[j]: regions of chosen[:j]
    pos = depth = 0
    while True:
        j, regions = len(chosen), path[-1]
        for pos in range(pos, n if chosen else root_stop):
            if stats.tuples_examined >= budget:
                yield None
                return
            stats.tuples_examined += 1
            new = _regions_extend(regions, neigh[pos], j)
            if new is not None:
                break
        else:  # this level is done: back up one point
            if not chosen:
                return
            pos = chosen.pop() + 1
            path.pop()
            continue
        chosen.append(pos)
        path.append(new)
        if j == depth:  # the first tuple of length j + 1
            depth += 1
            yield _witness_from_regions(ctx, [e_idx[i] for i in chosen], new)
            if depth == k:
                return
        pos += 1
