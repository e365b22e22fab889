"""Exact intersection and incidence combinatorics for dense point sets.

Every count here is an exact integer, and every one counts sums: the pairs
(a, b) in A x B with a + sign b = x, for sign = +-1.  E*S is the table of
E x S; the translate overlaps |E ^ (E - u)| behind intersection profiles,
edge counts and the densest shift are the table of E x E with sign -1.
Two readers choose how a count is taken:

- _sums(A, B, sign), the whole q^d table, the one-set case of _sum_tables,
  which takes a stack of sets at once.  When |A| |B| <= C q^d (C =
  PAIR_ROUTE_RATIO), as for a curve against a curve, every pair is listed
  and its sum's index counted, for a stack in one bincount with per-set
  offsets.  Otherwise a real-FFT cyclic convolution is rounded to integers,
  from one transform when B is A; a value 0.25 or more from every integer
  is an internal error, never a rounded answer.  overlap_maxima(ctx, stack)
  reads the row maxima of that table over a (T, q^d) stack, x = 0 left
  out: construct3's and the counting refutation's m_2, and the overlap that
  conic censuses check.  salem_overlap_maxima, for a Monte Carlo stack,
  reads the Salem maxima and those overlaps together: where the overlaps
  would take the transform it inverts the |S^|^2 table the Salem pass
  wrote instead, so each set is transformed once.  _lists_pairs is the
  route test both ask.
- _sums_at(A, B, sign, points), the same counts at a list of indices (E*S
  on E's own points for triple counts and pruning, overlaps at S's shifts
  for edge counts and the densest shift).  When |points| |B| <= G q^d (G =
  GATHER_ROUTE_RATIO) and d <= GATHER_MAX_DIM, one gather per pair from a
  tiled copy of A answers with no table of the group's counts; otherwise
  the table is read at the points.

When A is the whole group every count is |B|, a closed form that takes
neither route; _sum_tables, _sums_at, _overlaps_at and prune answer the
full group before they read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySet, NotSymmetric
from .field import FieldContext
from .pointset import PointSet, _log_factor, spectrum_maxima


def _cyclic_convolution(
    f: np.ndarray, g: np.ndarray, ctx: FieldContext, sign: int = 1
) -> np.ndarray:
    """sum of f(a) g(b) over a + sign b = x, for every x in index order, as floats.

    f and g have shape (..., q^d); leading axes pair off, so a stack of sets
    convolves each set with itself.  g reflected (sign -1) has the conjugate
    of g's transform; g is f then gives the real product |f^|^2 from one
    transform.
    """
    axes = tuple(range(-ctx.d, 0))
    grid = f.shape[:-1] + ctx.grid_shape
    f_hat = np.fft.rfftn(f.reshape(grid), axes=axes)
    if g is f and sign < 0:
        product = np.abs(f_hat) ** 2
    else:
        g_hat = f_hat if g is f else np.fft.rfftn(g.reshape(grid), axes=axes)
        product = f_hat * (g_hat if sign > 0 else g_hat.conj())
    return np.fft.irfftn(product, s=ctx.grid_shape, axes=axes).reshape(f.shape)


def _exact(values: np.ndarray) -> np.ndarray:
    """Round FFT output that is integral in exact arithmetic to int64.

    values, a fresh float table, is overwritten by its distances to the
    integers, so no more than three tables of its size are alive at once."""
    rounded = np.rint(values)
    values -= rounded
    if np.abs(values, out=values).max() >= 0.25:
        raise AssertionError("internal error: FFT count is not within 0.25 of an integer")
    return rounded.astype(np.int64)


# Pair listing against the FFT, both exact: the pair route wins while |A| |B|
# <= C q^d.  Measured on one core of a 2-vCPU Xeon VM (numpy 2.4, random A
# with |A|^2 = C q^d, best of 7): the two routes take equal time at C = 7.5 to
# 10 in the plane (p = 101 ... 2039), at C = 5.5 and 8.6 for d = 3 (p = 31,
# 101) and well above 10 at d = 1.  C = 5 sits below every crossover, so the
# pair route is never the slower one; a curve has |S|^2 ~ q^d pairs (C ~ 1),
# where it is 6 to 9 times faster than the transforms.
PAIR_ROUTE_RATIO = 5


def _lists_pairs(ctx: FieldContext, n: int, m: int) -> bool:
    """True when the sums of n points against m take the pair route, False
    when they take the transform."""
    return n * m <= PAIR_ROUTE_RATIO * ctx.order


def _pair_counts(ctx: FieldContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """counts[..., index(x)] = |{(s, t) : s + t = x}| over the rows s of a and
    t of b, coordinate arrays of shape (..., n, d) and (..., m, d) with
    entries in [0, p), by listing every pair.  Leading axes pair off: for a
    stack of sets, (T, n, d) and (T, m, d), set i counts its own pairs, at
    offset i q^d of one bincount, into row i of a (T, q^d) table.

    Rows of a go in blocks of at most T q^d pairs, and a block holds two pair
    arrays, so memory stays O(T q^d) however many pairs there are.
    """
    stack = b.shape[:-2]
    cells = math.prod(stack) * ctx.order
    rows = max(1, ctx.order // max(1, b.shape[-2]))
    offsets = np.arange(0, cells, ctx.order).reshape(stack + (1, 1))

    def keys(block: np.ndarray) -> np.ndarray:
        index = ctx.sum_index(block, b)
        if cells > ctx.order:  # one set needs no offset pass over its pairs
            index += offsets
        return index.ravel()

    counts = np.bincount(keys(a[..., :rows, :]), minlength=cells)
    for start in range(rows, a.shape[-2], rows):
        counts += np.bincount(keys(a[..., start : start + rows, :]), minlength=cells)
    return counts.reshape(stack + (ctx.order,))


# Gathering against a whole table, both exact: the gather route wins while
# n |B| <= G q^d for n points.  Measured on one core of a 2-vCPU Xeon VM
# (numpy 2.4, random E against a sphere's shifts, best of 5), where the
# other route is the FFT: edge counts (n = |S| / 2 shifts, B = E) take equal
# time at G = 45, 38 and 27 in the plane (p = 409, 1009, 2039) and at G = 21,
# 45 and 40 for d = 3 (p = 31, 61, 101); E*S on E (n = |E|, B = S) at G = 60,
# 48, 30 and 28, 50, 45.  Against pair listing the gathers win wherever the
# two both run, except for overlaps of an E of fewer than about n / 4
# points, where the pair route lists |E|^2 pairs and wins by at most 2 ms in
# the plane (p = 409 ... 2039) and 8.5 ms for d = 3 (p = 101, |E| = 515):
# too little to route on.  At d = 4 edge counts tie with the FFT near G = 13
# (p = 11, 13), 24 (p = 17) and 16 (p = 23, 31), and at d = 5 near 12 (p =
# 11, 17), so G = 16 is not below every crossover there; the tiled copy of A
# also takes 2^d bytes a cell of the group.  The gathers stop at d = 3.
GATHER_ROUTE_RATIO = 16
GATHER_MAX_DIM = 3
GATHER_BLOCK = 1 << 18  # gathered pairs per block


def _gathered_sums(A: PointSet, B: PointSet, sign: int, points: np.ndarray) -> np.ndarray:
    """|{b in B : x - sign b in A}| at each point index x, by one gather per pair.

    A is tiled 2 x ... x 2 times, so tiled[base(y)] = A(y mod p) for y in
    [0, 2p)^d, base(y) = sum y_i (2p)^(i-1): the sum of x and -sign b, two
    residues, needs no reduction, and its membership is one gather at
    base(x) + base(-sign b).  Each block takes its rows from the shorter of
    the two lists and its columns from the longer.  For 20 000 random points
    against a circle at p = 1009 this takes 28 ms, against 53 ms for
    A.membership[ctx.sum_index(...)], which reduces each coordinate sum
    through a table.
    """
    ctx = A.context
    radix = (2 * ctx.p) ** np.arange(ctx.d, dtype=np.int64)
    tiled = np.tile(A.grid(), (2,) * ctx.d).ravel()
    base = ctx.coords_of(points) @ radix
    b = ctx.coords_of(B.indices())
    offsets = (b if sign < 0 else -b % ctx.p) @ radix
    per_row = len(base) <= len(offsets)
    rows, cols = (base, offsets) if per_row else (offsets, base)
    out = np.zeros(len(base), dtype=np.int64)
    step = max(1, GATHER_BLOCK // max(1, len(cols)))
    for start in range(0, len(rows), step):
        hits = tiled.take(rows[start : start + step, None] + cols, mode="clip")
        if per_row:
            out[start : start + step] = np.count_nonzero(hits, axis=1)
        else:
            out += np.count_nonzero(hits, axis=0)
    return out


def _sum_tables(
    ctx: FieldContext, a: np.ndarray, b: np.ndarray, sign: int, n: int, m: int
) -> np.ndarray:
    """counts[..., index(x)] = |{(s, t) : s + sign t = x}| over the points s
    of a and t of b, bool tables of shape (..., q^d) whose rows hold n and m
    points each, sign = +-1.  Leading axes pair off, so for a stack of sets
    row i counts set i's own sums."""
    if n == ctx.order:  # every x - sign t lies in the full group
        return np.full(a.shape, m, dtype=np.int64)
    if _lists_pairs(ctx, n, m):
        # coords_of reduces every coordinate mod p, so the flat index i q^d +
        # index(x) of a stack's row i gives x's own coordinates (q^d = p^d)
        pa = ctx.coords_of(np.flatnonzero(a).reshape(a.shape[:-1] + (n,)))
        pb = pa if b is a else ctx.coords_of(np.flatnonzero(b).reshape(b.shape[:-1] + (m,)))
        return _pair_counts(ctx, pa, pb if sign > 0 else -pb % ctx.p)
    return _exact(_cyclic_convolution(a, b, ctx, sign))


def _sums(A: PointSet, B: PointSet, sign: int = 1) -> np.ndarray:
    """counts[index(x)] = |{(a, b) in A x B : a + sign b = x}| for every x,
    sign = +-1: E*S for A x B = E x S, and |E ^ (E - x)| for E x E, sign -1."""
    A._check_same_context(B)
    return _sum_tables(A.context, A.membership, B.membership, sign, A.size, B.size)


def _sums_at(A: PointSet, B: PointSet, sign: int, points: np.ndarray) -> np.ndarray:
    """_sums(A, B, sign)[points], gathered with no table of the group's counts
    while that is the cheaper route."""
    A._check_same_context(B)
    ctx = A.context
    if A.size == ctx.order:
        return np.full(len(points), B.size, dtype=np.int64)
    if ctx.d <= GATHER_MAX_DIM and len(points) * B.size <= GATHER_ROUTE_RATIO * ctx.order:
        return _gathered_sums(A, B, sign, points)
    return _sums(A, B, sign)[points]


def _overlaps_at(E: PointSet, shifts: np.ndarray) -> np.ndarray:
    """|E ^ (E - u)| at each shift index u.  u and -u overlap alike, so each
    pair of them is read once.  On the full group every overlap is q^d,
    answered before the pairing: its np.unique, the first one of a
    construct3 run, left 0.3 MiB more resident at p = 1009."""
    ctx = E.context
    if E.size == ctx.order:
        return np.full(len(shifts), ctx.order, dtype=np.int64)
    # one shift of each pair +-u, the one of lesser index
    reps, back = np.unique(
        np.minimum(shifts, ctx.indices_of(-ctx.coords_of(shifts))), return_inverse=True
    )
    return _sums_at(E, E, -1, reps)[back]


def _densest_shift(E: PointSet, S: PointSet, excluded) -> tuple | None:
    """The least-index u in S minus `excluded` maximizing |E ^ (E - u)|, or
    None when no such u has a nonempty overlap; the overlaps are read at S's
    points only."""
    ctx = E.context
    shifts = S.indices()
    shifts = shifts[~np.isin(shifts, [ctx.index_of(pt) for pt in excluded])]
    overlaps = _overlaps_at(E, shifts)
    shifts = shifts[overlaps == overlaps.max(initial=1)]  # none when every overlap is 0
    return ctx.point_at(int(shifts[0])) if shifts.size else None


@dataclass(frozen=True)
class ConvolutionTable:
    """values[index(x)] = E*S(x) = |{y in E : x - y in S}| for every x."""

    context: FieldContext
    values: np.ndarray

    def at(self, point: Sequence[int]) -> int:
        return int(self.values[self.context.index_of(point)])


def convolve(E: PointSet, S: PointSet) -> ConvolutionTable:
    return ConvolutionTable(E.context, _sums(E, S))


# -- edge counts ---------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCountReport:
    nu: int
    main_term: float
    error: float
    normalized_error: float
    K: float

    def to_json(self) -> dict:
        return {
            "nu": self.nu,
            "main_term": self.main_term,
            "error": self.error,
            "normalized_error": self.normalized_error,
            "K": self.K,
        }


def edge_count(E: PointSet, S: PointSet, gamma: float = 0.0) -> EdgeCountReport:
    """nu_S(E) = |{(x, y) in E x E : x - y in S}|, with main-term comparison.

    nu = sum_{s in S} |E ^ (E - s)|, the translate overlaps of E read at S.
    K = |S| / q^(d-1) is measured from S; the normalization divides the error
    by q^((d-1)/2) (log q)^gamma |E|, for finite gamma >= 0.  A divisor that
    overflows to inf is a ValueError, as in salem_report: it would report a
    normalized error of 0.0 whatever the count.
    """
    if E.size == 0:
        raise EmptySet("edge count over an empty set E")
    if not 0 <= gamma < math.inf:  # written so that nan fails too
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma}")
    E._check_same_context(S)
    ctx = E.context
    q = ctx.p
    scale = q ** ((ctx.d - 1) / 2) * _log_factor(q, gamma) * E.size
    if not scale < math.inf:
        raise ValueError(
            f"the edge-count normalization is {scale}: gamma {gamma} leaves the float range"
        )
    nu = int(_overlaps_at(E, S.indices()).sum())
    K = S.size / q ** (ctx.d - 1)
    main = K * E.size**2 / q
    err = nu - main
    return EdgeCountReport(nu, main, float(err), float(abs(err) / scale), K)


def triple_count(E: PointSet, S: PointSet) -> int:
    """sum over x in E of (E*S(x))^2, that is
    |{(y1, y2, x) in E^3 : x - y1 in S and x - y2 in S}|."""
    if E.size == 0:
        raise EmptySet("triple count over an empty set E")
    return int((_sums_at(E, S, 1, E.indices()).astype(object) ** 2).sum())


# -- intersection profiles --------------------------------------------------------


@dataclass(frozen=True)
class IntersectionProfile:
    """|S intersect (S - v)| for every nonzero shift v, computed exactly."""

    histogram: dict
    max_size: int
    argmax: tuple  # least-index shift attaining max_size
    at_zero: int

    def to_json(self) -> dict:
        return {
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "max": self.max_size,
            "argmax": list(self.argmax),
            "at_zero": self.at_zero,
        }


def intersection_profile(S: PointSet) -> IntersectionProfile:
    if S.size == 0:
        raise EmptySet("intersection profile of the empty set")
    ctx = S.context
    flat = _sums(S, S, -1)
    nontrivial = flat[1:]
    counts = np.bincount(nontrivial)  # ends at the largest size, max_size
    return IntersectionProfile(
        histogram={int(s): int(counts[s]) for s in np.flatnonzero(counts)},
        max_size=len(counts) - 1,
        argmax=ctx.point_at(1 + int(np.argmax(nontrivial))),
        at_zero=int(flat[0]),
    )


def overlap_maxima(ctx: FieldContext, stack: np.ndarray) -> np.ndarray:
    """max_{x != 0} |S ^ (S - x)| for each row S of a (T, q^d) bool stack:
    `intersection_profile(S).max_size`, with no histogram or argmax, and 0
    for an empty S.  The sets of each size share one _sum_tables call; every
    count is exact, so no maximum depends on which sets share a stack.
    """
    # np.count_nonzero(stack, axis=1) took 2.6 times as long for one set at p =
    # 2039; divmod is the loop coords_of runs, where // left construct3 and vc
    # runs 0.1 to 0.2 MiB more resident
    sizes = np.bincount(np.divmod(np.flatnonzero(stack), ctx.order)[0], minlength=len(stack))
    out = np.empty(len(stack), dtype=np.int64)
    # a Monte Carlo stack has one size, a census up to three; np.unique
    # would import numpy.ma (1 MiB resident) in a run that needs nothing else of it
    for n in sorted(set(sizes.tolist())):
        rows = sizes == n
        members = stack if rows.all() else stack[rows]  # a copy only for mixed sizes
        counts = _sum_tables(ctx, members, members, -1, n, n)
        counts[:, 0] = 0  # x = 0, where the overlap is |S|
        out[rows] = counts.max(axis=1)
    return out


def salem_overlap_maxima(ctx: FieldContext, stack: np.ndarray) -> tuple:
    """(spectrum_maxima(ctx, stack), overlap_maxima(ctx, stack)) for a (T, q^d)
    bool stack whose rows all hold as many points as its first.

    When the overlaps take the transform, the Salem pass also writes each
    set's |S^|^2 on rfftn's half spectrum, and |S^|^2 is the transform of the
    autocorrelation |S ^ (S - x)| (Wiener-Khinchin): one inverse real
    transform of that table gives every overlap, rounded by _exact, in place
    of a forward and an inverse transform of the overlaps' own.  The Salem
    line table is gone by then, so the pass's peak and the inverse's do not
    add up.  Sets whose overlaps list pairs take the two calls as they are.
    """
    size = int(np.count_nonzero(stack[0]))
    if _lists_pairs(ctx, size, size):
        return spectrum_maxima(ctx, stack), overlap_maxima(ctx, stack)
    sets = len(stack)
    power = np.empty((sets,) + ctx.grid_shape[:-1] + (ctx.p // 2 + 1,))
    worst = spectrum_maxima(ctx, stack, power)
    counts = np.fft.irfftn(power, s=ctx.grid_shape, axes=tuple(range(1, ctx.d + 1)))
    del power
    counts = _exact(counts.reshape(sets, ctx.order))
    counts[:, 0] = 0  # x = 0, where the overlap is |S|
    return worst, counts.max(axis=1)


# triple_overlap_max lists |S ^ (S + u)| |S| pairs and counts them into q^d
# cells for half the shifts u, about |S|^3 / 2 pairs in all; past this many
# pairs and cells it computes nothing.  A d = 3 sphere at p = 23 needs 1.4e8.
TRIPLE_COST_CAP = 2**28
TRIPLE_BLOCK = 2**20  # pairs, and twice as many cells, per batch of shifts


def triple_overlap_max(S: PointSet, stop_at: int | None = None) -> int | None:
    """The largest |S ^ (S + u) ^ (S + v)| over distinct nonzero shifts u, v.

    Shifting by -u gives |S ^ (S - u) ^ (S + v - u)|, so the shifts u and -u
    see the same counts and only the one of lesser index is scanned.  Each
    scanned u lists T_u = S ^ (S + u) against -S, whose differences count
    |T_u ^ (S + v)| at every v.  Shifts go most overlapping first, in batches
    that double from one, and none past a shift whose overlap is at most the
    best count so far.  With stop_at, the scan ends at the first count that
    reaches it, so a result >= stop_at is a lower bound and a result below it
    is exact.  None, with nothing computed, when the scan could exceed
    TRIPLE_COST_CAP pairs and cells.
    """
    ctx = S.context
    overlaps = _sums(S, S, -1)
    shifts = np.flatnonzero(overlaps[1:]) + 1
    shifts = shifts[shifts < ctx.indices_of(-ctx.coords_of(shifts) % ctx.p)]
    shifts = shifts[np.argsort(-overlaps[shifts], kind="stable")]
    if S.size * int(overlaps[shifts].sum()) + len(shifts) * ctx.order > TRIPLE_COST_CAP:
        return None
    s = ctx.coords_of(S.indices())
    diff = ctx.sum_index(s, -s % ctx.p)  # diff[a, b] = index(s_a - s_b)
    stop = math.inf if stop_at is None else stop_at
    best, start, batch = 0, 0, 1
    while start < len(shifts) and overlaps[shifts[start]] > best and best < stop:
        width = min(
            batch, max(1, 2 * TRIPLE_BLOCK // ctx.order),
            max(1, TRIPLE_BLOCK // (int(overlaps[shifts[start]]) * S.size)),
        )
        us = shifts[start : start + width]
        start, batch = start + width, 2 * batch
        # (label, a) for every u = us[label] and point s_a of T_u
        label, a = np.nonzero(S.membership[ctx.sum_index(-ctx.coords_of(us) % ctx.p, s)])
        keys = diff[a]
        keys += (label * ctx.order)[:, None]
        counts = np.bincount(keys.ravel(), minlength=len(us) * ctx.order)
        counts = counts.reshape(len(us), ctx.order)
        counts[:, 0] = 0
        counts[np.arange(len(us)), us] = 0
        best = max(best, int(counts.max()))
    return best


def prune(E: PointSet, S: PointSet, M: int) -> PointSet:
    """E_M = {x in E : E*S(x) > M} (strict).

    On the full group E*S = |S| everywhere, so E_M is all or nothing."""
    if E.size == E.context.order and E.context == S.context:
        return E if S.size > M else PointSet.empty(E.context)
    members = E.indices()
    return PointSet.from_indices(E.context, members[_sums_at(E, S, 1, members) > M])


# -- rhombus and cube witnesses -----------------------------------------------------


@dataclass(frozen=True)
class RhombusWitness:
    """Four distinct points with x1 - x2 = x3 - x4 = u in S and
    x1 - x3 = x2 - x4 = w in S, no pairwise difference equal to +-v."""

    x1: tuple
    x2: tuple
    x3: tuple
    x4: tuple
    u: tuple
    w: tuple

    def points(self) -> list[tuple]:
        return [self.x1, self.x2, self.x3, self.x4]

    def verify(self, E: PointSet, S: PointSet, v: tuple) -> bool:
        ctx = E.context
        pts = self.points()
        if len(set(pts)) != 4:
            return False
        if any(pt not in E for pt in pts):
            return False
        if ctx.sub(self.x1, self.x2) != self.u or ctx.sub(self.x3, self.x4) != self.u:
            return False
        if ctx.sub(self.x1, self.x3) != self.w or ctx.sub(self.x2, self.x4) != self.w:
            return False
        if self.u not in S or self.w not in S:
            return False
        neg_v = ctx.neg(v)
        for i in range(4):
            for j in range(4):
                if i != j and ctx.sub(pts[i], pts[j]) in (tuple(v), neg_v):
                    return False
        return True


def _slice(E: PointSet, t: tuple) -> PointSet:
    """E ^ (E + t); the full group is its own translate."""
    return E if E.size == E.context.order else E.intersect(E.translate(t))


def find_rhombus(
    E: PointSet,
    S: PointSet,
    v: Sequence[int],
    avoid=None,
) -> RhombusWitness | None:
    """Two-stage pigeonhole: pick u in S \\ {0, +-v} maximizing |E ^ (E - u)|
    (ties to the least index), then scan E_u for the first pair with
    difference in S minus {0, +-u, +-v, +-u+-v}; None when the scan exhausts.

    avoid, a callable (u, v) -> shifts evaluated once u is fixed, drops every
    difference w in S + t for a shift t.  Callers assembling larger graphs
    use it to rule out accidental adjacencies.
    """
    E._check_same_context(S)
    ctx = E.context
    if not S.is_symmetric():
        raise NotSymmetric("rhombus search requires S = -S")
    v = ctx.reduce(v)
    if all(c == 0 for c in v):
        raise ValueError("v must be nonzero")

    zero = (0,) * ctx.d
    neg_v = ctx.neg(v)
    u = _densest_shift(E, S, (zero, v, neg_v))
    if u is None:
        return None
    neg_u = ctx.neg(u)
    # y in E and y + u in E
    e_u_set = _slice(E, neg_u)
    e_u = e_u_set.indices()

    excluded = {
        zero,
        u,
        neg_u,
        v,
        neg_v,
        ctx.add(u, v),
        ctx.sub(u, v),
        ctx.sub(v, u),
        ctx.neg(ctx.add(u, v)),
    }
    w = S.indices()
    diffs = ctx.coords_of(w[~np.isin(w, [ctx.index_of(pt) for pt in excluded])])
    if avoid is not None:
        for t in avoid(u, v):
            diffs = diffs[~S.membership[ctx.indices_of(diffs - t)]]

    # for b in E_u in index order, the least a in E_u with a - b kept, among
    # the candidates a = b + w over the kept differences w (a = b never
    # qualifies: 0 is excluded); no table spans the whole group
    for bi in e_u:
        cand = ctx.indices_of(diffs + ctx.coords_of(bi))
        cand = cand[e_u_set.membership[cand]]
        if cand.size:
            a = ctx.point_at(cand.min())
            b = ctx.point_at(int(bi))
            witness = RhombusWitness(ctx.add(a, u), a, ctx.add(b, u), b, u, ctx.sub(a, b))
            if not witness.verify(E, S, v):
                raise AssertionError("internal error: rhombus failed re-verification")
            return witness
    return None


@dataclass(frozen=True)
class CubeWitness:
    """Seven vertices of a combinatorial cube with side differences u, w, v
    all in S: a rhombus plus its v-translate, minus the vertex x4 + v.

    The nine surviving edges (all with difference in S) are the four rhombus
    edges, the three v-edges x_i -- x_i + v for i in {1, 2, 3}, and the two
    translated rhombus edges (x1+v, x2+v) and (x1+v, x3+v).
    """

    context: FieldContext
    rhombus: RhombusWitness
    v: tuple

    def points(self) -> list[tuple]:
        r = self.rhombus
        lifted = [self.context.add(pt, self.v) for pt in (r.x1, r.x2, r.x3)]
        return [r.x1, r.x2, r.x3, r.x4, *lifted]

    def edges(self) -> list[tuple]:
        r = self.rhombus
        x1v, x2v, x3v = self.points()[4:]
        return [
            (r.x1, r.x2),
            (r.x3, r.x4),
            (r.x1, r.x3),
            (r.x2, r.x4),
            (r.x1, x1v),
            (r.x2, x2v),
            (r.x3, x3v),
            (x1v, x2v),
            (x1v, x3v),
        ]

    def verify(self, E: PointSet, S: PointSet) -> bool:
        pts = self.points()
        if len(set(pts)) != 7:
            return False
        if any(pt not in E for pt in pts):
            return False
        if self.v not in S:
            return False
        for a, b in self.edges():
            if self.context.sub(a, b) not in S:
                return False
        return True


def _phantom_shifts(ctx: FieldContext):
    """The shifts t whose translates S + t hold the differences w that would
    wire construct3's relabeled cube wrongly: after relabeling, u - w - v,
    w - u - v and u + w + v must stay out of S, that is (S = -S) w out of
    S + (u - v), S + (u + v) and S - (u + v)."""
    return lambda u, v: [ctx.sub(u, v), ctx.add(u, v), ctx.neg(ctx.add(u, v))]


def build_cube(E: PointSet, S: PointSet) -> CubeWitness | None:
    """Pigeonhole a shift v in S maximizing |E ^ (E - v)|, then look for a
    rhombus avoiding +-v inside that slice; None if either stage fails.
    The rhombus also avoids the phantom shifts: no difference w with w - t
    in S for t in {u - v, u + v, -(u + v)}, so the cube relabels into a
    3-shattered tuple."""
    E._check_same_context(S)
    ctx = E.context
    if not S.is_symmetric():
        raise NotSymmetric("cube construction requires S = -S")
    v = _densest_shift(E, S, [(0,) * ctx.d])
    if v is None:
        return None
    e_v = _slice(E, ctx.neg(v))
    rhombus = find_rhombus(e_v, S, v, avoid=_phantom_shifts(ctx))
    if rhombus is None:
        return None
    witness = CubeWitness(ctx, rhombus, v)
    if not witness.verify(E, S):
        raise AssertionError("internal error: cube failed re-verification")
    return witness
