"""Shattering searches for translate classes h_y(x) = [x - y in S].

A k-tuple (x^1, ..., x^k) of points of E is shattered when every subset I of
{1..k} has a witness y in W with x^i - y in S exactly for i in I, i.e. when
each of its 2^k witness regions (the points of W in x^i - S exactly for i in
I) is nonempty.  _neighborhoods makes the bitsets N(x) = (x - S) ^ W, a
block of rows per numpy pass, and one fold, _regions, splits W by them into
the regions; every search, witness_for_points and construct_shatter3 go
through them.  One builder, _table, makes every table for all of E, |E|
bitsets of q^d bits, and raises SweepTooLarge (a ValueError) before
allocating past NEIGHBORHOOD_BITS_GUARD; a search that needs no table (k = 0,
a k that counting refutes) answers at any p.  SearchStatus's values are the
words the CLI prints, and BUDGET EXHAUSTED means only that a search spent
its tuple budget.

One walk, _walk, serves the exhaustive search and vc_bounds: a
lexicographic depth-first search over one N(x) table, one _regions_extend
step per level, so tuples share prefixes and a prefix is pruned as soon as a
region empties.  Every prefix of a shattered tuple is shattered, so the walk
meets the first shattered tuple of each length in turn and yields it;
shatter_search takes the yield at k, vc_bounds each yield up to k_max.
vc_bounds is the anchored search: when E = W = the full group its walk tries
only tuples with x^1 = 0.  Translating a shattered tuple and its witnesses
by -x^1 keeps every difference x^i - y_I and keeps the witnesses in the full
group, so some k-tuple is shattered exactly when one with x^1 = 0 is.
Below the root a level tries only the points that can split its smallest
region, the set bits of (OR of M(y)) & ~(AND of M(y)) over the region's y,
where M(y) = (y + S) ^ E; a skipped point still counts as examined, so
tuples_examined and the budget are those of a walk that tries every point.
M is N's own table when S = -S and W = E, and otherwise a second table,
built only when both fit under the guard (past it the walk tries every
point).

Counting refutes k without enumerating (TranslateCounts): the 2^(k-j)
witnesses of the subsets containing x^1..x^j are distinct points shared by
j translates of S, so k <= j + floor(log2 m_j), where m_j is the most points
j translates of S by distinct shifts share (m_0 = |W|).  vc_bounds and
RandomSearch use it; a circle, m_2 = 2, never needs its k = 4 searched.
Exhaustive still enumerates a refuted k, because the tuples_examined of a
complete enumeration is part of its answer.

RandomSearch tries the sorted rows of Generator(Philox(seed)).choice(|E|,
k, replace=False), one row per tuple; _random_picks draws them RANDOM_BATCH
at a time from the same Philox stream, so a seed names the same tuples as a
per-tuple choice loop would.  When counting refutes k (2^k > |W| is its
j = 0 case) the search spends its budget without drawing, and without
building the N(x) table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .analysis import build_cube, overlap_maxima, prune, triple_overlap_max
from .errors import DimensionMismatch, EmptySet, NotSymmetric, SweepTooLarge
from .field import FieldContext
from .pointset import PointSet

DEFAULT_BUDGET = 10**9
VC_KMAX_GUARD = 5
NEIGHBORHOOD_BITS_GUARD = 2**31  # 256 MiB of N(x) bitsets: admits p = 211 at d = 2
RANDOM_BATCH = 1024  # tuples per Philox call in the random search
NEIGHBORHOOD_BLOCK = 2**20  # bools per block of N(x) rows: 1 MiB


@dataclass(frozen=True)
class ShatterProblem:
    """S is the shape, E holds the shattered points, W the witness centers."""

    S: PointSet
    E: PointSet
    W: PointSet
    k: int

    def __post_init__(self):
        ctx = self.S.context
        if self.E.context != ctx or self.W.context != ctx:
            raise ValueError("S, E, W must share one context")
        if self.k < 0:
            raise ValueError("k must be >= 0")

    @classmethod
    def over(cls, S: PointSet, k: int, E: PointSet | None = None, W: PointSet | None = None):
        """Convenience: E defaults to the full group, W defaults to E."""
        E = E if E is not None else PointSet.full(S.context)
        W = W if W is not None else E
        return cls(S, E, W, k)

    @property
    def context(self) -> FieldContext:
        return self.S.context


@dataclass(frozen=True)
class ShatterWitness:
    """points x^1..x^k plus a witness y_I for every I, keyed by bitmask
    (bit i-1 set exactly when i in I)."""

    points: list
    witnesses: dict

    @property
    def k(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "points": [list(pt) for pt in self.points],
            "witnesses": {str(m): list(y) for m, y in sorted(self.witnesses.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShatterWitness":
        return cls(
            points=[tuple(pt) for pt in data["points"]],
            witnesses={int(m): tuple(y) for m, y in data["witnesses"].items()},
        )


class SearchStatus(Enum):
    """How a search ended; each value is the status word the CLI prints."""

    FOUND = "FOUND"
    EXHAUSTED_NO = "NOT SHATTERABLE"  # complete enumeration, nothing shatterable
    BUDGET_EXHAUSTED = "BUDGET EXHAUSTED"
    NOT_FOUND = "NOT FOUND"  # a non-exhaustive pipeline came up empty


@dataclass
class SearchStats:
    tuples_examined: int = 0
    elapsed: float = 0.0


@dataclass
class SearchOutcome:
    status: SearchStatus
    witness: ShatterWitness | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    reason: str = ""  # why a BUDGET EXHAUSTED search stopped

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


# -- verification -----------------------------------------------------------------


def verify_witness(problem: ShatterProblem, witness: ShatterWitness) -> bool:
    """True iff every x^i lies in E, every y_I in W, and x^i - y_I in S
    exactly when i in I, for every i and I.

    Shape mismatches (wrong point count, missing or extra subsets, wrong
    coordinate width) raise DimensionMismatch; a witness that is merely
    wrong returns False.
    """
    k = problem.k
    if len(witness.points) != k:
        raise DimensionMismatch(f"witness has {len(witness.points)} points, problem wants {k}")
    if sorted(witness.witnesses.keys()) != list(range(1 << k)):
        raise DimensionMismatch("witness must map every subset bitmask in [0, 2^k)")
    ctx = problem.context
    for pt in witness.points:
        if len(pt) != ctx.d:
            raise DimensionMismatch("witness points must have d coordinates")
    for y in witness.witnesses.values():
        if len(y) != ctx.d:
            raise DimensionMismatch("witness centers must have d coordinates")
    if not all(x in problem.E for x in witness.points):
        return False
    if not all(y in problem.W for y in witness.witnesses.values()):
        return False
    S = problem.S
    for mask, y in witness.witnesses.items():
        for i, x in enumerate(witness.points):
            if (ctx.sub(x, y) in S) != bool(mask >> i & 1):
                return False
    return True


def _verified(problem: ShatterProblem, witness: ShatterWitness) -> ShatterWitness:
    """The witness, once verify_witness accepts it; a rejection is an internal error."""
    if not verify_witness(problem, witness):
        raise AssertionError("internal error: witness failed re-verification")
    return witness


# -- bitset plumbing ----------------------------------------------------------------


def _bits_from_bool(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _neighborhoods(problem: ShatterProblem, indices) -> list[int]:
    """Bitsets of N(x) = (x - S) ^ W for the points at these indices, in order.

    The rows go NEIGHBORHOOD_BLOCK bools at a time: one scatter of every
    x - S into a 2-D mask, one & W and one packbits per block."""
    ctx = problem.context
    neg_s = -ctx.coords_of(problem.S.indices()) % ctx.p
    x_coords = ctx.coords_of(indices)
    rows = max(1, NEIGHBORHOOD_BLOCK // ctx.order)
    out = []
    for start in range(0, len(x_coords), rows):
        block = x_coords[start : start + rows]
        mask = np.zeros((len(block), ctx.order), dtype=bool)
        cells = ctx.sum_index(block, neg_s)
        cells += (np.arange(len(block)) * ctx.order)[:, None]
        mask.reshape(-1)[cells] = True
        mask &= problem.W.membership
        packed = np.packbits(mask, axis=1, bitorder="little")
        out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return out


def _table(problem: ShatterProblem) -> tuple[list[int], list[int]]:
    """E's indices and their N(x) bitsets: the one builder of a table for all
    of E.  Raises SweepTooLarge before allocating when the |E| q^d bits pass
    NEIGHBORHOOD_BITS_GUARD."""
    table_bits = problem.E.size * problem.context.order
    if table_bits > NEIGHBORHOOD_BITS_GUARD:
        raise SweepTooLarge(
            f"neighborhood table needs |E| * q^d = {table_bits} bits, "
            f"above the guard {NEIGHBORHOOD_BITS_GUARD}"
        )
    e_idx = [int(i) for i in problem.E.indices()]
    return e_idx, _neighborhoods(problem, e_idx)


def _least_point(ctx: FieldContext, bits: int) -> tuple:
    return ctx.point_at((bits & -bits).bit_length() - 1)


def _witness_from_regions(ctx: FieldContext, chosen: list, regions: list) -> ShatterWitness:
    return ShatterWitness(
        points=[ctx.point_at(i) for i in chosen],
        witnesses={m: _least_point(ctx, r) for m, r in enumerate(regions)},
    )


def _regions_extend(regions: list, nb: int, j: int) -> list | None:
    """Split every region by the new neighborhood; None when any part empties."""
    if not regions[-1] & nb:  # the all-in region dies most often; test it first
        return None
    new = [0] * (len(regions) * 2)
    top = 1 << j
    for m, r in enumerate(regions):
        rn = r & nb
        rm = r & ~nb
        if not rn or not rm:
            return None
        new[m] = rm
        new[m | top] = rn
    return new


def _regions(w_bits: int, neighborhoods: list) -> list | None:
    """The 2^k witness regions of a tuple with these neighborhoods, indexed by
    subset bitmask; None when any region is empty."""
    regions = [w_bits]
    for j, nb in enumerate(neighborhoods):
        regions = _regions_extend(regions, nb, j)
        if regions is None:
            return None
    return regions if w_bits else None


# -- counting certificates ------------------------------------------------------------


class TranslateCounts:
    """Refutes k by counting translates of S instead of enumerating tuples.

    If x^1..x^k are shattered, the 2^(k-j) subsets I containing {1..j} have
    distinct witnesses y_I, each in W and in x^i - S for every i <= j: in the
    intersection of j translates of S by distinct shifts.  So 2^(k-j) <= m_j,
    i.e. k <= j + floor(log2 m_j), for m_0 = |W|, m_1 = |S|,
    m_2 = max |S ^ (S - u)| over u != 0 (overlap_maxima) and
    m_3 = max |S ^ (S + u) ^ (S + v)| over distinct nonzero u, v
    (triple_overlap_max).  Two circles meet in at most two points, so a
    circle has m_2 = 2 and no 4 shattered points.  Each m_j is computed only
    when every smaller j failed to refute, and kept once exact; m_3 is
    skipped past its cost cap.
    """

    def __init__(self, S: PointSet, W: PointSet):
        self.S = S
        self._m = {0: W.size, 1: S.size}

    def refutation(self, k: int) -> tuple | None:
        """(j, m_j) for the least j <= min(k, 3) with 2^(k-j) > m_j, or None."""
        for j in range(min(k, 3) + 1):
            m = self._m_below(j, k - j)
            if m is None:
                return None
            if k - j >= m.bit_length():  # 2^(k-j) > m
                return j, m
        return None

    def _m_below(self, j: int, e: int) -> int | None:
        """m_j when m_j < 2^e, else some value in [2^e, m_j]; None when m_3
        is past its cost cap.  j = 3 comes only after 2^(e+1) <= m_2."""
        if j == 2 and 2 not in self._m:
            self._m[2] = int(overlap_maxima(self.S.context, self.S.membership[None])[0])
        if j == 3 and 3 not in self._m:
            m = triple_overlap_max(self.S, stop_at=1 << e)
            if m is None or m >> e:  # past the cap, or a scan stopped at 2^e
                return m
            self._m[3] = m
        return self._m[j]


def _refutation_reason(k: int, j: int, m: int, budget: int) -> str:
    bound = {
        0: f"2^{k} > |W| = {m}",
        1: f"2^{k - 1} > m_1 = |S| = {m}",
    }.get(j, f"2^{k - j} > m_{j} = {m}, the most points {j} translates of S share")
    return f"{bound}: no {k}-tuple can be shattered, budget {budget} spent without drawing"


# -- search strategies ----------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustive:
    """Lexicographic enumeration of k-subsets of E with region pruning."""

    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class RandomSearch:
    """Uniformly sampled k-subsets of E; reproducible for a fixed seed."""

    seed: int
    budget: int = 10_000


def shatter_search(problem: ShatterProblem, strategy=Exhaustive()) -> SearchOutcome:
    """Search for a shattered k-tuple.

    Exhaustive: FOUND returns the first tuple in lexicographic index order
    (with the least witness in every region), the unanchored walk's yield at
    k; NOT SHATTERABLE certifies that a complete enumeration of every tuple
    found nothing.  vc_bounds is the anchored search (x^1 = 0 when E = W =
    the full group).  RandomSearch ends FOUND or BUDGET EXHAUSTED, or NOT
    SHATTERABLE when |E| < k.  A BUDGET EXHAUSTED outcome says why in its
    reason; every FOUND outcome is re-verified.  Only a search that builds
    the N(x) table can raise _table's SweepTooLarge."""
    if not isinstance(strategy, (Exhaustive, RandomSearch)):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy.budget < 0:
        raise ValueError(f"budget must be >= 0, got {strategy.budget}")
    ctx = problem.context
    start = time.perf_counter()
    if problem.W.size == 0:
        outcome = SearchOutcome(SearchStatus.EXHAUSTED_NO)
    elif problem.k == 0:
        witness = _witness_from_regions(ctx, [], [_bits_from_bool(problem.W.membership)])
        outcome = SearchOutcome(SearchStatus.FOUND, witness, SearchStats(1))
    elif isinstance(strategy, RandomSearch):
        outcome = _search_random(problem, strategy)
    else:
        stats = SearchStats()
        reached = list(_walk(problem, False, strategy.budget, stats))
        if reached and reached[-1] is None:
            outcome = _budget_spent(strategy.budget)
        elif len(reached) == problem.k:
            outcome = SearchOutcome(SearchStatus.FOUND, reached[-1], stats)
        else:
            outcome = SearchOutcome(SearchStatus.EXHAUSTED_NO, None, stats)
    outcome.stats.elapsed = time.perf_counter() - start
    if outcome.found:
        _verified(problem, outcome.witness)
    return outcome


def _walk(problem: ShatterProblem, anchored: bool, budget: int, stats: SearchStats):
    """Depth-first region search of E's tuples in lexicographic order over one
    N(x) table, never deeper than k; anchored fixes x^1 at the least index of E.

    Below the root a level tries only the positions _splitters names, the
    points that can split its smallest region.  A skipped position still
    counts as examined, since _regions_extend would have rejected it, so the
    count and the budget run as if every position were tried: a level's
    count is offset + the position it tries next, and offset grows only when
    the walk backs up.  Yields the witness of the first shattered tuple of
    each length 1..k and resumes below it; stats.tuples_examined runs on
    against the budget, so at the yield for length j it is what a walk cut
    at j reports.  Yields None and stops when the budget runs out first."""
    ctx, k = problem.context, problem.k
    e_idx, neigh = _table(problem)
    rows = _split_rows(problem, e_idx, neigh)
    n, root_stop = len(e_idx), 1 if anchored else len(e_idx)
    pos_of = range(n) if n == ctx.order else dict(zip(e_idx, range(n)))
    chosen, path = [], [[_bits_from_bool(problem.W.membership)]]  # path[j]: regions of chosen[:j]
    levels = [iter(range(root_stop))]  # levels[j]: positions left to try after chosen[:j]
    offset = depth = 0
    while True:
        j, regions, limit, new = len(chosen), path[-1], budget - offset, None
        for pos in levels[-1]:
            if pos >= limit:  # trying pos would pass the budget
                break
            new = _regions_extend(regions, neigh[pos], j)
            if new is not None:
                break
        else:  # this level is done: count the rest of it, then back up one point
            stop = n if chosen else root_stop
            if stop <= limit:
                if not chosen:
                    stats.tuples_examined = offset + stop
                    return
                offset += stop - chosen.pop() - 1
                path.pop()
                levels.pop()
                continue
        if new is None:
            stats.tuples_examined = budget
            yield None
            return
        chosen.append(pos)
        path.append(new)
        if j == depth:  # the first tuple of length j + 1
            depth += 1
            stats.tuples_examined = offset + pos + 1
            yield _witness_from_regions(ctx, [e_idx[i] for i in chosen], new)
            if depth == k:
                return
        if rows is None or pos + 1 == n:
            levels.append(iter(range(pos + 1, n)))
        else:
            levels.append(_splitters(new, rows, pos_of, e_idx[pos + 1]))


def _split_rows(problem: ShatterProblem, e_idx: list, neigh: list):
    """M(y) = (y + S) ^ E for every y in W, in index space, keyed by y's
    index: x - y in S exactly when x is in M(y), i.e. y in N(x).

    When S = -S and W = E, M(y) = (y - S) ^ W = N(y), so N's own rows serve.
    Otherwise the rows are _neighborhoods of the mirrored problem (shape -S,
    witnesses E) at W's indices, built only when they fit beside N under
    NEIGHBORHOOD_BITS_GUARD; past it None, and the walk tries every
    position."""
    ctx, S, E, W = problem.context, problem.S, problem.E, problem.W
    if W == E and S.is_symmetric():
        w_idx, rows = e_idx, neigh
    elif (E.size + W.size) * ctx.order <= NEIGHBORHOOD_BITS_GUARD:
        w_idx = [int(i) for i in W.indices()]
        rows = _neighborhoods(ShatterProblem(S.negate(), W, E, problem.k), w_idx)
    else:
        return None
    return rows if len(w_idx) == ctx.order else dict(zip(w_idx, rows))


def _set_bits(bits: int, start: int = 0):
    """The set bits of `bits` from bit `start` on, in increasing order."""
    digits = bin(bits >> start)[:1:-1]  # digits[i] is bit start + i
    i = digits.find("1")
    while i >= 0:
        yield start + i
        i = digits.find("1", i + 1)


def _splitters(regions: list, rows, pos_of, first: int):
    """E's positions, from index `first` on, of the points x that can split
    the smallest region R (ties to the least mask): x in M(y) for some y in R
    but not for all of them.  A point that leaves R whole or empty fails
    _regions_extend, so no other point can extend the tuple, and a single
    point R leaves none."""
    smallest = min(regions, key=int.bit_count)
    if not smallest & (smallest - 1):
        return iter(())
    union, common = 0, -1
    for y in _set_bits(smallest):
        union |= rows[y]
        common &= rows[y]
    return map(pos_of.__getitem__, _set_bits(union & ~common, first))


def _budget_reason(budget: int) -> str:
    return f"{budget} tuples examined, budget {budget}"


def _budget_spent(budget: int, reason: str = "") -> SearchOutcome:
    reason = reason or _budget_reason(budget)
    return SearchOutcome(SearchStatus.BUDGET_EXHAUSTED, None, SearchStats(budget), reason)


def _random_picks(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    """count rows equal to sorted(rng.choice(n, k, replace=False)) called count
    times, from one rng.integers call; needs 1 <= k <= n and Floyd's branch
    of choice.

    Per row, choice makes 2k - 1 bounded draws: Floyd's, inclusive highs
    n - k .. n - 1, then the shuffle of the k picks, highs k - 1 .. 1, which
    sorting undoes.  Floyd's draw t becomes n - k + t when it repeats an
    earlier pick of its row.
    """
    highs = np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)])
    draws = rng.integers(0, np.tile(highs, count), endpoint=True, dtype=np.int64)
    picks = draws.reshape(count, 2 * k - 1)[:, :k].copy()
    for t in range(1, k):
        column = picks[:, t]
        column[(picks[:, :t] == column[:, None]).any(axis=1)] = n - k + t
    picks.sort(axis=1)
    return picks


def _search_random(problem: ShatterProblem, strategy: RandomSearch) -> SearchOutcome:
    """Tuple t is row t of sorted(rng.choice(|E|, k, replace=False)) for a
    Philox(seed) generator, its positions in index order; the rows come
    RANDOM_BATCH at a time, the last batch cut to the budget left.

    When a counting certificate refutes k (TranslateCounts), the budget is
    spent without drawing and without the N(x) table: the outcome a
    draw-by-draw search would reach.  Its j = 0 case, 2^k > |W|, is also the
    only case where choice leaves Floyd's algorithm (|E| > 10000 and
    k > |E| // 50, so k > 200 while |W| <= 2^22).
    """
    ctx, n, k, budget = problem.context, problem.E.size, problem.k, strategy.budget
    if n < k:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO, None, SearchStats())
    refuted = TranslateCounts(problem.S, problem.W).refutation(k)
    if refuted is not None:
        return _budget_spent(budget, _refutation_reason(k, *refuted, budget))
    e_idx, neigh = _table(problem)
    w_bits = _bits_from_bool(problem.W.membership)
    rng = np.random.Generator(np.random.Philox(strategy.seed))
    examined = 0
    while examined < budget:
        for picks in _random_picks(rng, n, k, min(RANDOM_BATCH, budget - examined)).tolist():
            examined += 1
            regions = _regions(w_bits, [neigh[i] for i in picks])
            if regions is not None:
                witness = _witness_from_regions(ctx, [e_idx[i] for i in picks], regions)
                return SearchOutcome(SearchStatus.FOUND, witness, SearchStats(examined))
    return _budget_spent(budget)


def witness_for_points(problem: ShatterProblem, points: Sequence[Sequence[int]]) -> SearchOutcome:
    """Check one supplied x-tuple: only the 2^k witness regions are searched.

    This is the intended route past the full-enumeration desk-scale cap:
    the caller proposes tuples, the search prices each at 2^k set operations.
    """
    ctx = problem.context
    if len(points) != problem.k:
        raise DimensionMismatch(f"expected {problem.k} points, got {len(points)}")
    for pt in points:
        if pt not in problem.E:
            raise ValueError(f"point {tuple(pt)} is not in E")
    chosen = [ctx.index_of(pt) for pt in points]
    regions = _regions(_bits_from_bool(problem.W.membership), _neighborhoods(problem, chosen))
    if regions is None:
        return SearchOutcome(SearchStatus.NOT_FOUND, None, SearchStats(1))
    witness = _verified(problem, _witness_from_regions(ctx, chosen, regions))
    return SearchOutcome(SearchStatus.FOUND, witness, SearchStats(1))


# -- VC-dimension bounds -----------------------------------------------------------------


@dataclass(frozen=True)
class VCBounds:
    lower: int  # largest k with a verified shattered tuple
    exact: int | None  # set when k = lower + 1 was refuted
    reason: str = ""  # why the search at k = lower + 1 stopped, when it spent its budget
    refuted_by: tuple | None = None  # (j, m_j) when counting refuted k = lower + 1
    stats: SearchStats = field(default_factory=SearchStats)  # the walk's tuple count

    def to_json(self) -> dict:
        return {"lower": self.lower, "exact": self.exact}


def vc_bounds(
    S: PointSet,
    E: PointSet | None = None,
    W: PointSet | None = None,
    k_max: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> VCBounds:
    """Certify shattering for k = 1..k_max with one walk over one N(x) table.

    Before each k the counting certificate (TranslateCounts) is asked: when
    2^(k-j) > m_j for some j, k is refuted without a search and refuted_by
    records (j, m_j).  Otherwise the walk goes on to its first shattered
    k-tuple, anchored at x^1 = 0 when E = W = the full group (the defaults),
    and re-verifies it.  A k_max above 5, past desk scale for a full
    enumeration, raises SweepTooLarge up front; the walk's N(x) table, built
    only when counting leaves a k to search, raises it at _table.  The budget
    counts tuples from the first, as a search for one k would, and stats
    carries the count.  When the walk spends it, certification, not
    mathematics, gave out: the bounds keep the lower bound certified so far,
    exact None, and a reason naming the next k."""
    if k_max > VC_KMAX_GUARD:
        raise SweepTooLarge(f"k_max = {k_max} exceeds the exhaustive guard {VC_KMAX_GUARD}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    problem = ShatterProblem.over(S, k_max, E, W)
    E, W = problem.E, problem.W
    if W.size == 0:
        raise EmptySet("vc bounds need a nonempty witness domain")
    counts = TranslateCounts(S, W)
    anchored = E.size == W.size == S.context.order
    stats = SearchStats()
    walk = _walk(problem, anchored, budget, stats)
    lower = 0
    while lower < k_max:
        refuted = counts.refutation(lower + 1)
        if refuted is not None:
            return VCBounds(lower, lower, refuted_by=refuted, stats=stats)
        witness = next(walk, False)  # the walk builds its table on the first call
        if witness is False:  # it ended: no tuple of lower + 1 points is shattered
            return VCBounds(lower, lower, stats=stats)
        if witness is None:
            reason = f"k = {lower + 1}: {_budget_reason(budget)}"
            return VCBounds(lower, None, reason, stats=stats)
        lower = _verified(ShatterProblem(S, E, W, witness.k), witness).k
    return VCBounds(lower, None, stats=stats)


# -- constructive 3-shattering -------------------------------------------------------------


def construct_shatter3(S: PointSet, E: PointSet) -> SearchOutcome:
    """Pigeonhole construction of a 3-shattered tuple with witnesses in E.

    Pipeline: prune E to E_M with M = 7 + 2 * (max nonzero intersection of S
    with its translates), build a cube-minus-vertex graph there, relabel its
    vertices as x^1, x^2, x^3 with the four upper witnesses, then take y^1,
    y^2, y^3 (off the cube) and y^empty as the least points of their witness
    regions in E.  Deterministic; the result is re-verified before it is
    returned, and a failed re-verification is an internal error.  NOT_FOUND
    is a legitimate outcome at desk scale, not an error.
    """
    if not S.is_symmetric():
        raise NotSymmetric("constructive shattering requires S = -S")
    if S.size == 0:
        raise EmptySet("constructive shattering needs a nonempty S")
    ctx = S.context
    m_threshold = 7 + 2 * int(overlap_maxima(ctx, S.membership[None])[0])
    e_m = prune(E, S, m_threshold)
    if e_m.size < 4:
        return SearchOutcome(SearchStatus.NOT_FOUND)
    cube = build_cube(e_m, S)
    if cube is None:
        return SearchOutcome(SearchStatus.NOT_FOUND)

    r = cube.rhombus
    # relabel the seven cube vertices: three shattered points and the four
    # upper witnesses come straight off the graph
    xs = [r.x2, ctx.add(r.x1, cube.v), r.x3]
    witnesses = {
        0b111: r.x1,
        0b011: ctx.add(r.x2, cube.v),
        0b101: r.x4,
        0b110: ctx.add(r.x3, cube.v),
    }
    problem = ShatterProblem(S, E, E, 3)
    regions = _regions(
        _bits_from_bool(E.membership), _neighborhoods(problem, [ctx.index_of(x) for x in xs])
    )
    if regions is None:
        return SearchOutcome(SearchStatus.NOT_FOUND)
    # the least point of each lower region, off the cube for y^1, y^2, y^3
    seven = sum({1 << ctx.index_of(pt) for pt in cube.points()})
    for mask in (0b001, 0b010, 0b100, 0b000):
        region = regions[mask] & ~seven if mask else regions[mask]
        if not region:
            return SearchOutcome(SearchStatus.NOT_FOUND)
        witnesses[mask] = _least_point(ctx, region)

    witness = _verified(problem, ShatterWitness(points=xs, witnesses=witnesses))
    return SearchOutcome(SearchStatus.FOUND, witness, SearchStats(1))
