"""Dense point sets in Z_p^d and Salem certification.

A PointSet is an immutable bit table over the whole group, indexed by
index(x) = x_1 + x_2*p + ... + x_d*p^(d-1).  The Salem maximum
max_{m != 0} |S^(m)| runs the axis-factored transform (one length-p DFT per
axis) slab by slab (`spectrum_maxima`, for a stack of sets at once;
`spectrum_max` is its one-set case), so certifying a set at the p^d cap
never holds a q^d complex table.  It transforms each distinct x_1
line once: on a quadric the points of a line depend only on the value of the
rest of the form, so a circle's lines pair off (y and -y) and a sphere in
F_p^3 has about p distinct lines among its ~p^2/2 held ones.  Each block of
lines is transformed column-wise, straight into a frequency-major table, and
a map from every x_1 line to its transformed line (or to one zero column for
an empty line) gathers each slab with the lines contiguous, so the other
axes transform contiguous rows; only the cells near a slab's largest
unscaled magnitude are scaled by q^-d.  Blocks and slabs are sized to a
core's L2 cache.  On request the pass also writes each set's unscaled
|S^|^2 on rfftn's half spectrum, from which analysis.salem_overlap_maxima
reads the translate overlaps with one inverse transform.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptySet, PointSetParseError, SingularMatrix
from .field import FieldContext


class PointSet:
    """An immutable subset of Z_p^d backed by a dense boolean table."""

    __slots__ = ("context", "membership", "size")

    def __init__(self, context: FieldContext, membership: np.ndarray):
        membership = np.asarray(membership, dtype=bool)
        if membership.shape != (context.order,):
            raise ValueError(
                f"membership table must have shape ({context.order},), got {membership.shape}"
            )
        self._own(context, membership.copy())

    def _own(self, context: FieldContext, membership: np.ndarray) -> None:
        membership.setflags(write=False)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "membership", membership)
        object.__setattr__(self, "size", int(np.count_nonzero(membership)))

    @classmethod
    def _adopt(cls, context: FieldContext, membership: np.ndarray) -> "PointSet":
        """The set with this fresh bool table of shape (q^d,), taken over and
        made read-only without a copy; no one may hold it writable."""
        S = object.__new__(cls)
        S._own(context, membership)
        return S

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, context: FieldContext) -> "PointSet":
        return cls._adopt(context, np.zeros(context.order, dtype=bool))

    @classmethod
    def full(cls, context: FieldContext) -> "PointSet":
        return cls._adopt(context, np.ones(context.order, dtype=bool))

    @classmethod
    def from_points(cls, context: FieldContext, points: Iterable[Sequence[int]]) -> "PointSet":
        mem = np.zeros(context.order, dtype=bool)
        for pt in points:
            mem[context.index_of(pt)] = True
        return cls._adopt(context, mem)

    @classmethod
    def from_indices(cls, context: FieldContext, indices: Iterable[int]) -> "PointSet":
        """The set of these indices.  A 1-D integer array is scattered as it
        is; any other iterable goes through np.fromiter first, which alone
        took 71 us for 1 015 points and 1.4 ms for 20 000, against 4 us and
        0.11 ms for the whole set from an array."""
        if not (isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu"):
            indices = np.fromiter(indices, dtype=np.int64, count=-1)
        mem = np.zeros(context.order, dtype=bool)
        mem[indices] = True
        return cls._adopt(context, mem)

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def __contains__(self, point) -> bool:
        return bool(self.membership[self.context.index_of(point)])

    def __iter__(self) -> Iterator[tuple]:
        for i in self.indices():
            yield self.context.point_at(int(i))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.context == other.context
            and bool(np.array_equal(self.membership, other.membership))
        )

    def __hash__(self):
        return hash((self.context, self.membership.tobytes()))

    def __repr__(self):
        return f"PointSet(p={self.context.p}, d={self.context.d}, size={self.size})"

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.membership)

    def points(self) -> list[tuple]:
        return list(self)

    def grid(self) -> np.ndarray:
        """Membership reshaped to (p,)*d; axis -1 is coordinate x_1."""
        return self.membership.reshape(self.context.grid_shape)

    # -- set algebra ------------------------------------------------------------

    def _from_grid(self, grid: np.ndarray) -> "PointSet":
        return PointSet._adopt(self.context, grid.reshape(self.context.order))

    def negate(self) -> "PointSet":
        # x -> -x on every axis: flip maps c to p - 1 - c, the roll adds 1
        return self._from_grid(np.roll(np.flip(self.grid()), 1, axis=range(self.context.d)))

    def translate(self, v: Sequence[int]) -> "PointSet":
        ctx = self.context
        v = ctx.reduce(v)
        # grid axis -1 is x_1, so the shift along each axis is v reversed
        return self._from_grid(np.roll(self.grid(), v[::-1], axis=range(ctx.d)))

    def linear_image(self, matrix: Sequence[Sequence[int]]) -> "PointSet":
        """The set {T x : x in S} for an invertible d x d matrix T mod p."""
        ctx = self.context
        T = np.asarray(matrix, dtype=np.int64) % ctx.p
        if T.shape != (ctx.d, ctx.d):
            raise ValueError(f"matrix must be {ctx.d} x {ctx.d}")
        if det_mod(T, ctx.p) == 0:
            raise SingularMatrix("linear image requires an invertible matrix mod p")
        mem = np.zeros(ctx.order, dtype=bool)
        mem[ctx.indices_of(ctx.coords_of(self.indices()) @ T.T)] = True
        return PointSet._adopt(ctx, mem)

    def union(self, other: "PointSet") -> "PointSet":
        self._check_same_context(other)
        return PointSet._adopt(self.context, self.membership | other.membership)

    def intersect(self, other: "PointSet") -> "PointSet":
        self._check_same_context(other)
        return PointSet._adopt(self.context, self.membership & other.membership)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_same_context(other)
        return PointSet._adopt(self.context, self.membership & ~other.membership)

    def is_symmetric(self) -> bool:
        """True iff S = -S: -S has |S| points, so S = -S when each lies in S."""
        ctx = self.context
        return bool(self.membership[ctx.indices_of(-ctx.coords_of(self.indices()))].all())

    def _check_same_context(self, other: "PointSet") -> None:
        if self.context != other.context:
            raise ValueError("point sets live over different contexts")


def det_mod(matrix: np.ndarray, p: int) -> int:
    """Determinant mod p by Gaussian elimination over F_p."""
    m = [[int(v) % p for v in row] for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[col])]
    return det % p


# -- Salem maximum --------------------------------------------------------------


# Complex cells one pass of `spectrum_max` holds at once: a block of x_1
# lines in the first stage, or a slab of x_1 frequencies by every line in
# the second (1 MiB).  A pass holds two slabs and a slab of magnitudes, so
# 1 MiB slabs keep it near a core's 2 MiB L2.  Measured at p = 2039 on one
# core of a 2-vCPU Xeon VM (numpy 2.4, median of 15 interleaved runs),
# circle:56, sym-parabola and paraboloid took 155/182/209 ms at 2^14 cells,
# where each `fft` call's set-up shows, 146/180/207 at 2^15, 143/171/213 at
# 2^16, 144/168/199 at 2^17 and 145/177/204 at 2^18, a tie from 2^15 up;
# the tracemalloc peak of sym-parabola grows with the slab, 32.5, 33.1,
# 34.3, 36.8 and 41.8 MiB.
SPECTRUM_SLAB_CELLS = 1 << 16


def _distinct_lines(lines: np.ndarray, held: np.ndarray) -> tuple:
    """(distinct, inverse) with lines[held] equal to lines[distinct][inverse]:
    the first of each class of equal held lines, keyed by its packed bits as
    one np.void each."""
    keys = np.packbits(lines, axis=1)[held]
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return held[first], inverse


def spectrum_max(S: PointSet) -> float:
    """max_{m != 0} |S^(m)|: the one-set case of `spectrum_maxima`."""
    return float(spectrum_maxima(S.context, S.membership[None])[0])


def spectrum_maxima(
    ctx: FieldContext, stack: np.ndarray, power: np.ndarray | None = None
) -> np.ndarray:
    """max_{m != 0} |S^(m)| for each row S of a (T, q^d) bool stack, each bit
    for bit as the whole fftn spectrum of S scaled by q^-d gives it, without
    a q^d table.  The reference that builds that spectrum is
    tests/oracles.py::fourier_spectrum.

    It runs fftn's own length-p transforms in fftn's order, on the x_1 lines
    of every set of the stack at once.  First the x_1 axis (the last), only on
    the lines that hold a point.  When the held lines fill more than one
    block of transforms, each distinct line is transformed once (lines keyed
    by their packed bits): the transform maps equal lines to bitwise equal
    rows, whatever block or set holds them.  Each block is cast to complex
    and transformed column-wise, along axis 0, straight into a
    frequency-major table: the cast is exact, and each 1-D line transforms
    to fftn's own row along any axis.  The table has one column per distinct
    line, plus one zero column, the transform of an empty line (an empty
    line transforms to exact zeros, and a signed zero changes no |.|); `src`
    maps every x_1 line to its column: its class, or the zero column.  Then
    one slab of x_1 frequencies at a time is gathered by `src` from
    contiguous rows of that table, already frequency-major with the lines
    contiguous, set after set, and the other axes of each set run on it
    last to first.

    No slab is scaled as a whole.  Each set's unscaled magnitudes in the
    slab, with m = 0 left out, pick its cells within a factor 1 - 2^-30 of
    their maximum; only those are divided by q = p^d, by the same `/= q` as
    the whole spectrum's, and their magnitudes fold into the set's running
    max.  No dropped cell can win: `/ q` and `|.|` each move a value by a
    few ulp (about 2^-52 relative), far inside the 2^-30 margin, so after
    scaling every dropped cell stays below the cell that held the set's
    unscaled maximum.  So each maximum is the same whatever slabs and sets
    share its pass.  Ties, as for a single point, only keep more cells.  A
    slab lives until the next gather replaces it, so at most two slabs and
    one slab of magnitudes are alive at once, as during a transform.

    With `power`, a C-contiguous float64 table of shape (T,) + grid_shape[:-1]
    + (p // 2 + 1,), the pass also writes each set's unscaled |S^|^2 at every
    frequency with xi_1 <= (p - 1) / 2, in grid layout with the xi_1 axis
    last: rfftn's half spectrum, squared from the slab's own magnitudes
    before any cell is scaled.  At m = 0 it writes |S|^2 exactly, |S^(0)|
    rounded to the integer |S| and squared.  Nothing that produces the
    maxima changes.
    """
    p, q = ctx.p, ctx.order
    sets = len(stack)
    cells = SPECTRUM_SLAB_CELLS
    lines = stack.reshape(-1, p)
    held = np.flatnonzero(lines.any(axis=1))
    rows = max(1, cells // p)
    if held.size > rows:
        distinct, inverse = _distinct_lines(lines, held)
    else:
        distinct, inverse = held, np.arange(held.size)
    n = distinct.size
    line_hat = np.empty((p, n + 1), dtype=np.complex128)
    for r in range(0, n, rows):
        block = distinct[r : r + rows]
        line_hat[:, r : r + block.size] = np.fft.fft(lines[block].T.astype(np.complex128), axis=0)
    line_hat[:, n] = 0.0  # the transform of an empty line
    src = np.full(len(lines), n)
    src[held] = inverse
    width = max(1, cells // len(lines))
    worst = np.zeros(sets)
    starts = np.zeros(sets, dtype=np.intp)  # where each set's near cells begin
    half = p // 2 + 1
    if power is not None:
        by_freq = power.reshape(sets, -1, half).transpose(2, 0, 1)  # slab layout
    for k in range(0, p, width):
        slab = line_hat[k : k + width].take(src, axis=1)
        slab = slab.reshape((slab.shape[0], sets) + ctx.grid_shape[:-1])
        for axis in reversed(range(2, ctx.d + 1)):
            slab = np.fft.fft(slab, axis=axis)
        slab = slab.reshape(slab.shape[0], sets, -1)
        mags = np.abs(slab)
        if power is not None and k < half:
            kept = mags[: half - k]
            np.multiply(kept, kept, out=by_freq[k : k + len(kept)])
        if k == 0:  # m = 0, where S^(0) = |S| / q^d
            if power is not None:
                size = np.rint(mags[0, :, 0])
                by_freq[0, :, 0] = size * size
            slab[0, :, 0] = mags[0, :, 0] = 0.0
        by_set = mags.swapaxes(0, 1)  # so near cells come out set after set
        near_cells = by_set >= (by_set.max(axis=(1, 2)) * (1 - 2**-30))[:, None, None]
        np.cumsum(np.count_nonzero(near_cells[:-1], axis=(1, 2)), out=starts[1:])
        near = slab.swapaxes(0, 1)[near_cells]
        near /= q
        scaled = np.abs(near, out=mags.ravel()[: near.size])
        np.maximum(worst, np.maximum.reduceat(scaled, starts), out=worst)
        del near  # under ties it holds nearly the whole slab
    return worst


# -- Salem certification --------------------------------------------------------


@dataclass(frozen=True)
class SalemParams:
    """Target inequality |S^(m)| <= constant * q^(-d) * (log q)^gamma * |S|^(1/2)."""

    gamma: float = 0.0
    constant: float = 2.0

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:  # written so that nan fails too
            raise ValueError(f"gamma must be a finite number >= 0, got {self.gamma}")
        if not 0 < self.constant < math.inf:
            raise ValueError(f"constant must be a finite number > 0, got {self.constant}")


@dataclass(frozen=True)
class SalemReport:
    max_nontrivial: float
    bound: float
    ratio: float
    passed: bool
    params: SalemParams
    set_size: int

    def to_json(self) -> dict:
        return {
            "max_nontrivial": self.max_nontrivial,
            "bound": self.bound,
            "ratio": self.ratio,
            "pass": self.passed,
            "gamma": self.params.gamma,
            "constant": self.params.constant,
            "set_size": self.set_size,
        }


def _log_factor(q: int, gamma: float) -> float:
    """(log q)^gamma with the natural log; inf past the float range."""
    try:
        return math.log(q) ** gamma
    except OverflowError:
        return math.inf


def salem_bound(ctx: FieldContext, size: int, params: SalemParams) -> float:
    return params.constant * ctx.p ** (-ctx.d) * _log_factor(ctx.p, params.gamma) * math.sqrt(size)


def salem_report(S: PointSet, params: SalemParams | None = None) -> SalemReport:
    """Check the Salem inequality for every nonzero frequency of S; a bound
    that underflows to 0.0, overflows to inf (or is nan) is a ValueError, as
    it leaves no finite ratio to report."""
    if S.size == 0:
        raise EmptySet("salem certification needs a nonempty set")
    params = params or SalemParams()
    bound = salem_bound(S.context, S.size, params)
    if not 0 < bound < math.inf:  # underflowed to 0.0, overflowed, or 0.0 * inf = nan
        raise ValueError(
            f"the Salem bound is {bound}: constant {params.constant} and gamma "
            f"{params.gamma} leave the float range"
        )
    worst = spectrum_max(S)
    return SalemReport(
        max_nontrivial=worst,
        bound=bound,
        ratio=worst / bound,
        passed=worst <= bound,
        params=params,
        set_size=S.size,
    )


# -- text interchange format ----------------------------------------------------
#
# First line: "p d".  Each following non-comment line: d integers, one point.
# '#' starts a comment; blank lines are ignored; duplicate points are errors.


def load_points(stream: IO[str] | str | os.PathLike) -> PointSet:
    if isinstance(stream, (str, os.PathLike)):
        with open(stream, "r", encoding="utf-8") as fh:
            return load_points(fh)
    lines = stream.read().splitlines()
    header_at = None
    ctx = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if header_at is None:
            if len(parts) != 2:
                raise PointSetParseError(f"line {lineno}: header must be 'p d'")
            try:
                p, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise PointSetParseError(f"line {lineno}: header must be two integers") from None
            try:
                ctx = FieldContext(p, d)
            except ValueError as exc:
                raise PointSetParseError(f"line {lineno}: {exc}") from None
            header_at = lineno
            mem = np.zeros(ctx.order, dtype=bool)
            continue
        if len(parts) != ctx.d:
            raise PointSetParseError(
                f"line {lineno}: expected {ctx.d} coordinates, got {len(parts)}"
            )
        try:
            pt = tuple(int(v) for v in parts)
        except ValueError:
            raise PointSetParseError(f"line {lineno}: coordinates must be integers") from None
        if any(not 0 <= c < ctx.p for c in pt):
            raise PointSetParseError(f"line {lineno}: coordinates must lie in [0, {ctx.p})")
        i = ctx.index_of(pt)
        if mem[i]:
            raise PointSetParseError(f"line {lineno}: duplicate point {pt}")
        mem[i] = True
    if header_at is None:
        raise PointSetParseError("line 1: missing 'p d' header")
    return PointSet._adopt(ctx, mem)


def dump_points(S: PointSet, stream: IO[str]) -> None:
    ctx = S.context
    stream.write(f"{ctx.p} {ctx.d}\n")
    for pt in S:
        stream.write(" ".join(str(c) for c in pt) + "\n")
