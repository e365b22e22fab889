"""Prime-field contexts and the classical complete character sums.

Everything downstream works in the additive group Z_p^d with the fixed
character chi(x) = exp(2*pi*i*x/p).  Sums are evaluated by direct summation
in complex doubles through one kernel, `character_row_sums`: a gather from a
cached root-of-unity table and a sum along the last axis, so a sweep over
many sums is one 2-D block with one sum per row.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConstantPolynomial, DegreeDivisibleByP, ZeroParameter

# Dense tables (membership, spectra) are kept for the whole group, so the
# group order is capped; larger parameters are rejected up front.
MAX_ORDER = 1 << 22


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldContext:
    """The ambient group Z_p^d for an odd prime p.

    Provides point <-> index conversion (little-endian: index(x) = x_1 +
    x_2*p + ... + x_d*p^(d-1)), modular helpers, and the cached character
    table shared by every sum below.  No per-point table of the group is
    cached: coordinates come from index arithmetic (`coords_of`), and the
    curves solve for x_d line by line instead of tabulating the group.
    """

    def __init__(self, p: int, d: int = 2):
        if not isinstance(p, int) or not isinstance(d, int):
            raise ValueError("p and d must be integers")
        # trial division and p**d only run while both are cheap: a p past the
        # cap, or a d past its bit length (3^22 > 2^22), fails the cap untested,
        # and the message spells p^d out only while it has at most 1024 bits
        if p < 3 or (p <= MAX_ORDER and not is_prime(p)):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if p > MAX_ORDER or d >= MAX_ORDER.bit_length() or p**d > MAX_ORDER:
            order = p**d if d * p.bit_length() <= 1024 else f"{p}^{d}"
            raise ValueError(f"p^d = {order} exceeds the dense-table cap {MAX_ORDER}")
        self.p = p
        self.d = d
        self.order = p**d
        self.grid_shape = (p,) * d

    def __repr__(self):
        return f"FieldContext(p={self.p}, d={self.d})"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self):
        return hash((self.p, self.d))

    # -- indexing ----------------------------------------------------------

    @cached_property
    def _powers(self) -> np.ndarray:
        return self.p ** np.arange(self.d, dtype=np.int64)

    def coords_of(self, indices) -> np.ndarray:
        """Coordinates of the points at these indices: shape indices.shape + (d,).

        Built from the indices alone, so the cost is that of the request, never
        a table over the whole group."""
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape + (self.d,), dtype=np.int64)
        for axis in range(self.d):
            idx, out[..., axis] = np.divmod(idx, self.p)
        return out

    def index_of(self, point: Sequence[int]) -> int:
        if len(point) != self.d:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.d}")
        return int(sum((c % self.p) * self.p**i for i, c in enumerate(point)))

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        return (np.asarray(coords, dtype=np.int64) % self.p) @ self._powers

    @cached_property
    def _wrap(self) -> np.ndarray:
        """_wrap[i][s] = (s mod p) p^i for a coordinate sum 0 <= s < 2p."""
        wrap = np.outer(self._powers, np.arange(2 * self.p, dtype=np.int64) % self.p)
        wrap.setflags(write=False)
        return wrap

    def sum_index(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """index(x + y) for every row x of a and y of b, coordinate arrays of
        shape (..., n, d) and (..., m, d) with entries in [0, p), as an
        (..., n, m) array; leading axes pair off, so a stack of sets adds
        within each set.

        Axis i adds _wrap[i][x_i + y_i].  Each lookup writes over its own
        sums, which is safe because take reads entry j before it writes entry j."""
        wrap = self._wrap
        index = a[..., :, None, 0] + b[..., None, :, 0]
        wrap[0].take(index, out=index, mode="clip")
        for axis in range(1, self.d):
            sums = a[..., :, None, axis] + b[..., None, :, axis]
            index += wrap[axis].take(sums, out=sums, mode="clip")
        return index

    def point_at(self, index: int) -> tuple:
        index = int(index)
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} outside [0, {self.order})")
        point = []
        for _ in range(self.d):
            index, c = divmod(index, self.p)
            point.append(c)
        return tuple(point)

    def reduce(self, point: Sequence[int]) -> tuple:
        if len(point) != self.d:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.d}")
        return tuple(int(c) % self.p for c in point)

    # -- modular arithmetic ------------------------------------------------

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple:
        """The point x + y, reduced mod p, as a tuple of Python ints."""
        return tuple((int(a) + int(b)) % self.p for a, b in zip(x, y))

    def sub(self, x: Sequence[int], y: Sequence[int]) -> tuple:
        """The point x - y, reduced mod p, as a tuple of Python ints."""
        return tuple((int(a) - int(b)) % self.p for a, b in zip(x, y))

    def neg(self, x: Sequence[int]) -> tuple:
        """The point -x, reduced mod p, as a tuple of Python ints."""
        return tuple(-int(a) % self.p for a in x)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse mod p")
        return pow(a, self.p - 2, self.p)

    @cached_property
    def inverse_table(self) -> np.ndarray:
        """inverse_table[j] = j^(-1) mod p for j >= 1 (entry 0 unused)."""
        t = np.zeros(self.p, dtype=np.int64)
        t[1:] = [pow(j, self.p - 2, self.p) for j in range(1, self.p)]
        t.setflags(write=False)
        return t

    # -- character ---------------------------------------------------------

    @cached_property
    def roots(self) -> np.ndarray:
        """roots[a] = exp(2*pi*i*a/p)."""
        r = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        r.setflags(write=False)
        return r

    @cached_property
    def _roots_2p(self) -> np.ndarray:
        """roots twice over: _roots_2p[a] = exp(2*pi*i*a/p) for 0 <= a < 2p."""
        r = np.concatenate((self.roots, self.roots))
        r.setflags(write=False)
        return r

    @cached_property
    def epsilon_q(self) -> complex:
        """Normalized quadratic Gauss sum g(1) / (eta(1) * sqrt(p))."""
        return gauss_sum(self, 1) / (legendre(self, 1) * math.sqrt(self.p))


# -- complete character sums ------------------------------------------------


def character_row_sums(
    ctx: FieldContext, phases: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """sum_j chi(phases[..., j]): one complete character sum per row.

    Every phase must lie in [0, 2p), so the sum of two residues needs no
    `% p`: the gather reads a root table of length 2p with np.take's mode
    "clip" (64 against 220 us for mode "wrap" on a 210 x 210 block of
    Kloosterman phases, one core of a 2-vCPU Xeon VM).  `out`, a
    complex array of the phases' shape, receives the gathered characters; a
    sweep passes one buffer for every block, so no block allocates (fresh
    block-sized temporaries cost more in page faults than the gather
    itself).  numpy reduces a contiguous last axis with the same
    pairwise summation as a 1-D `.sum()`, so each row of a 2-D block is
    bit-identical to summing that row on its own.
    """
    return ctx._roots_2p.take(phases, mode="clip", out=out).sum(axis=-1)


def legendre(ctx: FieldContext, k: int) -> int:
    """Legendre symbol (k|p) in {-1, 0, 1}."""
    k %= ctx.p
    if k == 0:
        return 0
    return 1 if pow(k, (ctx.p - 1) // 2, ctx.p) == 1 else -1


def gauss_sum(ctx: FieldContext, k: int) -> complex:
    """Quadratic Gauss sum sum_x chi(k*x^2); equals p when k = 0 mod p."""
    p = ctx.p
    x = np.arange(p, dtype=np.int64)
    return complex(character_row_sums(ctx, (k % p) * x * x % p))


def kloosterman(ctx: FieldContext, a: int, b: int) -> complex:
    """Kloosterman sum sum_{j != 0} chi(a*j + b*j^(-1)); requires a, b != 0 mod p.

    The value is real (the terms pair off under j -> b*a^(-1)*j^(-1)); the
    complex result is returned so callers can assert that themselves.  It
    depends on a and b only through their product: j -> b*j gives
    K(a, b) = K(a*b, 1).
    """
    p = ctx.p
    a %= p
    b %= p
    if a == 0 or b == 0:
        raise ZeroParameter("kloosterman sum requires a, b nonzero mod p")
    j = np.arange(1, p, dtype=np.int64)
    return complex(character_row_sums(ctx, (a * j + b * ctx.inverse_table[j]) % p))


def poly_values(p: int, coefficients: Sequence[int]) -> tuple:
    """(coefficients mod p without trailing zeros, f(x) for x = 0..p-1) for f
    given by coefficients (constant term first); Horner, entirely mod p."""
    coeffs = [c % p for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    x = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * x + c) % p
    return coeffs, vals


def weil_poly_sum(ctx: FieldContext, coefficients: Sequence[int]) -> complex:
    """sum_x chi(f(x)) for f given by coefficients (constant term first).

    Requires deg f >= 1 with p not dividing deg f, the hypothesis under which
    the Weil bound |sum| <= (deg f - 1) * sqrt(p) applies.
    """
    p = ctx.p
    coeffs, vals = poly_values(p, coefficients)
    deg = len(coeffs) - 1
    if deg < 1:
        raise ConstantPolynomial("polynomial is constant mod p")
    if deg % p == 0:
        raise DegreeDivisibleByP(f"degree {deg} is divisible by p = {p}")
    return complex(character_row_sums(ctx, vals))
