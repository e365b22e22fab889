"""Explicit curve families and quadratic-curve reduction over F_p.

Every family is a zero set of degree at most 2 in x_d, which one solver,
`_roots_on_lines`, finds line by line: only the membership spans the group.

A Quadratic (d = 2) is f(x, y) = a x^2 + b xy + c y^2 + d x + e y + f_const.
Every valid one reduces by an explicit affine change of variables either to
the parabola y = x^2 (degenerate quadratic part) or to a diagonal form
alpha x^2 + beta y^2 + gamma = 0; the transform is returned so the zero-set
bijection can be checked point for point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BadDegree, DegenerateConic
from .field import FieldContext, poly_values
from .pointset import PointSet


def _roots_on_lines(ctx: FieldContext, a: int, b, c) -> PointSet:
    """{x : a x_d^2 + b(x') x_d + c(x') = 0}, solved on each line x' = (x_1, ..., x_(d-1)).

    b and c are integers or arrays over the q^(d-1) lines in index order.  With
    a != 0 the roots are (-b +- r) / 2a, r read off a p-entry square-root table;
    with a = 0 the root is -c / b, and a line with b = c = 0 lies in the set."""
    p = ctx.p
    step = p ** (ctx.d - 1)
    b = np.full(step, b, dtype=np.int64) % p
    c = np.full(step, c, dtype=np.int64) % p
    mem = np.zeros(ctx.order, dtype=bool)
    grid = mem.reshape(p, step)  # grid[x_d, line] is the point line + step * x_d
    if a % p:
        t = np.arange(p, dtype=np.int64)
        root = np.full(p, -1, dtype=np.int64)
        root[t * t % p] = t  # one square root of each square
        r = root[(b * b - 4 * a * c) % p]
        on = np.flatnonzero(r >= 0)
        half = ctx.inv(2 * a)
        grid[(r[on] - b[on]) * half % p, on] = True
        grid[(-r[on] - b[on]) * half % p, on] = True
    else:
        on = np.flatnonzero(b)
        grid[-c[on] * ctx.inverse_table[b[on]] % p, on] = True
        grid[:, (b == 0) & (c == 0)] = True
    return PointSet._adopt(ctx, mem)


@dataclass(frozen=True)
class Quadratic:
    """A degree-two polynomial in x, y that genuinely involves both variables."""

    context: FieldContext
    a: int  # x^2
    b: int  # xy
    c: int  # y^2
    d: int  # x
    e: int  # y
    f: int  # 1

    def __post_init__(self):
        p = self.context.p
        if self.context.d != 2:
            raise ValueError("quadratic curves live in d = 2")
        for name in ("a", "b", "c", "d", "e", "f"):
            object.__setattr__(self, name, getattr(self, name) % p)
        if self.a == self.b == self.c == 0:
            raise ValueError("not degree two: no quadratic term")
        involves_x = self.a or self.b or self.d
        involves_y = self.c or self.b or self.e
        if not involves_x or not involves_y:
            raise ValueError("polynomial must involve both x and y")

    def evaluate(self, x: int, y: int) -> int:
        p = self.context.p
        return (
            self.a * x * x + self.b * x * y + self.c * y * y + self.d * x + self.e * y + self.f
        ) % p

    @cached_property
    def det2(self) -> int:
        """det of the quadratic-part matrix [[a, b/2], [b/2, c]] mod p."""
        p = self.context.p
        inv4 = pow(4, p - 2, p)
        return (self.a * self.c - self.b * self.b * inv4) % p

    @cached_property
    def det3(self) -> int:
        """det of the bordered matrix [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, f]] mod p."""
        p = self.context.p
        inv2 = pow(2, p - 2, p)
        m = [
            [self.a, self.b * inv2 % p, self.d * inv2 % p],
            [self.b * inv2 % p, self.c, self.e * inv2 % p],
            [self.d * inv2 % p, self.e * inv2 % p, self.f],
        ]
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % p

    def zero_set(self) -> PointSet:
        # on the line x = x_1, y = x_2 solves c y^2 + (b x + e) y + (a x^2 + d x + f) = 0
        x = np.arange(self.context.p, dtype=np.int64)
        return _roots_on_lines(
            self.context, self.c, self.b * x + self.e, (self.a * x + self.d) * x + self.f
        )


@dataclass(frozen=True)
class Classification:
    smooth: bool  # bordered determinant nonzero
    degenerate_quadratic_part: bool  # det2 == 0
    det2: int
    det3: int


def classify_quadratic(q: Quadratic) -> Classification:
    return Classification(
        smooth=q.det3 != 0,
        degenerate_quadratic_part=q.det2 == 0,
        det2=q.det2,
        det3=q.det3,
    )


@dataclass(frozen=True)
class CanonicalForm:
    """Affine normal form of a quadratic, with the map that realizes it.

    kind is "parabola" (canonical zero set y = x^2) or "diagonal" (canonical
    equation diag[0] x^2 + diag[1] y^2 + diag[2] = 0).  The map sends original
    coordinates v to canonical coordinates U v + shift (all mod p), and takes
    the original zero set bijectively onto the canonical one.
    """

    context: FieldContext
    kind: str
    diag: tuple | None
    matrix: tuple
    shift: tuple

    def transform_point(self, point: Sequence[int]) -> tuple:
        p = self.context.p
        x, y = point
        (m00, m01), (m10, m11) = self.matrix
        return ((m00 * x + m01 * y + self.shift[0]) % p, (m10 * x + m11 * y + self.shift[1]) % p)

    def canonical_zero_set(self) -> PointSet:
        if self.kind == "parabola":
            return Quadratic(self.context, 1, 0, 0, 0, -1, 0).zero_set()  # x^2 - y
        alpha, beta, gamma = self.diag
        return Quadratic(self.context, alpha, 0, beta, 0, 0, gamma).zero_set()


def _diagonalizing_map(q: Quadratic) -> tuple:
    """L with L-substitution diagonalizing the quadratic part; returns (L, alpha, beta).

    Substituting u' = L u turns u^t M u into alpha u'_1^2 + beta u'_2^2.
    Only valid when det2 != 0.
    """
    p = q.context.p
    inv = q.context.inv
    if q.a != 0:
        L = ((1, q.b * inv(2 * q.a) % p), (0, 1))
        return L, q.a, q.det2 * inv(q.a) % p
    if q.c != 0:
        L = ((q.b * inv(2 * q.c) % p, 1), (1, 0))
        return L, q.c, q.det2 * inv(q.c) % p
    # a = c = 0, b != 0: b*x*y = b*((x+y)/2)^2 - b*((x-y)/2)^2
    i2 = inv(2)
    L = ((i2, i2), (i2, (p - i2) % p))
    return L, q.b, (p - q.b) % p


def reduce_quadratic(q: Quadratic) -> CanonicalForm:
    """Reduce to the parabola (det2 = 0) or a diagonal form (det2 != 0).

    Raises DegenerateConic when det2 = 0 but the zero set is a union of
    parallel lines (equivalently det3 = 0), which no affine map can carry
    onto a parabola.
    """
    ctx = q.context
    p = ctx.p
    inv = ctx.inv

    if q.det2 != 0:
        # translate the center away: w0 = -1/2 M^(-1) (d, e)^t, then diagonalize
        i2 = inv(2)
        idet = inv(q.det2)
        # M^(-1) = det2^(-1) * [[c, -b/2], [-b/2, a]]
        mi = (
            (q.c * idet % p, (p - q.b * i2 % p) * idet % p),
            ((p - q.b * i2 % p) * idet % p, q.a * idet % p),
        )
        w0 = (
            (p - i2) * (mi[0][0] * q.d + mi[0][1] * q.e) % p,
            (p - i2) * (mi[1][0] * q.d + mi[1][1] * q.e) % p,
        )
        gamma = q.evaluate(*w0)
        L, alpha, beta = _diagonalizing_map(q)
        shift = (
            (p - (L[0][0] * w0[0] + L[0][1] * w0[1])) % p,
            (p - (L[1][0] * w0[0] + L[1][1] * w0[1])) % p,
        )
        return CanonicalForm(ctx, "diagonal", (alpha, beta, gamma), L, shift)

    if q.det3 == 0:
        raise DegenerateConic(
            "degenerate quadratic part with singular bordered matrix: "
            "the zero set is a union of parallel lines, not a parabola"
        )

    # det2 = 0, det3 != 0: change basis so the quadratic part is a2 * x''^2,
    # then normalize the graph y'' = A2 x''^2 + B2 x'' + C2 onto y = x^2.
    if q.a != 0:
        winv = ((1, q.b * inv(2 * q.a) % p), (0, 1))  # W^(-1) for W = [[1, -b/2a], [0, 1]]
        a2 = q.a
        d2, e2 = q.d, ((p - q.b * inv(2 * q.a) % p) * q.d + q.e) % p
    else:
        # a = 0 forces b = 0 (det2 = 0), so c != 0; swap the variables
        winv = ((0, 1), (1, 0))
        a2 = q.c
        d2, e2 = q.e, q.d
    # in v'' coordinates: a2 x''^2 + d2 x'' + e2 y'' + f = 0 with e2 != 0
    ie = inv(e2)
    A2 = (p - a2) * ie % p
    B2 = (p - d2) * ie % p
    C2 = (p - q.f) * ie % p
    i2 = inv(2)
    U2 = ((A2, 0), (0, A2))
    w2 = (B2 * i2 % p, (B2 * B2 * inv(4) - A2 * C2) % p)
    U = (
        tuple((U2[r][0] * winv[0][c_] + U2[r][1] * winv[1][c_]) % p for c_ in range(2))
        for r in range(2)
    )
    U = tuple(tuple(row) for row in U)
    return CanonicalForm(ctx, "parabola", None, U, w2)


# Where does e2 come from when a = 0?  With W the swap, (d2, e2) = W^t (d, e)
# = (e, d); e2 = d must be nonzero because det3 = -a2 * e2^2 / 4 up to a
# nonzero congruence factor, and det3 != 0 was checked above.


# -- curve families -----------------------------------------------------------


@dataclass(frozen=True)
class CurveHandle:
    family: str
    parameters: dict
    points: PointSet


def _square_sum(ctx: FieldContext) -> np.ndarray:
    """x_1^2 + ... + x_(d-1)^2 mod p on each of the q^(d-1) lines, x_1 fastest."""
    squares = np.arange(ctx.p, dtype=np.int64) ** 2 % ctx.p
    head = np.zeros(1, dtype=np.int64)
    for _ in range(ctx.d - 1):
        head = np.add.outer(squares, head).reshape(-1) % ctx.p
    return head


def sphere(ctx: FieldContext, t: int) -> CurveHandle:
    """{x : x_1^2 + ... + x_d^2 = t}; the circle when d = 2."""
    t %= ctx.p
    return CurveHandle("sphere", {"t": t}, _roots_on_lines(ctx, 1, 0, _square_sum(ctx) - t))


def paraboloid(ctx: FieldContext) -> CurveHandle:
    """{(x, x_1^2 + ... + x_(d-1)^2)}; the parabola graph when d = 2."""
    if ctx.d < 2:
        raise ValueError("paraboloid needs d >= 2")
    return CurveHandle("paraboloid", {}, _roots_on_lines(ctx, 0, -1, _square_sum(ctx)))


def conic(q: Quadratic) -> CurveHandle:
    """Zero set of a smooth quadratic; degenerate reductions are rejected."""
    if q.det3 == 0:
        raise DegenerateConic("conic reduces to a degenerate zero set (det3 = 0 mod p)")
    params = {"a": q.a, "b": q.b, "c": q.c, "d": q.d, "e": q.e, "f": q.f}
    return CurveHandle("conic", params, q.zero_set())


def poly_graph(ctx: FieldContext, coefficients: Sequence[int]) -> CurveHandle:
    """Graph {(x, g(x))} of a polynomial with 2 <= deg g and p not dividing deg g."""
    if ctx.d != 2:
        raise ValueError("polynomial graphs live in d = 2")
    p = ctx.p
    coeffs, vals = poly_values(p, coefficients)
    deg = len(coeffs) - 1
    if deg < 2:
        raise BadDegree(f"graph Salem certification needs degree >= 2, got {deg}")
    if deg % p == 0:
        raise BadDegree(f"degree {deg} divisible by p = {p}: Weil bound unavailable")
    points = _roots_on_lines(ctx, 0, -1, vals)
    return CurveHandle("polygraph", {"coefficients": tuple(coeffs)}, points)


def symmetrized_parabola(ctx: FieldContext) -> CurveHandle:
    """{(t, t^2)} union {(t, -t^2)}, the roots of y^2 = x^4; 2p - 1 points."""
    if ctx.d != 2:
        raise ValueError("the symmetrized parabola lives in d = 2")
    x = np.arange(ctx.p, dtype=np.int64)
    return CurveHandle("sym-parabola", {}, _roots_on_lines(ctx, 1, 0, -(x * x % ctx.p) ** 2))


def make_curve(ctx: FieldContext, descriptor: str) -> CurveHandle:
    """Build a curve from a text descriptor.

    Accepted forms: "circle:t", "paraboloid", "conic:a,b,c,d,e,f",
    "polygraph:c0,c1,...,cn" (constant term first), "sym-parabola".  The two
    families without a parameter reject any ":" suffix.
    """
    name, sep, arg = descriptor.partition(":")
    name = name.strip().lower()
    if sep and name in ("paraboloid", "sym-parabola"):
        raise ValueError(f"bad curve descriptor {descriptor!r}: {name} takes no argument")
    try:
        if name == "circle":
            return sphere(ctx, int(arg))
        if name == "paraboloid":
            return paraboloid(ctx)
        if name == "conic":
            vals = [int(v) for v in arg.split(",")]
            if len(vals) != 6:
                raise ValueError("conic needs 6 coefficients a,b,c,d,e,f")
            return conic(Quadratic(ctx, *vals))
        if name == "polygraph":
            return poly_graph(ctx, [int(v) for v in arg.split(",")])
        if name == "sym-parabola":
            return symmetrized_parabola(ctx)
    except ValueError as exc:
        if "invalid literal" in str(exc):
            raise ValueError(f"bad curve descriptor {descriptor!r}: {exc}") from None
        raise
    raise ValueError(f"unknown curve family {name!r}")
