import numpy as np
import pytest

from ffsalem import (
    BadDegree,
    DegenerateConic,
    FieldContext,
    PointSet,
    Quadratic,
    classify_quadratic,
    conic,
    make_curve,
    paraboloid,
    poly_graph,
    reduce_quadratic,
    sphere,
    symmetrized_parabola,
)

from oracles import brute_points, fourier_spectrum

F5 = FieldContext(5, 2)
F11 = FieldContext(11, 2)


def test_quadratic_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Quadratic(F5, 1, 0, 0, 0, 0, 4)  # x^2 - 1: univariate
    with pytest.raises(ValueError):
        Quadratic(F5, 0, 0, 1, 0, 1, 0)  # y^2 + y: univariate
    with pytest.raises(ValueError):
        Quadratic(F5, 0, 0, 0, 1, 1, 0)  # no quadratic term
    with pytest.raises(ValueError):
        Quadratic(FieldContext(5, 1), 1, 1, 1, 0, 0, 0)  # plane only


def test_determinants_circle_and_parabola():
    circle = Quadratic(F5, 1, 0, 1, 0, 0, -1)
    assert circle.det2 == 1
    assert circle.det3 == (-1) % 5
    cls = classify_quadratic(circle)
    assert cls.smooth and not cls.degenerate_quadratic_part

    parab = Quadratic(F5, 1, 0, 0, 0, -1, 0)  # x^2 - y
    cls = classify_quadratic(parab)
    assert cls.det2 == 0
    assert cls.smooth and cls.degenerate_quadratic_part


def test_zero_set_matches_evaluation():
    q = Quadratic(F11, 2, 3, 1, 4, 0, 7)
    Z = q.zero_set()
    for x in range(11):
        for y in range(11):
            assert ((x, y) in Z) == (q.evaluate(x, y) == 0)


def test_reduce_circle_is_already_diagonal():
    form = reduce_quadratic(Quadratic(F5, 1, 0, 1, 0, 0, -1))
    assert form.kind == "diagonal"
    assert form.diag == (1, 1, 4)
    assert form.matrix == ((1, 0), (0, 1))
    assert form.shift == (0, 0)


def test_reduce_parabola_with_linear_terms():
    q = Quadratic(F11, 1, 0, 0, 3, -1, 0)  # x^2 + 3x - y
    form = reduce_quadratic(q)
    assert form.kind == "parabola"
    original = q.zero_set()
    image = PointSet.from_points(F11, [form.transform_point(pt) for pt in original])
    assert image == form.canonical_zero_set()
    assert image.size == original.size


def test_reduce_cross_term_diagonal():
    q = Quadratic(F11, 2, 2, 3, 0, 0, -1)
    form = reduce_quadratic(q)
    assert form.kind == "diagonal"
    original = q.zero_set()
    image = PointSet.from_points(F11, [form.transform_point(pt) for pt in original])
    assert image == form.canonical_zero_set()
    assert image.size == original.size


def test_reduce_degenerate_is_rejected():
    # (x + y)^2 - 1: det2 = det3 = 0
    q = Quadratic(F11, 1, 2, 1, 0, 0, -1)
    assert q.det2 == 0 and q.det3 == 0
    with pytest.raises(DegenerateConic):
        reduce_quadratic(q)
    with pytest.raises(DegenerateConic):
        conic(q)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_random_smooth_reductions_are_bijective(p):
    ctx = FieldContext(p, 2)
    rng = np.random.Generator(np.random.Philox(p + 100))
    done = 0
    while done < 25:
        coeffs = [int(v) for v in rng.integers(0, p, size=6)]
        try:
            q = Quadratic(ctx, *coeffs)
        except ValueError:
            continue
        if q.det3 == 0:
            continue
        done += 1
        form = reduce_quadratic(q)
        original = q.zero_set()
        image = PointSet.from_points(ctx, [form.transform_point(pt) for pt in original])
        assert image == form.canonical_zero_set()
        assert image.size == original.size == len({form.transform_point(pt) for pt in original})


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_smooth_conic_point_counts(p):
    ctx = FieldContext(p, 2)
    rng = np.random.Generator(np.random.Philox(p + 7))
    done = 0
    while done < 100:
        coeffs = [int(v) for v in rng.integers(0, p, size=6)]
        try:
            q = Quadratic(ctx, *coeffs)
        except ValueError:
            continue
        if q.det3 == 0:
            continue
        done += 1
        assert q.zero_set().size in (p - 1, p, p + 1)


def test_sphere_points():
    c = sphere(F5, 1)
    assert c.points.size == 4
    for x, y in c.points:
        assert (x * x + y * y) % 5 == 1
    zero = sphere(F5, 0)  # allowed, just not Salem-certified
    assert (0, 0) in zero.points
    d3 = sphere(FieldContext(5, 3), 2)
    for pt in d3.points:
        assert sum(v * v for v in pt) % 5 == 2


def test_paraboloid_points():
    c = paraboloid(FieldContext(7, 2))
    assert c.points.size == 7
    for x, y in c.points:
        assert y == (x * x) % 7


@pytest.mark.parametrize(
    "p,d",
    [(7, 1), (13, 1), (5, 2), (11, 2), (3, 3), (5, 3), (3, 1), (3, 2), (7, 2), (7, 3)],
)
def test_sphere_and_paraboloid_match_brute_points(p, d):
    ctx = FieldContext(p, d)
    for t in range(-1, p + 1):
        handle = sphere(ctx, t)
        assert handle.points == brute_points(
            ctx, lambda x: sum(c * c for c in x) % p == t % p
        )
        assert handle.parameters == {"t": t % p}
    if d >= 2:
        assert paraboloid(ctx).points == brute_points(
            ctx, lambda x: sum(c * c for c in x[:-1]) % p == x[-1]
        )


# zero sets that hold whole lines: xy, x(y + 1) and x(x + y)
DEGENERATE = [(0, 1, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0)]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_zero_set_matches_brute_points(p):
    ctx = FieldContext(p, 2)
    rng = np.random.Generator(np.random.Philox(p))
    quadratics = [Quadratic(ctx, *coeffs) for coeffs in DEGENERATE]
    while len(quadratics) < 12 + len(DEGENERATE):
        coeffs = [int(c) for c in rng.integers(-p, 2 * p, size=6)]
        try:
            quadratics.append(Quadratic(ctx, *coeffs))
        except ValueError:
            continue
    for q in quadratics:
        assert q.zero_set() == brute_points(ctx, lambda x: q.evaluate(*x) == 0)
        try:
            form = reduce_quadratic(q)
        except DegenerateConic:
            continue
        if form.kind == "diagonal":
            alpha, beta, gamma = form.diag
            expected = brute_points(
                ctx, lambda x: (alpha * x[0] ** 2 + beta * x[1] ** 2 + gamma) % p == 0
            )
        else:
            expected = brute_points(ctx, lambda x: x[1] == x[0] ** 2 % p)
        assert form.canonical_zero_set() == expected


def test_poly_graph():
    c = poly_graph(FieldContext(7, 2), [0, 0, 0, 1])
    assert c.points.size == 7
    xs = sorted(x for x, _ in c.points)
    assert xs == list(range(7))
    with pytest.raises(BadDegree):
        poly_graph(F5, [1, 2])  # degree 1
    with pytest.raises(BadDegree):
        poly_graph(FieldContext(7, 2), [0] * 7 + [1])  # p | degree


def test_symmetrized_parabola():
    c = symmetrized_parabola(F11)
    up = poly_graph(F11, [0, 0, 1]).points
    down = poly_graph(F11, [0, 0, -1]).points
    assert c.points == up.union(down)
    assert c.points.size == 21
    assert c.points.is_symmetric()


def test_make_curve_descriptors():
    assert make_curve(F5, "circle:1").points == sphere(F5, 1).points
    assert make_curve(F5, "paraboloid").points == paraboloid(F5).points
    assert make_curve(F5, "polygraph:0,0,1").points == poly_graph(F5, [0, 0, 1]).points
    assert make_curve(F11, "sym-parabola").points == symmetrized_parabola(F11).points
    got = make_curve(F5, "conic:1,0,1,0,0,4")
    assert got.points == Quadratic(F5, 1, 0, 1, 0, 0, 4).zero_set()
    with pytest.raises(ValueError):
        make_curve(F5, "lemniscate:1")
    with pytest.raises(ValueError):
        make_curve(F5, "circle:one")
    with pytest.raises(ValueError):
        make_curve(F5, "conic:1,2,3")
    # the families without a parameter take no ":" suffix, not even an empty one
    for descriptor in ("sym-parabola:9", "paraboloid:junk", "paraboloid:"):
        with pytest.raises(ValueError, match="takes no argument"):
            make_curve(F5, descriptor)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_poly_graph_salem_sharpened_constant(p):
    for deg in (2, 3, 4):
        if deg % p == 0:
            continue
        graph = poly_graph(FieldContext(p, 2), [0] * deg + [1]).points
        top = fourier_spectrum(graph).max_nontrivial
        assert top <= (deg - 1) * p ** (-1.5) * (1 + 1e-6)


# curve sizes at p = 2039
SIZES_2039 = {
    "circle:1": 2040,  # 2039 = 3 mod 4
    "paraboloid": 2039,
    "conic:1,1,3,2,5,7": 2038,
    "sym-parabola": 2 * 2039 - 1,
    "polygraph:0,0,1": 2039,
}


@pytest.mark.parametrize("descriptor", SIZES_2039)
def test_curves_build_no_table_of_the_group_beyond_their_membership(descriptor):
    import tracemalloc

    ctx = FieldContext(2039, 2)
    tracemalloc.start()
    try:
        S = make_curve(ctx, descriptor).points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.size == SIZES_2039[descriptor]
    # the membership alone, q^d bytes (4.0 MiB), taken over without a copy;
    # a copy would add 4 MiB and an int64 q^d table 32 MiB
    assert peak < 1.25 * ctx.order
