import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffsalem import (
    EmptySet,
    FieldContext,
    PointSet,
    PointSetParseError,
    SalemParams,
    SingularMatrix,
    dump_points,
    load_points,
    make_curve,
    paraboloid,
    poly_graph,
    salem_bound,
    salem_report,
    spectrum_max,
    spectrum_maxima,
    sphere,
)
from ffsalem import pointset
from oracles import direct_dft, fourier_spectrum, kloosterman_circle_max, reference_affine_image

F5 = FieldContext(5, 2)
F11 = FieldContext(11, 2)


def random_set(ctx, rng, size):
    idx = rng.choice(ctx.order, size=size, replace=False)
    return PointSet.from_indices(ctx, idx)


def test_constructors_and_membership():
    S = PointSet.from_points(F5, [(1, 2), (-1, 7)])
    assert len(S) == 2
    assert (1, 2) in S and (4, 2) in S
    assert (0, 0) not in S
    assert sorted(S.points()) == [(1, 2), (4, 2)]
    assert PointSet.empty(F5).size == 0
    assert PointSet.full(F5).size == 25


def test_pointset_is_immutable():
    S = PointSet.from_points(F5, [(1, 2)])
    with pytest.raises(AttributeError):
        S.size = 3


def test_mutating_the_callers_array_leaves_the_set_unchanged():
    table = np.zeros(F5.order, dtype=bool)
    table[[0, 7]] = True
    S = PointSet(F5, table)
    table[[0, 7, 9]] = [False, False, True]
    assert S.indices().tolist() == [0, 7] and S.size == 2
    assert table.flags.writeable and not S.membership.flags.writeable


def test_fresh_tables_are_kept_without_a_copy():
    import tracemalloc

    ctx = FieldContext(2039, 2)
    A = PointSet.from_indices(ctx, range(0, ctx.order, 3))
    B = A.translate((1, 0))
    builds = {
        "full": lambda: PointSet.full(ctx),
        "empty": lambda: PointSet.empty(ctx),
        "union": lambda: A.union(B),
        "intersect": lambda: A.intersect(B),
        "difference": lambda: A.difference(B),
        "translate": lambda: A.translate((5, 7)),
        "negate": A.negate,
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            S = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not S.membership.flags.writeable, name
        assert peak < 1.25 * ctx.order, name  # one q^d bool table, not two


def test_size_matches_population_count():
    S = PointSet.from_indices(F5, [0, 3, 17])
    assert S.size == int(S.membership.sum()) == 3


def test_negate_translate_semantics():
    S = PointSet.from_points(F5, [(1, 2), (0, 3)])
    assert sorted(S.negate().points()) == [(0, 2), (4, 3)]
    assert sorted(S.translate((1, 1)).points()) == [(1, 4), (2, 3)]
    assert S.translate((2, 3)).size == S.size


def test_linear_image_and_singular_rejection():
    S = PointSet.from_points(F5, [(1, 0), (0, 1)])
    T = S.linear_image([[0, 1], [1, 0]])
    assert sorted(T.points()) == [(0, 1), (1, 0)]
    with pytest.raises(SingularMatrix):
        S.linear_image([[1, 2], [2, 4]])


TABLE_FIELDS = [(7, 1), (31, 1), (5, 2), (11, 2), (3, 3), (5, 3)]


@pytest.mark.parametrize("p,d", TABLE_FIELDS)
def test_translate_negate_linear_image_match_reference(p, d):
    ctx = FieldContext(p, d)
    rng = np.random.Generator(np.random.Philox(p * 10 + d))
    identity = np.eye(d, dtype=np.int64)
    for size in (1, ctx.order // 3, ctx.order - 1):
        S = random_set(ctx, rng, size)
        v = tuple(int(c) for c in rng.integers(-2 * p, 2 * p, size=d))
        assert S.translate(v) == reference_affine_image(S, identity, v)
        assert S.negate() == reference_affine_image(S, -identity, (0,) * d)
        while True:
            T = rng.integers(0, p, size=(d, d))
            if round(np.linalg.det(T)) % p:
                break
        assert S.linear_image(T.tolist()) == reference_affine_image(S, T, (0,) * d)


def test_symmetry_checks():
    assert sphere(F5, 1).points.is_symmetric()
    graph = poly_graph(F5, [0, 0, 1]).points
    assert (1, 1) in graph and (4, 4) not in graph
    assert not graph.is_symmetric()


@pytest.mark.parametrize("p, d", [(3, 2), (5, 1), (5, 2), (3, 3)])
def test_is_symmetric_matches_whole_set_negate(p, d):
    ctx = FieldContext(p, d)
    rng = np.random.Generator(np.random.Philox(p * 10 + d))
    for size in range(ctx.order + 1):
        S = random_set(ctx, rng, size)
        for T in (S, S.union(S.negate())):
            assert T.is_symmetric() == (T == T.negate())


def test_set_algebra():
    A = PointSet.from_points(F5, [(0, 0), (1, 1)])
    B = PointSet.from_points(F5, [(1, 1), (2, 2)])
    assert sorted(A.union(B).points()) == [(0, 0), (1, 1), (2, 2)]
    assert A.intersect(B).points() == [(1, 1)]
    assert A.difference(B).points() == [(0, 0)]


@settings(max_examples=25, deadline=None)
@given(
    idx=st.lists(st.integers(min_value=0, max_value=24), min_size=0, max_size=12),
    v=st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
)
def test_translate_preserves_size(idx, v):
    S = PointSet.from_indices(F5, list(set(idx)))
    assert S.translate(v).size == S.size


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 2)])
def test_spectrum_matches_direct_dft(p, d):
    ctx = FieldContext(p, d)
    rng = np.random.Generator(np.random.Philox(p * 10 + d))
    S = random_set(ctx, rng, ctx.order // 3 + 1)
    spec = fourier_spectrum(S)
    want = direct_dft(S)
    for m, val in want.items():
        assert spec.value_at(m) == pytest.approx(val, abs=1e-9)


def test_spectrum_trivial_cases():
    spec = fourier_spectrum(PointSet.empty(F5))
    assert spec.max_nontrivial == 0
    assert spec.value_at((0, 0)) == 0
    full = fourier_spectrum(PointSet.full(F5))
    assert full.value_at((0, 0)) == pytest.approx(1)
    assert full.max_nontrivial < 1e-12
    S = PointSet.from_points(F5, [(1, 2), (3, 3), (0, 4)])
    assert fourier_spectrum(S).value_at((0, 0)) == pytest.approx(3 / 25, abs=1e-12)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_plancherel_and_inversion(p):
    ctx = FieldContext(p, 2)
    rng = np.random.Generator(np.random.Philox(p))
    for _ in range(10):
        S = random_set(ctx, rng, int(rng.integers(1, ctx.order)))
        spec = fourier_spectrum(S)
        energy = ctx.order * float(np.sum(np.abs(spec.values) ** 2))
        assert energy == pytest.approx(S.size, rel=1e-9)
        # inversion: S(x) = sum_m chi(m.x) S^(m) recovers the indicator
        back = np.fft.ifftn(spec.values.reshape(ctx.grid_shape)) * ctx.order
        grid = S.grid().astype(float)
        assert np.max(np.abs(back - grid)) < 1e-9


def test_salem_invariance_under_translation_and_linear_maps():
    S = sphere(F11, 1).points
    base = np.sort(np.abs(fourier_spectrum(S).values))[:-1]
    moved = S.translate((3, 7))
    mapped = S.linear_image([[2, 1], [1, 1]])
    for other in (moved, mapped):
        vals = np.sort(np.abs(fourier_spectrum(other).values))[:-1]
        assert np.max(np.abs(vals - base)) < 1e-9
    assert fourier_spectrum(moved).max_nontrivial == pytest.approx(
        fourier_spectrum(S).max_nontrivial, abs=1e-9
    )


def _spectrum_cases(ctx):
    """Sets whose streamed maximum must match the table: every kind of line
    fill, and ties that make the rescale keep many cells.  A point ties every
    nontrivial |S^(m)| at q^-d, a whole x_1 line ties p^(d-1) - 1 of them,
    and in the full group every nontrivial coefficient is rounding noise."""
    rng = np.random.Generator(np.random.Philox(ctx.p * 10 + ctx.d))
    p = ctx.p
    row = ctx.order // p // 2
    cases = {
        "empty": PointSet.empty(ctx),
        "full": PointSet.full(ctx),
        "point": PointSet.from_indices(ctx, [ctx.order // 2]),
        "origin": PointSet.from_indices(ctx, [0]),
        "x1-line": PointSet.from_indices(ctx, range(row * p, row * p + p // 2)),
        "whole-x1-line": PointSet.from_indices(ctx, range(row * p, row * p + p)),
        "sphere": sphere(ctx, 1).points,
    }
    if ctx.d > 1:
        cases["x2-line"] = PointSet.from_indices(ctx, range(3, p * p, p))
        cases["paraboloid"] = paraboloid(ctx).points
    for density in (0.01, 0.1, 0.5):
        cases[f"random-{density}"] = PointSet(ctx, rng.random(ctx.order) < density)
    return cases


@pytest.mark.parametrize("p,d", [(101, 1), (11, 2), (13, 2), (5, 3), (7, 3), (5, 4)])
@pytest.mark.parametrize("cells", [1, 7, 64, 1000, 1 << 18])
def test_spectrum_max_is_the_table_max_bit_for_bit(monkeypatch, p, d, cells):
    # a few cells force many row blocks and slabs, and slabs one frequency
    # wide; 7 and 64 cells give slabs whose width does not divide p; 1 << 18
    # cells, like the default, take each of these sets in one block and slab
    monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", cells)
    ctx = FieldContext(p, d)
    for name, S in _spectrum_cases(ctx).items():
        assert spectrum_max(S) == fourier_spectrum(S).max_nontrivial, name
    assert spectrum_max(PointSet.empty(ctx)) == 0.0


@pytest.mark.parametrize("p,d", [(101, 1), (11, 2), (13, 2), (5, 3), (7, 3), (5, 4)])
@pytest.mark.parametrize("cells", [1, 7, 64, 1000, 1 << 16])
def test_spectrum_maxima_of_a_stack_is_each_sets_table_max(monkeypatch, p, d, cells):
    # every set of one stack, with its lines keyed and transformed beside the
    # other sets' and its slabs cut where the stack's fall, keeps its own
    # maximum bit for bit; 1 << 16 cells, the default, takes each stack in
    # one block and one slab
    monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", cells)
    ctx = FieldContext(p, d)
    sets = list(_spectrum_cases(ctx).values())
    got = spectrum_maxima(ctx, np.stack([S.membership for S in sets]))
    assert got.tolist() == [fourier_spectrum(S).max_nontrivial for S in sets]


@pytest.mark.parametrize("p,d", [(101, 1), (11, 2), (101, 2), (5, 3), (5, 4)])
@pytest.mark.parametrize("cells", [7, 1000, 1 << 16])
def test_spectrum_maxima_captures_the_half_power_spectrum(monkeypatch, p, d, cells):
    # the captured table is rfftn's |S^|^2, with m = 0 exactly |S|^2 (at p =
    # 101 the transform's own |S^(0)|^2 is off by a few ulp), and the maxima
    # are the ones the pass gives without it
    monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", cells)
    ctx = FieldContext(p, d)
    sets = list(_spectrum_cases(ctx).values())
    stack = np.stack([S.membership for S in sets])
    power = np.empty((len(sets),) + ctx.grid_shape[:-1] + (p // 2 + 1,))
    got = spectrum_maxima(ctx, stack, power)
    assert got.tolist() == spectrum_maxima(ctx, stack).tolist()
    grids = stack.reshape((len(sets),) + ctx.grid_shape).astype(np.float64)
    want = np.abs(np.fft.rfftn(grids, axes=range(1, d + 1))) ** 2
    assert np.allclose(power, want, rtol=1e-12, atol=1e-9 * ctx.order)
    assert power.reshape(len(sets), -1)[:, 0].tolist() == [S.size**2 for S in sets]


@pytest.mark.parametrize("p,d", [(101, 1), (11, 2), (5, 3), (5, 4)])
def test_tied_cases_put_many_cells_near_the_maximum(p, d):
    # the ties of _spectrum_cases are real: many unscaled nontrivial
    # magnitudes lie within the rescale's 2^-30 margin of the largest
    cases = _spectrum_cases(FieldContext(p, d))
    for name, ties in (("point", p**d - 1), ("origin", p**d - 1), ("whole-x1-line", p ** (d - 1) - 1)):
        mags = np.abs(np.fft.fftn(cases[name].grid().astype(np.float64))).ravel()[1:]
        assert np.count_nonzero(mags >= mags.max() * (1 - 2**-30)) >= ties, name


def test_spectrum_max_above_one_slab_is_the_table_max():
    ctx = FieldContext(67, 3)  # 300 763 cells, more than one slab
    assert ctx.order > pointset.SPECTRUM_SLAB_CELLS
    for name in ("sphere", "random-0.01", "x2-line"):
        S = _spectrum_cases(ctx)[name]
        assert spectrum_max(S) == fourier_spectrum(S).max_nontrivial, name


@pytest.mark.parametrize("name", ["circle:1", "sym-parabola", "random-0.5"])
def test_plane_spectrum_max_past_one_slab_is_the_table_max(name):
    # at the default slab size a plane over F_409 takes several slabs, and
    # its held lines fill several transform blocks, so they are keyed
    ctx = FieldContext(409, 2)
    if name == "random-0.5":
        S = PointSet(ctx, np.random.Generator(np.random.Philox(409)).random(ctx.order) < 0.5)
    else:
        S = make_curve(ctx, name).points
    rows = pointset.SPECTRUM_SLAB_CELLS // ctx.p
    assert ctx.order > 2 * pointset.SPECTRUM_SLAB_CELLS
    assert np.count_nonzero(S.grid().any(axis=1)) > rows
    assert spectrum_max(S) == fourier_spectrum(S).max_nontrivial


@pytest.mark.parametrize("p, t", [(31, 1), (31, 3), (2039, 1), (2039, 56)])
def test_circle_spectrum_max_matches_its_kloosterman_closed_form(p, t):
    ctx = FieldContext(p, 2)
    S = sphere(ctx, t).points
    if p == 2039:  # more held lines than one transform block: the deduplicated route
        assert np.count_nonzero(S.grid().any(axis=1)) > pointset.SPECTRUM_SLAB_CELLS // p
    want = kloosterman_circle_max(p, t)
    assert abs(spectrum_max(S) - want) <= 1e-13 * want


@pytest.mark.parametrize("p,d", [(31, 2), (101, 2), (2039, 2), (31, 3), (101, 3)])
def test_paraboloid_spectrum_max_is_its_closed_form(p, d):
    # |S^(m)| = p^-d * p^((d-1)/2) at every m with m_d != 0, and 0 at the other
    # nonzero m; at p = 2039 the held lines fill many transform blocks
    S = paraboloid(FieldContext(p, d)).points
    want = p ** (-(d + 1) / 2)
    assert abs(spectrum_max(S) - want) <= 1e-13 * want


def _spectrum_max_peak(curve):
    import tracemalloc

    ctx = FieldContext(2039, 2)
    if curve == "random-0.5":
        S = PointSet(ctx, np.random.Generator(np.random.Philox(2039)).random(ctx.order) < 0.5)
    else:
        S = make_curve(ctx, curve).points
    tracemalloc.start()
    try:
        spectrum_max(S)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("curve, mib", [("circle:1", 32), ("sym-parabola", 50), ("random-0.5", 80)])
def test_spectrum_max_transforms_each_distinct_line_once(curve, mib):
    # the x_1 lines of a circle or sym-parabola pair off as y and -y, so the
    # table of transformed lines holds half of them: tracemalloc peaks of 18.6
    # and 34.3 MiB with numpy 2.4, against 41.7 and 73.4 MiB with one row per
    # held line.  A dense random set repeats no line and keeps every held
    # line: 66.0 MiB, of which the table itself is 63.5 (2039 x 2040 complex).
    assert _spectrum_max_peak(curve) < mib * 2**20


@pytest.mark.parametrize("curve, mib", [("circle:1", 22), ("sym-parabola", 38), ("random-0.5", 70)])
def test_spectrum_max_peak_holds_one_mib_slabs(curve, mib):
    # with 1 MiB slabs the peaks read 18.6, 34.3 and 66.0 MiB (numpy 2.4);
    # with 4 MiB slabs, each held beside a second slab and a slab of
    # magnitudes, they read 26.0, 41.8 and 73.5 MiB
    assert _spectrum_max_peak(curve) < mib * 2**20


def test_spectrum_max_leaves_out_the_zero_frequency(monkeypatch):
    # S^(0) = |S| / q^d is the largest coefficient, so keeping it would show
    monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", 16)
    for ctx in (FieldContext(11, 2), FieldContext(5, 3)):
        S = sphere(ctx, 1).points
        assert spectrum_max(S) < S.size / ctx.order


def test_salem_params_validation():
    with pytest.raises(ValueError):
        SalemParams(gamma=-0.5)
    with pytest.raises(ValueError):
        SalemParams(constant=0)
    with pytest.raises(ValueError):
        SalemParams(gamma=math.nan)
    with pytest.raises(ValueError):
        SalemParams(constant=math.nan)


def test_salem_report_rejects_a_bound_that_underflows():
    S = sphere(FieldContext(5, 2), 1).points
    assert salem_bound(S.context, S.size, SalemParams(constant=5e-324)) == 0.0
    with pytest.raises(ValueError, match="Salem bound is 0.0"):
        salem_report(S, SalemParams(constant=5e-324))
    # constant * p^-d underflows before (log p)^gamma overflows: 0.0 * inf
    with pytest.raises(ValueError, match="Salem bound is nan"):
        salem_report(S, SalemParams(gamma=1e6, constant=5e-324))
    # a tiny constant whose bound stays positive still gets a report
    report = salem_report(S, SalemParams(constant=1e-300))
    assert report.bound > 0 and not report.passed


def test_salem_params_and_report_reject_non_finite_values():
    for kwargs in ({"gamma": math.inf}, {"constant": math.inf}, {"constant": -math.inf}):
        with pytest.raises(ValueError, match="must be a finite number"):
            SalemParams(**kwargs)
    # a finite gamma whose (log p)^gamma overflows makes the bound inf
    S = sphere(FieldContext(5, 2), 1).points
    assert salem_bound(S.context, S.size, SalemParams(gamma=1e308)) == math.inf
    with pytest.raises(ValueError, match="Salem bound is inf"):
        salem_report(S, SalemParams(gamma=1e308))
    # a huge constant whose bound stays finite still gets a report
    assert salem_report(S, SalemParams(constant=1e308)).passed


def test_salem_bound_log_convention():
    ctx = FieldContext(7, 2)
    assert salem_bound(ctx, 8, SalemParams()) == pytest.approx(2 * math.sqrt(8) / 49)
    with_log = salem_bound(ctx, 8, SalemParams(gamma=1.0))
    assert with_log == pytest.approx(2 * math.log(7) * math.sqrt(8) / 49)
    # (log 7)^1492 is past the float range: the bound is infinite, not an OverflowError
    assert salem_bound(ctx, 8, SalemParams(gamma=1492.0)) == math.inf


def test_salem_report_examples():
    for curve in (sphere(FieldContext(7, 2), 1), paraboloid(FieldContext(7, 2))):
        rep = salem_report(curve.points, SalemParams())
        assert rep.passed and rep.ratio <= 1
    full = salem_report(PointSet.full(F5), SalemParams())
    assert full.passed and full.max_nontrivial < 1e-12
    with pytest.raises(EmptySet):
        salem_report(PointSet.empty(F5), SalemParams())


def test_salem_check_path_builds_no_coordinate_table():
    import tracemalloc

    tracemalloc.start()
    try:
        ctx = FieldContext(1009, 2)
        report = salem_report(sphere(ctx, 1).points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert not hasattr(ctx, "coords")
    # the streamed maximum holds one transformed row per distinct line that
    # holds a point (a circle's lines pair off, so about a quarter of a complex
    # table) and 1 MiB slabs: 7.4 MiB in all with numpy 2.4 (14.9 MiB with
    # 4 MiB slabs), against 15.5 MiB for one complex table.  fftn's whole
    # table or a cached (order, 2) int64 coordinate table would each add
    # about one more.
    complex_table = 16 * ctx.order
    assert peak < 0.75 * complex_table


def test_salem_report_json_keys():
    rep = salem_report(sphere(F11, 1).points, SalemParams())
    data = rep.to_json()
    assert set(data) == {
        "max_nontrivial", "bound", "ratio", "pass", "gamma", "constant", "set_size",
    }
    assert data["pass"] is True


def test_dump_load_round_trip():
    S = sphere(F5, 2).points
    buf = io.StringIO()
    dump_points(S, buf)
    back = load_points(io.StringIO(buf.getvalue()))
    assert back == S


def test_load_points_format():
    text = "# circle sample\n5 2\n1 2\n\n# interior comment\n3 4\n"
    S = load_points(io.StringIO(text))
    assert sorted(S.points()) == [(1, 2), (3, 4)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("5\n1 2\n", "header"),
        ("4 2\n1 2\n", "prime"),
        ("5 2\n1 2\n1 2\n", "line 3"),
        ("5 2\n1 7\n", "line 2"),
        ("5 2\n1 x\n", "line 2"),
        ("5 2\n1\n", "line 2"),
    ],
)
def test_load_points_errors(text, fragment):
    with pytest.raises(PointSetParseError) as err:
        load_points(io.StringIO(text))
    assert fragment in str(err.value)


def test_equality_and_hash():
    A = PointSet.from_points(F5, [(1, 2)])
    B = PointSet.from_points(F5, [(1, 2)])
    assert A == B and hash(A) == hash(B)
    assert A != PointSet.from_points(F5, [(2, 1)])
