import math

import numpy as np
import pytest

from ffsalem import (
    EmptySet,
    FieldContext,
    NotSymmetric,
    PointSet,
    build_cube,
    convolve,
    edge_count,
    find_rhombus,
    intersection_profile,
    overlap_maxima,
    poly_graph,
    prune,
    sphere,
    spectrum_maxima,
    symmetrized_parabola,
    triple_count,
)
from ffsalem import analysis, pointset
from ffsalem.analysis import (
    _cyclic_convolution,
    _exact,
    _gathered_sums,
    _pair_counts,
    _sums,
    salem_overlap_maxima,
)
from ffsalem.randomsets import sample_subset
from oracles import (
    brute_convolution,
    brute_edge_count,
    brute_rhombus,
    brute_triple_count,
    fourier_edge_count,
)

F5 = FieldContext(5, 2)
F7 = FieldContext(7, 2)
F11 = FieldContext(11, 2)


def random_set(ctx, size, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.permutation(ctx.order)[:size]
    return PointSet.from_points(ctx, [ctx.point_at(int(i)) for i in idx])


def coords(A):
    """The (|A|, d) coordinate array _pair_counts takes."""
    return A.context.coords_of(A.indices())


def test_convolve_against_full_plane():
    S = sphere(F5, 1).points
    conv = convolve(PointSet.full(F5), S)
    assert (conv.values == S.size).all()


def test_convolve_with_origin_is_indicator():
    E = random_set(F7, 10, seed=3)
    origin = PointSet.from_points(F7, [(0, 0)])
    conv = convolve(E, origin)
    assert (conv.values == E.membership.astype(np.int64)).all()


@pytest.mark.parametrize("p, d", [(3, 1), (5, 2), (7, 2), (3, 3)])
def test_convolve_matches_brute(p, d):
    ctx = FieldContext(p, d)
    E = random_set(ctx, ctx.order // 3, seed=5 + p + d)
    S = random_set(ctx, ctx.order // 4 + 1, seed=50 + p + d)
    conv = convolve(E, S)
    expected = brute_convolution(E, S)
    for pt, val in expected.items():
        assert conv.at(pt) == val


def test_fft_exactness_guard(monkeypatch, transforms):
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *a, **kw: irfftn(*a, **kw) + 0.3)
    # dense sets too large for the pair route, short of the full group, whose
    # counts are closed forms
    E = random_set(F7, 40, seed=7)
    S = sphere(F7, 1).points
    with pytest.raises(AssertionError, match="internal error"):
        convolve(E, S)
    with pytest.raises(AssertionError, match="internal error"):
        intersection_profile(E)
    assert transforms == [False, True]  # E*S, then the autocorrelation of E


def test_convolve_context_mismatch():
    with pytest.raises(ValueError):
        convolve(PointSet.full(F5), PointSet.full(F7))


def test_edge_count_full_plane():
    S = sphere(F7, 1).points
    rep = edge_count(PointSet.full(F7), S)
    # every x has exactly |S| partners
    assert rep.nu == F7.order * S.size
    assert rep.error == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_count_matches_brute(seed):
    E = random_set(F5, 7, seed=seed)
    S = random_set(F5, 6, seed=seed + 100)
    rep = edge_count(E, S)
    assert rep.nu == brute_edge_count(E, S)
    assert fourier_edge_count(E, S) == pytest.approx(rep.nu, rel=1e-6)
    assert rep == edge_count(E, S)


FULL_E_FIELDS = [(7, 1), (5, 2), (7, 2), (3, 3)]


@pytest.mark.parametrize("p, d", FULL_E_FIELDS)
def test_full_e_closed_forms_match_fft(p, d):
    ctx = FieldContext(p, d)
    full = PointSet.full(ctx)
    fft_overlaps = _exact(_cyclic_convolution(full.membership, full.membership, ctx, -1))
    assert np.array_equal(_sums(full, full, -1), fft_overlaps)
    for seed in (1, 2):
        S = random_set(ctx, ctx.order // (2 + seed), seed=seed + 10 * p + d)
        counts = _exact(_cyclic_convolution(full.membership, S.membership, ctx))
        assert np.array_equal(convolve(full, S).values, counts)
        assert np.array_equal(_sums(full, S, 1, S.indices()), counts[S.indices()])
        for M in (-1, 0, S.size - 1, S.size, ctx.order):
            assert prune(full, S, M) == PointSet(ctx, full.membership & (counts > M))


@pytest.mark.parametrize("p, d", FULL_E_FIELDS)
def test_edge_count_nu_matches_brute_asymmetric_s(p, d):
    ctx = FieldContext(p, d)
    for seed in (1, 2, 3):
        E = random_set(ctx, ctx.order // 2, seed=seed + 20 * p + d)
        S = random_set(ctx, ctx.order // 4 + 1, seed=seed + 40 * p + d)
        assert not S.is_symmetric()
        assert edge_count(E, S).nu == brute_edge_count(E, S)
        full = PointSet.full(ctx)
        assert edge_count(full, S).nu == brute_edge_count(full, S) == ctx.order * S.size


# -- which kernel answers ------------------------------------------------------


@pytest.fixture
def transforms(monkeypatch):
    """Records, per _cyclic_convolution call, whether it took one transform (g is f)."""
    calls = []

    def counted(f, g, ctx, sign=1):
        calls.append(g is f)
        return _cyclic_convolution(f, g, ctx, sign)

    monkeypatch.setattr(analysis, "_cyclic_convolution", counted)
    return calls


@pytest.fixture
def listings(monkeypatch):
    """Records the stack and point axes of a and b, a.shape[:-1] and
    b.shape[:-1], of each _pair_counts call: (|A|,) for one set, (T, |S|)
    for a stack of T sets."""
    calls = []

    def counted(ctx, a, b):
        calls.append((a.shape[:-1], b.shape[:-1]))
        return _pair_counts(ctx, a, b)

    monkeypatch.setattr(analysis, "_pair_counts", counted)
    return calls


@pytest.fixture
def gathers(monkeypatch):
    """Records, per _gathered_sums call, whether it read differences (sign -1)."""
    calls = []

    def counted(A, B, sign, points):
        calls.append(sign < 0)
        return _gathered_sums(A, B, sign, points)

    monkeypatch.setattr(analysis, "_gathered_sums", counted)
    return calls


def test_dense_counts_skip_closed_form_transforms(transforms, listings, monkeypatch):
    calls = transforms
    S = sphere(F11, 1).points
    full = PointSet.full(F11)
    assert prune(full, S, 3) is full
    assert build_cube(full, S) is not None
    assert edge_count(full, S).nu == F11.order * S.size
    assert triple_count(full, S) == F11.order * S.size**2
    assert calls == [] and listings == []  # the full plane needs no kernel at all
    intersection_profile(S)
    convolve(random_set(F11, S.size, seed=3), S)
    assert calls == [] and len(listings) == 2  # curve-sized counts list their pairs
    E = random_set(F11, 40, seed=4)
    nu = edge_count(E, S).nu
    assert calls == [] and len(listings) == 2  # 40 points at 6 shifts are gathered
    monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 0)
    assert edge_count(E, S).nu == nu
    assert calls == [True]  # without the gathers, nu from one autocorrelation of E


def test_bench_jobs_keep_their_routes(transforms, listings, gathers):
    ctx = FieldContext(1009, 2)
    S = sphere(ctx, 1).points
    edge_count(sample_subset(ctx, 20_000, seed=1), S)
    assert (gathers, listings, transforms) == ([True], [], [])  # edge-count gathers
    intersection_profile(S)
    assert (listings, transforms) == ([((S.size,), (S.size,))], [])  # a curve lists its pairs
    listings.clear()
    intersection_profile(sample_subset(FieldContext(101, 2), 1015, seed=1))
    assert (listings, transforms) == ([], [True])  # a random-trials set is transformed


def mixed_sets(ctx):
    """Sizes on both sides of the pair route's |S|^2 <= C q^d, repeated so
    each route takes a stack of several sets, beside the empty set, a point,
    the sphere and the full group."""
    edge = math.isqrt(analysis.PAIR_ROUTE_RATIO * ctx.order)
    sizes = [edge - 1, edge, edge + 1, edge, edge + 1, ctx.order - 1, 1, edge - 1]
    sets = [random_set(ctx, n, seed=10 * i + n) for i, n in enumerate(sizes)]
    return sets + [PointSet.empty(ctx), sphere(ctx, 1).points, PointSet.full(ctx)]


@pytest.mark.parametrize("p,d", [(7, 1), (101, 1), (7, 2), (11, 2), (5, 3), (3, 4)])
def test_overlap_maxima_of_a_stack_is_each_profiles_max(p, d):
    ctx = FieldContext(p, d)
    sets = mixed_sets(ctx)
    got = overlap_maxima(ctx, np.stack([S.membership for S in sets]))
    want = [intersection_profile(S).max_size if S.size else 0 for S in sets]
    assert got.tolist() == want
    assert [overlap_maxima(ctx, S.membership[None])[0] for S in sets] == want


def test_overlap_maxima_take_one_call_a_size(transforms, listings):
    # a Monte Carlo stack of 31-point sets over F_31^2 lists its pairs in one
    # call; 1015-point sets over F_101^2 take one stacked transform
    ctx = FieldContext(31, 2)
    stack = np.stack([sample_subset(ctx, 31, seed=s).membership for s in range(17)])
    overlap_maxima(ctx, stack)
    assert (listings, transforms) == ([((17, 31), (17, 31))], [])
    listings.clear()
    ctx = FieldContext(101, 2)
    stack = np.stack([sample_subset(ctx, 1015, seed=s).membership for s in range(3)])
    overlap_maxima(ctx, stack)
    assert (listings, transforms) == ([], [True])
    # a census stack holds conics of p - 1, p and p + 1 points: one listing a size
    transforms.clear()
    ctx = FieldContext(13, 2)
    stack = np.stack([random_set(ctx, n, seed=n).membership for n in (12, 14, 13, 14)])
    overlap_maxima(ctx, stack)
    assert (listings, transforms) == ([((1, 12),) * 2, ((1, 13),) * 2, ((2, 14),) * 2], [])


@pytest.mark.parametrize(
    "p, d, sets", [(13, 1, 10), (13, 1, 5), (7, 2, 1), (11, 2, 2), (5, 3, 3), (3, 4, 2)]
)
@pytest.mark.parametrize("slab_cells", [40, None], ids=["40-cell-slabs", "default-slabs"])
def test_salem_overlap_maxima_is_both_readers(monkeypatch, p, d, sets, slab_cells):
    # every size from the empty set to the full group, on both sides of the
    # pair route; 40-cell slabs cut xi_1 into slabs that end below, across and
    # past the half spectrum (at p = 13 with 10 sets, [4, 8) straddles 7)
    if slab_cells:
        monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", slab_cells)
    ctx = FieldContext(p, d)
    edge = math.isqrt(analysis.PAIR_ROUTE_RATIO * ctx.order)
    for size in sorted({0, 1, edge, edge + 1, ctx.order // 2, ctx.order - 1, ctx.order}):
        stack = np.stack([random_set(ctx, size, seed=size + i).membership for i in range(sets)])
        worst, overlaps = salem_overlap_maxima(ctx, stack)
        assert worst == spectrum_maxima(ctx, stack).tolist()
        assert overlaps == overlap_maxima(ctx, stack).tolist()


def test_salem_overlap_maxima_guards_its_rounding(monkeypatch, transforms):
    # a captured table 0.3 q^d off at m = 0 moves every overlap 0.3 off its
    # integer: an internal error, never a rounded answer
    real = analysis.spectrum_maxima

    def nudged(ctx, stack, power=None):
        worst = real(ctx, stack, power)
        power.reshape(len(stack), -1)[:, 0] += 0.3 * ctx.order
        return worst

    monkeypatch.setattr(analysis, "spectrum_maxima", nudged)
    ctx = FieldContext(101, 2)
    stack = sample_subset(ctx, 1015, seed=1).membership[None]
    with pytest.raises(AssertionError, match="internal error"):
        salem_overlap_maxima(ctx, stack)
    assert transforms == []  # the overlaps had no transform of their own


# d = 1, 2, 3; in F_101 the whole line is still cheap for the brute oracle
PAIR_FIELDS = [(7, 1), (101, 1), (7, 2), (11, 2), (5, 3)]


def sets_near_crossover(ctx, offset, seed):
    """Random A, B with |A| |B| = C q^d + offset |B|, C the pair-route ratio."""
    b_size = ctx.p if ctx.d == 1 else ctx.order // ctx.p
    a_size = analysis.PAIR_ROUTE_RATIO * ctx.order // b_size + offset
    return random_set(ctx, a_size, seed), random_set(ctx, b_size, seed + 1)


def pair_cases(ctx):
    one = (1,) + (0,) * (ctx.d - 1)
    curve = sphere(ctx, 1).points
    small = random_set(ctx, min(ctx.p, ctx.order // 3), seed=ctx.order)
    asym = random_set(ctx, ctx.p // 2 + 2, seed=ctx.order + 1)
    assert not asym.is_symmetric() and not small.is_symmetric()
    cases = {
        "singletons": (PointSet.from_points(ctx, [one]), PointSet.from_points(ctx, [ctx.neg(one)])),
        "E = S": (small, small),
        "asymmetric S": (small, asym),
        "curve": (curve, curve),
        "set and curve": (small, curve),
    }
    for offset, name in ((-1, "below"), (0, "at"), (1, "above")):
        cases[f"random {name} the crossover"] = sets_near_crossover(ctx, offset, seed=ctx.order + offset)
    return cases


@pytest.mark.parametrize("p, d", PAIR_FIELDS)
def test_pair_counts_match_fft_and_brute(p, d):
    ctx = FieldContext(p, d)
    for name, (A, B) in pair_cases(ctx).items():
        fft = _exact(_cyclic_convolution(A.membership, B.membership, ctx))
        brute = brute_convolution(A, B)
        assert [brute[ctx.point_at(i)] for i in range(ctx.order)] == fft.tolist(), name
        assert np.array_equal(_pair_counts(ctx, coords(A), coords(B)), fft), name
        assert np.array_equal(convolve(A, B).values, fft), name
        # overlaps count the sums a - b over A x A
        autocorrelation = _exact(_cyclic_convolution(A.membership, A.membership, ctx, -1))
        negated = _pair_counts(ctx, coords(A), coords(A.negate()))
        assert np.array_equal(negated, autocorrelation), name
        assert np.array_equal(_sums(A, A, -1), autocorrelation), name


@pytest.mark.parametrize("p, d", PAIR_FIELDS)
def test_pair_route_runs_up_to_the_crossover(p, d, transforms, listings):
    ctx = FieldContext(p, d)
    for offset, expected in ((-1, []), (0, []), (1, [False])):
        A, B = sets_near_crossover(ctx, offset, seed=offset + 3)
        assert A.size * B.size - analysis.PAIR_ROUTE_RATIO * ctx.order == offset * B.size
        transforms.clear()
        listings.clear()
        convolve(A, B)
        assert transforms == expected, offset
        assert len(listings) == (not expected), offset


@pytest.mark.parametrize(
    "p, d, a_size, b_size",
    [
        (7, 2, 21, 10),  # blocks of 4 rows (49 = 4 * 10 + 9), the last one of 1
        (7, 2, 30, 30),  # |B| > q^d / 2: one row per block
        (7, 2, 49, 49),  # |B| = q^d, the most B can hold
        (7, 2, 49, 1),  # all of A in one block
        (7, 2, 0, 5),
        (7, 2, 5, 0),
        (5, 3, 50, 40),  # blocks of 3 rows, the last one of 2
        (101, 1, 101, 30),  # blocks of 3 rows, the last one of 2
    ],
)
def test_pair_counts_across_block_boundaries(p, d, a_size, b_size):
    ctx = FieldContext(p, d)
    A = random_set(ctx, a_size, seed=a_size)
    B = random_set(ctx, b_size, seed=b_size + 1000)
    fft = _exact(_cyclic_convolution(A.membership, B.membership, ctx))
    assert np.array_equal(_pair_counts(ctx, coords(A), coords(B)), fft)
    assert int(fft.sum()) == a_size * b_size


def test_pair_route_peaks_no_higher_than_the_fft_route(monkeypatch, transforms, listings):
    import tracemalloc

    ctx = FieldContext(1009, 2)
    S = sphere(ctx, 1).points
    # 2p random points: |A|^2 = 4 q^d pairs, four blocks
    A = random_set(ctx, 2 * ctx.p, seed=9)

    def traced(X):
        tracemalloc.start()
        try:
            profile = intersection_profile(X)
            return profile, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pair_runs = [traced(S), traced(A)]
    assert len(listings) == 2 and transforms == []
    monkeypatch.setattr(analysis, "PAIR_ROUTE_RATIO", 0)
    fft_runs = [traced(S), traced(A)]
    assert len(listings) == 2 and transforms == [True, True]
    for (pair_profile, pair_peak), (fft_profile, fft_peak) in zip(pair_runs, fft_runs):
        assert pair_profile == fft_profile
        assert pair_peak <= fft_peak


# routes forced by the ratios: (PAIR_ROUTE_RATIO, GATHER_ROUTE_RATIO)
FORCED_ROUTES = {"pairs": (10**9, 0), "gather": (0, 10**9), "transform": (0, 0)}


@pytest.mark.parametrize("route", FORCED_ROUTES)
@pytest.mark.parametrize("p, d", [(7, 1), (7, 2), (5, 3)])
def test_differences_with_an_asymmetric_set(
    p, d, route, monkeypatch, transforms, listings, gathers
):
    """a - b over A x B with B != -B, by each route, against the brute E*S
    with S = -B; and the overlap maxima of a stack of mixed sizes, by the
    route that lists pairs and by the one that transforms, against each
    set's intersection profile."""
    ctx = FieldContext(p, d)
    sets = mixed_sets(ctx)
    stack = np.stack([S.membership for S in sets])
    maxima = [intersection_profile(S).max_size if S.size else 0 for S in sets]
    listings.clear()
    transforms.clear()
    A = random_set(ctx, ctx.order // 2, seed=p + d)
    B = random_set(ctx, ctx.order // 4 + 1, seed=p + d + 1)
    assert B != B.negate()
    points = random_set(ctx, ctx.order // 3, seed=p + d + 2).indices()
    brute = brute_convolution(A, B.negate())
    table = [brute[ctx.point_at(i)] for i in range(ctx.order)]
    pair_ratio, gather_ratio = FORCED_ROUTES[route]
    monkeypatch.setattr(analysis, "PAIR_ROUTE_RATIO", pair_ratio)
    monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", gather_ratio)
    assert _sums(A, B, -1).tolist() == table
    assert _sums(A, B, -1, points).tolist() == [table[i] for i in points]
    expected = {
        "pairs": ([((A.size,), (B.size,))] * 2, [], []),
        "gather": ([], [True], [False]),
        "transform": ([], [], [False, False]),
    }
    assert (listings, gathers, transforms) == expected[route]
    listings.clear()
    transforms.clear()
    assert overlap_maxima(ctx, stack).tolist() == maxima
    # one call a size, none for the full group; with C = 0 the empty set
    # alone still lists its (no) pairs
    sizes = {S.size for S in sets}
    if route == "pairs":
        assert transforms == [] and len(listings) == len(sizes) - 1
    else:
        assert listings == [((1, 0),) * 2] and len(transforms) == len(sizes) - 2


@pytest.mark.parametrize("p, d", [(3, 4), (5, 4)])
def test_counts_past_the_gather_dimension_read_the_table(p, d, monkeypatch, transforms, gathers):
    ctx = FieldContext(p, d)
    assert d > analysis.GATHER_MAX_DIM
    # the dimension alone stops the gathers
    monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 10**9)
    E = random_set(ctx, 40 if p == 3 else 60, seed=p)
    S = random_set(ctx, 20 if p == 3 else 60, seed=p + 1)
    assert not S.is_symmetric()
    conv = brute_convolution(E, S)
    assert convolve(E, S).values.tolist() == [conv[ctx.point_at(i)] for i in range(ctx.order)]
    assert edge_count(E, S).nu == brute_edge_count(E, S)
    on_e = [conv[x] for x in E]
    assert triple_count(E, S) == sum(c * c for c in on_e)
    for M in (0, 1, max(on_e)):
        assert prune(E, S, M) == PointSet.from_points(ctx, [x for x, c in zip(E, on_e) if c > M])
    # |E ^ (E - v)| = |{y in -E : v - y in E}|
    overlaps = brute_convolution(E.negate(), E)
    nontrivial = [overlaps[ctx.point_at(i)] for i in range(1, ctx.order)]
    profile = intersection_profile(E)
    assert profile.at_zero == E.size
    assert profile.histogram == {s: nontrivial.count(s) for s in set(nontrivial)}
    assert profile.max_size == max(nontrivial)
    assert profile.argmax == ctx.point_at(1 + nontrivial.index(profile.max_size))
    assert gathers == []
    # convolve, the overlaps, E*S for the triple count and the prunings, the profile
    assert transforms == [False, True, False, False, False, False, True]


# -- the gather route ---------------------------------------------------------

GATHER_FIELDS = [(31, 1), (7, 2), (31, 2), (5, 3), (7, 3)]
ROUTES = ("gather", "table")


def force_route(monkeypatch, route):
    """Every count that can gather does so, or none does."""
    if route == "gather":
        monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 10**9)
    else:
        monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 0)


def gather_cases(ctx):
    zero, one = (0,) * ctx.d, (1,) + (0,) * (ctx.d - 1)
    E = random_set(ctx, min(40, ctx.order // 3), seed=ctx.order)
    S = random_set(ctx, min(ctx.p + 1, ctx.order // 4), seed=ctx.order + 1)
    assert not S.is_symmetric() and zero not in S
    cases = {
        "asymmetric S": (E, S),
        "symmetric S": (E, S.union(S.negate())),
        "S holds 0": (E, S.union(PointSet.from_points(ctx, [zero]))),
        "|E| = 1": (PointSet.from_points(ctx, [one]), S),
        "E = S": (S, S),
    }
    if ctx.d > 1:
        cases["curves"] = (sphere(ctx, 2).points, sphere(ctx, 1).points)
    if ctx.order <= 343:  # the brute oracles visit q^d |E| pairs
        cases["E full"] = (PointSet.full(ctx), S)
    return cases


def brute_counts(E, S):
    """nu, and E*S at E's points in index order, from the oracles."""
    conv = brute_convolution(E, S)
    return brute_edge_count(E, S), [conv[x] for x in E]


@pytest.mark.parametrize("p, d", GATHER_FIELDS)
def test_gather_route_matches_table_route_and_brute(p, d, monkeypatch, gathers):
    ctx = FieldContext(p, d)
    for name, (E, S) in gather_cases(ctx).items():
        nu, conv = brute_counts(E, S)
        triple = sum(c * c for c in conv)
        shifts = S.indices()
        for route in ROUTES:
            with monkeypatch.context() as m:
                force_route(m, route)
                gathers.clear()
                assert edge_count(E, S).nu == nu, (name, route)
                assert _sums(E, E, -1, shifts).tolist() == _sums(E, E, -1)[shifts].tolist()
                assert _sums(E, S, 1, E.indices()).tolist() == conv, (name, route)
                assert triple_count(E, S) == triple, (name, route)
                for M in (-1, 0, 1, max(conv, default=0)):
                    kept = [x for x, c in zip(E, conv) if c > M]
                    assert prune(E, S, M) == PointSet.from_points(ctx, kept), (name, route, M)
                # two overlap reads, then E*S on E, for the triple count and 4
                # prunings; every count over the full group is a closed form
                expected = [] if E.size == ctx.order else [True] * 2 + [False] * 6
                assert gathers == (expected if route == "gather" else []), (name, route)


@pytest.mark.parametrize("route", ROUTES)
def test_triple_count_by_either_route_matches_brute(route, monkeypatch):
    force_route(monkeypatch, route)
    for p, d in ((31, 1), (7, 2), (5, 3)):
        ctx = FieldContext(p, d)
        S = random_set(ctx, ctx.p, seed=p + d)
        S = S.union(S.negate())
        E = random_set(ctx, 16, seed=p * d)
        assert triple_count(E, S) == brute_triple_count(E, S)
    # S != -S: the count is sum over x in E of (E*S(x))^2, not (E*(-S)(x))^2
    for p in (7, 11, 13):
        ctx = FieldContext(p, 2)
        S = random_set(ctx, p, seed=p)
        E = random_set(ctx, 16, seed=p + 1)
        assert not S.is_symmetric()
        assert triple_count(E, S) == brute_triple_count(E, S) != triple_count(E, S.negate())


def test_gather_route_runs_up_to_the_ratio(monkeypatch, gathers, transforms):
    ctx = FieldContext(31, 2)
    ratio = analysis.GATHER_ROUTE_RATIO
    # 31 shifts: the points (x, 1) and their 31 negatives (-x, -1)
    half = PointSet.from_points(ctx, [(x, 1) for x in range(31)])
    S = half.union(half.negate())
    for offset, expected in ((0, [True, False]), (1, [])):
        E = random_set(ctx, ratio * ctx.order // 31 + offset, seed=offset)
        assert E.size * 31 - ratio * ctx.order == offset * 31
        gathers.clear()
        edge_count(E, S)  # 31 pairs +-u
        _sums(E, half, 1, E.indices())  # 31 shifts
        assert gathers == expected, offset
    assert transforms == [True, False]  # above the ratio, E*S is not listed in pairs


@pytest.mark.parametrize("per_row", [True, False])
@pytest.mark.parametrize("p, d", [(31, 1), (7, 2), (5, 3)])
def test_gathers_across_block_boundaries(p, d, per_row, monkeypatch):
    """Blocks take their rows from the shorter of the points and B: one count
    a row when the points are shorter, one a column when B is."""
    ctx = FieldContext(p, d)
    A = random_set(ctx, ctx.order // 3, seed=p)
    short = random_set(ctx, 3 * (ctx.order // 8) + 1, seed=p + 1)
    long = random_set(ctx, ctx.order // 2 + 1, seed=p + 2)
    points, B = (short, long) if per_row else (long, short)
    # 3 rows a block, the last one of 1
    monkeypatch.setattr(analysis, "GATHER_BLOCK", 3 * long.size + long.size // 2)
    for sign in (1, -1):
        expected = _sums(A, B, sign)[points.indices()]
        assert np.array_equal(_gathered_sums(A, B, sign, points.indices()), expected), sign


def test_edge_count_gathers_without_a_complex_table(monkeypatch, gathers):
    import tracemalloc

    ctx = FieldContext(1009, 2)
    S = sphere(ctx, 1).points
    E = sample_subset(ctx, 20_000, seed=1)

    def traced():
        tracemalloc.start()
        try:
            return edge_count(E, S).nu, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    nu, gather_peak = traced()
    assert gathers == [True]
    monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 0)
    fft_nu, fft_peak = traced()
    assert gathers == [True]
    assert nu == fft_nu
    # one q^d complex table is 16 bytes a cell; the tiled copy of E is 4
    assert gather_peak < 8 * ctx.order < fft_peak / 3


RHOMBUS_CASES = [(5, 25, 1), (7, 49, 2), (7, 30, 3), (7, 14, 4), (11, 60, 5), (11, 121, 6)]


@pytest.mark.parametrize("p, size, seed", RHOMBUS_CASES)
def test_find_rhombus_matches_brute(p, size, seed):
    ctx = FieldContext(p, 2)
    E = random_set(ctx, size, seed=seed)
    # a symmetric circle and a large symmetric random set
    random_s = random_set(ctx, ctx.order // 3, seed=seed + 50)
    for S in (sphere(ctx, 1).points, random_s.union(random_s.negate())):
        for v in [(1, 0), (2, 3), (0, p - 1)]:
            w = find_rhombus(E, S, v)
            expect = brute_rhombus(E, S, v)
            assert (None if w is None else w.points()) == expect


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("p, seed", [(31, 1), (37, 2)])
def test_find_rhombus_on_half_samples_matches_brute(p, seed, route, monkeypatch):
    ctx = FieldContext(p, 2)
    E = sample_subset(ctx, ctx.order // 2, seed=seed)
    S = sphere(ctx, 1).points
    force_route(monkeypatch, route)
    for v in [(1, 0), (2, 3)]:
        w = find_rhombus(E, S, v)
        assert (None if w is None else w.points()) == brute_rhombus(E, S, v)


def test_find_rhombus_avoiding_phantom_shifts_matches_brute():
    """The cases above again with construct3's phantom shifts, which move
    the answer in some of them."""
    moved = 0
    for p, size, seed in RHOMBUS_CASES:
        ctx = FieldContext(p, 2)
        shifts = analysis._phantom_shifts(ctx)
        E = random_set(ctx, size, seed=seed)
        random_s = random_set(ctx, ctx.order // 3, seed=seed + 50)
        for S in (sphere(ctx, 1).points, random_s.union(random_s.negate())):
            for v in [(1, 0), (2, 3), (0, p - 1)]:
                w = find_rhombus(E, S, v, avoid=shifts)
                expect = brute_rhombus(E, S, v, avoid=shifts)
                assert (None if w is None else w.points()) == expect
                moved += expect != brute_rhombus(E, S, v)
    assert moved > 0


def test_edge_count_gamma_domain():
    E = random_set(F7, 12, seed=8)
    S = sphere(F7, 2).points
    # (log 7)^1492 overflows a float: a normalized error of 0.0 would be
    # meaningless, so the divisor is refused as salem_report refuses its bound
    with pytest.raises(ValueError, match="leaves the float range"):
        edge_count(E, S, gamma=1492.0)
    assert edge_count(E, S, gamma=400.0).normalized_error > 0.0
    for gamma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            edge_count(E, S, gamma=gamma)


def test_edge_count_normalization():
    E = random_set(F11, 30, seed=9)
    S = sphere(F11, 1).points
    rep = edge_count(E, S)
    q = 11.0
    K = S.size / q
    assert rep.K == pytest.approx(K)
    assert rep.main_term == pytest.approx(K * E.size**2 / q)
    assert rep.normalized_error == pytest.approx(abs(rep.error) / (q**0.5 * E.size))


def test_edge_count_empty():
    with pytest.raises(EmptySet):
        edge_count(PointSet.empty(F5), sphere(F5, 1).points)


def test_triple_count_examples():
    S = sphere(F7, 1).points
    full = PointSet.full(F7)
    assert triple_count(full, S) == F7.order * S.size**2
    E = random_set(F7, 8, seed=4)
    assert triple_count(E, S) == brute_triple_count(E, S)
    with pytest.raises(EmptySet):
        triple_count(PointSet.empty(F7), S)


def test_intersection_profile_curves():
    circle = sphere(F11, 1).points
    prof = intersection_profile(circle)
    assert prof.max_size <= 2
    assert prof.at_zero == circle.size
    assert sum(prof.histogram.values()) == F11.order - 1

    sym = symmetrized_parabola(F11).points
    assert intersection_profile(sym).max_size <= 6

    cubic = poly_graph(F11, [0, 0, 0, 1]).points
    assert intersection_profile(cubic).max_size <= 2


def test_intersection_profile_exact_small():
    S = PointSet.from_points(F5, [(0, 0), (1, 0), (2, 0)])
    prof = intersection_profile(S)
    # shifts along the x-axis overlap in 2 points, (3,0) and (4,0)... check directly
    for v_idx in range(1, F5.order):
        v = F5.point_at(v_idx)
        overlap = S.intersect(S.translate(tuple(-c % 5 for c in v))).size
        assert prof.histogram.get(overlap, 0) >= 1
    assert prof.max_size == 2
    assert prof.argmax == (1, 0)  # least index attaining the max
    with pytest.raises(EmptySet):
        intersection_profile(PointSet.empty(F5))


def test_intersection_profile_d3():
    ctx = FieldContext(5, 3)
    S = random_set(ctx, 30, seed=9)
    prof = intersection_profile(S)
    overlaps = [
        S.intersect(S.translate(tuple(-c % 5 for c in ctx.point_at(i)))).size
        for i in range(ctx.order)
    ]
    histogram = {}
    for size in overlaps[1:]:
        histogram[size] = histogram.get(size, 0) + 1
    assert prof.histogram == histogram
    assert prof.at_zero == 30
    assert prof.max_size == max(overlaps[1:])
    assert prof.argmax == ctx.point_at(1 + overlaps[1:].index(prof.max_size))


def test_profile_argmax_is_least_attaining():
    S = sphere(F11, 3).points
    prof = intersection_profile(S)
    for idx in range(1, F11.order):
        v = F11.point_at(idx)
        size = S.intersect(S.translate(tuple(-c % 11 for c in v))).size
        if size == prof.max_size:
            assert prof.argmax == v
            break


def test_prune_thresholds():
    E = random_set(F7, 20, seed=2)
    S = sphere(F7, 1).points
    conv = convolve(E, S)
    assert prune(E, S, -1) == E  # every count exceeds -1
    assert prune(E, S, F7.order).size == 0
    M = 2
    kept = prune(E, S, M)
    for idx in range(F7.order):
        pt = F7.point_at(idx)
        expect = pt in E and conv.at(pt) > M
        assert (pt in kept) == expect


def test_find_rhombus_frozen_small_case():
    E = PointSet.full(F5)
    S = sphere(F5, 1).points
    v = (2, 2)
    w = find_rhombus(E, S, v)
    assert w is not None
    assert (w.x1, w.x2, w.x3, w.x4) == ((1, 1), (0, 1), (1, 0), (0, 0))
    assert (w.u, w.w) == ((1, 0), (0, 1))
    assert w.verify(E, S, v)


def test_find_rhombus_empty_and_asymmetric():
    assert find_rhombus(PointSet.full(F5), PointSet.empty(F5), (1, 1)) is None
    with pytest.raises(NotSymmetric):
        find_rhombus(PointSet.full(F5), poly_graph(F5, [0, 0, 1]).points, (1, 1))


def test_find_rhombus_circle_f7():
    E = PointSet.full(F7)
    S = sphere(F7, 1).points
    for v_idx in range(1, F7.order):
        v = F7.point_at(v_idx)
        w = find_rhombus(E, S, v)
        if w is not None:
            assert w.verify(E, S, v)


def test_rhombus_verify_rejects_tampering():
    E = PointSet.full(F5)
    S = sphere(F5, 1).points
    v = (2, 2)
    w = find_rhombus(E, S, v)
    from ffsalem import RhombusWitness

    bad = RhombusWitness(w.x1, w.x2, w.x3, w.x1, w.u, w.w)  # repeated point
    assert not bad.verify(E, S, v)
    bad2 = RhombusWitness(w.x2, w.x1, w.x3, w.x4, w.u, w.w)  # broken differences
    assert not bad2.verify(E, S, v)


def test_build_cube_circle_f11():
    E = PointSet.full(F11)
    S = sphere(F11, 1).points
    cube = build_cube(E, S)
    assert cube is not None
    assert cube.verify(E, S)
    assert len(set(cube.points())) == 7
    assert len(cube.edges()) == 9
    for a, b in cube.edges():
        assert tuple((x - y) % 11 for x, y in zip(a, b)) in S or tuple(
            (y - x) % 11 for x, y in zip(a, b)
        ) in S


def test_build_cube_tiny_set():
    S = PointSet.from_points(F5, [(1, 0), (4, 0)])
    assert build_cube(PointSet.full(F5), S) is None
