import itertools
import re

import numpy as np
import pytest

from ffsalem import (
    DimensionMismatch,
    EmptySet,
    Exhaustive,
    FieldContext,
    NotSymmetric,
    PointSet,
    RandomSearch,
    SearchStatus,
    ShatterProblem,
    ShatterWitness,
    SweepTooLarge,
    TranslateCounts,
    construct_shatter3,
    intersection_profile,
    make_curve,
    paraboloid,
    sample_subset,
    shatter_search,
    sphere,
    symmetrized_parabola,
    triple_overlap_max,
    vc_bounds,
    verify_witness,
    witness_for_points,
)
from ffsalem import analysis, shatter
from ffsalem.presets import F11_CENTERS, F11_EMPTY_CENTER, F11_X_TUPLE, X_TUPLES
from ffsalem.shatter import RANDOM_BATCH, _random_picks
from ffsalem.shatter import DEFAULT_BUDGET, SearchStats
from oracles import (
    brute_m,
    naive_shatterable,
    reference_random_search,
    reference_vc_bounds,
    reference_walk,
)

F5 = FieldContext(5, 2)
F7 = FieldContext(7, 2)
F11 = FieldContext(11, 2)
F7_3 = FieldContext(7, 3)


def random_set(ctx, size, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.permutation(ctx.order)[:size]
    return PointSet.from_points(ctx, [ctx.point_at(int(i)) for i in idx])


def f11_problem(k=4):
    return ShatterProblem.over(symmetrized_parabola(F11).points, k)


def f11_witness():
    masks = dict(F11_CENTERS)
    masks[0] = F11_EMPTY_CENTER
    return ShatterWitness(list(F11_X_TUPLE), masks)


def test_verify_witness_frozen_table():
    assert verify_witness(f11_problem(), f11_witness())


def test_verify_witness_rejects_moved_center():
    masks = dict(F11_CENTERS)
    masks[0] = F11_EMPTY_CENTER
    masks[1] = (0, 1)  # wrong neighborhood for mask {1}
    bad = ShatterWitness(list(F11_X_TUPLE), masks)
    assert not verify_witness(f11_problem(), bad)


def test_verify_witness_k_zero():
    problem = ShatterProblem.over(sphere(F5, 1).points, 0)
    w = ShatterWitness([], {0: (0, 0)})
    assert verify_witness(problem, w)


def test_verify_witness_dimension_errors():
    problem = f11_problem()
    with pytest.raises(DimensionMismatch):
        verify_witness(problem, ShatterWitness(list(F11_X_TUPLE[:3]), {}))
    masks = dict(F11_CENTERS)
    masks[0] = F11_EMPTY_CENTER
    del masks[7]
    with pytest.raises(DimensionMismatch):
        verify_witness(problem, ShatterWitness(list(F11_X_TUPLE), masks))
    masks = dict(F11_CENTERS)
    masks[0] = F11_EMPTY_CENTER
    masks[3] = (1, 2, 3)
    with pytest.raises(DimensionMismatch):
        verify_witness(problem, ShatterWitness(list(F11_X_TUPLE), masks))


def test_verify_witness_needs_points_in_e_and_centers_in_w():
    S = symmetrized_parabola(F11).points
    full = PointSet.full(F11)
    witness = shatter_search(ShatterProblem.over(S, 2)).witness
    # centers (2, 0) and (1, 0) of the full-plane witness lie off S
    assert {(2, 0), (1, 0)} <= set(witness.witnesses.values())
    assert verify_witness(ShatterProblem(S, full, full, 2), witness)
    assert not verify_witness(ShatterProblem(S, full, S, 2), witness)
    # its points (0, 0) and (1, 0): the second lies off S
    assert not verify_witness(ShatterProblem(S, S, full, 2), witness)


def test_verify_witness_duplicate_points_fail():
    problem = f11_problem(2)
    masks = {m: F11_EMPTY_CENTER for m in range(4)}
    w = ShatterWitness([(0, 0), (0, 0)], masks)
    assert not verify_witness(problem, w)


def test_search_circle_f5_k1():
    out = shatter_search(ShatterProblem.over(sphere(F5, 1).points, 1))
    assert out.status is SearchStatus.FOUND
    assert out.witness.k == 1


def test_search_finds_lex_least_tuple():
    S = sphere(F5, 1).points
    problem = ShatterProblem.over(S, 2)
    out = shatter_search(problem)
    assert out.status is SearchStatus.FOUND
    # the naive scan in index order must agree on the first shatterable pair
    full = PointSet.full(F5)
    for pair in itertools.combinations(range(F5.order), 2):
        pts = [F5.point_at(i) for i in pair]
        trial = witness_for_points(problem, pts)
        if trial.found:
            assert out.witness.points == pts
            break


FROZEN_F11_SEARCHES = [
    # (curve, k, status, tuples_examined, first_points)
    ("sym", 4, SearchStatus.FOUND, 26539, [(0, 0), (2, 1), (5, 2), (7, 3)]),
    ("parab", 3, SearchStatus.EXHAUSTED_NO, 272371, None),
    ("circle", 3, SearchStatus.FOUND, 26, None),
    ("circle", 4, SearchStatus.EXHAUSTED_NO, 704297, None),
]


@pytest.mark.parametrize("curve,k,status,count,first", FROZEN_F11_SEARCHES)
def test_search_frozen_f11_counts(curve, k, status, count, first):
    S = {
        "sym": symmetrized_parabola(F11).points,
        "parab": paraboloid(F11).points,
        "circle": sphere(F11, 1).points,
    }[curve]
    out = shatter_search(ShatterProblem.over(S, k))
    assert out.status is status
    assert out.stats.tuples_examined == count
    if first is not None:
        assert out.witness.points == first


def test_search_budget_exhausted():
    problem = ShatterProblem.over(symmetrized_parabola(F11).points, 4)
    out = shatter_search(problem, Exhaustive(budget=10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.witness is None
    assert out.stats.tuples_examined == 10


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_anchored_matches_exhaustive(p):
    # vc_bounds anchors its walk at x^1 = 0 over the full group.  That is
    # sound when the first shattered tuple of each length lies under root 0,
    # so both walks yield the same witnesses at the same counts, and an
    # anchored walk that finds no k-tuple ends sooner
    ctx = FieldContext(p, 2)
    sets = [make_curve(ctx, d).points for d in ("circle:1", "sym-parabola", "paraboloid")]
    for seed in (1, 2):
        S = random_set(ctx, p, seed)
        sets.append(S.union(S.negate()))
    for S in sets:
        for k in range(1, 5):
            problem = ShatterProblem.over(S, k)
            plain = _drain(shatter._walk, problem, False, DEFAULT_BUDGET)
            anchored = _drain(shatter._walk, problem, True, DEFAULT_BUDGET)
            assert anchored[0] == plain[0]
            found = len(plain[0]) == k
            if found:
                assert anchored[1] == plain[1]
            else:
                assert anchored[1] < plain[1]
            sampled = shatter_search(problem, RandomSearch(seed=k, budget=200))
            # every search reads its witnesses off the same regions
            witnesses = [plain[0][-1][0]] if found else []
            for w in witnesses + ([sampled.witness] if sampled.found else []):
                assert w == witness_for_points(problem, w.points).witness


def test_random_search_reproducible():
    problem = ShatterProblem.over(symmetrized_parabola(F11).points, 3)
    a = shatter_search(problem, RandomSearch(seed=7, budget=5000))
    b = shatter_search(problem, RandomSearch(seed=7, budget=5000))
    assert a.status is SearchStatus.FOUND
    assert a.witness.points == b.witness.points
    assert a.stats.tuples_examined == b.stats.tuples_examined


def test_random_search_frozen_f11():
    problem = ShatterProblem.over(symmetrized_parabola(F11).points, 4)
    out = shatter_search(problem, RandomSearch(seed=1, budget=20000))
    assert out.status is SearchStatus.FOUND
    assert out.stats.tuples_examined == 864
    assert out.witness.points == [(1, 0), (2, 3), (6, 6), (9, 7)]


def choice_rows(seed, n, k, count):
    rng = np.random.Generator(np.random.Philox(seed))
    return np.array([sorted(rng.choice(n, size=k, replace=False)) for _ in range(count)])


@pytest.mark.parametrize("n,k", [(9, 9), (50, 1), (529, 4), (2**22, 22), (20000, 400)])
@pytest.mark.parametrize("seed", [0, 1, 2017])
def test_random_picks_replay_generator_choice(seed, n, k):
    # (20000, 400) is the last Floyd case: choice shuffles a full range
    # once n > 10000 and k > n // 50
    count = 6 if k > 100 else 300
    rng = np.random.Generator(np.random.Philox(seed))
    # the second call picks up the stream where the first left it
    got = np.concatenate([_random_picks(rng, n, k, c) for c in (count // 3, count - count // 3)])
    assert np.array_equal(got, choice_rows(seed, n, k, count))


def _sampled(p, size, seed):
    return sample_subset(FieldContext(p, 2), size, seed)


THREE_POINTS = PointSet.from_points(F11, [(0, 0), (1, 0), (0, 1)])

RANDOM_ORACLE_CASES = {
    # id: (S, E, W, k, search seed); the comment gives the outcome at budget
    # 2049 with RANDOM_BATCH = 1024
    "full-f11-seed1": (symmetrized_parabola(F11).points, None, None, 4, 1),  # FOUND at 864
    "full-f11-seed3": (symmetrized_parabola(F11).points, None, None, 4, 3),  # FOUND at 1656
    "full-f11-circle": (sphere(F11, 1).points, None, None, 4, 2),  # VC = 3: exhausted
    "full-f5-k2": (sphere(F5, 1).points, None, None, 2, 4),  # FOUND at once
    "self-f7": (symmetrized_parabola(F7).points, None, "S", 3, 5),  # FOUND at 1182
    "sampled-self": (symmetrized_parabola(F11).points, _sampled(11, 100, 3), "E", 4, 1),  # 1054
    "sampled-full": (symmetrized_parabola(F11).points, _sampled(11, 80, 2), None, 4, 3),  # 1047
    "pigeonhole": (sphere(F11, 1).points, None, "S", 4, 1),  # 2^4 > |S| = 12
    "three-points": (THREE_POINTS, None, None, 3, 6),  # 2^2 > m_1 = |S| = 3
    "sampled-circle": (sphere(F11, 1).points, _sampled(11, 60, 4), "E", 4, 2),  # 2^2 > m_2 = 2
    "sphere-f7-d3": (sphere(F7_3, 1).points, None, None, 5, 3),  # 2^2 > m_3 = 2
}

# the reasons of the searches that a counting certificate refutes
CERTIFIED = {
    "full-f11-circle": "2^2 > m_2 = 2, the most points 2 translates of S share",
    "three-points": "2^2 > m_1 = |S| = 3",
    "sampled-circle": "2^2 > m_2 = 2, the most points 2 translates of S share",
    "sphere-f7-d3": "2^2 > m_3 = 2, the most points 3 translates of S share",
}


# budgets on both sides of the first batch's end, and a cut second batch
@pytest.mark.parametrize(
    "budget", [0, 1, RANDOM_BATCH - 1, RANDOM_BATCH, RANDOM_BATCH + 1, 2 * RANDOM_BATCH + 1]
)
@pytest.mark.parametrize("case", sorted(RANDOM_ORACLE_CASES))
def test_random_search_matches_per_tuple_reference(case, budget):
    S, E, W, k, seed = RANDOM_ORACLE_CASES[case]
    E = PointSet.full(S.context) if E is None else E
    W = {None: PointSet.full(S.context), "S": S, "E": E}[W]
    problem = ShatterProblem(S, E, W, k)
    out = shatter_search(problem, RandomSearch(seed=seed, budget=budget))
    status, witness, examined = reference_random_search(problem, seed, budget)
    assert out.status is status
    assert out.witness == witness
    assert out.stats.tuples_examined == examined
    if case == "pigeonhole":
        assert out.reason.startswith("2^4 > |W| = 12: no 4-tuple can be shattered")
    elif case in CERTIFIED:
        assert out.reason == (
            f"{CERTIFIED[case]}: no {k}-tuple can be shattered, budget {budget} spent without drawing"
        )
    elif status is SearchStatus.BUDGET_EXHAUSTED:
        assert out.reason == f"{budget} tuples examined, budget {budget}"


def test_random_search_gives_up_with_budget_status():
    # k = 3 on the plain parabola is refuted, so random search can only give up
    problem = ShatterProblem.over(paraboloid(F11).points, 3)
    out = shatter_search(problem, RandomSearch(seed=1, budget=200))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.witness is None
    assert out.stats.tuples_examined == 200


def test_unknown_strategy():
    with pytest.raises(ValueError):
        shatter_search(f11_problem(), strategy="exhaustive")


def test_witness_restriction_monotone():
    # every prefix of a shattered tuple is shattered, by the centers of the
    # subsets of the prefix: the walk extends prefixes on that ground
    w = f11_witness()
    for k in range(5):
        keep = (1 << k) - 1
        prefix = ShatterWitness(
            points=w.points[:k],
            witnesses={m: y for m, y in w.witnesses.items() if m & ~keep == 0},
        )
        assert verify_witness(f11_problem(k), prefix)


@pytest.mark.parametrize("p", sorted(X_TUPLES))
def test_frozen_x_tuples_shatter(p):
    ctx = FieldContext(p, 2)
    problem = ShatterProblem.over(symmetrized_parabola(ctx).points, 4)
    out = witness_for_points(problem, list(X_TUPLES[p]))
    assert out.status is SearchStatus.FOUND
    assert verify_witness(problem, out.witness)


def test_witness_for_points_rejections():
    problem = f11_problem()
    with pytest.raises(DimensionMismatch):
        witness_for_points(problem, [(0, 0)])
    bad = witness_for_points(problem, [(0, 0), (0, 1), (0, 2), (0, 3)])
    assert bad.status is SearchStatus.NOT_FOUND
    # a proposed point outside E is an input error, whatever its regions
    on_curve = ShatterProblem(problem.S, problem.S, PointSet.full(F11), 2)
    with pytest.raises(ValueError, match=r"point \(0, 1\) is not in E"):
        witness_for_points(on_curve, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match=r"point \(0, 2\) is not in E"):
        witness_for_points(on_curve, [(0, 0), (0, 2)])
    # an empty W leaves the one k = 0 region empty too
    no_centers = ShatterProblem(problem.S, PointSet.full(F11), PointSet.empty(F11), 0)
    assert witness_for_points(no_centers, []).status is SearchStatus.NOT_FOUND


def test_vc_bounds_circle_f11():
    b = vc_bounds(sphere(F11, 1).points, k_max=4)
    assert (b.lower, b.exact) == (3, 3)
    assert b.to_json() == {"lower": 3, "exact": 3}


def test_vc_bounds_edge_cases():
    assert vc_bounds(PointSet.empty(F5), k_max=2).exact == 0
    with pytest.raises(SweepTooLarge):
        vc_bounds(sphere(F5, 1).points, k_max=6)
    with pytest.raises(EmptySet):
        vc_bounds(sphere(F5, 1).points, W=PointSet.empty(F5), k_max=2)


def test_vc_bounds_keep_the_certified_lower_bound():
    S = sphere(F7, 1).points
    b = vc_bounds(S, k_max=4, budget=50)
    assert (b.lower, b.exact) == (2, None)
    assert b.reason.startswith("k = 3: ")
    assert b.to_json() == {"lower": 2, "exact": None}
    outcome = shatter_search(ShatterProblem.over(S, b.lower))
    assert outcome.found and verify_witness(ShatterProblem.over(S, b.lower), outcome.witness)
    assert vc_bounds(S, k_max=4, budget=0).lower == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_vc_lower_matches_naive(seed):
    S = random_set(F7, 7, seed=seed)
    if S.size == 0:
        return
    full = PointSet.full(F7)
    b = vc_bounds(S, k_max=2)
    for k in (1, 2):
        expect = naive_shatterable(S, k, full, full)
        assert (b.lower >= k) == expect


FROZEN_CONSTRUCT3 = [
    # (p, curve, points, witness centers by subset bitmask)
    (11, "circle:1", [[5, 3], [6, 4], [0, 1]],
     {0: [1, 0], 1: [10, 0], 2: [7, 4], 3: [6, 3], 4: [10, 1], 5: [0, 0], 6: [1, 1], 7: [5, 4]}),
    (13, "conic:1,1,3,0,0,5", [[2, 4], [0, 8], [6, 2]],
     {0: [2, 0], 1: [8, 0], 2: [3, 0], 3: [7, 6], 4: [1, 0], 5: [0, 0], 6: [11, 4], 7: [8, 6]}),
    (101, "circle:5", [[99, 1], [45, 2], [2, 1]],
     {0: [1, 0], 1: [97, 0], 2: [44, 0], 3: [43, 1], 4: [4, 0], 5: [0, 0], 6: [47, 1], 7: [0, 2]}),
]


@pytest.mark.parametrize(
    "p,curve,points,centers", FROZEN_CONSTRUCT3, ids=["circle-f11", "conic-f13", "circle-f101"]
)
def test_construct3_frozen_witness(p, curve, points, centers):
    ctx = FieldContext(p, 2)
    S = make_curve(ctx, curve).points
    out = construct_shatter3(S, PointSet.full(ctx))
    assert out.status is SearchStatus.FOUND
    assert verify_witness(ShatterProblem.over(S, 3), out.witness)
    assert out.witness.to_json() == {
        "k": 3, "points": points, "witnesses": {str(m): y for m, y in centers.items()}
    }


# construct3 over seeded half-size samples E = W, each run by either route
HALF_SAMPLE_CONSTRUCT3 = [
    (31, "circle:1", 1, [[13, 5], [25, 7], [3, 2]],
     {0: [2, 0], 1: [13, 4], 2: [7, 0], 3: [14, 5], 4: [14, 0], 5: [23, 0], 6: [4, 2], 7: [24, 7]}),
    (61, "circle:2", 4, [[59, 21], [22, 34], [6, 1]],
     {0: [1, 0], 1: [21, 9], 2: [48, 7], 3: [21, 33], 4: [7, 2], 5: [5, 0], 6: [29, 13],
      7: [60, 22]}),
    (41, "conic:1,1,3,0,0,5", 5, [[26, 9], [4, 15], [15, 1]],
     {0: [0, 0], 1: [17, 0], 2: [13, 3], 3: [33, 14], 4: [21, 1], 5: [3, 0], 6: [22, 6],
      7: [38, 10]}),
]


@pytest.mark.parametrize("route", ["gather", "table"])
@pytest.mark.parametrize(
    "p,curve,seed,points,centers", HALF_SAMPLE_CONSTRUCT3, ids=["circle-f31", "circle-f61", "conic-f41"]
)
def test_construct3_on_a_half_sample_keeps_its_witness(p, curve, seed, points, centers, route, monkeypatch):
    if route == "gather":
        monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 10**9)
    else:
        monkeypatch.setattr(analysis, "GATHER_ROUTE_RATIO", 0)
    ctx = FieldContext(p, 2)
    S = make_curve(ctx, curve).points
    E = sample_subset(ctx, ctx.order // 2, seed)
    out = construct_shatter3(S, E)
    assert out.status is SearchStatus.FOUND
    assert verify_witness(ShatterProblem(S, E, E, 3), out.witness)
    assert out.witness.to_json() == {
        "k": 3, "points": points, "witnesses": {str(m): y for m, y in centers.items()}
    }


def test_construct3_symmetrized_parabola():
    S = symmetrized_parabola(F11).points
    out = construct_shatter3(S, PointSet.full(F11))
    if out.status is SearchStatus.FOUND:
        assert verify_witness(ShatterProblem.over(S, 3), out.witness)
    else:
        assert out.status is SearchStatus.NOT_FOUND


def test_construct3_failed_reverification_is_internal_error(monkeypatch):
    # a witness that fails its final check is a bug, never a NOT_FOUND
    monkeypatch.setattr(shatter, "verify_witness", lambda problem, witness: False)
    S = make_curve(F11, "circle:1").points
    with pytest.raises(AssertionError, match="internal error"):
        construct_shatter3(S, PointSet.full(F11))


def _construct3_translates(monkeypatch, E):
    """construct_shatter3's status on circle:1 over E, and its PointSet.translate calls."""
    calls = []
    translate = PointSet.translate

    def counted(self, v):
        calls.append(v)
        return translate(self, v)

    monkeypatch.setattr(PointSet, "translate", counted)
    out = construct_shatter3(make_curve(E.context, "circle:1").points, E)
    return out.status, len(calls)


def test_construct3_translates_only_e(monkeypatch):
    # the full group is its own translate, so neither the cube's v nor the
    # rhombus's u builds one; the phantom rule gathers S at three shifts and
    # builds no translate table
    assert _construct3_translates(monkeypatch, PointSet.full(F11)) == (SearchStatus.FOUND, 0)


def test_construct3_translates_a_half_plane_twice(monkeypatch):
    # one translate of E each for the cube's v and the rhombus's u
    F31 = FieldContext(31, 2)
    half = PointSet.from_points(F31, [(x, y) for x in range(31) for y in range(16)])
    assert _construct3_translates(monkeypatch, half) == (SearchStatus.FOUND, 2)


def test_construct3_guards():
    with pytest.raises(NotSymmetric):
        construct_shatter3(paraboloid(F11).points, PointSet.full(F11))
    with pytest.raises(EmptySet):
        construct_shatter3(PointSet.empty(F11), PointSet.full(F11))


def test_witness_json_round_trip():
    w = f11_witness()
    data = w.to_json()
    assert data["k"] == 4
    assert set(data["witnesses"]) == {str(m) for m in range(16)}
    back = ShatterWitness.from_json(data)
    assert back.points == w.points
    assert back.witnesses == w.witnesses
    assert verify_witness(f11_problem(), back)


# -- counting certificates ---------------------------------------------------------------


def _m_cases():
    cases = []
    for p in (3, 5, 7):
        ctx = FieldContext(p, 2)
        for desc in ("circle:1", "circle:0", "sym-parabola", "paraboloid"):
            cases.append((f"{desc}-f{p}", make_curve(ctx, desc).points))
        for size, seed in ((2, 1), (p, 2), (3 * p, 3)):
            cases.append((f"random{size}-f{p}", random_set(ctx, size, seed)))
    for p in (3, 5):
        ctx = FieldContext(p, 3)
        for t in (0, 1):
            cases.append((f"sphere{t}-f{p}-d3", sphere(ctx, t).points))
        cases.append((f"random-f{p}-d3", random_set(ctx, 2 * p, seed=4)))
    return cases


M_CASES = _m_cases()


@pytest.mark.parametrize("name,S", M_CASES, ids=[name for name, _ in M_CASES])
def test_translate_intersections_match_brute_force(name, S):
    m2, m3 = brute_m(S, 2), brute_m(S, 3)
    assert intersection_profile(S).max_size == m2
    assert triple_overlap_max(S) == m3
    for stop_at in range(1, m3 + 3):
        got = triple_overlap_max(S, stop_at=stop_at)
        assert got == m3 if m3 < stop_at else stop_at <= got <= m3
    # the least j <= min(k, 3) with 2^(k - j) > m_j, for each k
    full = PointSet.full(S.context)
    m = [full.size, S.size, m2, m3]
    counts = TranslateCounts(S, full)
    for k in range(8):
        want = next(((j, m[j]) for j in range(min(k, 3) + 1) if 2 ** (k - j) > m[j]), None)
        assert counts.refutation(k) == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counting_refutation_is_sound(seed):
    # every refuted k is one no tuple shatters, for any E and W
    S = random_set(F5, 6, seed)
    full = PointSet.full(F5)
    refuted = set()
    for E, W in ((full, full), (full, S), (random_set(F5, 12, seed + 10), full)):
        counts = TranslateCounts(S, W)
        for k in range(1, 5):
            if counts.refutation(k) is not None:
                refuted.add(counts.refutation(k)[0])
                assert not naive_shatterable(S, k, E, W)
    assert {0, 1} <= refuted


@pytest.mark.parametrize(
    "S,W,j,m",
    [
        (THREE_POINTS, PointSet.full(F11), 1, 3),
        (sphere(F11, 1).points, PointSet.full(F11), 2, 2),
        (sphere(F7_3, 1).points, PointSet.full(F7_3), 3, 2),
        (sphere(F11, 1).points, PointSet.from_points(F11, [(0, 0), (1, 0), (2, 0), (3, 0)]), 0, 4),
    ],
    ids=["m1", "m2-circle", "m3-sphere", "m0"],
)
def test_log2_boundary_searchable_then_refuted(S, W, j, m):
    # k = j + floor(log2 m_j) survives the certificate, k + 1 does not
    k = j + m.bit_length() - 1
    counts = TranslateCounts(S, W)
    assert counts.refutation(k) is None
    assert counts.refutation(k + 1) == (j, m)


def test_circle_k3_is_found_at_the_boundary():
    S = sphere(F11, 1).points
    assert TranslateCounts(S, PointSet.full(F11)).refutation(3) is None
    assert shatter_search(ShatterProblem.over(S, 3)).found


def test_empty_s_never_reaches_the_intersection_profile(monkeypatch):
    # m_2, the profile's maximum, is read by overlap_maxima
    def fail(ctx, stack):
        raise AssertionError("overlap_maxima called")

    monkeypatch.setattr(shatter, "overlap_maxima", fail)
    b = vc_bounds(PointSet.empty(F11), k_max=4)
    assert (b.lower, b.exact, b.refuted_by) == (0, 0, (1, 0))


def test_m3_past_its_cost_cap_is_skipped(monkeypatch):
    S = sphere(F7_3, 1).points
    assert TranslateCounts(S, PointSet.full(F7_3)).refutation(5) == (3, 2)
    monkeypatch.setattr(analysis, "TRIPLE_COST_CAP", 0)
    assert triple_overlap_max(S) is None
    assert TranslateCounts(S, PointSet.full(F7_3)).refutation(5) is None
    # the random search then draws, as it did before the certificate
    out = shatter_search(ShatterProblem.over(S, 5), RandomSearch(seed=1, budget=10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.reason == "10 tuples examined, budget 10"


def test_vc_refutes_by_counting_without_a_search(monkeypatch):
    # _regions_extend's j is the number of points a tried tuple extends
    extended = set()
    real = shatter._regions_extend

    def recording(regions, nb, j):
        extended.add(j)
        return real(regions, nb, j)

    monkeypatch.setattr(shatter, "_regions_extend", recording)
    b = vc_bounds(sphere(F11, 1).points, k_max=5)
    assert (b.lower, b.exact, b.refuted_by) == (3, 3, (2, 2))
    assert b.to_json() == {"lower": 3, "exact": 3}
    assert extended == {0, 1, 2}  # the walk never tries a 4th point


@pytest.mark.parametrize("E_kind", ["full", "curve"])
def test_vc_builds_one_neighborhood_table(monkeypatch, E_kind):
    built = []
    real = shatter._neighborhoods

    def recording(problem, indices):
        built.append((len(indices), problem.W.size))
        return real(problem, indices)

    monkeypatch.setattr(shatter, "_neighborhoods", recording)
    S = symmetrized_parabola(F11).points
    E = PointSet.full(F11) if E_kind == "full" else S
    b = vc_bounds(S, E=E, W=PointSet.full(F11), k_max=5)
    assert b.lower >= 2
    # N(x) = (x - S) ^ W once; the walk's split rows (y + S) ^ E are N's own
    # rows when S = -S and W = E, and one mirrored table over W otherwise
    mirror = [] if E_kind == "full" else [(121, E.size)]
    assert built == [(E.size, 121)] + mirror


def test_vc_rejects_a_negative_budget_before_counting():
    # counting refutes k = 1 for an empty S, so no search would check it
    for S in (PointSet.empty(F5), sphere(F5, 1).points):
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            vc_bounds(S, k_max=2, budget=-1)


def test_vc_bounds_carry_the_walks_tuple_count():
    S = sphere(F11, 1).points
    b = vc_bounds(S)
    assert (b.lower, b.exact) == (3, 3)
    # k = 4 is counted out, so the walk stopped at its first shattered 3-tuple,
    # where the unanchored search finds it too
    first = shatter_search(ShatterProblem.over(S, 3))
    assert b.stats.tuples_examined == first.stats.tuples_examined == 26
    assert vc_bounds(PointSet.empty(F11)).stats.tuples_examined == 0  # no walk at all
    spent = vc_bounds(sphere(F7, 1).points, budget=50)
    assert (spent.lower, spent.exact) == (2, None)
    assert spent.stats.tuples_examined == 50


F223 = FieldContext(223, 2)  # |E| q^d = 223^4 bits: the least prime past the table guard
TABLE_GUARD_MESSAGE = (
    "neighborhood table needs |E| * q^d = 2472973441 bits, above the guard 2147483648"
)


@pytest.fixture
def no_table(monkeypatch):
    def refuse(problem, indices):
        raise AssertionError("an N(x) table was built")

    monkeypatch.setattr(shatter, "_neighborhoods", refuse)


def test_searches_that_need_no_table_answer_past_the_guard(no_table):
    circle = sphere(F223, 1).points
    out = shatter_search(ShatterProblem.over(circle, 4), RandomSearch(seed=1, budget=10_000))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.stats.tuples_examined == 10_000
    assert out.reason.startswith("2^2 > m_2 = 2, the most points 2 translates of S share")
    for strategy in (Exhaustive(), RandomSearch(seed=1)):
        empty_tuple = shatter_search(ShatterProblem.over(circle, 0), strategy)
        assert empty_tuple.status is SearchStatus.FOUND
        assert empty_tuple.witness.to_json() == {"k": 0, "points": [], "witnesses": {"0": [0, 0]}}
    b = vc_bounds(PointSet.empty(F223))
    assert (b.lower, b.exact, b.refuted_by) == (0, 0, (1, 0))


def test_table_guard_fires_before_the_table_is_built(no_table):
    circle = sphere(F223, 1).points
    for strategy in (Exhaustive(), RandomSearch(seed=1)):
        with pytest.raises(SweepTooLarge, match=re.escape(TABLE_GUARD_MESSAGE)):
            shatter_search(ShatterProblem.over(circle, 3), strategy)
    with pytest.raises(SweepTooLarge, match=re.escape(TABLE_GUARD_MESSAGE)):
        vc_bounds(circle)


@pytest.mark.parametrize("entry", ["shatter_search", "vc_bounds", "witness_for_points"])
def test_failed_reverification_is_an_internal_error(monkeypatch, entry):
    monkeypatch.setattr(shatter, "verify_witness", lambda problem, witness: False)
    call = {
        "shatter_search": lambda: shatter_search(f11_problem(2)),
        "vc_bounds": lambda: vc_bounds(sphere(F11, 1).points),
        "witness_for_points": lambda: witness_for_points(f11_problem(), list(F11_X_TUPLE)),
    }[entry]
    with pytest.raises(AssertionError, match="internal error: witness failed re-verification"):
        call()


def _vc_parity_cases():
    cases = []
    for p in (5, 7, 11):
        ctx = FieldContext(p, 2)
        full = PointSet.full(ctx)
        shapes = {
            "circle": sphere(ctx, 1).points,
            "sym-parabola": symmetrized_parabola(ctx).points,
            "random": random_set(ctx, p + 2, seed=p),
        }
        for name, S in shapes.items():
            domains = {
                "full": (full, full),
                "W=S": (full, S),
                "E=W=S": (S, S),
                "random-E": (random_set(ctx, 3 * p, seed=p + 1), full),
            }
            for domain, (E, W) in domains.items():
                cases.append(pytest.param(S, E, W, id=f"{name}-{domain}-f{p}"))
    return cases


@pytest.mark.parametrize("S,E,W", _vc_parity_cases())
def test_vc_walk_matches_one_search_per_k(S, E, W):
    rng = np.random.Generator(np.random.Philox(S.context.p * 1000 + S.size + E.size + W.size))
    budgets = [0, 1, 3, 17, 50, 300, 5000, 10**9]
    for _ in range(4):
        k_max = int(rng.integers(1, 6))
        budget = budgets[int(rng.integers(len(budgets)))]
        b = vc_bounds(S, E=E, W=W, k_max=k_max, budget=budget)
        want = reference_vc_bounds(S, E, W, k_max, budget)
        assert (b.lower, b.exact, b.reason, b.refuted_by) == want, (k_max, budget)


# (lower, exact) of the search-only vc_bounds, which counting must keep
VC_PINS = [
    (5, 2, "circle:1", 4, 2),
    (7, 2, "circle:1", 4, 3),
    (11, 2, "circle:1", 4, 3),
    (13, 2, "circle:1", 4, 3),
    (7, 2, "sym-parabola", 5, 3),
    (11, 2, "sym-parabola", 5, 4),
    (13, 2, "sym-parabola", 5, 3),
    (5, 3, "circle:1", 5, 4),
]


@pytest.mark.parametrize("p,d,curve,k_max,vc", VC_PINS)
def test_vc_bounds_keep_the_search_answers(p, d, curve, k_max, vc):
    b = vc_bounds(make_curve(FieldContext(p, d), curve).points, k_max=k_max)
    assert b.to_json() == {"lower": vc, "exact": vc}


# answers that only the certificate gives at desk scale: the searches for
# circle k = 4 and sphere k = 5 outgrow any practical budget
VC_COUNTED = [
    (41, 2, "circle:1", 4, 3, (2, 2)),
    (7, 3, "circle:1", 5, 4, (3, 2)),
    (11, 3, "circle:1", 5, 4, (3, 2)),
]


@pytest.mark.parametrize("p,d,curve,k_max,vc,refuted_by", VC_COUNTED)
def test_vc_bounds_refuted_by_counting(p, d, curve, k_max, vc, refuted_by):
    b = vc_bounds(make_curve(FieldContext(p, d), curve).points, k_max=k_max, budget=10**5)
    assert (b.lower, b.exact, b.refuted_by) == (vc, vc, refuted_by)


def _per_row_neighborhoods(problem, indices):
    """The bitsets one point at a time: a q^d mask, & W, packbits."""
    ctx = problem.context
    s_coords = ctx.coords_of(problem.S.indices())
    out = []
    for x in ctx.coords_of(indices):
        mask = np.zeros(ctx.order, dtype=bool)
        mask[ctx.indices_of(x - s_coords)] = True
        mask &= problem.W.membership
        out.append(int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little"))
    return out


@pytest.mark.parametrize("block", [shatter.NEIGHBORHOOD_BLOCK, 300, 1])
@pytest.mark.parametrize("p,d", [(5, 3), (7, 2), (3, 3), (11, 1)])
def test_neighborhoods_match_the_per_row_build(monkeypatch, block, p, d):
    # q^d = 125, 49, 27 and 11 are not multiples of 8; block 300 leaves a
    # short last block, block 1 one row per block
    monkeypatch.setattr(shatter, "NEIGHBORHOOD_BLOCK", block)
    ctx = FieldContext(p, d)
    W = random_set(ctx, ctx.order // 2, seed=p)
    indices = list(range(ctx.order))
    for S in (sphere(ctx, 1).points, PointSet.empty(ctx), random_set(ctx, p + 3, seed=d)):
        problem = ShatterProblem(S, PointSet.full(ctx), W, 2)
        assert shatter._neighborhoods(problem, indices) == _per_row_neighborhoods(problem, indices)
        assert shatter._neighborhoods(problem, []) == []


def _drain(walk, problem, anchored, budget):
    """Every yield of a walk with the tuple count at it, and the final count."""
    stats = SearchStats()
    return [(w, stats.tuples_examined) for w in walk(problem, anchored, budget, stats)], (
        stats.tuples_examined
    )


def _walk_cases():
    rng = np.random.Generator(np.random.Philox(17))
    shapes = [(5, 1), (13, 1), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3)]
    cases = []
    for case in range(48):
        p, d = shapes[case % len(shapes)]
        ctx = FieldContext(p, d)
        S = random_set(ctx, int(rng.integers(1, 2 * p ** (d - 1) + 3)), seed=case)
        if case % 3 == 0:
            S = S.union(S.negate())
        if d == 2 and case % 4 == 1:
            S = make_curve(ctx, ("circle:1", "sym-parabola", "paraboloid")[case % 3]).points
        full = PointSet.full(ctx)
        E = full if case % 2 else random_set(ctx, int(rng.integers(1, ctx.order + 1)), case + 1)
        W = [E, full, random_set(ctx, int(rng.integers(1, ctx.order + 1)), case + 2)][case % 3]
        k = int(rng.integers(2, 6))
        cases.append(pytest.param(ShatterProblem(S, E, W, k), id=f"{case}-f{p}^{d}-k{k}"))
    return cases


@pytest.mark.parametrize("problem", _walk_cases())
def test_walk_matches_the_every_position_walk(problem):
    # the same witness and tuple count at every yield, with the budget cut
    # just before, at and just after where the unbudgeted walk ends
    full = problem.E.size == problem.W.size == problem.context.order
    for anchored in (False, True) if full else (False,):
        want = _drain(reference_walk, problem, anchored, 30_000)
        budgets = {30_000}
        for _, count in want[0] + [(None, want[1])]:
            budgets.update((max(0, count - 1), count, count + 1))
        for budget in sorted(budgets):
            got = _drain(shatter._walk, problem, anchored, budget)
            assert got == _drain(reference_walk, problem, anchored, budget), (anchored, budget)


def test_walk_skips_points_that_cannot_split(monkeypatch):
    calls = []
    real = shatter._regions_extend

    def recording(regions, nb, j):
        calls.append(j)
        return real(regions, nb, j)

    monkeypatch.setattr(shatter, "_regions_extend", recording)
    out = shatter_search(f11_problem(4))
    assert out.stats.tuples_examined == 26539
    assert out.witness.points == [(0, 0), (2, 1), (5, 2), (7, 3)]
    assert len(calls) <= 500


def test_walk_past_the_split_rows_guard_tries_every_position(monkeypatch):
    # the paraboloid is not symmetric, so its split rows need a table of
    # their own: with room for N(x) alone the walk runs unfiltered
    S = paraboloid(F11).points
    want = {k: shatter_search(ShatterProblem.over(S, k)) for k in (2, 3)}
    monkeypatch.setattr(shatter, "NEIGHBORHOOD_BITS_GUARD", F11.order**2)
    built, calls = [], []
    real_neighborhoods, real_extend = shatter._neighborhoods, shatter._regions_extend

    def recording_neighborhoods(problem, indices):
        built.append(len(indices))
        return real_neighborhoods(problem, indices)

    def recording_extend(regions, nb, j):
        calls.append(j)
        return real_extend(regions, nb, j)

    monkeypatch.setattr(shatter, "_neighborhoods", recording_neighborhoods)
    monkeypatch.setattr(shatter, "_regions_extend", recording_extend)
    for k, outcome in want.items():
        built.clear()
        calls.clear()
        got = shatter_search(ShatterProblem.over(S, k))
        assert (got.status, got.witness, got.stats.tuples_examined) == (
            outcome.status, outcome.witness, outcome.stats.tuples_examined
        )
        assert built == [F11.order]
        assert len(calls) == got.stats.tuples_examined
