import itertools

import numpy as np
import pytest

from ffsalem import (
    Anchored,
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
    construct_shatter3,
    make_curve,
    paraboloid,
    sample_subset,
    shatter_search,
    sphere,
    symmetrize,
    symmetrized_parabola,
    vc_bounds,
    verify_witness,
    witness_for_points,
)
from ffsalem import shatter
from ffsalem.presets import F11_CENTERS, F11_EMPTY_CENTER, F11_X_TUPLE, X_TUPLES
from ffsalem.shatter import RANDOM_BATCH, _random_picks
from oracles import naive_shatterable, reference_random_search

F5 = FieldContext(5, 2)
F7 = FieldContext(7, 2)
F11 = FieldContext(11, 2)


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
    ctx = FieldContext(p, 2)
    sets = [make_curve(ctx, d).points for d in ("circle:1", "sym-parabola", "paraboloid")]
    sets += [symmetrize(random_set(ctx, p, seed)).T for seed in (1, 2)]
    for S in sets:
        for k in range(1, 5):
            problem = ShatterProblem.over(S, k)
            plain = shatter_search(problem, Exhaustive())
            anchored = shatter_search(problem, Anchored())
            assert anchored.status is plain.status
            if plain.found:
                assert anchored.witness == plain.witness
                assert anchored.stats.tuples_examined == plain.stats.tuples_examined
            else:
                assert anchored.stats.tuples_examined < plain.stats.tuples_examined
            sampled = shatter_search(problem, RandomSearch(seed=k, budget=200))
            # every search reads its witnesses off the same regions
            for out in (plain, anchored, sampled):
                if out.found:
                    assert out.witness == witness_for_points(problem, out.witness.points).witness


def test_anchored_needs_full_group():
    S = sphere(F5, 1).points
    full = PointSet.full(F5)
    with pytest.raises(ValueError, match="full group"):
        shatter_search(ShatterProblem(S, S, full, 2), Anchored())
    with pytest.raises(ValueError, match="full group"):
        shatter_search(ShatterProblem(S, full, S, 2), Anchored())


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
    w = f11_witness()
    for k in range(5):
        r = w.restricted(k)
        assert verify_witness(f11_problem(k), r)
    with pytest.raises(ValueError):
        w.restricted(5)


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
