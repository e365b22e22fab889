"""Acceptance gate: fifteen end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every criterion asserts; a FAIL line is printed before the assert fires.
"""

import math
import time

import numpy as np
import pytest

from ffsalem import (
    FieldContext,
    PointSet,
    SearchStatus,
    ShatterProblem,
    ShatterWitness,
    build_cube,
    construct_shatter3,
    convolve,
    edge_count,
    gauss_sum,
    kloosterman,
    legendre,
    monte_carlo,
    paraboloid,
    poly_graph,
    prune,
    sample_subset,
    shatter_search,
    spectrum_max,
    sphere,
    symmetrized_parabola,
    trial_seed,
    verify_witness,
    weil_poly_sum,
    witness_for_points,
)
from ffsalem.presets import (
    F11_CENTERS,
    F11_EMPTY_CENTER,
    F11_X_TUPLE,
    X_TUPLES,
    conic_census,
)
from oracles import brute_edge_count, fourier_edge_count, fourier_spectrum, naive_shatterable

ODD_PRIMES_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
PRIMES_31 = [p for p in ODD_PRIMES_97 if p <= 31]


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed {suffix}"


def random_set(ctx, size, seed):
    return sample_subset(ctx, size, seed)


def test_criterion_01_f11_table_exact():
    ctx = FieldContext(11, 2)
    problem = ShatterProblem.over(symmetrized_parabola(ctx).points, 4)
    masks = dict(F11_CENTERS)
    masks[0] = F11_EMPTY_CENTER
    witness = ShatterWitness(list(F11_X_TUPLE), masks)
    best = math.inf
    ok = True
    for _ in range(5):
        t0 = time.perf_counter()
        ok = verify_witness(problem, witness) and ok
        best = min(best, time.perf_counter() - t0)
    report(1, "f11 4-shattering table verifies", ok and best < 1e-3, f"best {best * 1e3:.3f} ms")


def test_criterion_02_larger_x_tuples():
    worst = 0.0
    ok = True
    for p, tup in sorted(X_TUPLES.items()):
        ctx = FieldContext(p, 2)
        problem = ShatterProblem.over(symmetrized_parabola(ctx).points, 4)
        t0 = time.perf_counter()
        out = witness_for_points(problem, list(tup))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok = ok and out.status is SearchStatus.FOUND
        ok = ok and verify_witness(problem, out.witness)
        ok = ok and elapsed < 1.0
    report(2, "f17/f23/f29 x-tuples complete and verify", ok, f"worst {worst:.3f} s")


def test_criterion_03_exhaustive_f11_rediscovery():
    ctx = FieldContext(11, 2)
    problem = ShatterProblem.over(symmetrized_parabola(ctx).points, 4)
    out = shatter_search(problem)
    ok = (
        out.status is SearchStatus.FOUND
        and out.stats.tuples_examined <= 10**9
        and verify_witness(problem, out.witness)
    )
    report(3, "exhaustive f11 4-shattering rediscovered", ok,
           f"{out.stats.tuples_examined} tuples")


def test_criterion_04_parabola_three_impossible():
    ctx = FieldContext(11, 2)
    out = shatter_search(ShatterProblem.over(paraboloid(ctx).points, 3))
    report(4, "plain parabola cannot shatter 3 points", out.status is SearchStatus.EXHAUSTED_NO)


def test_criterion_05_circle_vc_three():
    ctx = FieldContext(11, 2)
    S = sphere(ctx, 1).points
    found3 = shatter_search(ShatterProblem.over(S, 3))
    refused4 = shatter_search(ShatterProblem.over(S, 4))
    ok = found3.status is SearchStatus.FOUND and refused4.status is SearchStatus.EXHAUSTED_NO
    report(5, "circle shatters 3 but not 4 at p=11", ok)


def test_criterion_06_conic_salem_bounds():
    worst = 0.0
    ok = True
    for p in ODD_PRIMES_97:
        ctx = FieldContext(p, 2)
        bound = 2.0 * math.sqrt(p) + 1e-6
        tops = [p**2 * spectrum_max(paraboloid(ctx).points)]
        for t in range(1, p):
            tops.append(p**2 * spectrum_max(sphere(ctx, t).points))
        worst = max(worst, max(tops) / (2.0 * math.sqrt(p)))
        ok = ok and max(tops) <= bound
    report(6, "circle/paraboloid salem bound for p<=97", ok, f"worst ratio {worst:.4f}")


def test_criterion_07_conic_point_counts():
    ok = True
    for p in [5, 7, 11, 13, 17, 19, 23, 29, 31]:
        census = conic_census(p, seed=1000 + p, count=100)
        ok = ok and census["pass"]
    report(7, "100 random smooth conics per prime have q-1|q|q+1 points", ok)


def test_criterion_08_intersection_profiles():
    from ffsalem import intersection_profile

    ok = True
    for p in PRIMES_31:
        ctx = FieldContext(p, 2)
        for t in range(1, p):
            ok = ok and intersection_profile(sphere(ctx, t).points).max_size <= 2
        if p > 2:
            ok = ok and intersection_profile(symmetrized_parabola(ctx).points).max_size <= 6
        for deg in (2, 3, 4):
            if deg % p == 0:
                continue
            graph = poly_graph(ctx, [0] * deg + [1]).points
            ok = ok and intersection_profile(graph).max_size <= deg - 1
    report(8, "profiles: circle<=2, sym-parabola<=6, degree-n graph<=n-1", ok)


def test_criterion_09_character_sum_bounds():
    ok = True
    for p in ODD_PRIMES_97:
        ctx = FieldContext(p, 1)
        eps = ctx.epsilon_q
        root = math.sqrt(p)
        for k in range(1, p):
            g = gauss_sum(ctx, k)
            ok = ok and abs(abs(g) - root) <= 1e-9
            ok = ok and abs(g - eps * legendre(ctx, k) * root) <= 1e-9
        kl_bound = 2.0 * root + 1e-9
        for a in range(1, p):
            for b in range(1, p):
                ok = ok and abs(kloosterman(ctx, a, b)) <= kl_bound
        if not ok:
            break
    weil_checked = 0
    rng = np.random.Generator(np.random.Philox(909))
    for p in PRIMES_31:
        ctx = FieldContext(p, 1)
        for deg in (3, 4):
            if deg % p == 0:
                continue
            need = 50
            while need > 0:
                coeffs = [int(v) for v in rng.integers(0, p, size=deg)] + [
                    int(rng.integers(1, p))
                ]
                total = weil_poly_sum(ctx, coeffs)
                ok = ok and abs(total) <= (deg - 1) * math.sqrt(p) + 1e-9
                need -= 1
                weil_checked += 1
    report(9, "gauss/kloosterman/weil bounds", ok, f"{weil_checked} weil polynomials")


def test_criterion_10_edge_count_identities():
    ok = True
    for p in (3, 5, 7):
        ctx = FieldContext(p, 2)
        for seed in range(50):
            E = random_set(ctx, max(2, (seed % ctx.order) or 2), seed=seed)
            S = random_set(ctx, max(1, ((seed * 7 + 3) % ctx.order) or 1), seed=seed + 999)
            rep = edge_count(E, S)
            ok = ok and rep.nu == brute_edge_count(E, S)
            ok = ok and fourier_edge_count(E, S) == pytest.approx(rep.nu, rel=1e-6, abs=1e-6)
    worst_norm = 0.0
    for p in PRIMES_31:
        if p < 11:
            continue
        ctx = FieldContext(p, 2)
        S = sphere(ctx, 1).points
        size = math.ceil(p**1.5)
        E = random_set(ctx, size, seed=4000 + p)
        rep = edge_count(E, S)
        worst_norm = max(worst_norm, rep.normalized_error)
        ok = ok and rep.normalized_error <= 4.0
        ok = ok and rep.nu >= rep.K * E.size**2 / (2 * p)
    report(10, "edge counts: oracle-exact, fourier-side, main-term band", ok,
           f"worst normalized error {worst_norm:.3f}")


def test_criterion_11_pruning_mass():
    ok = True
    checked = 0
    for p in PRIMES_31:
        if p < 11:
            continue
        ctx = FieldContext(p, 2)
        S = sphere(ctx, 1).points
        E = random_set(ctx, math.ceil(p**1.5), seed=5000 + p)
        rep = edge_count(E, S)
        K = rep.K
        if rep.nu < K * E.size**2 / (2 * p):
            continue
        M = math.floor(K * E.size / (4 * p))
        pruned = prune(E, S, M)
        conv = convolve(E, S)
        mass = int(conv.values[pruned.membership].sum())
        ok = ok and mass >= K * E.size**2 / (4 * p)
        checked += 1
    ok = ok and checked > 0
    report(11, "pruning mass inequality", ok,
           f"{checked} pruning instances")


def test_criterion_12_constructive_pipeline():
    ctx = FieldContext(11, 2)
    S = sphere(ctx, 1).points
    E = PointSet.full(ctx)
    out = construct_shatter3(S, E)
    ok = out.status is SearchStatus.FOUND
    ok = ok and verify_witness(ShatterProblem.over(S, 3), out.witness)
    cube = build_cube(E, S)
    ok = ok and cube is not None and cube.verify(E, S)
    ok = ok and len(set(cube.points())) == 7 and len(cube.edges()) == 9
    report(12, "construct3 verifies and cube has 7 points / 9 edges", ok)


def test_criterion_13_random_sets():
    ctx31 = FieldContext(31, 2)
    summary = monte_carlo(ctx31, size=31, trials=200, seed=20260818, epsilon=0.5)
    ok = summary.pass_fraction >= 0.95
    for ts in summary.trial_seeds[:50]:
        S = sample_subset(ctx31, 31, seed=ts)
        neg = S.negate()
        T = S.union(neg)
        ok = ok and T.is_symmetric() and T.size == 2 * S.size - S.intersect(neg).size
    found = {2: 0, 3: 0}
    total = 0
    for p in (11, 13):
        ctx = FieldContext(p, 2)
        for i in range(20):
            S = sample_subset(ctx, p, seed=trial_seed(p, i))
            T = S.union(S.negate())
            total += 1
            for k in (2, 3):
                out = shatter_search(ShatterProblem.over(T, k))
                if out.status is SearchStatus.FOUND:
                    ok = ok and verify_witness(ShatterProblem.over(T, k), out.witness)
                    found[k] += 1
    report(13, "hayes pass fraction, exact symmetry, random-set shattering", ok,
           f"pass {summary.pass_fraction:.3f}; k=2 {found[2]}/{total}, k=3 {found[3]}/{total}")


def test_criterion_14_oracle_equivalence():
    ok = True
    instances = 0
    for p in (3, 5, 7):
        ctx = FieldContext(p, 2)
        full = PointSet.full(ctx)
        for k in (1, 2, 3):
            for i in range(12):
                S = sample_subset(ctx, p, seed=trial_seed(100 * p + k, i))
                got = shatter_search(ShatterProblem.over(S, k)).status is SearchStatus.FOUND
                want = naive_shatterable(S, k, full, full)
                ok = ok and got == want
                instances += 1
    report(14, "search agrees with naive shattering oracle", ok and instances >= 100,
           f"{instances} instances")


def test_criterion_15_identity_suite():
    ok = True
    for p in (3, 5, 7, 11):
        ctx = FieldContext(p, 2)
        for seed in range(50):
            size = 1 + seed % (ctx.order - 1)
            S = random_set(ctx, size, seed=7000 + seed)
            T = random_set(ctx, 1 + (seed * 13) % (ctx.order - 1), seed=8000 + seed)
            s_hat = fourier_spectrum(S).values
            t_hat = fourier_spectrum(T).values
            # Plancherel
            energy = ctx.order * float((np.abs(s_hat) ** 2).sum())
            ok = ok and abs(energy - S.size) <= 1e-9 * max(1.0, S.size)
            # inversion
            back = np.fft.ifftn(s_hat.reshape(ctx.grid_shape)) * ctx.order
            ok = ok and np.allclose(back, S.grid(), atol=1e-9)
            # orthogonality, polarized: q^d sum S^ conj(T^) = |S cap T|
            inner = ctx.order * float((s_hat * np.conj(t_hat)).sum().real)
            expect = S.intersect(T).size
            ok = ok and abs(inner - expect) <= 1e-9 * max(1.0, expect)
    report(15, "plancherel, inversion, orthogonality at 1e-9", ok)
