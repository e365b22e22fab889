import math

import pytest

from ffsalem import (
    DegenerateSize,
    FieldContext,
    PointSet,
    SizeOutOfRange,
    hayes_check,
    monte_carlo,
    sample_subset,
    trial_seed,
)
from ffsalem import pointset, randomsets
from ffsalem.randomsets import GENERATOR_NAME
from oracles import fourier_spectrum, reference_sample_subset

F5 = FieldContext(5, 2)
F11 = FieldContext(11, 2)


def test_sample_subset_sizes():
    assert sample_subset(F5, 0, seed=1).size == 0
    assert sample_subset(F5, 25, seed=1) == PointSet.full(F5)
    assert sample_subset(F5, 7, seed=1).size == 7
    with pytest.raises(SizeOutOfRange):
        sample_subset(F5, 26, seed=1)
    with pytest.raises(SizeOutOfRange):
        sample_subset(F5, -1, seed=1)


def test_sample_subset_deterministic():
    a = sample_subset(F11, 40, seed=123)
    b = sample_subset(F11, 40, seed=123)
    c = sample_subset(F11, 40, seed=124)
    assert a == b
    assert a != c


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_subset_keeps_the_permutation(monkeypatch, d):
    # the indices handed to from_indices, in order, are the reference's
    # permutation prefix, so every seeded sample is unchanged
    ctx = FieldContext(7, d)
    handed = []
    from_indices = PointSet.from_indices

    def recording(context, indices):
        handed.append(list(indices))
        return from_indices(context, indices)

    monkeypatch.setattr(PointSet, "from_indices", recording)
    for size in (1, ctx.order // 2, ctx.order):
        for seed in (0, 1, 2**40 + 3):
            want = reference_sample_subset(ctx, size, seed)
            got = sample_subset(ctx, size, seed)
            assert handed.pop() == want
            assert got == from_indices(ctx, want)


def test_sample_subset_covers_group():
    # every index should appear in some sample; crude uniformity smoke test
    seen = PointSet.empty(F5)
    for s in range(40):
        seen = seen.union(sample_subset(F5, 5, seed=s))
    assert seen == PointSet.full(F5)


def test_trial_seed_deterministic_and_spread():
    assert trial_seed(99, 0) == trial_seed(99, 0)
    seeds = {trial_seed(99, i) for i in range(64)}
    assert len(seeds) == 64
    assert trial_seed(99, 0) != trial_seed(100, 0)
    assert all(isinstance(s, int) for s in seeds)


def test_hayes_single_point():
    S = PointSet.from_points(F11, [(3, 4)])
    rep = hayes_check(S, epsilon=0.5)
    # a singleton has |S-hat(m)| = 1/n for every m, so phi = 1
    assert rep.phi == pytest.approx(1.0, abs=1e-9)
    assert rep.m_param == 1
    assert rep.passed


def test_hayes_complement_symmetry():
    S = sample_subset(F11, 30, seed=5)
    comp = PointSet.full(F11).difference(S)
    a = hayes_check(S, epsilon=0.5)
    b = hayes_check(comp, epsilon=0.5)
    # complements share nontrivial spectrum magnitudes, hence phi and m
    assert a.phi == pytest.approx(b.phi, rel=1e-9)
    assert a.m_param == b.m_param
    assert a.bound == pytest.approx(b.bound)


def test_hayes_phi_from_spectrum():
    S = sample_subset(F11, 20, seed=9)
    rep = hayes_check(S, epsilon=0.25)
    assert rep.phi == pytest.approx(F11.order * fourier_spectrum(S).max_nontrivial, rel=1e-12)
    assert rep.bound == pytest.approx(
        2 * math.sqrt(2 * 1.25 * rep.m_param * math.log(F11.order))
    )
    assert rep.to_json()["pass"] == rep.passed


@pytest.mark.parametrize("size", [5, 60, 400])
def test_hayes_phi_streamed_is_the_table_phi(monkeypatch, size):
    S = sample_subset(FieldContext(23, 2), size, seed=size)
    monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", 50)  # many row blocks and slabs
    rep = hayes_check(S, epsilon=0.5)
    assert rep.phi == S.context.order * fourier_spectrum(S).max_nontrivial


def test_hayes_degenerate():
    with pytest.raises(DegenerateSize):
        hayes_check(PointSet.empty(F5), epsilon=0.5)
    with pytest.raises(DegenerateSize):
        hayes_check(PointSet.full(F5), epsilon=0.5)


def test_monte_carlo_deterministic():
    a = monte_carlo(F11, size=11, trials=20, seed=77)
    b = monte_carlo(F11, size=11, trials=20, seed=77)
    assert a.trial_seeds == b.trial_seeds
    assert a.phi_values == b.phi_values
    assert a.omega_values == b.omega_values
    assert a.pass_fraction == b.pass_fraction
    assert a.to_json() == b.to_json()


def test_monte_carlo_seed_sensitivity():
    a = monte_carlo(F11, size=11, trials=10, seed=1)
    b = monte_carlo(F11, size=11, trials=10, seed=2)
    assert a.phi_values != b.phi_values


def test_monte_carlo_degenerate_sizes_skipped():
    s = monte_carlo(F5, size=0, trials=5, seed=3)
    assert s.skipped == 5
    assert s.pass_fraction == 0.0
    assert s.phi_values == []
    full = monte_carlo(F5, size=25, trials=4, seed=3)
    assert full.skipped == 4


def test_monte_carlo_rejects_no_trials():
    with pytest.raises(ValueError):
        monte_carlo(F5, size=5, trials=0, seed=1)


@pytest.mark.parametrize("size", [-1, 26])
def test_monte_carlo_rejects_size_out_of_range(monkeypatch, size):
    # rejected before any trial seed is derived
    monkeypatch.setattr(randomsets, "trial_seed", None)
    with pytest.raises(SizeOutOfRange, match=r"\[0, 25\], got"):
        monte_carlo(F5, size=size, trials=1, seed=1)


@pytest.mark.parametrize(
    "kwargs",
    [{"epsilon": -1.5}, {"epsilon": math.nan}, {"epsilon": math.inf}, {"beta": math.nan},
     {"beta": -math.inf}, {"epsilon": -math.inf}, {"beta": math.inf}],
)
def test_monte_carlo_rejects_bad_epsilon_beta(kwargs):
    with pytest.raises(ValueError):
        monte_carlo(F5, size=5, trials=1, seed=1, **kwargs)


def test_monte_carlo_huge_beta_exceeds_nothing():
    # 11^1e300 is past the float range: the threshold is infinite, not an OverflowError
    s = monte_carlo(F11, size=15, trials=3, seed=6, beta=1e300)
    assert s.omega_exceed_fraction == 0.0


def test_monte_carlo_summary_fields():
    s = monte_carlo(F11, size=15, trials=8, seed=42, epsilon=0.5, beta=0.45)
    assert s.generator == GENERATOR_NAME == "philox"
    assert len(s.trial_seeds) == 8
    assert s.trial_seeds == [trial_seed(42, i) for i in range(8)]
    threshold = 11**0.45
    exceed = sum(1 for w in s.omega_values if w > threshold)
    assert s.omega_exceed_fraction == pytest.approx(exceed / 8)
    data = s.to_json()
    assert data["p"] == 11 and data["size"] == 15 and data["generator"] == "philox"
    assert set(data["max_intersection_quantiles"]) == {"0.00", "0.25", "0.50", "0.75", "1.00"}


def test_monte_carlo_omega_matches_direct():
    s = monte_carlo(F11, size=15, trials=3, seed=6)
    for i, ts in enumerate(s.trial_seeds):
        S = sample_subset(F11, 15, seed=ts)
        omega = max(
            S.intersect(S.translate(tuple(-c % 11 for c in F11.point_at(idx)))).size
            for idx in range(1, F11.order)
        )
        assert s.omega_values[i] == omega
        assert s.phi_values[i] == pytest.approx(
            F11.order * fourier_spectrum(S).max_nontrivial, rel=1e-12
        )


def test_symmetrized_intersection_decomposition():
    # T cap (T - x) splits into the four S-based pieces, exactly, per shift
    p = 11
    for seed in (3, 8):
        S = sample_subset(F11, 12, seed=seed)
        neg = S.negate()
        T = S.union(neg)
        for idx in (1, 5, 37, 100):
            x = F11.point_at(idx)
            mx = tuple(-c % p for c in x)
            lhs = T.intersect(T.translate(mx))
            rhs = (
                S.intersect(S.translate(mx))
                .union(S.intersect(neg.translate(mx)))
                .union(neg.intersect(S.translate(mx)))
                .union(neg.intersect(neg.translate(mx)))
            )
            assert lhs == rhs
