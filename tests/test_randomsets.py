import math

import numpy as np
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
from ffsalem import analysis, intersection_profile, pointset, presets, randomsets, spectrum_max
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


def test_negative_master_seed_is_rejected():
    # numpy's SeedSequence takes no negative entropy: a usage error
    with pytest.raises(ValueError):
        trial_seed(-1, 0)
    with pytest.raises(ValueError):
        monte_carlo(F5, size=3, trials=1, seed=-(2**40))


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


FILLS = {
    "one point": lambda q: 1,
    "three quarters": lambda q: 3 * q // 4,
    "all but one": lambda q: q - 1,
}


@pytest.mark.parametrize("p, d", [(13, 1), (11, 2), (5, 3), (3, 4)])
@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("small", [False, True], ids=["default", "small-stacks-and-slabs"])
def test_monte_carlo_stacks_keep_each_trials_phi_and_omega(monkeypatch, p, d, fill, small):
    # trial i of a stacked sweep reads exactly what its own set gives alone:
    # Phi == q^d spectrum_max (==, not approx) and Omega the profile's max.
    # Both trial counts leave a short last stack; small stacks of 3 sets
    # with 40-cell slabs key their lines and cut many slabs.  A point's
    # overlaps list pairs; three quarters of the group and all but one point
    # read theirs from the Salem pass's |S^|^2
    ctx = FieldContext(p, d)
    size = FILLS[fill](ctx.order)
    assert analysis._lists_pairs(ctx, size, size) == (fill == "one point")
    if small:
        monkeypatch.setattr(randomsets, "STACK_CELLS", 3 * ctx.order)
        monkeypatch.setattr(pointset, "SPECTRUM_SLAB_CELLS", 40)
    trials = (3 if small else randomsets.STACK_CELLS // ctx.order) + 2
    s = monte_carlo(ctx, size, trials, seed=p + d)
    assert len(s.phi_values) == len(s.omega_values) == trials
    for ts, phi, omega in zip(s.trial_seeds, s.phi_values, s.omega_values):
        S = sample_subset(ctx, size, ts)
        assert phi == ctx.order * spectrum_max(S) == ctx.order * fourier_spectrum(S).max_nontrivial
        assert omega == intersection_profile(S).max_size


# the seed-1 phi_values of `random-trials -p 31 --size 31 --trials 40`, as
# float.hex, from the sweep that evaluated one set at a time
PHI_HEX_P31_SEED1 = (
    "0x1.cc97c81bc0918p+3", "0x1.e7fbb161742ddp+3", "0x1.bb520cce72866p+3",
    "0x1.c37249a4b97efp+3", "0x1.03e8099f86b50p+4", "0x1.cc9358e5fccd7p+3",
    "0x1.c3dfc070eedf2p+3", "0x1.c50d98687fd35p+3", "0x1.97daf5a68f2c4p+3",
    "0x1.945b2afe3fa67p+3", "0x1.ba286f9e21c35p+3", "0x1.af4f021eec6f2p+3",
    "0x1.c21bb7080b44dp+3", "0x1.9ee043276185dp+3", "0x1.afd01654e4b6ep+3",
    "0x1.c36d748db29b3p+3", "0x1.b6050d90e70f1p+3", "0x1.d79c2c4c6c889p+3",
    "0x1.a36d792ad5ebfp+3", "0x1.d60e185b1b0dbp+3", "0x1.c1b342d58c603p+3",
    "0x1.9ac1537e7f436p+3", "0x1.a9bdeb8ce9287p+3", "0x1.b1d385f1c18f4p+3",
    "0x1.925a5e2467e39p+3", "0x1.bd8640ec5e76ep+3", "0x1.a13ce8b017d39p+3",
    "0x1.d611458c6cbfdp+3", "0x1.c5df08ee10c3fp+3", "0x1.058f4513211c3p+4",
    "0x1.88bd1b86716bap+3", "0x1.b705569e89472p+3", "0x1.a47c36363221ep+3",
    "0x1.9d71dca39392fp+3", "0x1.d140d0cb680e5p+3", "0x1.cd2f4e537a6afp+3",
    "0x1.e2390e0939f72p+3", "0x1.997d2b0cc7554p+3", "0x1.d3d74dffea1ebp+3",
    "0x1.b9af3bb6417eep+3",
)


def test_monte_carlo_phi_values_are_frozen():
    s = monte_carlo(FieldContext(31, 2), 31, 40, seed=1)
    assert tuple(phi.hex() for phi in s.phi_values) == PHI_HEX_P31_SEED1
    assert s.omega_values == [
        6, 5, 4, 4, 5, 5, 4, 5, 5, 4, 5, 5, 5, 5, 4, 5, 4, 4, 4, 4,
        5, 4, 4, 4, 5, 4, 4, 4, 4, 5, 5, 4, 4, 5, 5, 4, 4, 5, 5, 4,
    ]


# monte_carlo(FieldContext(101, 2), 1015, 8, seed=1), from the sweep that
# took each set's overlaps from a transform of their own: phi_values as
# float.hex, then omega_values
PHI_HEX_P101_SEED1 = (
    "0x1.8b1f8c39ce751p+6", "0x1.57e313aa47e6ap+6", "0x1.817b10a87fdfdp+6",
    "0x1.75bf4dc0291b1p+6", "0x1.6e77ea7ca8c53p+6", "0x1.5dcdb00827425p+6",
    "0x1.63dc903cd6105p+6", "0x1.7906527a95943p+6",
)
OMEGA_P101_SEED1 = [133, 137, 133, 133, 140, 137, 130, 133]


def test_monte_carlo_dense_values_are_frozen():
    s = monte_carlo(FieldContext(101, 2), 1015, 8, seed=1)
    assert tuple(phi.hex() for phi in s.phi_values) == PHI_HEX_P101_SEED1
    assert s.omega_values == OMEGA_P101_SEED1


@pytest.mark.parametrize(
    "p, d, size, captured",
    [(31, 2, 31, False), (101, 2, 1015, True), (7, 3, 100, True), (13, 1, 12, True)],
)
def test_monte_carlo_takes_one_transform_a_dense_stack(monkeypatch, p, d, size, captured):
    # dense stacks read Omega from the Salem pass's table, sparse ones list
    # pairs; neither runs a forward and inverse transform of the overlaps' own
    calls = []
    real = analysis.spectrum_maxima

    def recording(ctx, stack, power=None):
        calls.append(power is not None)
        return real(ctx, stack, power)

    monkeypatch.setattr(analysis, "spectrum_maxima", recording)
    monkeypatch.setattr(analysis, "_cyclic_convolution", None)
    ctx = FieldContext(p, d)
    trials = 3 * max(1, randomsets.STACK_CELLS // ctx.order)
    s = monte_carlo(ctx, size, trials, seed=2)
    assert calls == [captured] * 3
    assert len(s.omega_values) == trials


def test_conic_census_stacks_keep_conic_order(monkeypatch):
    # every conic fails a shifted overlap check, so bad_overlap lists them
    # all, in the order they were drawn, whatever the stack size
    real = presets.overlap_maxima
    monkeypatch.setattr(presets, "overlap_maxima", lambda ctx, stack: real(ctx, stack) + 3)
    stacked = presets.conic_census(13, seed=3, count=40)
    monkeypatch.setattr(presets, "STACK_CELLS", 1)
    assert presets.conic_census(13, seed=3, count=40) == stacked
    assert len(stacked["bad_overlap"]) + len(stacked["bad_point_counts"]) == 40
    assert stacked["bad_overlap"] and not stacked["bad_salem"]


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
