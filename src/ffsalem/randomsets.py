"""Random subsets of the plane: sampling, spectral-gap checks, Monte Carlo sweeps.

A uniform size-k subset of F_p^d is almost surely close to Salem: its largest
nontrivial character sum Phi = q^d max_{m != 0} |S^(m)| stays below
2 sqrt(2 (1+eps) m log n) with m = min(k, n-k), n = q^d.  This module samples
such sets reproducibly, prices that bound on exact spectra, and aggregates
Monte Carlo sweeps over seeds.  A sweep scatters each sample's indices
straight into a stack of sets and reads each stack's Phi and Omega with one
analysis.salem_overlap_maxima call: one transform a set when the sets are
dense, pair listing when they are sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import salem_overlap_maxima
from .errors import DegenerateSize, SizeOutOfRange
from .field import FieldContext
from .pointset import PointSet, spectrum_max

GENERATOR_NAME = "philox"  # counter-based, safe to split across trials

QUANTILE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Group cells of the sets evaluated at once: a Monte Carlo sweep (and a conic
# census) fills a (T, q^d) bool stack of T = max(1, STACK_CELLS // q^d) sets
# and reads it with one `spectrum_maxima` and one `overlap_maxima` call (a
# sweep's one `salem_overlap_maxima` call makes them), so small sets stop
# paying each call's numpy and FFT set-up once per set.  Measured, before a
# dense stack read its overlaps from the Salem pass, with `monte_carlo` on one
# core of a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6, min of 21 interleaved
# runs, ms) at p = 31 (500 trials of 31 points, T = 17 at 2^14), p = 101 (40
# of 1015, T = 1) and 7^3 (30 of 100, T = 47): 2^12 cells took 51.8/56.4/2.9,
# 2^13 45.9/56.5/2.8, 2^14 42.3/57.3/2.5, 2^15 41.6/55.9/2.6 and 2^16
# 47.9/70.4/2.8; one set a call took 87.9/74.9/7.1 (min of 7).  2^14 ties 2^15
# and stays a factor 4 below 2^16, where six planes over F_101 share a stack
# and run 23% slower.
STACK_CELLS = 1 << 14


def trial_seed(master: int, index: int) -> int:
    """Derived seed for one trial; replay = sample_subset(ctx, size, this)."""
    return int(np.random.SeedSequence([master, index]).generate_state(1, np.uint64)[0])


def _sample_indices(ctx: FieldContext, size: int, seed: int) -> np.ndarray:
    """The first `size` entries of a partial Fisher-Yates permutation of the
    index range, as int64: only those positions are shuffled, which is
    exactly uniform and costs O(size) draws.  The swaps go through a
    memoryview of the index array, on plain ints, not numpy scalars."""
    rng = np.random.Generator(np.random.Philox(seed))
    idx = np.arange(ctx.order, dtype=np.int64)
    jumps = rng.integers(0, ctx.order - np.arange(size), dtype=np.int64)
    view = memoryview(idx)
    for i, jump in enumerate(jumps.tolist()):
        j = i + jump
        view[i], view[j] = view[j], view[i]
    return idx[:size]


def sample_subset(ctx: FieldContext, size: int, seed: int) -> PointSet:
    """Uniform size-`size` subset of the group, without replacement: the
    set of `_sample_indices`.  Deterministic for a fixed seed."""
    if not 0 <= size <= ctx.order:
        raise SizeOutOfRange(f"size must lie in [0, {ctx.order}], got {size}")
    if size == 0:
        return PointSet.empty(ctx)
    return PointSet.from_indices(ctx, _sample_indices(ctx, size, seed))


@dataclass(frozen=True)
class HayesReport:
    """Spectral-gap check for one sampled set."""

    n: int
    k: int
    m_param: int
    phi: float
    epsilon: float
    bound: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m_param": self.m_param,
            "phi": self.phi,
            "epsilon": self.epsilon,
            "bound": self.bound,
            "pass": self.passed,
        }


def _hayes_bound(n: int, k: int, epsilon: float) -> float:
    """2 sqrt(2 (1+eps) m log n) with m = min(k, n - k)."""
    return 2.0 * math.sqrt(2.0 * (1.0 + epsilon) * min(k, n - k) * math.log(n))


def hayes_check(S: PointSet, epsilon: float) -> HayesReport:
    """Phi(S) against 2 sqrt(2 (1+eps) m log n) on the exact spectrum.

    The empty set and the full group make m = 0 and the bound vacuous, so
    both raise DegenerateSize.
    """
    ctx = S.context
    n = ctx.order
    k = S.size
    if k == 0 or k == n:
        raise DegenerateSize(f"need 0 < |S| < {n} for a meaningful bound, got {k}")
    phi = n * spectrum_max(S)
    bound = _hayes_bound(n, k, epsilon)
    return HayesReport(
        n=n, k=k, m_param=min(k, n - k), phi=float(phi), epsilon=epsilon,
        bound=bound, passed=bool(phi < bound),
    )


@dataclass
class TrialSummary:
    """Aggregate of a seeded Monte Carlo sweep.

    Raw per-trial data (phi values, intersection maxima Omega, derived
    seeds) ride along so any single trial can be replayed."""

    p: int
    d: int
    size: int
    trials: int
    skipped: int
    seed: int
    epsilon: float
    beta: float
    pass_fraction: float
    omega_exceed_fraction: float
    max_intersection_quantiles: dict
    phi_values: list = field(default_factory=list)
    omega_values: list = field(default_factory=list)
    trial_seeds: list = field(default_factory=list)
    generator: str = GENERATOR_NAME

    def to_json(self) -> dict:
        return {
            "generator": self.generator,
            "p": self.p,
            "d": self.d,
            "size": self.size,
            "trials": self.trials,
            "skipped": self.skipped,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "pass_fraction": self.pass_fraction,
            "omega_exceed_fraction": self.omega_exceed_fraction,
            "max_intersection_quantiles": dict(self.max_intersection_quantiles),
            "phi_values": list(self.phi_values),
            "omega_values": list(self.omega_values),
            "trial_seeds": list(self.trial_seeds),
        }


def monte_carlo(
    ctx: FieldContext,
    size: int,
    trials: int,
    seed: int,
    epsilon: float = 0.5,
    beta: float = 0.45,
) -> TrialSummary:
    """Sweep `trials` independent samples, one derived seed per trial.

    Degenerate sizes (0 or the whole group) are counted as skipped rather
    than failed.  Omega = max_{x != 0} |S cap (S - x)| is compared against
    p^beta per trial.  Trials run serially in seed order, a stack of
    max(1, STACK_CELLS // q^d) sets at a time: trial i is still
    sample_subset(ctx, size, trial_seeds[i]), and one `salem_overlap_maxima`
    call evaluates each stack, with every Phi and Omega bit for bit the
    set's own.  A thread pool measured no better on every metric at once
    (README, "Determinism").
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= size <= ctx.order:
        raise SizeOutOfRange(f"size must lie in [0, {ctx.order}], got {size}")
    if not -1.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number >= -1, got {epsilon}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be a finite number, got {beta}")
    seeds = [trial_seed(seed, i) for i in range(trials)]
    phis: list = []
    omegas: list = []
    if not (size == 0 or size == ctx.order):
        sets = max(1, STACK_CELLS // ctx.order)
        for start in range(0, trials, sets):
            # calloc'd, so a row's pages are first touched after its sample's peak
            block = np.zeros((min(sets, trials - start), ctx.order), dtype=bool)
            for row, tseed in zip(block, seeds[start : start + len(block)]):
                row[_sample_indices(ctx, size, tseed)] = True
            worst, overlaps = salem_overlap_maxima(ctx, block)
            phis += (ctx.order * worst).tolist()
            omegas += overlaps.tolist()
    effective = len(phis)
    bound = _hayes_bound(ctx.order, size, epsilon)
    passes = sum(1 for phi in phis if phi < bound)
    try:
        threshold = ctx.p**beta
    except OverflowError:  # beyond the float range, so no Omega exceeds it
        threshold = math.inf
    exceed = sum(1 for w in omegas if w > threshold)
    quantiles = {}
    if omegas:
        qs = np.quantile(np.asarray(omegas, dtype=np.float64), QUANTILE_LEVELS)
        quantiles = {f"{lvl:.2f}": float(v) for lvl, v in zip(QUANTILE_LEVELS, qs)}
    return TrialSummary(
        p=ctx.p,
        d=ctx.d,
        size=size,
        trials=trials,
        skipped=trials - effective,
        seed=seed,
        epsilon=epsilon,
        beta=beta,
        pass_fraction=passes / effective if effective else 0.0,
        omega_exceed_fraction=exceed / effective if effective else 0.0,
        max_intersection_quantiles=quantiles,
        phi_values=phis,
        omega_values=omegas,
        trial_seeds=seeds,
    )
