import cmath
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffsalem
from ffsalem import (
    ConstantPolynomial,
    DegreeDivisibleByP,
    FieldContext,
    ZeroParameter,
    character_row_sums,
    gauss_sum,
    is_prime,
    kloosterman,
    legendre,
    weil_poly_sum,
)
from ffsalem import presets
from ffsalem.field import MAX_ORDER
from ffsalem.presets import weil_suite
from oracles import block_weil_suite, reference_weil_suite

F5 = FieldContext(5, 2)
F7 = FieldContext(7, 1)


def test_is_prime_small():
    primes = [n for n in range(2, 40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize("p", [1, 2, 4, 8, 9, 15])
def test_context_rejects_bad_characteristic(p):
    with pytest.raises(ValueError):
        FieldContext(p, 2)


def test_context_rejects_bad_dimension_and_size():
    with pytest.raises(ValueError):
        FieldContext(5, 0)
    with pytest.raises(ValueError):
        FieldContext(2053, 2)  # 2053^2 > 2^22


# p or d so large that trial division of p, or p**d itself, would run for
# minutes, with the p^d each cap message names
HUGE_FIELDS = [
    (1000000000000000003, 2, "1000000000000000006000000000000000009"),
    (4611686018427387847, 2, "21267647932558653440728706863763295409"),
    (3, 100000000, "3^100000000"),
]
# FieldContext and a point-file header for each (p, d) of a JSON list, one line per error
CONTEXT_PER_FIELD = """
import io, json, sys
from ffsalem import FieldContext, load_points
for p, d in json.loads(sys.argv[1]):
    for build in (lambda: FieldContext(p, d), lambda: load_points(io.StringIO(f"{p} {d}"))):
        try:
            build()
        except ValueError as exc:
            print(type(exc).__name__, exc)
"""


def test_huge_field_fails_the_cap_before_trial_division():
    env = dict(os.environ, PYTHONPATH=str(Path(ffsalem.__file__).parents[1]))
    # a subprocess, so that a hang fails the test at its timeout
    proc = subprocess.run(
        [sys.executable, "-c", CONTEXT_PER_FIELD, json.dumps([f[:2] for f in HUGE_FIELDS])],
        capture_output=True, text=True, env=env, timeout=30,
    )
    want = []
    for _, _, order in HUGE_FIELDS:
        message = f"p^d = {order} exceeds the dense-table cap {MAX_ORDER}"
        want += [f"ValueError {message}", f"PointSetParseError line 1: {message}"]
    assert proc.stdout.splitlines() == want
    assert proc.stderr == ""


def test_index_round_trip():
    ctx = FieldContext(7, 3)
    for idx in (0, 1, 6, 7, 48, 342):
        assert ctx.index_of(ctx.point_at(idx)) == idx
    assert ctx.index_of((3, 2, 1)) == 3 + 2 * 7 + 1 * 49


@pytest.mark.parametrize("p,d", [(7, 1), (5, 2), (11, 2), (3, 3), (7, 3)])
def test_point_at_coords_of_index_of_round_trip(p, d):
    ctx = FieldContext(p, d)
    every = np.arange(ctx.order)
    coords = ctx.coords_of(every)
    assert coords.shape == (ctx.order, d)
    # index order runs x_1 fastest: product() with the coordinates reversed
    assert [tuple(row) for row in coords.tolist()] == [
        x[::-1] for x in itertools.product(range(p), repeat=d)
    ]
    for idx in every:
        pt = ctx.point_at(idx)
        assert pt == tuple(coords[idx].tolist())
        assert ctx.index_of(pt) == idx
        assert all(type(c) is int and 0 <= c < p for c in pt)
    assert np.array_equal(ctx.indices_of(coords), every)
    rng = np.random.Generator(np.random.Philox(p + d))
    block = rng.integers(0, ctx.order, size=(3, 4))
    assert np.array_equal(ctx.coords_of(block)[1, 2], coords[block[1, 2]])
    for bad in (-1, ctx.order):
        with pytest.raises(IndexError):
            ctx.point_at(bad)


@pytest.mark.parametrize("p,d", [(11, 1), (7, 2), (5, 3)])
def test_sum_index_matches_indices_of_the_sums(p, d):
    ctx = FieldContext(p, d)
    rng = np.random.Generator(np.random.Philox(p + d))
    a = rng.integers(0, p, size=(9, d))
    b = rng.integers(0, p, size=(4, d))
    assert np.array_equal(ctx.sum_index(a, b), ctx.indices_of(a[:, None] + b[None]))
    # every coordinate sum, 0 .. 2p - 2, against every other
    full = ctx.coords_of(np.arange(ctx.order))
    assert np.array_equal(ctx.sum_index(full, full), ctx.indices_of(full[:, None] + full[None]))
    assert ctx.sum_index(a, b[:0]).shape == (9, 0)


@pytest.mark.parametrize("p,d", [(11, 1), (7, 2), (5, 3)])
def test_sum_index_of_a_stack_adds_within_each_set(p, d):
    ctx = FieldContext(p, d)
    rng = np.random.Generator(np.random.Philox(10 * p + d))
    a = rng.integers(0, p, size=(3, 9, d))
    b = rng.integers(0, p, size=(3, 4, d))
    stacked = ctx.sum_index(a, b)
    assert stacked.shape == (3, 9, 4)
    for t in range(3):
        assert np.array_equal(stacked[t], ctx.sum_index(a[t], b[t]))


def test_reduce_canonicalizes():
    assert F5.reduce((-1, 7)) == (4, 2)


def test_point_arithmetic_returns_python_ints():
    x, y = (np.int64(3), 4), (4, np.int64(-1))
    for got, want in [(F5.add(x, y), (2, 3)), (F5.sub(x, y), (4, 0)), (F5.neg(x), (2, 1))]:
        assert got == want
        assert all(type(c) is int for c in got)


def test_inverse_table():
    for p in (3, 5, 7, 11):
        ctx = FieldContext(p, 1)
        for j in range(1, p):
            assert j * int(ctx.inverse_table[j]) % p == 1


def test_character_basics():
    def chi(a):
        return complex(F5.roots[a % 5])

    assert chi(0) == pytest.approx(1)
    for a in range(5):
        for b in range(5):
            assert chi(a + b) == pytest.approx(chi(a) * chi(b), abs=1e-12)
    assert abs(sum(chi(x) for x in range(5))) < 1e-9


def test_legendre_values():
    assert legendre(F5, 0) == 0
    assert legendre(F5, 4) == 1
    assert legendre(F5, 2) == -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_legendre_multiplicative(p):
    ctx = FieldContext(p, 1)
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(ctx, a * b) == legendre(ctx, a) * legendre(ctx, b)


def test_gauss_sum_values():
    assert gauss_sum(F5, 0) == pytest.approx(5)
    assert abs(gauss_sum(F5, 1)) == pytest.approx(math.sqrt(5), abs=1e-9)
    assert gauss_sum(F5, 2) == pytest.approx(-gauss_sum(F5, 1), abs=1e-9)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_gauss_sum_closed_form(p):
    # g(k) = eps * eta(k) * sqrt(p) for every k != 0, with |eps| = 1
    ctx = FieldContext(p, 1)
    eps = ctx.epsilon_q
    assert abs(eps) == pytest.approx(1, abs=1e-9)
    for k in range(1, p):
        want = eps * legendre(ctx, k) * math.sqrt(p)
        assert gauss_sum(ctx, k) == pytest.approx(want, abs=1e-9)


def test_kloosterman_frozen_value():
    # p=5, a=b=1: j + j^{-1} lands on {2, 3, 0, 0}, so the sum is
    # chi(0) + chi(0) + chi(2) + chi(3) = 2 + 2 cos(4 pi / 5)
    want = 2 + 2 * math.cos(4 * math.pi / 5)
    assert kloosterman(F5, 1, 1) == pytest.approx(want, abs=1e-12)
    assert kloosterman(F5, 1, 1).real == pytest.approx(0.3819660113, abs=1e-9)


def test_kloosterman_real_symmetric_bounded():
    for p in (5, 7, 11, 13):
        ctx = FieldContext(p, 1)
        for a in range(1, p):
            for b in range(1, p):
                val = kloosterman(ctx, a, b)
                assert abs(val.imag) < 1e-9
                assert abs(val) <= 2 * math.sqrt(p) + 1e-9
                assert val == pytest.approx(kloosterman(ctx, b, a), abs=1e-9)


def test_kloosterman_zero_parameter():
    with pytest.raises(ZeroParameter):
        kloosterman(F5, 0, 1)
    with pytest.raises(ZeroParameter):
        kloosterman(F5, 1, 5)  # 5 = 0 mod 5


def test_kloosterman_depends_only_on_the_product():
    # j -> b j gives K(a, b) = K(ab, 1), the identity weil_suite's class screen rests on
    for p in (5, 7, 11, 13):
        ctx = FieldContext(p, 1)
        for a in range(1, p):
            for b in range(1, p):
                assert abs(kloosterman(ctx, a, b) - kloosterman(ctx, a * b % p, 1)) < 1e-12


def test_weil_magnitude_does_not_depend_on_the_constant_term():
    # chi(f + b) = chi(b) chi(f), so |W_n(a, b)| = |W_n(a, 0)|: weil_suite's row screen
    for p in (5, 7, 11, 13):
        ctx = FieldContext(p, 1)
        for n in (3, 4):
            for a in range(p):
                unshifted = abs(weil_poly_sum(ctx, [0, a] + [0] * (n - 2) + [1]))
                for b in range(p):
                    shifted = abs(weil_poly_sum(ctx, [b, a] + [0] * (n - 2) + [1]))
                    assert abs(shifted - unshifted) < 1e-12


def test_weil_poly_sum_examples():
    assert abs(weil_poly_sum(F5, [0, 1])) < 1e-9
    assert weil_poly_sum(F5, [0, 0, 1]) == pytest.approx(gauss_sum(F5, 1), abs=1e-12)
    assert abs(weil_poly_sum(F7, [0, 0, 0, 1])) <= 2 * math.sqrt(7) + 1e-9


def test_weil_poly_sum_degree_errors():
    with pytest.raises(ConstantPolynomial):
        weil_poly_sum(F5, [3])
    with pytest.raises(ConstantPolynomial):
        weil_poly_sum(F5, [1, 5, 10])  # higher coefficients vanish mod 5
    with pytest.raises(DegreeDivisibleByP):
        weil_poly_sum(F5, [0, 1, 0, 0, 0, 2])


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=6),
    b=st.integers(min_value=0, max_value=6),
)
def test_weil_linear_is_zero(a, b):
    # orthogonality: a full sum of a nontrivial character vanishes
    assert abs(weil_poly_sum(F7, [b, a])) < 1e-9


def test_weil_bound_random_cubics_and_quartics():
    import numpy as np

    rng = np.random.Generator(np.random.Philox(11))
    for p in (5, 7, 11, 13):
        ctx = FieldContext(p, 1)
        for n in (3, 4):
            if n % p == 0:
                continue
            for _ in range(25):
                coeffs = [int(v) for v in rng.integers(0, p, size=n + 1)]
                coeffs[n] = int(rng.integers(1, p))
                s = weil_poly_sum(ctx, coeffs)
                assert abs(s) <= (n - 1) * math.sqrt(p) + 1e-9


def test_roots_of_unity_table():
    for p in (3, 7):
        ctx = FieldContext(p, 1)
        for a in range(p):
            assert ctx.roots[a] == pytest.approx(cmath.exp(2j * cmath.pi * a / p))
        # the gather's table holds the same roots twice, for phases in [0, 2p)
        assert ctx._roots_2p.tolist() == 2 * ctx.roots.tolist()
        assert not ctx._roots_2p.flags.writeable


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_weil_suite_matches_per_call_reference(p):
    # == on the dict: kloosterman_max must agree to the last bit
    assert weil_suite(p) == reference_weil_suite(p)


@pytest.mark.parametrize("p", [101, 211, 401])
def test_weil_suite_matches_the_full_block_sweep(p):
    # == on the dict: the screens return the full sweep's kloosterman_max to the last bit
    assert weil_suite(p) == block_weil_suite(p)


def _count_gathered_cells(monkeypatch) -> list:
    """Count the phases weil_suite gathers, in a one-element list."""
    cells = [0]

    def counted(ctx, phases, out=None):
        cells[0] += phases.size
        return character_row_sums(ctx, phases, out=out)

    monkeypatch.setattr(presets, "character_row_sums", counted)
    return cells


def test_weil_suite_gathers_quadratically_many_cells(monkeypatch):
    # Gauss p^2, the class screen p^2, one candidate class p^2, a Weil screen
    # p^2 per degree: about 5 p^2 against the full sweep's 3 p^3
    p = 211
    cells = _count_gathered_cells(monkeypatch)
    weil_suite(p)
    assert cells[0] <= 6 * p * p


@pytest.mark.parametrize("p", [5, 7, 13, 31, 101])
def test_weil_suite_with_every_screen_open_is_the_full_sweep(monkeypatch, p):
    # an infinite margin sends every class and every (n, a) to the full rows:
    # the fallback gives the same dict, at the full sweep's cost plus the screens
    monkeypatch.setattr(presets, "CHARACTER_SUM_MARGIN", math.inf)
    cells = _count_gathered_cells(monkeypatch)
    result = weil_suite(p)
    want = reference_weil_suite(p) if p <= 31 else block_weil_suite(p)
    assert result == want
    degrees = len(result["weil_degrees"])
    full_sweep = (p - 1) * p + (p - 1) ** 3 + degrees * p**3
    screens = (p - 1) ** 2 + degrees * p**2
    assert cells[0] == full_sweep + screens


@pytest.mark.parametrize("p", [7, 31, 211])
def test_character_row_sums_match_1d_sums(p):
    ctx = FieldContext(p, 1)
    phases = np.random.Generator(np.random.Philox(p)).integers(0, p, size=(p, p))
    rows = character_row_sums(ctx, phases)
    buffered = character_row_sums(ctx, phases + p, out=np.empty((p, p), dtype=complex))
    for i in range(p):
        want = ctx.roots[phases[i]].sum()
        assert rows[i] == want and buffered[i] == want
