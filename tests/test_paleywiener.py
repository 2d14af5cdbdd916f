import math
import warnings

import numpy as np
import pytest

from axbkit.grids import HalfLineFunction
from axbkit.halfline import inner, xp_norm
from axbkit.paleywiener import (
    bernstein_check,
    best_approx,
    decay_slope,
    jackson_check,
    pw_project,
    riesz_boas,
    schrodinger_modulus,
)


def eigvec(grid, op, k):
    return HalfLineFunction(grid, op.synth(np.eye(op.eigenvalues.size)[:, k]))


def test_band_limit_validation(f_lg, op):
    for omega in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="omega"):
            pw_project(omega, f_lg, op=op)


def test_projection_fixes_bandlimited(grid, op, f_lg):
    band = pw_project(3.0, f_lg, op=op)
    again = pw_project(3.0, band, op=op)
    assert xp_norm(again - band) / xp_norm(band) < 1e-12


def test_projection_selfadjoint(grid, op, f_lg, f_lg_wide):
    lhs = inner(pw_project(2.0, f_lg, op=op), f_lg_wide)
    rhs = inner(f_lg, pw_project(2.0, f_lg_wide, op=op))
    assert abs(lhs - rhs) < 1e-12


def test_projection_monotone_nested(grid, op, f_lg):
    p1 = pw_project(1.5, f_lg, op=op)
    p2 = pw_project(3.0, f_lg, op=op)
    assert xp_norm(p1) <= xp_norm(p2) + 1e-12
    nested = pw_project(1.5, p2, op=op)
    assert xp_norm(nested - p1) / xp_norm(p1) < 1e-12


def test_best_approx_eigenvector_dichotomy(grid, op):
    k = 10
    v = eigvec(grid, op, k)
    tau = math.sqrt(max(op.eigenvalues[k], 0.0))
    assert best_approx(tau + 0.1, v, op) < 1e-10
    assert best_approx(tau - 0.1, v, op) == pytest.approx(xp_norm(v), rel=1e-10)


def test_best_approx_monotone_to_zero(grid, op, f_lg):
    sig = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    vals = [best_approx(s, f_lg, op) for s in sig]
    assert all(type(v) is float for v in vals)
    # an array of sigmas shares one spectral-weight vector, with the same tails
    assert list(best_approx(np.array(sig), f_lg, op)) == vals
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # sigma -> infinity: only the eigen-coefficient noise floor remains
    assert vals[-1] < 1e-9 * xp_norm(f_lg)


def test_pythagoras(grid, op, f_lg):
    sigma = 2.0
    p = pw_project(sigma, f_lg, op=op)
    lhs = best_approx(sigma, f_lg, op) ** 2 + xp_norm(p) ** 2
    assert abs(lhs - xp_norm(f_lg) ** 2) < 1e-12


def test_bernstein_eigenvector(grid, op):
    k = 15
    v = eigvec(grid, op, k)
    lam = max(float(op.eigenvalues[k]), 0.0)
    omega = math.sqrt(lam) + 0.5
    rep = bernstein_check(v, omega, (0, 1, 2, 3), op)
    assert rep["ratios"][0.0] == pytest.approx(1.0, rel=1e-12)
    for s in (1, 2, 3):
        assert rep["ratios"][float(s)] == pytest.approx((math.sqrt(lam) / omega) ** s,
                                                        rel=1e-8)


def test_bernstein_random_bandlimited(grid, op):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        omega = float(rng.uniform(1.0, 8.0))
        band = pw_project(omega, HalfLineFunction(grid, rng.standard_normal(grid.n)), op=op)
        rep = bernstein_check(band, omega, (1, 2, 3), op)
        worst = max(worst, rep["max_ratio"])
    assert worst <= 1.0 + 1e-8


def test_riesz_boas_eigenvector_series(grid, op):
    k = 6
    v = eigvec(grid, op, k)
    omega = math.sqrt(max(op.eigenvalues[k], 0.0)) * 1.5
    errs = [riesz_boas(omega, v, K, op)[1] for K in (8, 16, 32, 64, 128)]
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    assert errs[-1] < 1e-2


def test_riesz_boas_zero(grid, op):
    zero = HalfLineFunction(grid, np.zeros(grid.n))
    series, err, tail = riesz_boas(2.0, zero, 16, op)
    assert np.all(series.values == 0.0)


def test_riesz_boas_tail_bound_decreases(grid, op, f_lg):
    band = pw_project(2.0, f_lg, op=op)
    tails = [riesz_boas(2.0, band, K, op)[2] for K in (8, 32, 128)]
    assert tails[0] > tails[1] > tails[2]


@pytest.mark.parametrize("omega", [2.5, 5.0])
def test_riesz_boas_ladder_has_the_bits_of_each_truncation(grid, op, f_lg, f_lg_wide, omega):
    ks = (8, 16, 32, 64, 128)
    one = pw_project(omega / 1.25, f_lg, op=op)
    wide = pw_project(omega, f_lg_wide, op=op)
    stack = HalfLineFunction(grid, np.stack([one.values, wide.values]))
    for f, lead in ((one, ()), (stack, (2,))):
        series, errs, tails = riesz_boas(omega, f, np.array(ks), op)
        assert series.values.shape == (len(ks),) + lead + (grid.n,)
        assert errs.shape == tails.shape == (len(ks),) + lead
        for i, k in enumerate(ks):
            series_k, err_k, tail_k = riesz_boas(omega, f, k, op)
            assert np.array_equal(series.values[i], series_k.values)
            assert np.array_equal(errs[i], err_k) and np.array_equal(tails[i], tail_k)
    assert type(riesz_boas(omega, one, 8, op)[1]) is float


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_riesz_boas_rejects_a_bad_band(f_lg, op, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega"):
            riesz_boas(omega, f_lg, 8, op)


@pytest.mark.parametrize("k_trunc", [0, -3, 2.5, 8.0, True, [8, 0], [8, 2.5], [[8, 16]], []])
def test_riesz_boas_rejects_a_bad_truncation(f_lg, op, k_trunc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k_trunc"):
            riesz_boas(2.0, f_lg, k_trunc, op)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_bernstein_check_rejects_a_bad_band(f_lg, op, omega):
    # 0 once gave an infinite ratio after divide-by-zero warnings, -1 a finite one, NaN a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^omega: must be finite and positive"):
            bernstein_check(f_lg, omega, (1, 2, 3), op)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_schrodinger_modulus_rejects_a_bad_time(f_lg, op, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t: must be finite and nonnegative"):
            schrodinger_modulus(2, t, f_lg, op)


@pytest.mark.parametrize("r", [0, -1, 1.5, 2.0])
def test_schrodinger_modulus_takes_the_modulus_order_rule(f_lg, op, r):
    with pytest.raises(ValueError, match="^r must be an integer >= 1"):
        schrodinger_modulus(r, 0.5, f_lg, op)


def test_schrodinger_zero_and_bound(grid, op, f_lg):
    assert schrodinger_modulus(2, 0.0, f_lg, op) == 0.0
    assert schrodinger_modulus(2, 5.0, f_lg, op) <= 2.0 ** 2 * xp_norm(f_lg) * (1 + 1e-12)


def test_schrodinger_eigenvector_closed_form(grid, op):
    k = 5
    v = eigvec(grid, op, k)
    lam = float(op.eigenvalues[k])
    t = 0.5 * math.pi / lam  # keeps t * lam below pi, supremum at tau = t
    val = schrodinger_modulus(1, t, v, op)
    expected = 2.0 * math.sin(t * lam / 2.0) * xp_norm(v)
    assert val == pytest.approx(expected, rel=1e-10)


def test_jackson_bandlimited_gives_zero_ratio(grid, op, space):
    band = pw_project(2.0, HalfLineFunction(grid, np.exp(-((grid.u + 3) ** 2) / 2)), op=op)
    band = band * (1.0 / xp_norm(band))
    rep = jackson_check([4.0, 8.0], 2, band, op, space)
    assert rep["C_hat"] < 1e-8


def test_jackson_constant_and_slope(grid, op, space, f_lg):
    sigmas = 2.0 ** np.arange(-2.0, 5.01, 0.5)
    rep = jackson_check(sigmas, 2, f_lg, op, space)
    assert np.isfinite(rep["C_hat"]) and rep["C_hat"] < 100.0
    assert rep["slope"] <= -2.0 + 0.25


def test_decay_slope_ignores_floor():
    sig = np.array([1.0, 2.0, 4.0, 8.0])
    vals = np.array([1.0, 0.25, 0.0625, 1e-15])
    assert decay_slope(sig, vals, floor=1e-12) == pytest.approx(-2.0, rel=1e-6)
