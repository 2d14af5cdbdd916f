import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axbkit.grids import HalfLineFunction, LogGrid
from axbkit.group import GroupElement, multiply
from axbkit.halfplane import HalfPlaneGrid, halfplane_space, lp_norm_2d, log_gaussian_2d
from axbkit.halfline import (
    act,
    act_dilation,
    act_modulation,
    dilation_loss,
    generator,
    inner,
    shift_log,
    window_loss,
    xp_norm,
)
from axbkit.moduli import (halfline_space, mixed_derivative, modulus_mixed, sobolev_norm,
                           sobolev_norm_top)


def test_xp_norm_zero(grid):
    assert xp_norm(HalfLineFunction(grid, np.zeros(grid.n))) == 0.0


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
def test_a_norm_exponent_not_finite_or_below_one_is_refused(grid, f_lg, p):
    # before, inf gave 1.0 for every nonzero f and NaN gave NaN, both silently; a space
    # is refused when it is built, before a symbol path could skip its norm
    plane = HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    calls = (lambda: xp_norm(f_lg, p), lambda: xp_norm(10 * f_lg.values, p, grid=grid),
             lambda: lp_norm_2d(log_gaussian_2d(plane), p, "left"),
             lambda: modulus_mixed(halfline_space(grid, p), 1, 0.5, f_lg),
             lambda: halfplane_space(plane, "right", p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"^p must be finite and >= 1, got"):
                call()


def test_xp_norm_gamma_oracle(grid, f_xexp):
    # oracle: ||x e^{-x}||_{X^2}^2 = int_0^inf x e^{-2x} dx = Gamma(2) / 2^2
    expected = math.sqrt(math.gamma(2) / 2.0 ** 2)
    assert expected == 0.5
    assert abs(xp_norm(f_xexp, 2.0) - expected) < 1e-10


def test_xp_norm_indicator_weight_cancellation(grid):
    # f = x^{1/p} on [1, 3]: the measure weight cancels and the norm is the
    # plain L^p norm of the indicator, (3 - 1)^{1/p}
    p = 3.0
    vals = np.where((grid.x >= 1.0) & (grid.x <= 3.0), grid.x ** (1.0 / p), 0.0)
    f = HalfLineFunction(grid, vals)
    assert abs(xp_norm(f, p) - 2.0 ** (1.0 / p)) < 0.05


def test_xp_norm_matches_an_fsum_reference(grid, f_lg, f_xexp):
    # the square root of the correctly rounded sum of the rounded terms
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((4, grid.n)) + 1j * rng.standard_normal((4, grid.n))
    for v in [f_lg.values, f_xexp.values, *(noise * np.exp(-((grid.u + 2.0) ** 2) / 9.0))]:
        terms = [w * (z.real * z.real) for w, z in zip(grid.weights, v)]
        terms += [w * (z.imag * z.imag) for w, z in zip(grid.weights, v)]
        reference = math.sqrt(math.fsum(terms))
        assert abs(xp_norm(v, grid=grid) - reference) <= 4 * math.ulp(reference)


def test_xp_norm_rejects_small_p(grid, f_xexp):
    with pytest.raises(ValueError):
        xp_norm(f_xexp, 0.5)


def test_inner_gamma_oracle(grid, f_xexp):
    # oracle: <x e^{-x}, x^2 e^{-x}> = int x^2 e^{-2x} dx = Gamma(3) / 2^3
    g = HalfLineFunction(grid, grid.x ** 2 * np.exp(-grid.x))
    expected = math.gamma(3) / 2.0 ** 3
    assert expected == 0.25
    assert abs(inner(f_xexp, g) - expected) < 1e-10


def test_inner_consistency(grid, f_xexp, f_lg):
    assert abs(inner(f_xexp, f_xexp) - xp_norm(f_xexp) ** 2) < 1e-12
    assert inner(f_xexp, f_lg) == pytest.approx(np.conj(inner(f_lg, f_xexp)))


def test_inner_grid_mismatch(f_xexp):
    other = LogGrid(-12.0, 6.0, 256)
    g = HalfLineFunction(other, np.zeros(256))
    with pytest.raises(ValueError):
        inner(f_xexp, g)


def test_act_identity_and_modulation_consistency(grid, f_lg):
    same = act(GroupElement(1.0, 0.0), f_lg)
    np.testing.assert_allclose(same.values, f_lg.values, atol=1e-15)
    viaact = act(GroupElement(1.0, math.pi), f_lg)
    direct = act_modulation(math.pi, f_lg)
    np.testing.assert_allclose(viaact.values, direct.values, atol=1e-15)


def test_act_unitary_grid_compatible(grid, f_lg):
    g = GroupElement(math.exp(37 * grid.h), 1.7)
    moved = act(g, f_lg)
    assert abs(xp_norm(moved) - xp_norm(f_lg)) / xp_norm(f_lg) < 1e-10


def test_act_homomorphism(grid, f_lg):
    t = 12 * grid.h
    g1 = GroupElement(math.exp(t), 0.0)
    g2 = GroupElement(1.0, 0.8)
    lhs = act(g1, act(g2, f_lg))
    rhs = act(multiply(g1, g2), f_lg)
    assert xp_norm(lhs - rhs) / xp_norm(f_lg) < 1e-10


def test_dilation_is_exact_permutation(grid, f_lg):
    t = 5 * grid.h
    rolled = np.zeros(grid.n, dtype=complex)
    rolled[: grid.n - 5] = f_lg.values[5:]
    np.testing.assert_array_equal(act_dilation(t, f_lg).values, rolled)
    loss = dilation_loss(f_lg, t)
    assert abs(xp_norm(act_dilation(t, f_lg)) ** 2 - (xp_norm(f_lg) ** 2 - loss)) < 1e-14


def test_offgrid_shift_is_accurate(grid, f_lg):
    # band-limited interpolation against a half-step shift of the exact profile
    t = 2.5 * grid.h
    shifted = shift_log(f_lg, t)
    exact = np.exp(-((grid.u + t + 3.0) ** 2) / 2.0)
    exact /= xp_norm(HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0)))
    err = np.max(np.abs(shifted.values - exact))
    assert err < 1e-9


def test_modulation_additive_exact(grid, f_lg):
    a = act_modulation(0.3, act_modulation(0.9, f_lg))
    b = act_modulation(1.2, f_lg)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-15, atol=1e-18)


@given(st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_modulation_isometry(t):
    grid = LogGrid(-12.0, 6.0, 64)
    f = HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0))
    assert abs(xp_norm(act_modulation(t, f)) - xp_norm(f)) < 1e-13


def test_generator_dilation_eigenfunction(grid):
    # x d/dx x^2 = 2 x^2; pointwise relative error on the interior
    f = HalfLineFunction(grid, grid.x ** 2)
    d = generator(1, f)
    sl = slice(4, grid.n - 4)
    rel = np.abs(d.values[sl] - 2.0 * grid.x[sl] ** 2) / (2.0 * grid.x[sl] ** 2)
    assert np.max(rel) < 1e-8


def test_generator_modulation_exact(grid):
    f = HalfLineFunction(grid, np.exp(-grid.x))
    d = generator(2, f)
    np.testing.assert_allclose(d.values, 1j * grid.x * np.exp(-grid.x), rtol=1e-15)


def test_generator_commutator(grid):
    # [D1, D2] = D2, checked in norm over the interior on e^{-x}
    f = HalfLineFunction(grid, np.exp(-grid.x))
    comm = generator(1, generator(2, f)) - generator(2, generator(1, f))
    target = generator(2, f)
    sl = slice(4, grid.n - 4)
    num = np.linalg.norm(comm.values[sl] - target.values[sl])
    den = np.linalg.norm(target.values[sl])
    assert num / den < 1e-6


def test_generator_is_dilation_limit(grid, f_lg):
    d = generator(1, f_lg)
    errs = []
    for k in (16, 8, 4):
        t = k * grid.h
        quot = (act_dilation(t, f_lg) - f_lg) * (1.0 / t)
        errs.append(xp_norm(quot - d))
    assert errs[0] > errs[1] > errs[2]
    assert 1.5 < errs[0] / errs[1] < 2.5  # first-order defect in t


def test_sobolev_norm_order_zero(grid, f_xexp):
    assert sobolev_norm(f_xexp, 0) == pytest.approx(xp_norm(f_xexp))


def test_sobolev_norm_gamma_oracle(grid, f_xexp):
    # oracle: with f = x e^{-x},
    #   ||D1 f||^2 = int x (1-x)^2 e^{-2x} dx = 1/4 - 2/4 + 6/16 = 1/8
    #   ||D2 f||^2 = int x^3 e^{-2x} dx      = Gamma(4) / 2^4 = 3/8
    expected = 0.5 + math.sqrt(1.0 / 8.0) + math.sqrt(3.0 / 8.0)
    assert abs(sobolev_norm(f_xexp, 1, 2.0) - expected) < 1e-6


def test_sobolev_top_order_equivalence(grid, f_xexp, f_lg):
    m = 2
    for f in (f_xexp, f_lg):
        full = sobolev_norm(f, m)
        top = sobolev_norm_top(f, m)
        assert 1.0 <= full / top <= 3 + 2 ** m


def test_sobolev_rejects_large_order(grid, f_xexp):
    with pytest.raises(ValueError):
        sobolev_norm(f_xexp, 5)


def test_mixed_derivative_word_order(grid, f_xexp):
    d12 = mixed_derivative((1, 2), f_xexp)
    manual = generator(1, generator(2, f_xexp))
    np.testing.assert_allclose(d12.values, manual.values, rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        mixed_derivative((), f_xexp)


def test_window_loss_flags_non_decaying(grid, f_lg):
    assert window_loss(f_lg) < 1e-12
    from axbkit.spectral import macdonald_kernel

    k = HalfLineFunction(grid, macdonald_kernel(1.0, grid.x))
    assert window_loss(k) > 1e-6


def _stack(grid, f_lg, f_xexp):
    return np.stack([f_lg.values, f_xexp.values, 2.0 * f_lg.values])


@pytest.mark.parametrize("stacked", [False, True])
def test_array_form_equals_container_form(grid, f_lg, f_xexp, stacked):
    values = _stack(grid, f_lg, f_xexp) if stacked else f_lg.values
    f = HalfLineFunction(grid, values)
    for p in (1.0, 2.0, 3.0):
        assert np.array_equal(xp_norm(values, p, grid=grid), xp_norm(f, p))
    # exact grid steps and the interpolated route
    pairs = [(shift_log(values, t, grid=grid), shift_log(f, t)) for t in (3 * grid.h, 2.5 * grid.h)]
    pairs += [(act_modulation(0.7, values, grid=grid), act_modulation(0.7, f))]
    pairs += [(generator(j, values, grid=grid), generator(j, f)) for j in (1, 2)]
    for array_out, container_out in pairs:
        assert type(array_out) is np.ndarray and array_out.flags.c_contiguous
        assert np.array_equal(array_out, container_out.values)


def test_bare_values_need_a_grid(grid, f_lg):
    with pytest.raises(TypeError, match="grid="):
        shift_log(f_lg.values, grid.h)
    with pytest.raises(TypeError, match="grid="):
        xp_norm(f_lg.values)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("form", ["container", "array"])
def test_nonfinite_t_is_rejected(grid, f_lg, form, t):
    f, kw = (f_lg, {}) if form == "container" else (f_lg.values, {"grid": grid})
    with pytest.raises(ValueError, match="t must be finite"):
        shift_log(f, t, **kw)
    with pytest.raises(ValueError, match="t must be finite"):
        act_modulation(t, f, **kw)
    if form == "container":
        with pytest.raises(ValueError, match="t must be finite"):
            act_dilation(t, f)
        # the element itself refuses a non-finite translation
        with pytest.raises(ValueError, match="b must be finite"):
            act(GroupElement(1.0, t), f)


def _shift_log_padded_fft(values, t, grid):
    """Oracle: the off-grid ``shift_log`` as an inline FFT, padded on both sides."""
    pad = int(np.ceil(abs(t / grid.h))) + 8
    npad = grid.n + 2 * pad
    buf = np.zeros(values.shape[:-1] + (npad,), dtype=complex)
    buf[..., pad : pad + grid.n] = values
    xi = 2.0 * np.pi * np.fft.fftfreq(npad, d=grid.h)
    shifted = np.fft.ifft(np.fft.fft(buf) * np.exp(1j * xi * t))
    return shifted[..., pad : pad + grid.n]


@pytest.mark.parametrize("stacked", [False, True])
def test_offgrid_shift_equals_padded_fft_reference(grid, f_lg, f_xexp, stacked):
    values = _stack(grid, f_lg, f_xexp) if stacked else f_lg.values
    for t in (2.5 * grid.h, -2.5 * grid.h, 0.37, -1.3, 40.3 * grid.h):
        assert np.array_equal(shift_log(values, t, grid=grid),
                              _shift_log_padded_fft(values, t, grid)), t


@pytest.mark.parametrize("form", ["container", "bare", "stack"])
def test_act_modulation_is_fresh_and_bit_identical(grid, f_lg, f_xexp, form):
    if form == "container":
        f, kw, values = f_lg, {}, f_lg.values
    else:
        values = _stack(grid, f_lg, f_xexp) if form == "stack" else f_lg.values.copy()
        f, kw = values, {"grid": grid}
    # each call computes its own phase, also for a repeated t, a numpy scalar or a 0-d array
    earlier = []
    for t in (0.7, -1.3, 0.7, 0.0, np.float64(-1.3), np.array(0.7)):
        out = act_modulation(t, f, **kw)
        got = out.values if form == "container" else out
        assert np.array_equal(got.view(np.uint64),
                              (np.exp(1j * t * grid.x) * values).view(np.uint64)), t
        assert not any(np.shares_memory(got, a) for a in [values] + earlier)
        if form != "container":
            assert got.flags.writeable
        earlier.append(got)
