import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from axbkit.grids import (_FD6_D1, _FD6_D2, HalfLineFunction, LogGrid, SpectralGrid, fd6,
                          grid_steps, shift_zero_fill)
from axbkit.halfline import act_modulation, generator, shift_log, xp_norm
from axbkit.halfplane import HalfPlaneGrid


def _shift_reference(values, steps, axis):
    """Elementwise ``out[i] = values[i + steps]`` along ``axis``, zero outside."""
    moved = np.moveaxis(values, axis, 0)
    out = np.zeros_like(moved)
    n = moved.shape[0]
    for i in range(n):
        if 0 <= i + steps < n:
            out[i] = moved[i + steps]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("steps", [0, 1, 3, -1, -4, 6, -6, 7, -9, 2, 4, 5, -2, -3, -5, -7])
def test_shift_zero_fill_both_axes(axis, steps):
    rng = np.random.default_rng(3)
    for values in (rng.standard_normal((6, 5)),
                   rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))):
        values[::2] *= -0.0  # signed zeros, which only a comparison of the bits tells apart
        if axis == 1:
            values = values.T.copy()  # the shifted axis has 6 nodes either way
        np.full_like(values, np.nan)  # a freed block of NaNs for the result to be allocated in
        out = shift_zero_fill(values, steps, axis=axis)
        ref = _shift_reference(values, steps, axis)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        if abs(steps) >= 6:
            assert not np.any(out)


@pytest.mark.parametrize("shape", [(4, 4), (3, 5)])
@pytest.mark.parametrize("steps", [1, -2])
def test_shift_zero_fill_counts_a_negative_axis_from_the_last(shape, steps):
    values = np.arange(float(np.prod(shape))).reshape(shape)
    for axis in (-1, -2):
        out = shift_zero_fill(values, steps, axis=axis)
        assert out.tobytes() == shift_zero_fill(values, steps, axis=values.ndim + axis).tobytes()
        assert out.tobytes() == _shift_reference(values, steps, values.ndim + axis).tobytes()
    for axis in (2, -3):
        with pytest.raises(ValueError, match="axis"):
            shift_zero_fill(values, steps, axis=axis)


def test_grid_steps_snaps_only_grid_multiples():
    h = 18.0 / 511
    assert grid_steps(3 * h, h) == 3
    assert grid_steps(-5 * h, h) == -5
    assert grid_steps(0.0, h) == 0
    assert grid_steps(2.5 * h, h) is None


def test_fd6_keeps_real_input_real():
    u = np.linspace(-3.0, 3.0, 128)
    h = u[1] - u[0]
    real = np.exp(-u ** 2)
    for order in (1, 2):
        d_real = fd6(real, h, order)
        d_complex = fd6(real.astype(complex), h, order)
        assert d_real.dtype == np.float64
        assert d_complex.dtype == np.complex128
        # complex division by h rounds differently from real division
        np.testing.assert_allclose(d_complex.real, d_real, rtol=1e-14, atol=0)
        assert not np.any(d_complex.imag)
    interior = slice(8, -8)
    exact = (4 * u ** 2 - 2) * real
    assert np.max(np.abs(fd6(real, h, 2) - exact)[interior]) < 1e-6


def _fd6_first_axis(values, h, order, axis):
    """The stencil run along the first axis of a ``concatenate``-padded copy."""
    stencil = [None, _FD6_D1, _FD6_D2][order]
    vals = np.moveaxis(values, axis, 0)
    n = vals.shape[0]
    pad = np.zeros((3,) + vals.shape[1:], dtype=np.result_type(vals, stencil))
    padded = np.concatenate([pad, vals, pad])
    out = np.zeros(vals.shape, dtype=pad.dtype)
    for k, c in enumerate(stencil):
        if c != 0.0:
            out += c * padded[k : k + n]
    return np.moveaxis(out / h ** order, 0, axis)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape, axis", [
    ((40,), 0),  # one function: axis 0 is the last axis
    ((20, 16), 0), ((20, 16), 1),  # a half-plane grid: axes ndim-2 and last
    ((3, 20, 16), 0), ((3, 20, 16), 1), ((3, 20, 16), 2),  # a stack of them
    ((2, 3, 40), 2),  # a stack of half-line functions
])
@pytest.mark.parametrize("order", [1, 2])
def test_fd6_equals_the_first_axis_form_bit_for_bit(dtype, shape, axis, order):
    rng = np.random.default_rng(len(shape) * 10 + axis)
    values = rng.standard_normal(shape)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(shape)
    h = 18.0 / 511
    got = fd6(values, h, order, axis=axis)
    ref = _fd6_first_axis(values, h, order, axis)
    assert got.dtype == ref.dtype == values.dtype and got.shape == ref.shape
    as_bits = lambda a: np.ascontiguousarray(a).view(np.uint64)  # noqa: E731
    assert np.array_equal(as_bits(got), as_bits(ref))
    if axis == len(shape) - 1:
        assert got.flags.c_contiguous


def _fd6_fresh_terms(values, h, order, axis):
    """The last-axis stencil with a fresh temporary per term and an out-of-place division."""
    stencil = [None, _FD6_D1, _FD6_D2][order]
    vals = np.moveaxis(values, axis, -1)
    n = vals.shape[-1]
    padded = np.zeros(vals.shape[:-1] + (n + 6,), dtype=np.result_type(vals, stencil))
    padded[..., 3 : n + 3] = vals
    out = np.zeros(vals.shape, dtype=padded.dtype)
    for k, c in enumerate(stencil):
        if c != 0.0:
            out += c * padded[..., k : k + n]
    return np.moveaxis(out / h ** order, -1, axis)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(40,), (20, 16), (2, 3, 40)])  # one function and stacks
@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("order", [1, 2])
def test_fd6_scratch_term_has_the_fresh_term_bits(dtype, shape, axis, order):
    rng = np.random.default_rng(len(shape) * 10 + axis % len(shape))
    values = rng.standard_normal(shape)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(shape)
    h = 18.0 / 511
    got = fd6(values, h, order, axis=axis)
    ref = _fd6_fresh_terms(values, h, order, axis)
    assert got.dtype == ref.dtype == values.dtype and got.shape == ref.shape
    as_bits = lambda a: np.ascontiguousarray(a).view(np.uint64)  # noqa: E731
    assert np.array_equal(as_bits(got), as_bits(ref))


def test_fd6_axis_matches_per_slice():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((20, 24)) + 1j * rng.standard_normal((20, 24))
    by_axis = fd6(values, 0.3, 1, axis=1)
    rows = np.array([fd6(row, 0.3, 1) for row in values])
    np.testing.assert_array_equal(by_axis, rows)
    with pytest.raises(ValueError):
        fd6(values, 0.3, 3)


def _stack(grid, shape):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal(shape + (grid.n,)) + 1j * rng.standard_normal(shape + (grid.n,))
    return rows * np.exp(-((grid.u + 3.0) ** 2) / 4.0)


def test_stack_container_checks_trailing_axis_and_finiteness():
    grid = LogGrid(-12.0, 6.0, 64)
    vals = _stack(grid, (3, 2))
    f = HalfLineFunction(grid, vals)
    assert f.values.shape == (3, 2, 64) and not f.values.flags.writeable
    vals[0, 0, 0] = 7.0  # the container holds its own copy
    assert f.values[0, 0, 0] != 7.0
    with pytest.raises(ValueError, match="grid size"):
        HalfLineFunction(grid, np.zeros((64, 3)))
    with pytest.raises(ValueError, match="grid size"):
        HalfLineFunction(grid, np.zeros(()))
    bad = _stack(grid, (4,))
    bad[2, 10] = np.nan
    with pytest.raises(ValueError, match="finite"):
        HalfLineFunction(grid, bad)


# (8, 8) on 512 nodes is the shape the r = 2 supremum search measures
@pytest.mark.parametrize("shape, n", [((5,), 64), ((3, 2), 64), ((8, 8), 512)],
                         ids=["shape0", "shape1", "shape2"])
def test_halfline_ops_on_a_stack_equal_row_by_row(shape, n):
    grid = LogGrid(-12.0, 6.0, n)
    f = HalfLineFunction(grid, _stack(grid, shape))
    rows = [HalfLineFunction(grid, row) for row in f.values.reshape(-1, grid.n)]

    def per_row(op):
        return np.array([op(row).values for row in rows]).reshape(f.values.shape)

    for p in (1.0, 2.0, 3.0):
        norms = xp_norm(f, p)
        assert norms.shape == shape
        np.testing.assert_array_equal(norms.ravel(), [xp_norm(row, p) for row in rows])
    # grid multiples (exact shifts) and an interpolated shift
    for t in (3 * grid.h, -2 * grid.h, 0.37):
        np.testing.assert_array_equal(shift_log(f, t).values, per_row(lambda g: shift_log(g, t)))
    np.testing.assert_array_equal(act_modulation(0.8, f).values,
                                  per_row(lambda g: act_modulation(0.8, g)))
    for j in (1, 2):
        np.testing.assert_array_equal(generator(j, f).values, per_row(lambda g: generator(j, g)))


def _bare_stacks(n):
    finite = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    shapes = st.tuples(st.integers(1, 4), st.integers(1, 3)).map(lambda lead: lead + (n,))
    return hnp.arrays(np.complex128, shapes, elements=finite)


@given(st.integers(16, 80).flatmap(_bare_stacks))
@settings(max_examples=60, deadline=None)
def test_xp_norm_of_a_generated_stack_equals_row_by_row(values):
    grid = LogGrid(-12.0, 6.0, values.shape[-1])
    for p in (1.0, 2.0, 3.0):
        norms = xp_norm(values, p, grid=grid)
        assert norms.shape == values.shape[:-1]
        np.testing.assert_array_equal(
            norms.ravel(), [xp_norm(row, p, grid=grid) for row in values.reshape(-1, grid.n)])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_every_grid_bound_must_be_finite(bad):
    # an infinite bound gave step inf and NaN nodes
    xgrid = LogGrid(-6.0, 4.0, 48)
    builds = {"u_min": lambda: LogGrid(bad, 6.0, 64), "u_max": lambda: LogGrid(-12.0, bad, 64),
              "tau_max": lambda: SpectralGrid(bad, 64),
              "y_min": lambda: HalfPlaneGrid(xgrid, bad, 8.0, 48),
              "y_max": lambda: HalfPlaneGrid(xgrid, -8.0, bad, 48)}
    for name, build in builds.items():
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build()
