import math
import re
from itertools import product

import numpy as np
import pytest

from axbkit import suites
from axbkit.grids import HalfLineFunction, LogGrid
from axbkit.halfline import act_modulation, xp_norm
from axbkit.halfplane import HalfPlaneGrid, halfplane_space, log_gaussian_2d
from axbkit.moduli import modulus_mixed
from axbkit.smoothing import (
    _gauss_legendre,
    box_profile,
    commutation_check,
    hardy_steklov,
    hardy_steklov_dir,
    hardy_steklov_generic,
    irwin_hall_nodes,
    m_operator,
    steklov,
    steklov_avg,
    steklov_avg_generic,
)


def dir2_tensor_quadrature(r, s, f, n_gl=24, dilation=1):
    """Oracle: the r-fold integral evaluated by tensor Gauss-Legendre, one tuple at a time."""
    nodes, wts = np.polynomial.legendre.leggauss(n_gl)
    hp = s / r
    t = 0.5 * hp * (nodes + 1.0)
    w = 0.5 * hp * wts
    acc = np.zeros(f.grid.n, dtype=complex)
    for tup in product(range(n_gl), repeat=r):
        tsum = sum(t[i] for i in tup)
        coeff = math.prod(w[i] for i in tup)
        acc += coeff * np.exp(1j * dilation * tsum * f.grid.x)
    return f.with_values(acc / hp ** r * f.values)


def dir1_padded_fft(symbol, values, grid, extent):
    """Oracle: a direction-1 multiplier as an inline FFT on one function, padded on the right."""
    pad = int(np.ceil(extent / grid.h)) + 8
    npad = grid.n + pad
    buf = np.zeros(npad, dtype=complex)
    buf[: grid.n] = values
    xi = 2.0 * np.pi * np.fft.fftfreq(npad, d=grid.h)
    out = np.fft.ifft(np.fft.fft(buf) * symbol(xi))
    return out[: grid.n]


def dir1_hardy_symbol(r, s):
    hp = s / r

    def symbol(xi):
        total = np.zeros_like(xi, dtype=complex)
        for k in range(1, r + 1):
            total += (-1) ** k * math.comb(r, k) * box_profile(k * xi * hp) ** r
        return total

    return symbol


def steklov_avg_loop(act, j, r, s, f):
    """Oracle: ``P_{j,r}(s)`` by the node loop with a ``None`` accumulator."""
    t, w = irwin_hall_nodes(r, s)
    out = None
    for ti, wi in zip(t, w):
        term = wi * act(j, ti, f)
        out = term if out is None else out + term
    return out


def hardy_steklov_loop(act, r, s, f):
    """Oracle: ``H_r(s)`` by the (k, node) loop with a ``None`` accumulator."""
    t, w = irwin_hall_nodes(r, s)

    def one_direction(j, g):
        out = None
        for k in range(1, r + 1):
            coeff = (-1) ** k * math.comb(r, k)
            for ti, wi in zip(t, w):
                term = (coeff * wi) * act(j, k * ti, g)
                out = term if out is None else out + term
        return out

    return one_direction(1, one_direction(2, f))


def dir2_hardy_loop(r, s, values, grid):
    """Oracle: the direction-2 Hardy multiplier accumulated at ``(k h') x``."""
    hp = s / r
    mult = np.zeros(grid.n, dtype=complex)
    for k in range(1, r + 1):
        mult += (-1) ** k * math.comb(r, k) * box_profile(k * hp * grid.x) ** r
    return mult * values


@pytest.mark.parametrize("r, s, j, match", [
    (0, 1.0, 2, r"^order must be in \[1, 4\]"),
    (1, -1.0, 2, "^s must be finite and positive, got -1.0$"),
    (1, 1.0, 3, "^direction must be 1 or 2, got 3$"),
    # each row below breaks every rule from its own onwards, so only the first check may
    # fire: order, scale (finite and positive), the finiteness of r * s, direction, reach
    (0, -1.0, 3, "^order"), (2, -1.0, 3, "^s must be finite and positive"),
    (2, math.inf, 3, "^s must be finite and positive, got inf$"),
    (4, 1e308, 3, r"^r \* s must be finite"), (2, 1e6, 3, "^direction"),
    (2, 1e6, 1, "^s = 1000000.0 reaches"),
])
def test_params_validation(f_lg, r, s, j, match):
    calls = (lambda: steklov_avg(j, r, s, f_lg), lambda: hardy_steklov_dir(j, r, s, f_lg),
             lambda: hardy_steklov_dir(j, r, s, f_lg.values, grid=f_lg.grid))
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


def test_the_parameter_wrapper_is_gone():
    import axbkit.smoothing as sm

    assert not hasattr(sm, "SteklovParams")


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_steklov_is_the_composition_of_the_two_averages(f_lg, r):
    for s in (0.3, 1.7):
        want = steklov_avg(1, r, s, steklov_avg(2, r, s, f_lg)).values
        got = steklov(r, s, f_lg).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_box_profile_limit():
    assert box_profile(np.array([0.0]))[0] == 1.0


def test_dir2_closed_form_vs_quadrature(f_xexp):
    for r, s in ((1, 0.5), (2, 0.5), (2, 2.0)):
        oracle = dir2_tensor_quadrature(r, s, f_xexp)
        closed = steklov_avg(2, r, s, f_xexp)
        assert xp_norm(oracle - closed) / xp_norm(closed) < 1e-10


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1, 2])
def test_suite_tensor_quadrature_equals_the_tuple_loop(r, dilation):
    grid = LogGrid(-12.0, 6.0, 64)
    f = HalfLineFunction(grid, grid.x * np.exp(-grid.x))
    s = 0.5 if r < 3 else 2.0
    got = suites._dir2_tensor_quadrature(r, s, f, dilation=dilation).values
    want = dir2_tensor_quadrature(r, s, f, dilation=dilation).values
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_steklov_avg_identity_limit(f_lg):
    errs = [xp_norm(steklov_avg(2, 1, s, f_lg) - f_lg)
            for s in (0.4, 0.2, 0.1)]
    assert errs[0] > errs[1] > errs[2]
    assert 1.6 < errs[0] / errs[1] < 2.4  # defect O(s)


def test_dir1_constant_fixed_point(grid):
    const = HalfLineFunction(grid, np.ones(grid.n))
    out = steklov_avg(1, 2, 1.0, const)
    interior = slice(grid.n // 4, grid.n // 2)
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_dir1_fft_route_vs_density_quadrature(grid, f_lg, space):
    # two independent evaluations of the same operator
    for r, s in ((1, 0.7), (2, 0.7), (3, 1.4)):
        fft_route = steklov_avg(1, r, s, f_lg)
        quad_route = steklov_avg_generic(space.act, 1, r, s, f_lg.values)
        assert xp_norm(fft_route.values - quad_route, grid=grid) / xp_norm(f_lg) < 1e-6
    h_fft = hardy_steklov(2, 0.7, f_lg)
    h_quad = hardy_steklov_generic(space.act, 2, 0.7, f_lg.values)
    assert xp_norm(h_fft.values - h_quad, grid=grid) / xp_norm(f_lg) < 1e-6


def test_irwin_hall_mass():
    for r in (1, 2, 3, 4):
        _, w = irwin_hall_nodes(r, 0.83)
        assert abs(np.sum(w) - 1.0) < 1e-12


@pytest.mark.parametrize("r, s, match", [
    (0, 1.0, "order"), (5, 0.5, "order"), (9, 0.5, "order"),
    (2, -1.0, "^s must be finite and positive, got -1.0$"),
    (2, 0.0, "^s must be finite and positive, got 0.0$"),
    (2, math.nan, "^s must be finite and positive, got nan$"),
    (2, math.inf, "^s must be finite and positive, got inf$"),
    (4, 1e308, r"r \* s must be finite"),
])
def test_quadrature_route_keeps_the_closed_forms_rule(space, f_lg, r, s, match):
    # irwin_hall_nodes(0, 1.0) divided by zero, a negative s gave values, and r = 9 ran
    routes = (lambda: steklov_avg(1, r, s, f_lg), lambda: hardy_steklov_dir(1, r, s, f_lg),
              lambda: irwin_hall_nodes(r, s),
              lambda: steklov_avg_generic(space.act, 2, r, s, f_lg.values),
              lambda: hardy_steklov_generic(space.act, r, s, f_lg.values))
    for route in routes:
        with pytest.raises(ValueError, match=match):
            route()


def test_halfplane_k_upper_has_the_halfline_order_cap():
    from axbkit.moduli import k_upper

    hgrid = HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    f2 = log_gaussian_2d(hgrid)
    for side in ("left", "right"):
        with pytest.raises(ValueError, match=r"^r must be in \[1, 4\]"):
            k_upper(halfplane_space(hgrid, side), 5, 0.5, f2)


@pytest.mark.parametrize("n", [12, 24])
def test_gauss_legendre_is_a_read_only_table_of_leggauss(n):
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.dtype == weights.dtype == np.float64 and nodes.shape == weights.shape == (n,)
    assert np.array_equal(nodes.view(np.uint64), ref_nodes.view(np.uint64))
    assert np.array_equal(weights.view(np.uint64), ref_weights.view(np.uint64))
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    again = _gauss_legendre(n)
    assert again[0] is nodes and again[1] is weights


def test_steklov_composition_smooths(grid, f_lg):
    from axbkit.moduli import sobolev_norm

    out = steklov(2, 0.5, f_lg)
    assert np.isfinite(sobolev_norm(out, 2))
    p12 = steklov_avg(1, 2, 1.0, steklov_avg(2, 2, 1.0, f_lg))
    p21 = steklov_avg(2, 2, 1.0, steklov_avg(1, 2, 1.0, f_lg))
    assert xp_norm(p12 - p21) > 1e-8  # the subgroups do not commute


def test_m_operator_single_term(f_lg):
    out = m_operator(2, 1, 0.4, f_lg)
    expected = -1.0 * act_modulation(0.4, f_lg)
    np.testing.assert_allclose(out.values, expected.values, atol=1e-15)


def test_m_operator_binomial_identity(f_lg):
    t = 0.37
    for r in (1, 2, 3):
        mf = m_operator(2, r, t, f_lg)
        g = f_lg
        for _ in range(r):
            g = g - act_modulation(t, g)
        assert xp_norm((f_lg + mf) - g) < 1e-12


def test_m_operator_rejects_bad_order_and_direction(f_lg):
    for j, r in ((2, 0), (2, 5), (0, 1), (3, 1)):
        with pytest.raises(ValueError):
            m_operator(j, r, 0.4, f_lg)


def test_m_operator_at_zero(f_lg):
    for r in (1, 2, 3):
        np.testing.assert_allclose(m_operator(2, r, 0.0, f_lg).values, -f_lg.values,
                                   atol=1e-15)


def test_hardy_steklov_identity_limit_orders(f_xexp):
    f = f_xexp * (1.0 / xp_norm(f_xexp))
    for r in (1, 2):
        svals = [0.2 / 2 ** k for k in range(5)]
        errs = [xp_norm(f - hardy_steklov(r, s, f)) for s in svals]
        slope = np.polyfit(np.log(svals), np.log(errs), 1)[0]
        assert slope >= r - 0.05


def test_hardy_steklov_bounded_by_modulus(grid, space, f_lg):
    # ||f - H_r(s) f|| <= c0(r) Omega^r(s, f); c0 <= 1 + 2^r analytically
    for r in (1, 2):
        for s in (0.25, 1.0):
            lhs = xp_norm(f_lg - hardy_steklov(r, s, f_lg))
            omega = modulus_mixed(space, r, s, f_lg)
            assert lhs <= (1 + 2 ** r) * omega * 1.1


def test_hardy_steklov_smooth_part_bounded(grid, space, f_lg):
    # s^r ||H_r(s) f||_{E^r} stays bounded as s -> 0 for smooth f
    from axbkit.moduli import sobolev_space_norm

    r = 2
    vals = [s ** r * sobolev_space_norm(space, hardy_steklov(r, s, f_lg), r)
            for s in (0.2, 0.1, 0.05)]
    assert vals[0] < math.inf and max(vals) <= 2.0 * min(vals) + 1.0


def test_commutation_examples(grid, f_lg):
    h = grid.h
    for m in (1, 2, 3):
        assert commutation_check(m, 5 * h, 0.4, f_lg) < 1e-10
    # at t1 = 0 the two sides differ only by multiplication order
    assert commutation_check(1, 0.0, 0.4, f_lg) < 1e-15


def test_commutation_nondecaying_input(grid):
    from axbkit.spectral import macdonald_kernel

    k = HalfLineFunction(grid, macdonald_kernel(1.0, grid.x))
    assert commutation_check(3, 5 * grid.h, 0.4, k) < 1e-10


def test_norm_bound(f_lg):
    for r in (1, 2, 3):
        assert xp_norm(hardy_steklov(r, 1.0, f_lg)) <= (2 ** r) ** 2 * xp_norm(f_lg)


def test_hardy_dir2_matches_m_average(f_lg):
    # H_{2,r}(s) equals the average of M over the time cube; oracle via the
    # collapsed density quadrature on the exact modulation action
    r, s = 2, 0.8
    t, w = irwin_hall_nodes(r, s)
    acc = np.zeros(f_lg.grid.n, dtype=complex)
    for ti, wi in zip(t, w):
        acc += wi * m_operator(2, r, ti, f_lg).values
    closed = hardy_steklov_dir(2, r, s, f_lg)
    assert xp_norm(f_lg.with_values(acc) - closed) / xp_norm(f_lg) < 1e-10


def test_hardy_array_form_equals_container_form(grid, f_lg):
    for r, s in ((1, 0.3), (2, 0.7), (3, 1.4)):
        out = hardy_steklov(r, s, f_lg.values, grid=grid)
        assert type(out) is np.ndarray
        assert np.array_equal(out, hardy_steklov(r, s, f_lg).values)
        for j in (1, 2):
            assert np.array_equal(hardy_steklov_dir(j, r, s, f_lg.values, grid=grid),
                                  hardy_steklov_dir(j, r, s, f_lg).values)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_dir1_operators_equal_padded_fft_reference(f_lg, f_xexp, r):
    grid = f_lg.grid
    stack = np.stack([f_lg.values, f_xexp.values])
    for s in (0.3, 1.7):
        hp = s / r
        avg = dir1_padded_fft(lambda xi: box_profile(xi * hp) ** r, f_lg.values, grid, s)
        assert np.array_equal(steklov_avg(1, r, s, f_lg).values, avg)
        hardy = dir1_padded_fft(dir1_hardy_symbol(r, s), f_lg.values, grid, r * s)
        assert np.array_equal(hardy_steklov_dir(1, r, s, f_lg).values, hardy)
        # a stack: each member as the oracle gives it
        avg_stack = steklov_avg(1, r, s, HalfLineFunction(grid, stack)).values
        hardy_stack = hardy_steklov_dir(1, r, s, stack, grid=grid)
        for k, v in enumerate(stack):
            assert np.array_equal(avg_stack[k], dir1_padded_fft(
                lambda xi: box_profile(xi * hp) ** r, v, grid, s))
            assert np.array_equal(hardy_stack[k],
                                  dir1_padded_fft(dir1_hardy_symbol(r, s), v, grid, r * s))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tabled_hardy_factors_equal_direct_symbol_evaluation(f_lg, f_xexp, r):
    from axbkit.smoothing import _hardy_factors
    from axbkit.spectral import clear_caches

    grid = f_lg.grid
    stack = np.stack([f_lg.values, f_xexp.values, 2.0 * f_lg.values])
    clear_caches()
    for s in (0.3, 1.7, 16.0):
        symbol = dir1_hardy_symbol(r, s)  # the symbol of either direction, as a function of z
        npad = grid.n + int(np.ceil(r * s / grid.h)) + 8
        xi = 2.0 * np.pi * np.fft.fftfreq(npad, d=grid.h)
        for j, z in ((1, xi), (2, grid.x)):
            factors = _hardy_factors(j, r, s, grid)
            assert not factors.flags.writeable and factors.shape == z.shape
            assert np.array_equal(factors, symbol(z))
            if j == 2:
                expected = symbol(grid.x) * stack
            else:
                expected = np.stack([dir1_padded_fft(symbol, v, grid, r * s) for v in stack])
            # the first call fills the table, the second reads it; both calling forms
            for _ in range(2):
                assert np.array_equal(hardy_steklov_dir(j, r, s, stack, grid=grid), expected)
                assert np.array_equal(
                    hardy_steklov_dir(j, r, s, HalfLineFunction(grid, stack)).values, expected)
            assert _hardy_factors(j, r, np.float64(s), grid) is factors


@pytest.mark.parametrize("s", [math.inf, 1e308])
def test_non_finite_or_overflowing_scale_is_rejected_before_the_table(f_lg, s):
    import warnings

    from axbkit.smoothing import _hardy_factors

    grid = f_lg.grid
    before = _hardy_factors.cache_info()
    calls = [
        lambda: hardy_steklov(2, s, f_lg.values, grid=grid),
        lambda: hardy_steklov(2, s, f_lg),
        lambda: hardy_steklov_dir(1, 2, s, f_lg.values, grid=grid),
        lambda: hardy_steklov_dir(2, 2, s, f_lg),
        lambda: steklov(2, s, f_lg),
        lambda: steklov_avg(1, 2, s, f_lg),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^(s|r \* s) must be finite"):
                call()
    after = _hardy_factors.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                          before.currsize)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_hardy_steklov_equals_per_member(f_lg, f_xexp, r):
    grid = f_lg.grid
    stack = np.stack([f_lg.values, f_xexp.values, 2.0 * f_lg.values])
    for s in (0.3, 1.7):
        out = hardy_steklov(r, s, stack, grid=grid)
        assert out.shape == stack.shape
        container = hardy_steklov(r, s, HalfLineFunction(grid, stack)).values
        for k, v in enumerate(stack):
            member = hardy_steklov(r, s, v, grid=grid)
            assert np.array_equal(out[k], member) and np.array_equal(container[k], member)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_m_operator_equals_per_member(f_lg, f_xexp, r):
    stack = HalfLineFunction(f_lg.grid, np.stack([f_lg.values, f_xexp.values, 2.0 * f_lg.values]))
    for j in (1, 2):
        for t in (0.37, 5 * f_lg.grid.h):
            out = m_operator(j, r, t, stack).values
            assert out.shape == stack.values.shape
            for k, v in enumerate(stack.values):
                member = m_operator(j, r, t, HalfLineFunction(f_lg.grid, v)).values
                assert np.array_equal(out[k], member)


def _small_halfplane_spaces():
    hgrid = HalfPlaneGrid(LogGrid(-6.0, 4.0, 24), -8.0, 8.0, 20)
    f = log_gaussian_2d(hgrid).values
    return [(halfplane_space(hgrid, side), f) for side in ("left", "right")]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_generic_node_sums_equal_loop_oracle(space, f_lg, r):
    s = 0.7
    for sp, v in [(space, f_lg.values)] + _small_halfplane_spaces():
        for j in (1, 2):
            assert np.array_equal(steklov_avg_generic(sp.act, j, r, s, v),
                                  steklov_avg_loop(sp.act, j, r, s, v))
        assert np.array_equal(hardy_steklov_generic(sp.act, r, s, v),
                              hardy_steklov_loop(sp.act, r, s, v))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_dir2_hardy_equals_loop_oracle(f_lg, f_xexp, r):
    # the shared symbol evaluates box_profile((k x) h'), the oracle (k h') x:
    # the same product for k = 1, 2, 4, one rounding apart at k = 3 (r >= 3)
    grid = f_lg.grid
    for v in (f_lg.values, f_xexp.values):
        for s in (0.3, 1.7):
            new = hardy_steklov_dir(2, r, s, v, grid=grid)
            old = dir2_hardy_loop(r, s, v, grid)
            if r <= 2:
                assert np.array_equal(new, old)
            else:
                assert xp_norm(new - old, grid=grid) <= 5e-15 * xp_norm(old, grid=grid)


@pytest.mark.parametrize("r, s", [(1, 1e308), (1, 1e6), (4, 4096.0)])
def test_scale_beyond_the_reach_cap_is_rejected_before_the_table(f_lg, r, s):
    import warnings

    from axbkit.smoothing import MAX_REACH_STEPS, _hardy_factors

    grid = f_lg.grid
    assert math.isfinite(r * s) and r * s / grid.h > MAX_REACH_STEPS
    message = rf"^s = {re.escape(str(s))} reaches .* beyond the cap"
    before = _hardy_factors.cache_info()
    calls = [
        lambda: hardy_steklov(r, s, f_lg.values, grid=grid),
        lambda: hardy_steklov(r, s, f_lg),
        lambda: hardy_steklov_dir(1, r, s, f_lg.values, grid=grid),
        lambda: hardy_steklov_dir(1, r, s, f_lg),
        lambda: hardy_steklov_dir(2, r, s, f_lg.values, grid=grid),
        lambda: hardy_steklov_dir(2, r, s, f_lg),
        lambda: steklov(r, s, f_lg),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call()
    after = _hardy_factors.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                          before.currsize)


@pytest.mark.parametrize("n", [512, 256])
def test_reach_cap_admits_the_suite_scales(n):
    # the moduli suites reach s = 16; MAX_ORDER = 4 is the largest order
    from axbkit.smoothing import MAX_ORDER

    grid = LogGrid(-12.0, 6.0, n)
    f = np.exp(-((grid.u + 3.0) ** 2) / 2.0)
    for r in range(1, MAX_ORDER + 1):
        out = hardy_steklov(r, 16.0, np.stack([f, 2.0 * f]), grid=grid)
        assert out.shape == (2, n) and np.all(np.isfinite(out))
