"""A stack of functions through the moduli gives each member exactly the bits it gets alone,
and a ladder of scales gives each scale exactly the bits of the call at that scale.

Every stacked result is compared with a loop over the members through
``.view(np.uint64)``, so a difference in the last bit, or a NaN payload,
fails the test.  Through the eigenbasis a stack is one matrix product: each
member is within ``EIGEN_TOL`` of its value alone, relative to its norm, one
function keeps the bits of its matrix-vector product, and an array that is
neither one function nor a stack of them raises.
"""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axbkit.frames import (
    approx_space_norm,
    band_energies,
    band_frames,
    besov_norm_bands,
    direct_inverse_check,
    frame_analysis,
    frame_synthesis,
    full_band_count,
    lp_decompose,
    partition_values,
)
from axbkit.grids import HalfLineFunction, LogGrid, SpectralGrid
from axbkit.halfline import inner, sobolev_norm_top, window_loss
from axbkit.halfplane import HalfPlaneGrid, halfplane_space, log_gaussian_2d
from axbkit.moduli import (
    BesovParams,
    besov_norm,
    besov_norm_fractional,
    halfline_space,
    k_lower,
    k_spectral,
    k_upper,
    k_upper_detail,
    modulus_mixed,
    reiteration_check,
    verify_modulus_inequalities,
    zygmund_norm,
)
from axbkit.paleywiener import (
    bernstein_check,
    best_approx,
    jackson_check,
    pw_project,
    riesz_boas,
    schrodinger_modulus,
)
from axbkit.spectral import (apply_multiplier, build_matrix_laplacian, kernel_leakage, kl_forward,
                             spectral_measure)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _same_bits(stacked, per_member):
    assert np.shape(stacked) == np.shape(per_member)
    assert np.array_equal(_bits(stacked), _bits(per_member))


def _per_member(call, stack, lead):
    """``call`` on each member of ``stack`` alone, as an array over the ``lead`` axes."""
    return np.array([call(stack[index]) for index in np.ndindex(lead)]).reshape(lead)


@pytest.fixture(scope="module")
def members(f_lg, f_xexp, f_lg_wide):
    return np.stack([f_lg.values, f_xexp.values, f_lg_wide.values])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_stacked_modulus_equals_per_member(grid, space, members, r):
    # below one grid step only the modulation words have candidates
    for s in (grid.h / 4, 0.7):
        for stack in (members, np.stack([members, 2.0 * members[::-1]])):
            lead = stack.shape[:-1]
            _same_bits(modulus_mixed(space, r, s, stack),
                       _per_member(lambda v: modulus_mixed(space, r, s, v), stack, lead))
    assert np.array_equal(modulus_mixed(space, r, 0.0, members), np.zeros(3))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_stacked_halfplane_modulus_equals_per_member(side, r):
    hgrid = HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    space = halfplane_space(hgrid, side)
    stack = np.stack([log_gaussian_2d(hgrid).values,
                      log_gaussian_2d(hgrid, u0=0.5, y0=1.0, su=0.7, sy=1.5).values])
    _same_bits(modulus_mixed(space, r, 1.0, stack),
               _per_member(lambda v: modulus_mixed(space, r, 1.0, v), stack, (2,)))


@functools.cache
def _ladder_cases():
    """A 128-node half-line with its operator, both sides of a 20x16 half-plane, and two
    members on each."""
    line = LogGrid(-12.0, 6.0, 128)
    plane = HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    ones = np.stack([np.exp(-((line.u - u0) ** 2) / 2.0 + 1j * line.x) for u0 in (-3.0, -1.0)])
    twos = np.stack([log_gaussian_2d(plane).values,
                     log_gaussian_2d(plane, u0=0.5, y0=1.0, su=0.7, sy=1.5).values])
    return (line, build_matrix_laplacian(line), halfline_space(line), ones,
            {side: halfplane_space(plane, side) for side in ("left", "right")}, twos)


def _ladder_rows_equal_scalar_calls(call, ladder, stack):
    """``call(ladder, f)`` is ``(scale, member...)`` and row i has the bits of ``call`` at
    ``ladder[i]``, for one function and for the stack."""
    for f, lead in ((stack[0], ()), (stack, stack.shape[:1])):
        got = call(ladder, f)
        assert got.shape == (len(ladder),) + lead
        for row, s in zip(got, ladder):
            _same_bits(row, call(s, f))


#: the scales a ladder draws from, by index: 0, then on the half-line one scale below its step
#: (modulation words only) and three above; on the half-plane four at or above its u step
LINE_SCALES = (0.0, 0.05, 0.3, 1.0, 2.5)
PLANE_SCALES = (0.0, 0.6, 1.2, 2.5, 4.0)


@given(picks=st.lists(st.integers(0, 4), max_size=6), r=st.sampled_from([1, 2]),
       side=st.sampled_from(["left", "right"]))
@example(picks=[], r=2, side="left")
@example(picks=[4, 0, 2, 2], r=2, side="right")
@settings(max_examples=20, deadline=None)
def test_ladder_rows_equal_the_calls_at_each_scale(picks, r, side):
    # unsorted ladders, with repeats, with 0 or empty; the witness needs H_r(s), so s > 0
    line, op, space, ones, planes, twos = _ladder_cases()
    ladder = [LINE_SCALES[i] for i in picks]
    positive = [s for s in ladder if s > 0]
    for call, scales in (
            (lambda s, f: modulus_mixed(space, r, s, f), ladder),
            (lambda s, f: k_lower(space, r, s, f), ladder),
            (lambda s, f: k_upper(space, r, s, f), positive),
            (lambda s, f: k_spectral(op, r, s, f), ladder),
            (lambda s, f: best_approx(s, HalfLineFunction(line, f), op), ladder)):
        _ladder_rows_equal_scalar_calls(call, scales, ones)
    _ladder_rows_equal_scalar_calls(lambda s, f: modulus_mixed(planes[side], r, s, f),
                                    [PLANE_SCALES[i] for i in picks], twos)


@pytest.mark.parametrize("r", [1, 2])
def test_stacked_k_upper_detail_equals_per_member(space, members, r):
    for s in (0.01, 1.0, 16.0):
        detail = k_upper_detail(space, r, s, members)
        singles = [k_upper_detail(space, r, s, v) for v in members]
        assert set(detail) == {"rough", "smooth", "witness", "trivial", "value"}
        for field, values in detail.items():
            _same_bits(values, [one[field] for one in singles])
        _same_bits(k_upper(space, r, s, members), detail["value"])
        _same_bits(k_lower(space, r, s, members), modulus_mixed(space, r, s, members))


@pytest.mark.parametrize("method", ["k", "modulus"])
def test_stacked_besov_norm_equals_per_member(space, members, method):
    params = [BesovParams(0.5, 2.0, 2), BesovParams(1.0, math.inf, 2), BesovParams(1.3, 1.0, 2)]
    _same_bits(besov_norm(space, members, params[0], method),
               [besov_norm(space, v, params[0], method) for v in members])
    norms = besov_norm(space, members, params, method)
    assert len(norms) == len(params)
    for p, stacked in zip(params, norms):
        _same_bits(stacked, [besov_norm(space, v, p, method) for v in members])


@pytest.mark.parametrize("alpha, q", [(0.5, 2.0), (1.3, 1.0), (1.7, math.inf)])
def test_stacked_fractional_equals_per_member(space, members, alpha, q):
    _same_bits(besov_norm_fractional(space, members, alpha, q),
               [besov_norm_fractional(space, v, alpha, q) for v in members])


@pytest.mark.parametrize("k, q", [(1, 2.0), (2, 1.0), (2, math.inf)])
def test_stacked_zygmund_equals_per_member(space, members, k, q):
    _same_bits(zygmund_norm(space, members, k, q),
               [zygmund_norm(space, v, k, q) for v in members])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_stacked_sobolev_norm_top_equals_per_member(grid, members, m):
    for p in (1.0, 2.0):
        alone = [sobolev_norm_top(HalfLineFunction(grid, v), m, p) for v in members]
        assert all(type(value) is float for value in alone)
        _same_bits(sobolev_norm_top(HalfLineFunction(grid, members), m, p), alone)


def test_stacked_jackson_check_equals_per_member(grid, op, space, members):
    sigmas = 2.0 ** np.arange(-2.0, 5.01, 0.5)
    reps = jackson_check(sigmas, 2, HalfLineFunction(grid, members), op, space)
    assert len(reps) == len(members)
    for rep, values in zip(reps, members):
        one = jackson_check(sigmas, 2, HalfLineFunction(grid, values), op, space)
        assert set(rep) == {"C_hat", "ratios", "errors", "slope"}
        # every field comes from the best approximations, one matrix product for the stack:
        # an error moves by EIGEN_TOL ||f||, its ratio by that over the Jackson denominator,
        # which is at least min(sigma^-2, 1) ||f||; the slope (measured: 5e-12) by 1e-9
        ratio_tol = EIGEN_TOL * np.maximum(sigmas ** 2, 1.0)
        assert np.all(np.abs(np.subtract(rep["errors"], one["errors"]))
                      <= EIGEN_TOL * op.norm(values))
        assert np.all(np.abs(np.subtract(rep["ratios"], one["ratios"])) <= ratio_tol)
        assert abs(rep["C_hat"] - one["C_hat"]) <= np.max(ratio_tol)
        assert abs(rep["slope"] - one["slope"]) <= 1e-9


def test_one_function_gives_python_floats(space, f_lg):
    p = BesovParams(0.5, 2.0, 2)
    for value in (modulus_mixed(space, 2, 0.5, f_lg), modulus_mixed(space, 2, 0.0, f_lg),
                  k_upper(space, 2, 0.5, f_lg), k_lower(space, 2, 0.5, f_lg),
                  besov_norm(space, f_lg, p), besov_norm(space, f_lg, p, "modulus"),
                  *besov_norm(space, f_lg, [p, BesovParams(1.0, 2.0, 2)]),
                  besov_norm_fractional(space, f_lg, 1.3, 2.0), zygmund_norm(space, f_lg, 2, 2.0),
                  *k_upper_detail(space, 2, 0.5, f_lg).values()):
        assert type(value) is float


def _poison_member(call, i=1):
    """``call``'s array result with member ``i`` (axis -2 of a stack of grid functions) NaN;
    one function's result is left as it is.  The wrapper keeps ``call``'s attributes, so an
    action's ``multiplies`` declaration, and with it the symbol path, stays."""

    @functools.wraps(call)
    def poisoned(*args):
        out = np.array(call(*args))
        if out.ndim > 1:
            out[..., i, :] = np.nan
        return out

    return poisoned


def test_one_non_finite_member_raises(space, members):
    blown_act = dataclasses.replace(space, act=_poison_member(space.act))
    assert blown_act.act.multiplies == space.act.multiplies == (False, True)
    with pytest.raises(ValueError, match="modulus_mixed is not finite"):
        modulus_mixed(blown_act, 2, 0.5, members)
    with pytest.raises(ValueError, match="not finite"):
        besov_norm(blown_act, members, BesovParams(0.5, 2.0, 2), "modulus")
    with pytest.raises(ValueError, match="not finite"):
        besov_norm_fractional(blown_act, members, 0.5, 2.0)
    with pytest.raises(ValueError, match="not finite"):
        zygmund_norm(blown_act, members, 1, 2.0)
    blown_hardy = dataclasses.replace(space, hardy=_poison_member(space.hardy))
    with pytest.raises(ValueError, match="k_upper is not finite"):
        k_upper(blown_hardy, 2, 0.5, members)
    with pytest.raises(ValueError, match="not finite"):
        besov_norm(blown_hardy, members, BesovParams(0.5, 2.0, 2), "k")


@pytest.mark.parametrize("r", [2, 3])
def test_a_nan_member_through_the_symbols_raises(grid, space, members, r):
    # below one grid step only the all-modulation word has candidates: its
    # suffix stack turns member 1 NaN, and the outer letter norms it through
    # the symbols, which act on the constant function only
    poisoned = _poison_member(space.act)
    symbols = []

    @functools.wraps(poisoned)
    def act(j, t, v):
        if v.ndim == 1:
            symbols.append((j, t))
        return poisoned(j, t, v)

    with pytest.raises(ValueError, match="modulus_mixed is not finite"):
        modulus_mixed(dataclasses.replace(space, act=act), r, grid.h / 4, members)
    # on a stack only the symbols act on one function, so the search took the symbol path
    assert symbols and {j for j, _ in symbols} == {2}


def _nan_norm_of(space, f):
    """A space whose norm is NaN for the members of ``f`` only, right elsewhere."""

    def norm(v):
        out = np.array(space.norm(v), dtype=float)
        out[np.all(v == f, axis=-1)] = np.nan
        return out if out.ndim else float(out)

    return dataclasses.replace(space, norm=norm)


def test_k_upper_keeps_a_nan_cap(space, f_lg, members):
    # the trivial cap ||f|| turns NaN while the witness stays finite; the
    # smaller of the two must be NaN, and then raise
    for f in (f_lg.values, members[1], members):
        nan_cap = _nan_norm_of(space, f)
        with pytest.raises(ValueError, match="k_upper is not finite"):
            k_upper_detail(nan_cap, 2, 0.5, f)
        with pytest.raises(ValueError, match="k_upper is not finite"):
            k_upper(nan_cap, 2, 0.5, f)
    # one member's cap NaN in a stack is enough
    with pytest.raises(ValueError, match="k_upper is not finite"):
        k_upper(_nan_norm_of(space, members[1]), 2, 0.5, members)


#: the largest deviation through the eigenbasis of a member of a stack from its value
#: alone, relative to the member's norm: a stack is one matrix product and one function a
#: matrix-vector product, which round differently
EIGEN_TOL = 1e-12


def _eigen_grid(members):
    """A 16-node grid, its operator and ``members`` unit-norm random functions on it."""
    grid = LogGrid(-12.0, 6.0, 16)
    op = build_matrix_laplacian(grid)
    rng = np.random.default_rng(members)
    values = rng.standard_normal((members, grid.n)) + 1j * rng.standard_normal((members, grid.n))
    return grid, op, values / op.norm(values)[:, None]


def _deviation(op, got, ref):
    """The largest member's distance from its reference: the weighted norm for functions,
    the Euclidean one for coefficients and numbers (members on axis 0)."""
    if isinstance(ref, HalfLineFunction):
        assert got.values.shape == ref.values.shape
        return float(np.max(op.norm(got.values - ref.values)))
    assert np.shape(got) == np.shape(ref)
    diff = np.asarray(got) - np.asarray(ref)
    return float(np.max(np.linalg.norm(diff.reshape(len(diff), -1), axis=-1)))


@pytest.mark.parametrize("members", [16, 3])
def test_eigenbasis_paths_take_a_stack(members):
    # 16 members on a 16-node grid: the stack must not be read as a matrix the other way round
    grid, op, values = _eigen_grid(members)
    stack = HalfLineFunction(grid, values)
    frames = band_frames(op)
    duals = [b.dual() for b in frames]
    calls = {  # name -> the call on one function or a stack, its result with members on axis 0
        "coeffs": lambda f: op.coeffs(f.values),
        "synth": lambda f: f.with_values(op.synth(f.values)),
        "apply_fn": lambda f: f.with_values(op.apply_fn(lambda lam: np.exp(-lam), f.values)),
        "spectral_weights": lambda f: op.spectral_weights(f.values),
        "norm": lambda f: op.norm(f.values),
        "spectral_measure": lambda f: spectral_measure(f, op)[1],
        "apply_multiplier": lambda f: apply_multiplier(lambda lam: np.exp(-lam), f, op=op),
        "pw_project": lambda f: pw_project(2.0, f, op),
        "k_spectral": lambda f: k_spectral(op, 2, 0.5, f),
        "k_spectral_scales": lambda f: np.moveaxis(k_spectral(op, 2, [0.1, 0.5, 4.0], f), 0, -1),
        "best_approx": lambda f: best_approx(2.0, f, op),
        "best_approx_bands": lambda f: np.moveaxis(best_approx([0.5, 2.0, 8.0], f, op), 0, -1),
        "band_energies": lambda f: np.moveaxis(band_energies(f, op), 0, -1),
        "lp_decompose": lambda f: np.moveaxis([p.values for p in lp_decompose(f, op)], 0, -2),
        "riesz_boas": lambda f: riesz_boas(2.0, f, 8, op)[0],
        "riesz_boas_error": lambda f: riesz_boas(2.0, f, 8, op)[1],
        "schrodinger_modulus": lambda f: schrodinger_modulus(2, 0.5, f, op),
        "approx_space_norm": lambda f: approx_space_norm(f, op, 1.0, 2.0),
        "frame_analysis": lambda f: np.concatenate(frame_analysis(f, frames, op), axis=-1),
        "frame_synthesis": lambda f: frame_synthesis(frame_analysis(f, frames, op), duals, op),
        **{f"besov_norm_bands_{variant}": lambda f, v=variant: np.moveaxis(
            besov_norm_bands(f, op, [0.5, 1.0, 1.3], [2.0, math.inf, 1.0], v), 0, -1)
           for variant in ("approx", "projections", "frames")},
    }
    for name, call in calls.items():
        stacked = call(stack)
        singles = [call(stack.with_values(v)) for v in values]
        if isinstance(stacked, HalfLineFunction):
            singles = stack.with_values(np.stack([one.values for one in singles]))
        assert _deviation(op, stacked, singles) <= EIGEN_TOL, name


def test_one_function_keeps_the_matrix_vector_bits(op, f_lg, f_xexp):
    # the one-function paths as they were before stacks: each a matrix-vector product
    V, sqrt_w = op.eigenvectors, op.sqrt_w
    lam, root = op.eigenvalues, np.sqrt(np.maximum(op.eigenvalues, 0.0))
    for f in (f_lg, f_xexp):
        x = sqrt_w * f.values
        c = (V.T @ x.real) + 1j * (V.T @ x.imag)
        w = np.abs(c) ** 2
        _same_bits(op.coeffs(f.values).view(float), c.view(float))
        _same_bits(op.synth(c).view(float), (((V @ c.real) + 1j * (V @ c.imag)) / sqrt_w)
                   .view(float))
        _same_bits(k_spectral(op, 2, 0.5, f),
                   float(np.sqrt(np.sum(np.minimum(1.0, 0.5 ** 2 * lam) ** 2 * w))))
        _same_bits(best_approx([0.5, 2.0], f, op), [np.sqrt(np.sum(w[root > s])) for s in (0.5, 2.0)])
        _same_bits(band_energies(f, op), [math.sqrt(float(np.sum(q * w)))
                                          for q in partition_values(full_band_count(op), lam)
                                          .clip(0.0)])
        for value in (k_spectral(op, 2, 0.5, f), best_approx(2.0, f, op), op.norm(f.values),
                      besov_norm_bands(f, op, 0.5, 2.0, "approx")):
            assert type(value) is float


def test_eigenbasis_paths_reject_a_wrong_shape():
    grid, op, values = _eigen_grid(3)
    n = grid.n
    for shape in ((n, 1), (n - 1,), (2, 3, n), (3, n + 1), ()):
        x = np.ones(shape)
        for name, call in (("values", op.coeffs), ("coeffs", op.synth), ("values", op.norm),
                           ("values", op.spectral_weights),
                           ("values", lambda v: op.apply_fn(np.exp, v))):
            with pytest.raises(ValueError, match=rf"{name}: the eigenbasis takes one function of "
                                                 rf"{n} samples or a \(k, {n}\) stack, got "
                                                 rf"shape {re.escape(str(shape))}"):
                call(x)
    # a deeper stack passes the containers and the moduli entry, and stops at the eigenbasis
    deep = HalfLineFunction(grid, np.stack([values, values]))
    for call in (lambda: k_spectral(op, 2, 0.5, deep), lambda: best_approx(2.0, deep, op),
                 lambda: band_energies(deep, op), lambda: lp_decompose(deep, op),
                 lambda: besov_norm_bands(deep, op, 0.5, 2.0, "frames")):
        with pytest.raises(ValueError, match=r"got shape \(2, 3, 16\)"):
            call()


def test_one_function_paths_reject_a_stack():
    # these sum over the whole spectral measure; a stack would be summed as one function
    grid, op, values = _eigen_grid(3)
    stack = HalfLineFunction(grid, values)
    one = HalfLineFunction(grid, values[0])
    space = halfline_space(grid)
    sgrid = SpectralGrid(6.0, 32)
    for call in (lambda: bernstein_check(stack, 2.0, (1, 2), op),
                 lambda: kernel_leakage(stack, kl_forward(one, sgrid)),
                 lambda: direct_inverse_check(stack, op, 2, space),
                 lambda: verify_modulus_inequalities(space, 2, 1, stack, (0.5,)),
                 lambda: reiteration_check(space, stack.values, 0, 1, 2, 0.5, 2.0),
                 lambda: inner(stack, stack), lambda: inner(one, stack),
                 lambda: inner(stack, one), lambda: window_loss(stack)):
        with pytest.raises(ValueError, match=r"takes one function, got a stack of shape \(3, 16\)"):
            call()
    # the kernel transform is not stacked either, a stack of as many members as nodes included
    square = HalfLineFunction(grid, np.tile(values[0], (16, 1)))
    for g in (stack, square):
        shape = re.escape(str(g.values.shape))
        for call in (lambda: apply_multiplier(np.exp, g, sgrid), lambda: kl_forward(g, sgrid)):
            with pytest.raises(ValueError, match=f"one function of 16 samples, got shape {shape}"):
                call()
