import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.interpolate import CubicSpline

from axbkit import halfplane
from axbkit.grids import LogGrid, grid_steps, shift_zero_fill
from axbkit.group import GroupElement
from axbkit.halfplane import (
    HalfPlaneFunction,
    HalfPlaneGrid,
    _natural_spline_coeffs,
    act_2d,
    build_halfplane_laplacian,
    expanded_laplacian_apply,
    generator_2d,
    halfplane_space,
    log_gaussian_2d,
    lp_norm_2d,
    sobolev_graph_check,
)
from axbkit.moduli import grid_candidates, halfline_space, k_upper, k_upper_detail, modulus_mixed
from axbkit.spectral import flat_skew, fourier_diff_matrix, skew


@pytest.fixture(scope="module")
def hgrid():
    return HalfPlaneGrid(LogGrid(-6.0, 4.0, 48), -8.0, 8.0, 48)


@pytest.fixture(scope="module")
def f2(hgrid):
    return log_gaussian_2d(hgrid)


@pytest.fixture(scope="module")
def opL(hgrid):
    return build_halfplane_laplacian(hgrid, "left")


@pytest.fixture(scope="module")
def opR(hgrid):
    return build_halfplane_laplacian(hgrid, "right")


def test_norm_zero(hgrid):
    zero = HalfPlaneFunction(hgrid, np.zeros((48, 48)))
    assert lp_norm_2d(zero, 2.0, "left") == 0.0
    with pytest.raises(ValueError):
        lp_norm_2d(zero, 0.5, "left")


def test_difference_needs_one_grid(hgrid, f2):
    # the u-windows start at -6 and -5: the samples have the same shape but
    # sit at different points
    other = log_gaussian_2d(HalfPlaneGrid(LogGrid(-5.0, 4.0, 48), -8.0, 8.0, 48))
    assert other.values.shape == f2.values.shape
    with pytest.raises(ValueError, match="different grids"):
        f2 - other
    assert np.array_equal((f2 - f2).values, np.zeros((48, 48)))


def test_separable_norm_factorizes(hgrid):
    # Fubini: || u(x) v(y) ||^2 = (int |u|^2 dmu_x)(int |v|^2 dy)
    ux = np.exp(-((hgrid.xgrid.u + 1.0) ** 2) / 2.0)
    vy = np.exp(-(hgrid.y ** 2) / 3.0)
    f = HalfPlaneFunction(hgrid, np.outer(ux, vy))
    from axbkit.grids import trapezoid_weights

    wu = trapezoid_weights(48, hgrid.xgrid.h) * np.exp(-hgrid.xgrid.u)
    wy = trapezoid_weights(48, hgrid.h_y)
    expected = math.sqrt(float(np.sum(wu * ux ** 2)) * float(np.sum(wy * vy ** 2)))
    assert lp_norm_2d(f, 2.0, "left") == pytest.approx(expected, rel=1e-13)


def test_left_right_norms_differ_by_weight(hgrid, f2):
    # the two measures differ by the factor x = e^u
    left2 = lp_norm_2d(f2, 2.0, "left") ** 2
    weighted = HalfPlaneFunction(hgrid, f2.values * np.exp(hgrid.xgrid.u / 2.0)[:, None])
    right_of_weighted = lp_norm_2d(weighted, 2.0, "right") ** 2
    # int |f|^2 e^{-u} du dy = int |f e^{u/2}|^2 e^{-2u} ... direct identity:
    assert left2 == pytest.approx(
        lp_norm_2d(HalfPlaneFunction(hgrid, f2.values * np.exp(-hgrid.xgrid.u / 2.0)[:, None]),
                   2.0, "right") ** 2, rel=1e-12)
    assert right_of_weighted != pytest.approx(left2, rel=1e-3)


def test_act_identity(hgrid, f2):
    out = act_2d(GroupElement(1.0, 0.0), f2, "left")
    np.testing.assert_allclose(out.values, f2.values, atol=1e-15)


def test_left_y_shift_exact_isometry(hgrid, f2):
    g = GroupElement(1.0, 3 * hgrid.h_y)
    out = act_2d(g, f2, "left")
    rolled = np.zeros_like(f2.values)
    rolled[:, : 48 - 3] = f2.values[:, 3:]
    np.testing.assert_array_equal(out.values, rolled)
    defect = abs(lp_norm_2d(out, 2.0, "left") - lp_norm_2d(f2, 2.0, "left"))
    assert defect / lp_norm_2d(f2, 2.0, "left") < 1e-10


def test_right_log_shift_isometry(hgrid, f2):
    g = GroupElement(math.exp(2 * hgrid.xgrid.h), 0.0)
    out = act_2d(g, f2, "right")
    nr = lp_norm_2d(f2, 2.0, "right")
    assert abs(lp_norm_2d(out, 2.0, "right") - nr) / nr < 1e-10


def test_right_action_shear(hgrid, f2):
    # U^R(1, b) f(x, y) = f(x, bx + y): row-dependent y-shift, interpolated
    out = act_2d(GroupElement(1.0, 0.15), f2, "right")
    nr = lp_norm_2d(f2, 2.0, "right")
    assert abs(lp_norm_2d(out, 2.0, "right") - nr) / nr < 1e-4


def test_generator_separable_eigencase(hgrid):
    # D1 (right) on x^2 v(y) is 2 x^2 v(y)
    vy = np.exp(-(hgrid.y ** 2) / 4.0)
    f = HalfPlaneFunction(hgrid, np.outer(hgrid.xgrid.x ** 2, vy))
    d = generator_2d(1, f, "right")
    sl = (slice(4, 44), slice(4, 44))
    expected = 2.0 * f.values
    rel = np.abs(d.values[sl] - expected[sl]) / np.abs(expected[sl])
    # 6th-order stencil at the desk-scale spacing h ~ 0.21
    assert np.max(rel) < 1e-4


def test_commutators_fine_grid():
    # stencil-only computation, so the grid can exceed the eigensolver cap;
    # direct expansion forces [D1, D2] = -D2 (left) and +D2 (right)
    grid = HalfPlaneGrid(LogGrid(-6.0, 4.0, 128), -8.0, 8.0, 128)
    f = log_gaussian_2d(grid, su=1.0, sy=2.0)

    def inorm(arr, k=8):
        return np.linalg.norm(arr[k:-k, k:-k])

    for side, sign in (("left", -1.0), ("right", 1.0)):
        d12 = generator_2d(1, generator_2d(2, f, side), side)
        d21 = generator_2d(2, generator_2d(1, f, side), side)
        comm = (d12 - d21).values
        forced = sign * generator_2d(2, f, side).values
        res = inorm(comm - forced) / inorm(forced)
        assert res < 1e-6
        # the other single-generator candidate does not match
        alt = generator_2d(1, f, side).values
        assert inorm(comm - alt) / inorm(alt) > 0.5


def _dense_laplacian(grid, side):
    """Brute-force oracle: the full matrix of ``D1* D1 + D2* D2`` in flat coordinates.

    Assembled from the whole-grid Kronecker generators and weights, without
    using the separable factorization the operator relies on.
    """
    nx, ny = grid.xgrid.n, grid.n_y
    sw = np.sqrt(grid.measure_weights(side, rule="uniform").reshape(-1))
    Du = fourier_diff_matrix(nx, grid.xgrid.h)
    Dy = fourier_diff_matrix(ny, grid.h_y)
    Iu, Iy = np.eye(nx), np.eye(ny)
    if side == "left":
        gens = (np.kron(Du, Iy) + np.kron(Iu, grid.y[:, None] * Dy), np.kron(Iu, Dy))
    else:
        gens = (np.kron(Du, Iy), np.kron(np.diag(grid.xgrid.x), Dy))
    A = np.zeros((nx * ny, nx * ny))
    for gen in gens:
        flat = (sw[:, None] * gen) / sw[None, :]
        skew = 0.5 * (flat - flat.T)
        A += skew.T @ skew
    return 0.5 * (A + A.T), sw


@pytest.fixture(scope="module")
def dense_small():
    """Oracle matrices and full eigensystems per side, on a small non-square grid.

    Non-square, so that a transposed factor cannot go unnoticed.
    """
    grid = HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    out = {}
    for side in ("left", "right"):
        A, sw = _dense_laplacian(grid, side)
        out[side] = (A, sw) + tuple(sla.eigh(A))
    return grid, out


@pytest.mark.parametrize("side", ["left", "right"])
def test_kronecker_operator_matches_dense_oracle(dense_small, side):
    grid, dense = dense_small
    A, sw, lam, _ = dense[side]
    op = build_halfplane_laplacian(grid, side)
    assert op.eigenvectors.nbytes == 0
    rng = np.random.default_rng(3)
    v = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
    ref = (A @ (sw * v.reshape(-1))) / sw
    got = op.apply(v).reshape(-1)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12
    assert abs(op.lambda_min - lam[0]) <= 1e-10 * np.linalg.norm(A, 2)


def test_laplacians_nonnegative(opL, opR):
    assert opL.lambda_min > -1e-8
    assert opR.lambda_min > -1e-8


def test_right_laplacian_reduces_on_y_constant(hgrid, opR):
    ux = np.exp(-((hgrid.xgrid.u + 1.0) ** 2) / 2.0)
    f = HalfPlaneFunction(hgrid, np.outer(ux, np.ones(48)))
    out = opR.apply(f.values)
    pad = np.concatenate([np.zeros(3), ux, np.zeros(3)])
    stencil = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    d2 = np.zeros_like(ux)
    for i, c in enumerate(stencil):
        d2 += c * pad[i : i + 48]
    oracle = -d2 / hgrid.xgrid.h ** 2
    sl = slice(6, 42)
    err = np.linalg.norm(out[sl, 20] - oracle[sl]) / np.linalg.norm(oracle[sl])
    assert err < 1e-3


def test_assembled_vs_expanded_interior(hgrid, f2, opL, opR):
    for side, op, tol in (("left", opL, 5e-2), ("right", opR, 1e-3)):
        assembled = op.apply(f2.values)
        expanded = expanded_laplacian_apply(f2, side).values
        sl = (slice(4, 44), slice(4, 44))
        res = np.linalg.norm((assembled - expanded)[sl]) / np.linalg.norm(expanded[sl])
        assert res < tol


def test_operator_parseval_matches_weighted_norm(dense_small):
    grid, dense = dense_small
    f = log_gaussian_2d(grid)
    for side, (_, sw, lam, V) in dense.items():
        w = np.abs(V.T @ (sw * f.values.reshape(-1))) ** 2
        assert abs(float(np.sum(w)) - lp_norm_2d(f, 2.0, side) ** 2) < 1e-9
        # the eigen-route quadratic form is the one the operator computes by apply
        op = build_halfplane_laplacian(grid, side)
        assert op.power_form(f.values, 1) == pytest.approx(float(np.sum(lam * w)), rel=1e-12)


def _stacked_lambda_min(grid, side):
    """The block reduction's minimum from one ``eigvalsh`` over the whole stack of blocks:
    the oracle of the builder's one-block-at-a-time minimum."""
    w = grid.measure_weights(side, rule="uniform")
    Su = flat_skew(fourier_diff_matrix(grid.xgrid.n, grid.xgrid.h), np.sqrt(w[:, 0]))
    Dy = fourier_diff_matrix(grid.n_y, grid.h_y)
    DtD = Dy.T @ Dy
    if side == "left":
        T = skew(grid.y[:, None] * Dy)
        alpha = np.linalg.eigvalsh(1j * Su)
        H = alpha[:, None, None] * np.eye(grid.n_y) + 1j * T
        blocks = H @ H + DtD
    else:
        X = np.diag(grid.xgrid.x)
        mu = np.linalg.eigvalsh(DtD)
        blocks = Su.T @ Su + mu[:, None, None] * (X @ X)
    return float(np.min(np.linalg.eigvalsh(blocks)))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("nx, ny, y_max", [(48, 48, 8.0), (20, 16, 6.0), (16, 33, 10.0),
                                           (24, 24, 8.0), (32, 40, 12.0), (40, 17, 4.0)])
def test_per_block_lambda_min_has_the_stacked_bits(nx, ny, y_max, side):
    grid = HalfPlaneGrid(LogGrid(-6.0, 4.0, nx), -y_max, y_max, ny)
    got = build_halfplane_laplacian(grid, side).lambda_min
    ref = _stacked_lambda_min(grid, side)
    assert np.float64(got).view(np.uint64) == np.float64(ref).view(np.uint64)


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_builder_holds_a_few_blocks(hgrid, side):
    # the stacked reduction peaked at 151 (left) and 54 (right) complex 48 x 48 blocks:
    # three (48, 48, 48) stacks at once on the left; one block at a time it is 8.6 and 5.6
    block = hgrid.n_y * hgrid.n_y * 16
    tracemalloc.start()
    try:
        build_halfplane_laplacian(hgrid, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * block


@pytest.mark.parametrize("side", ["left", "right"])
def test_each_build_is_its_own_operator_with_the_same_bits(hgrid, side):
    # nothing tables the operators: two builds are two objects, bit for bit alike
    first, second = build_halfplane_laplacian(hgrid, side), build_halfplane_laplacian(hgrid, side)
    assert first is not second
    assert (np.float64(first.lambda_min).view(np.uint64)
            == np.float64(second.lambda_min).view(np.uint64))


def test_suite_halfplane_builds_each_side_once(monkeypatch):
    import axbkit.halfplane as hp
    from axbkit.config import RunConfig
    from axbkit.suites import suite_halfplane

    built = []
    original = hp.build_halfplane_laplacian

    def counted(grid, side):
        built.append(side)
        return original(grid, side)

    monkeypatch.setattr(hp, "build_halfplane_laplacian", counted)
    assert suite_halfplane(RunConfig())["all_passed"]
    assert sorted(built) == ["left", "right"]


def test_modulus_2d(hgrid, f2):
    left = halfplane_space(hgrid, "left", 2.0)
    assert modulus_mixed(left, 1, 0.0, f2) == 0.0
    val = modulus_mixed(left, 1, 0.5, f2)
    assert 0.0 < val <= 4.0 * lp_norm_2d(f2, 2.0, "left")
    val2 = modulus_mixed(halfplane_space(hgrid, "right", 2.0), 2, 0.5, f2)
    assert 0.0 < val2 <= 16.0 * lp_norm_2d(f2, 2.0, "right")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("r", [1, 2])
def test_modulus_2d_equals_per_tuple_reference(hgrid, f2, modulus_reference, side, r):
    space = halfplane_space(hgrid, side, 2.0)
    for s in (0.25, 1.0):
        assert modulus_mixed(space, r, s, f2) == modulus_reference(space, r, s, f2)


def _stack_2d(hgrid, shape):
    rng = np.random.default_rng(13)
    full = shape + (hgrid.xgrid.n, hgrid.n_y)
    return (rng.standard_normal(full) + 1j * rng.standard_normal(full)) * log_gaussian_2d(hgrid).values


def test_halfplane_stack_container_checks(hgrid):
    f = HalfPlaneFunction(hgrid, _stack_2d(hgrid, (2, 3)))
    assert f.values.shape == (2, 3, 48, 48)
    with pytest.raises(ValueError, match="shape"):
        HalfPlaneFunction(hgrid, np.zeros((3, 48, 47)))
    with pytest.raises(ValueError, match="shape"):
        HalfPlaneFunction(hgrid, np.zeros(48))
    bad = _stack_2d(hgrid, (3,))
    bad[1, 5, 7] = np.inf
    with pytest.raises(ValueError, match="finite"):
        HalfPlaneFunction(hgrid, bad)


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_ops_on_a_stack_equal_row_by_row(hgrid, side):
    shape = (2, 3)
    f = HalfPlaneFunction(hgrid, _stack_2d(hgrid, shape))
    rows = [HalfPlaneFunction(hgrid, row) for row in f.values.reshape((-1, 48, 48))]

    def per_row(op):
        return np.array([op(row).values for row in rows]).reshape(f.values.shape)

    for p in (1.0, 2.0, 3.0):
        norms = lp_norm_2d(f, p, side)
        assert norms.shape == shape
        np.testing.assert_array_equal(norms.ravel(), [lp_norm_2d(row, p, side) for row in rows])
    for j in (1, 2):
        np.testing.assert_array_equal(generator_2d(j, f, side).values,
                                      per_row(lambda g: generator_2d(j, g, side)))
    # exact grid steps and interpolated ones, in both subgroups and jointly
    for g in (GroupElement(math.exp(2 * hgrid.xgrid.h), 0.0), GroupElement(1.0, hgrid.h_y),
              GroupElement(1.3, 0.0), GroupElement(1.0, 0.45), GroupElement(0.8, -0.6)):
        np.testing.assert_array_equal(act_2d(g, f, side).values,
                                      per_row(lambda row: act_2d(g, row, side)))


def test_modulus_separable_y_shift_matches_1d(hgrid):
    # left T2 is a pure y-shift; on a separable function the order-1 pure
    # direction-2 supremum reduces to a classical 1-D modulus
    ux = np.exp(-((hgrid.xgrid.u + 1.0) ** 2) / 2.0)
    vy = np.exp(-(hgrid.y ** 2) / 3.0)
    f = HalfPlaneFunction(hgrid, np.outer(ux, vy))
    space = halfplane_space(hgrid, "left")
    s = 4 * hgrid.h_y
    ts = grid_candidates(s, 12, space.steps[1])
    best = 0.0
    for t in ts:
        best = max(best, lp_norm_2d(space.act(2, t, f.values) - f.values, 2.0, "left", grid=hgrid))
    from axbkit.grids import trapezoid_weights

    wu = trapezoid_weights(48, hgrid.xgrid.h) * np.exp(-hgrid.xgrid.u)
    xfac = math.sqrt(float(np.sum(wu * ux ** 2)))
    wy = trapezoid_weights(48, hgrid.h_y)
    best1d = 0.0
    for t in ts:
        k = int(round(t / hgrid.h_y))
        shifted = np.zeros_like(vy)
        shifted[: 48 - k] = vy[k:]
        best1d = max(best1d, math.sqrt(float(np.sum(wy * (shifted - vy) ** 2))))
    assert best == pytest.approx(xfac * best1d, rel=1e-10)


def test_sobolev_graph_check(hgrid, f2, opL, opR):
    for side, op in (("left", opL), ("right", opR)):
        rep = sobolev_graph_check(f2, 1, side, op)
        assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0
        # m = 2: the graph norm is ||f|| + ||A f||
        w = hgrid.measure_weights(side, rule="uniform")
        af = op.apply(f2.values)
        expected = math.sqrt(np.sum(w * np.abs(f2.values) ** 2)) + math.sqrt(
            np.sum(w * np.abs(af) ** 2))
        rep2 = sobolev_graph_check(f2, 2, side, op)
        assert rep2["graph_norm"] == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(rep2["ratio"]) and rep2["ratio"] > 0


def test_hardy_generic_smooths_2d(hgrid, f2):
    space = halfplane_space(hgrid, "left")
    hf = space.hardy(1, 0.4, f2.values)
    assert lp_norm_2d(hf - f2.values, 2.0, "left", grid=hgrid) < lp_norm_2d(f2, 2.0, "left")


def test_eigensolver_cap():
    big = HalfPlaneGrid(LogGrid(-6.0, 4.0, 128), -8.0, 8.0, 128)
    with pytest.raises(ValueError):
        build_halfplane_laplacian(big, "left")


def test_halfplane_space_entry_checks(hgrid, f2):
    space = halfplane_space(hgrid, "left")
    assert modulus_mixed(space, 1, 0.5, f2.values) == modulus_mixed(space, 1, 0.5, f2)
    for wrong in (f2.values[:, :47], f2.values[..., None], f2.values[0]):
        with pytest.raises(ValueError, match="shape"):
            modulus_mixed(space, 1, 0.5, wrong)
    bad = f2.values.copy()
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        modulus_mixed(space, 1, 0.5, bad)


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_array_form_equals_container_form(hgrid, side):
    f = HalfPlaneFunction(hgrid, _stack_2d(hgrid, (2,)))
    assert np.array_equal(lp_norm_2d(f.values, 2.0, side, grid=hgrid), lp_norm_2d(f, 2.0, side))
    for j in (1, 2):
        out = generator_2d(j, f.values, side, grid=hgrid)
        assert type(out) is np.ndarray
        assert np.array_equal(out, generator_2d(j, f, side).values)
    for g in (GroupElement(math.exp(2 * hgrid.xgrid.h), 0.0), GroupElement(0.8, -0.6)):
        assert np.array_equal(act_2d(g, f.values, side, grid=hgrid), act_2d(g, f, side).values)


# ---------------------------------------------------------------------------
# reference oracle for act_2d: one member at a time, one spline evaluation
# per column when the targets vary with the row


def _interp_columns(values, axis_nodes, targets, axis):
    """Cubic resampling along one axis with zero fill outside the window.

    ``targets`` may be one curve (shared by all slices) or one curve per
    slice along the other axis.
    """
    vals = np.moveaxis(values, axis, 0)  # (n_axis, n_other)
    n_other = vals.shape[1]
    spline = CubicSpline(axis_nodes, vals, axis=0, bc_type="natural")
    out = np.zeros_like(vals)
    if targets.ndim == 1:
        inside = (targets >= axis_nodes[0]) & (targets <= axis_nodes[-1])
        out[inside] = spline(targets[inside])
    else:
        for col in range(n_other):
            t = targets[col]
            inside = (t >= axis_nodes[0]) & (t <= axis_nodes[-1])
            out[inside, col] = spline(t[inside])[:, col]
    return np.moveaxis(out, 0, axis)


def _shift_u(values, grid, t):
    """Sample ``f(u + t, y)``: exact roll on grid multiples, cubic otherwise."""
    steps = grid_steps(t, grid.xgrid.h)
    if steps is not None:
        return shift_zero_fill(values, steps, axis=0)
    return _interp_columns(values, grid.xgrid.u, grid.xgrid.u + t, axis=0)


def _map_y(values, grid, scale, offset):
    """Sample ``f(x, scale * y + offset)``; offset may vary with the row."""
    y = grid.y
    offset = np.asarray(offset, dtype=float)
    if scale == 1.0 and offset.ndim == 0:
        steps = grid_steps(float(offset), grid.h_y)
        if steps is not None:
            return shift_zero_fill(values, steps, axis=1)
    if offset.ndim == 0:
        return _interp_columns(values, y, scale * y + float(offset), axis=1)
    return _interp_columns(values, y, scale * y[None, :] + offset[:, None], axis=1)


def _act_one(g, values, grid, side):
    vals = _shift_u(values, grid, math.log(g.a))
    if side == "left":
        return _map_y(vals, grid, g.a, g.b)
    if g.b != 0.0:
        vals = _map_y(vals, grid, 1.0, g.b * grid.xgrid.x)
    return vals


def _act_2d_per_member(g, values, grid, side):
    members = values.reshape((-1,) + values.shape[-2:])
    return np.stack([_act_one(g, v, grid, side) for v in members]).reshape(values.shape)


_ORACLE_GRIDS = {
    "48x48": HalfPlaneGrid(LogGrid(-6.0, 4.0, 48), -8.0, 8.0, 48),
    "20x16": HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16),
    # y nodes -8, -7.5, ..., 8 are exact binary fractions, so 2 y + 1 lands on them
    "20x33": HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 33),
}


def _oracle_parameters(grid):
    hx, hy = grid.xgrid.h, grid.h_y
    return [
        GroupElement(1.0, 0.0),                      # identity
        GroupElement(math.exp(2 * hx), 0.0),         # exact u-shift
        GroupElement(math.exp(-3 * hx), 0.0),
        GroupElement(math.exp(0.37), 0.0),           # off-grid u-shift
        GroupElement(1.0, 3 * hy),                   # left: pure y grid multiple
        GroupElement(1.0, -2 * hy),
        GroupElement(1.0, 0.45),                     # off-grid b alone
        GroupElement(0.8, -0.6),                     # a != 1 with b != 0
        GroupElement(math.exp(hx), 2 * hy),
        GroupElement(1.7, 2.5),                      # targets partly beyond the window
        GroupElement(math.exp(0.2), 40.0),           # every y target beyond the window
        GroupElement(2.0, 1.0),                      # left targets on the nodes of 20x33
    ]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(_ORACLE_GRIDS))
def test_act_2d_equals_per_member_reference(name, side):
    grid = _ORACLE_GRIDS[name]
    if name == "20x33":
        targets = 2.0 * grid.y + 1.0
        # 17 targets on nodes, the other 16 beyond the window on both sides
        assert np.isin(targets, grid.y).sum() == 17 and np.sum(np.abs(targets) > 8.0) == 16
    rng = np.random.default_rng(29)
    for shape in ((), (3,), (2, 3)):
        full = shape + (grid.xgrid.n, grid.n_y)
        v = rng.standard_normal(full) + 1j * rng.standard_normal(full)
        for g in _oracle_parameters(grid):
            got = act_2d(g, v, side, grid=grid)
            assert got.shape == full
            assert np.array_equal(got, _act_2d_per_member(g, v, grid, side)), (shape, g)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [16, 20, 33, 48, 96])
def test_natural_spline_coeffs_equal_scipy(n, kind):
    rng = np.random.default_rng(n)
    for nodes in (np.linspace(-6.0, 4.0, n), np.linspace(-8.0, 8.0, n)):
        for trailing in ((5,), (3, 4), (2, 3, 4)):
            shape = (n,) + trailing
            scale = 10.0 ** rng.uniform(-4.0, 4.0, shape)
            v = rng.standard_normal(shape) * scale
            if kind == "complex":
                v = v + 1j * rng.standard_normal(shape) * scale
            got = _natural_spline_coeffs(nodes, v)
            ref = CubicSpline(nodes, v, axis=0, bc_type="natural").c
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref), (nodes[0], trailing)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("form", ["container", "array"])
def test_non_finite_group_parameters_are_rejected(hgrid, f2, side, form):
    f, kw = (f2, {}) if form == "container" else (f2.values, {"grid": hgrid})
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="b must be finite"):
            act_2d(GroupElement(1.0, bad), f, side, **kw)
        with pytest.raises(ValueError, match="b must be finite"):
            act_2d(GroupElement(2.0, bad), f, side, **kw)
    with pytest.raises(ValueError, match="a must be finite"):
        act_2d(GroupElement(math.inf, 0.0), f, side, **kw)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_halfplane_space_rejects_non_finite_t(hgrid, f2, side, t):
    space = halfplane_space(hgrid, side)
    for j in (1, 2):
        with pytest.raises(ValueError, match="t must be finite"):
            space.act(j, t, f2.values)


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_space_dilation_beyond_the_window_is_zero(side):
    grid = _ORACLE_GRIDS["20x16"]
    space = halfplane_space(grid, side)
    rng = np.random.default_rng(31)
    for shape in ((), (3,)):
        full = shape + (grid.xgrid.n, grid.n_y)
        v = rng.standard_normal(full) + 1j * rng.standard_normal(full)
        # just past the window length 10, the full action is still computable
        for t in (10.5, -10.5):
            out = space.act(1, t, v)
            assert np.array_equal(out, act_2d(GroupElement(math.exp(t), 0.0), v, side, grid=grid))
            assert out.shape == full and not np.any(out)
        for t in (1000.0, -1000.0, 1e300, -1e300):
            out = space.act(1, t, v)
            assert out.shape == full and not np.any(out)


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_space_translation_makes_no_u_pass(side, monkeypatch):
    grid = _ORACLE_GRIDS["20x16"]
    space = halfplane_space(grid, side)
    v = np.random.default_rng(37).standard_normal((3, grid.xgrid.n, grid.n_y)) + 0.5j
    axes, real = [], halfplane._resample

    def counting(*args):  # records the grid axis of every pass
        axes.append(args[4])
        return real(*args)

    monkeypatch.setattr(halfplane, "_resample", counting)
    for t in (0.0, 2 * grid.h_y, 0.45, -1.3):
        axes.clear()
        out = space.act(2, t, v)
        # the left side always makes its y pass; the right one makes it unless t = 0
        assert axes == ([-1] if side == "left" or t != 0.0 else [])
        assert np.array_equal(out, act_2d(GroupElement(1.0, t), v, side, grid=grid))


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_space_dilation_shifts_u_by_t_itself(side):
    grid = _ORACLE_GRIDS["20x16"]
    space = halfplane_space(grid, side)
    v = np.random.default_rng(41).standard_normal((2, grid.xgrid.n, grid.n_y)) + 0.25j
    t = 0.37
    assert math.log(math.exp(t)) != t
    want = halfplane._resample(v, grid.xgrid.u, 1.0, t, -2, grid.xgrid.h)
    if side == "left":
        want = halfplane._resample(want, grid.y, math.exp(t), 0.0, -1, grid.h_y)
    assert np.array_equal(space.act(1, t, v), want)
    # at a grid multiple log(exp(t)) snaps to the same step, so act_2d has the same bits
    t = 3 * grid.xgrid.h
    assert np.array_equal(space.act(1, t, v),
                          act_2d(GroupElement(math.exp(t), 0.0), v, side, grid=grid))


@pytest.mark.parametrize("side", ["left", "right"])
def test_halfplane_space_act_at_zero_is_a_new_array(side):
    grid = _ORACLE_GRIDS["20x16"]
    space = halfplane_space(grid, side)
    v = np.random.default_rng(43).standard_normal((grid.xgrid.n, grid.n_y)) + 0j
    for j in (1, 2):
        out = space.act(j, 0.0, v)
        assert out is not v and not np.shares_memory(out, v)
        assert out.flags.c_contiguous and np.array_equal(out, v)


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_non_finite_scale_is_rejected(hgrid, f2, grid, f_lg, s):
    cases = [(halfplane_space(hgrid, side), f2) for side in ("left", "right")]
    cases.append((halfline_space(grid), f_lg))
    for space, f in cases:
        for r in (1, 2):
            with pytest.raises(ValueError, match="s must be finite"):
                modulus_mixed(space, r, s, f)
            with pytest.raises(ValueError, match="s must be finite"):
                k_upper_detail(space, r, s, f)
            with pytest.raises(ValueError, match="s must be finite"):
                k_upper(space, r, s, f)
