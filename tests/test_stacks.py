"""A stack of functions through the moduli gives each member exactly the bits it gets alone.

Every stacked result is compared with a loop over the members through
``.view(np.uint64)``, so a difference in the last bit, or a NaN payload,
fails the test.  The eigenbasis paths take one function at a time and
reject a stack.
"""

import dataclasses
import math

import numpy as np
import pytest

from axbkit.frames import band_energies, besov_norm_bands, lp_decompose
from axbkit.grids import HalfLineFunction, LogGrid
from axbkit.halfplane import HalfPlaneGrid, halfplane_space, log_gaussian_2d
from axbkit.moduli import (
    BesovParams,
    besov_norm,
    besov_norm_fractional,
    k_lower,
    k_spectral,
    k_upper,
    k_upper_detail,
    modulus_mixed,
    zygmund_norm,
)
from axbkit.paleywiener import best_approx, bernstein_check, jackson_check
from axbkit.spectral import apply_multiplier, build_matrix_laplacian, spectral_measure


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


def test_stacked_jackson_check_equals_per_member(grid, op, space, members):
    sigmas = 2.0 ** np.arange(-2.0, 5.01, 0.5)
    reps = jackson_check(sigmas, 2, HalfLineFunction(grid, members), op, space)
    assert len(reps) == len(members)
    for rep, values in zip(reps, members):
        one = jackson_check(sigmas, 2, HalfLineFunction(grid, values), op, space)
        assert set(rep) == set(one)
        for field in one:
            _same_bits(rep[field], one[field])


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
    """``call``'s array result with member ``i`` (axis -2 of a stack of grid functions) NaN."""

    def poisoned(*args):
        out = np.array(call(*args))
        out[..., i, :] = np.nan
        return out

    return poisoned


def test_one_non_finite_member_raises(space, members):
    blown_act = dataclasses.replace(space, act=_poison_member(space.act))
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


def _nan_norm_of(space, f):
    """A space whose norm is NaN for the members of ``f`` only, right elsewhere."""

    def norm(v):
        out = np.array(space.norm(v), dtype=float)
        out[np.all(v == f, axis=-1)] = np.nan
        return out if out.ndim else float(out)

    return space.derived(norm)


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


@pytest.mark.parametrize("members", [16, 3])
def test_eigenbasis_paths_reject_a_stack(members):
    # 16 members on a 16-node grid would broadcast into a meaningless matrix product
    grid = LogGrid(-12.0, 6.0, 16)
    op = build_matrix_laplacian(grid)
    values = np.random.default_rng(members).standard_normal((members, grid.n))
    stack = HalfLineFunction(grid, values)
    calls = {
        "coeffs": lambda: op.coeffs(values),
        "synth": lambda: op.synth(values),
        "k_spectral": lambda: k_spectral(op, 2, 0.5, stack),
        "best_approx": lambda: best_approx(2.0, stack, op),
        "besov_norm_bands": lambda: besov_norm_bands(stack, op, 0.5, 2.0, "projections"),
        "bernstein_check": lambda: bernstein_check(stack, 2.0, (1, 2), op),
        "apply_multiplier": lambda: apply_multiplier(np.exp, stack, "matrix", op=op),
        "band_energies": lambda: band_energies(stack, op),
        "spectral_measure": lambda: spectral_measure(stack, op),
        "lp_decompose": lambda: lp_decompose(stack, op),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"one function of 16 samples, got shape "
                                             rf"\({members}, 16\)"):
            call()
            pytest.fail(name)
