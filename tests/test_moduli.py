import dataclasses
import gc
import math
import weakref
from itertools import product

import numpy as np
import pytest

from axbkit.corpus import DEFAULT_CORPUS
from axbkit.grids import HalfLineFunction, LogGrid
from axbkit.halfline import act_modulation, shift_log, xp_norm
from axbkit.halfplane import HalfPlaneGrid, halfplane_space, log_gaussian_2d
from axbkit.moduli import (
    _SUP_CAP,
    BesovParams,
    RepresentationSpace,
    _accumulate,
    _suffix,
    _symbol_weights,
    _word_stacks,
    apply_word,
    besov_norm,
    besov_norm_fractional,
    besov_s_grid,
    besov_tail_report,
    grid_candidates,
    halfline_space,
    k_lower,
    k_spectral,
    k_upper,
    k_upper_detail,
    modulus_mixed,
    reiteration_check,
    sobolev_space_norm,
    verify_modulus_inequalities,
    zygmund_norm,
)
from axbkit.paleywiener import best_approx, jackson_check


#: the largest relative deviation of a modulus from the act path when a multiplication
#: letter is normed through its symbol: the two paths round positive-term sums differently
CLOSED_FORM_TOL = 1e-13


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_modulus_equals_per_tuple_reference(grid, space, f_lg, modulus_reference, r):
    # below one grid step (modulation words only), a mid scale, and s = 50; a plain
    # action declares no multiplication, so the search acts on every candidate, as the
    # reference does
    acting = dataclasses.replace(space, act=lambda j, t, v: space.act(j, t, v))
    for s in (grid.h / 4, 0.7, 50.0):
        ref = modulus_reference(space, r, s, f_lg)
        assert modulus_mixed(acting, r, s, f_lg) == ref
        assert abs(modulus_mixed(space, r, s, f_lg) - ref) <= CLOSED_FORM_TOL * ref


@pytest.mark.parametrize("r", [1, 2])
def test_replaced_callables_take_the_acted_path(grid, space, f_lg, modulus_reference, r):
    # a plain norm or action put in by dataclasses.replace carries no declaration, so
    # the search acts on every candidate and matches the reference bit for bit: neither
    # the X^2 weights nor the modulation symbol of the original space reach it
    sobolev = dataclasses.replace(space, norm=lambda g: sobolev_space_norm(space, g, 1))

    def dilating(j, t, v):
        return space.act(1, t, v)  # direction 2 moves by a log-shift, not a multiplication

    replaced = (sobolev, dataclasses.replace(space, act=dilating))
    for s in (grid.h / 4, 0.7):  # below and above one grid step
        for other in replaced:
            assert modulus_mixed(other, r, s, f_lg) == modulus_reference(other, r, s, f_lg)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_symbol_path_within_tolerance_of_per_tuple_reference(grid, f_lg, f_xexp, f_lg_wide,
                                                             modulus_reference, p, r):
    space = halfline_space(grid, p)
    funcs = (f_lg, f_xexp, f_lg_wide)
    stack = np.stack([g.values for g in funcs])
    for s in (grid.h / 4, 0.7):
        one = modulus_mixed(space, r, s, f_lg)
        for value, g in zip((one, *modulus_mixed(space, r, s, stack)), (f_lg, *funcs)):
            ref = modulus_reference(space, r, s, g)
            assert abs(value - ref) <= CLOSED_FORM_TOL * ref


def test_derived_norm_accepts_stacks(grid, space, f_lg, f_xexp):
    base = dataclasses.replace(space, norm=lambda g: sobolev_space_norm(space, g, 1))
    rows = np.stack([f_lg.values, f_xexp.values, 2.0 * f_lg.values])
    norms = base.norm(rows)
    assert norms.shape == (3,)
    assert list(norms) == [base.norm(row) for row in rows]


def test_reiteration_with_derived_sobolev_base(space, f_lg, modulus_reference):
    # k1 = 1: the order-1 modulus of the E^1 base space measures stacks in
    # the derived Sobolev norm
    alpha, q = 1.5, 2.0
    rep = reiteration_check(space, f_lg, 1, 2, 2, alpha, q)
    base = dataclasses.replace(space, norm=lambda g: sobolev_space_norm(space, g, 1))
    weighted = [s ** (-(alpha - 1)) * modulus_reference(base, 1, s, f_lg) for s in besov_s_grid()]
    assert rep["rhs_norm"] == base.norm(f_lg.values) + _accumulate(weighted, q)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0


def test_modulus_zero_scale(space, f_lg):
    assert modulus_mixed(space, 1, 0.0, f_lg) == 0.0


def test_modulus_r1_matches_direct_computation(grid, space, f_lg):
    s = 0.8
    cap = 12
    t2 = grid_candidates(s, cap, space.steps[1])
    sup2 = 0.0
    for t in t2:
        # |e^{itx} - 1|^2 = 4 sin^2(tx/2)
        val = math.sqrt(float(np.sum(
            grid.weights * 4.0 * np.sin(t * grid.x / 2.0) ** 2 * np.abs(f_lg.values) ** 2)))
        sup2 = max(sup2, val)
    t1 = grid_candidates(s, cap, space.steps[0])
    sup1 = max(xp_norm(shift_log(f_lg, t) - f_lg) for t in t1)
    assert modulus_mixed(space, 1, s, f_lg) == pytest.approx(sup1 + sup2, rel=1e-12)


def test_modulus_global_bound(space, f_lg):
    for r in (1, 2):
        assert modulus_mixed(space, r, 50.0, f_lg) <= 4.0 ** r * xp_norm(f_lg)


def test_modulus_monotone(space, f_lg):
    vals = [modulus_mixed(space, 2, s, f_lg) for s in (0.1, 0.4, 1.6, 6.4)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_modulus_subadditive(space, f_lg, f_xexp):
    g = f_xexp * (1.0 / xp_norm(f_xexp))
    s = 0.7
    lhs = modulus_mixed(space, 1, s, f_lg + g)
    assert lhs <= modulus_mixed(space, 1, s, f_lg) + modulus_mixed(space, 1, s, g) + 1e-12


def test_modulus_small_s_drops_dilation_words(grid, space, f_lg):
    # below one grid step only the exact modulation direction contributes;
    # the value remains a certified lower bound
    s = grid.h / 4
    val = modulus_mixed(space, 1, s, f_lg)
    t2 = grid_candidates(s, 12, space.steps[1])
    sup2 = max(xp_norm(act_modulation(t, f_lg) - f_lg) for t in t2)
    assert val == pytest.approx(sup2, rel=1e-12)


def test_modulus_raises_when_no_steps_at_all(grid, f_lg):
    # both directions exact only on multiples of a step longer than s
    dead = RepresentationSpace(
        shape=(grid.n,),
        norm=lambda v: xp_norm(v, grid=grid),
        act=lambda j, t, f: f,
        gen=lambda j, f: f,
        steps=(1.0, 1.0),
        hardy=lambda r, s, f: f,
    )
    with pytest.raises(ValueError):
        modulus_mixed(dead, 1, 0.5, f_lg)


def test_inequality_constants(space, f_lg):
    rep = verify_modulus_inequalities(space, 2, 1, f_lg, (0.25, 1.0, 4.0))
    # the proof of the order-reduction inequality yields the constant 3
    assert rep["C0_hat"] <= 3.3
    assert rep["C2_hat"] <= 1.0 + 1e-12
    rep1 = verify_modulus_inequalities(space, 1, 1, f_lg, (0.25, 1.0, 4.0))
    # doubling bound (1 + a)^r with a = 2, r = 1
    assert rep1["C1_hat"] <= 3.05
    assert rep1["C1_reference"] == 3.0


def test_ineq3_trivial_at_k_zero(space, f_lg):
    # s^0 Omega^r <= 1 * (s^r ||f|| + Omega^r) holds identically
    for s in (0.25, 1.0, 4.0):
        om = modulus_mixed(space, 2, s, f_lg)
        assert om <= s ** 2 * xp_norm(f_lg) + om


def test_k_upper_plateau_and_detail(space, f_lg):
    nf = xp_norm(f_lg)
    detail = k_upper_detail(space, 2, 16.0, f_lg)
    assert detail["value"] == nf  # trivial splitting dominates at large s
    assert detail["witness"] >= detail["value"]
    assert k_upper(space, 2, 16.0, f_lg) == nf


def test_k_zero_function(grid, space):
    zero = HalfLineFunction(grid, np.zeros(grid.n))
    assert k_upper(space, 1, 0.5, zero) == 0.0
    assert k_lower(space, 1, 0.5, zero) == 0.0


def test_k_spectral_eigenvector(grid, op):
    k = 12
    lam = float(op.eigenvalues[k])
    v = HalfLineFunction(grid, op.synth(np.eye(op.eigenvalues.size)[:, k]))
    for s in (0.05, 0.5, 5.0):
        expected = min(1.0, s ** 2 * lam)  # r = 2
        assert k_spectral(op, 2, s, v) == pytest.approx(expected, rel=1e-10)


def test_k_spectral_monotone_and_small_s(grid, op, f_lg):
    vals = [k_spectral(op, 2, s, f_lg) for s in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))
    lam, w = op.eigenvalues, op.spectral_weights(f_lg.values)
    s = 1e-4
    exact = s ** 2 * math.sqrt(float(np.sum(np.maximum(lam, 0) ** 2 * w)))
    assert k_spectral(op, 2, s, f_lg) == pytest.approx(exact, rel=1e-6)


def test_sandwich_on_one_function(grid, op, space, f_lg):
    nf = xp_norm(f_lg)
    for r in (1, 2):
        for s in (2.0 ** -6, 2.0 ** -2, 1.0, 4.0):
            kl = k_lower(space, r, s, f_lg)
            ku = k_upper(space, r, s, f_lg)
            ks = k_spectral(op, r, s, f_lg)
            assert kl <= 10.0 * ku
            assert ku <= 100.0 * (kl + min(s ** r, 1.0) * nf)
            assert kl <= 10.0 * ks
            assert ks <= 100.0 * (kl + min(s ** r, 1.0) * nf)


def test_besov_zero(grid, space):
    zero = HalfLineFunction(grid, np.zeros(grid.n))
    params = BesovParams(0.5, 2.0, 2)
    assert besov_norm(space, zero, params, "k") == 0.0
    assert besov_norm(space, zero, params, "modulus") == 0.0


def test_besov_methods_agree_within_band(space, f_lg):
    params = BesovParams(0.5, 2.0, 2)
    a = besov_norm(space, f_lg, params, "k")
    b = besov_norm(space, f_lg, params, "modulus")
    ratio = max(a, b) / min(a, b)
    assert ratio < 10.0


def test_besov_finite_across_alpha(space, f_lg):
    for alpha in (0.25, 0.8, 1.5, 1.9):
        v = besov_norm(space, f_lg, BesovParams(alpha, 2.0, 2), "modulus")
        assert np.isfinite(v) and v > 0


def test_besov_params_validation():
    with pytest.raises(ValueError):
        BesovParams(-0.5, 2.0, 2)
    with pytest.raises(ValueError):
        BesovParams(2.5, 2.0, 2)
    with pytest.raises(ValueError):
        BesovParams(0.5, 0.5, 2)


@pytest.mark.parametrize("r", [0, -1, 1.5])
def test_modulus_order_must_be_an_integer_from_one(space, f_lg, r):
    # at r = 0 the search had no letter to index, and 1.5 reached itertools as a float
    with pytest.raises(ValueError, match="r must be an integer >= 1"):
        modulus_mixed(space, r, 0.5, f_lg)
    with pytest.raises(ValueError, match="r must be an integer >= 1"):
        BesovParams(0.5, 2.0, r)
    # the K-functional checks it before the smoothing, where 1.5 reached math.comb
    for k_functional in (k_upper, k_upper_detail):
        with pytest.raises(ValueError, match=f"r must be an integer >= 1, got {r!r}"):
            k_functional(space, r, 0.5, f_lg)


def test_besov_bad_method(space, f_lg):
    with pytest.raises(ValueError):
        besov_norm(space, f_lg, BesovParams(0.5, 2.0, 2), "nope")


def test_fractional_reduces_to_first_order_modulus(space, f_lg):
    alpha, q = 0.5, 2.0
    manual = xp_norm(f_lg)
    weighted = [s ** (-alpha) * modulus_mixed(space, 1, s, f_lg) for s in besov_s_grid()]
    manual += float((np.sum(np.asarray(weighted) ** q) * math.log(2.0)) ** (1 / q))
    assert besov_norm_fractional(space, f_lg, alpha, q) == pytest.approx(manual, rel=1e-12)


def test_fractional_rejects_integer_alpha(space, f_lg):
    with pytest.raises(ValueError):
        besov_norm_fractional(space, f_lg, 1.0, 2.0)


def test_zygmund_finite(space, f_lg):
    v = zygmund_norm(space, f_lg, 1, 2.0)
    assert np.isfinite(v) and v > 0
    with pytest.raises(ValueError):
        zygmund_norm(space, f_lg, 0, 2.0)


def test_fractional_zygmund_in_band_with_modulus(space, f_lg):
    frac = besov_norm_fractional(space, f_lg, 1.3, 1.0)
    mod = besov_norm(space, f_lg, BesovParams(1.3, 1.0, 2), "modulus")
    assert max(frac, mod) / min(frac, mod) < 20.0
    zyg = zygmund_norm(space, f_lg, 1, 2.0)
    mod1 = besov_norm(space, f_lg, BesovParams(1.0, 2.0, 2), "modulus")
    assert max(zyg, mod1) / min(zyg, mod1) < 20.0


def test_sobolev_space_norm_order_zero(space, f_lg):
    assert sobolev_space_norm(space, f_lg, 0) == space.norm(f_lg.values)


def test_reiteration(space, f_xexp):
    f = f_xexp * (1.0 / xp_norm(f_xexp))
    rep = reiteration_check(space, f, 0, 1, 2, 0.5, 2.0)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0
    assert np.isfinite(rep["gagliardo_hat"])
    with pytest.raises(ValueError):
        reiteration_check(space, f, 1, 1, 2, 0.5, 2.0)


def test_tail_report(space, f_lg):
    rep = besov_tail_report(space, f_lg, BesovParams(0.5, 2.0, 2))
    assert rep["high_tail_bound"] > 0 and np.isfinite(rep["high_tail_bound"])
    assert rep["low_tail_bound"] >= 0 and np.isfinite(rep["low_tail_bound"])


_PARAMS = [BesovParams(0.5, 2.0, 2), BesovParams(1.0, math.inf, 2), BesovParams(1.3, 1.0, 2)]


@pytest.mark.parametrize("method", ["k", "modulus"])
def test_besov_norm_sequence_equals_single_calls(space, f_lg, besov_reference, method):
    norms = besov_norm(space, f_lg, _PARAMS, method)
    assert norms == [besov_norm(space, f_lg, p, method) for p in _PARAMS]
    assert norms == [besov_reference.norm(space, f_lg, p, method) for p in _PARAMS]
    assert besov_norm(space, f_lg, tuple(_PARAMS[1:]), method) == norms[1:]
    assert type(besov_norm(space, f_lg, _PARAMS[0], method)) is float


def test_besov_norm_sequence_validation(space, f_lg):
    with pytest.raises(ValueError, match="r"):
        besov_norm(space, f_lg, [BesovParams(0.5, 2.0, 2), BesovParams(0.5, 2.0, 3)], "modulus")
    assert besov_norm(space, f_lg, [], "k") == []
    assert besov_norm(space, f_lg, (), "modulus") == []
    with pytest.raises(ValueError):
        besov_norm(space, f_lg, [], "nope")


@pytest.mark.parametrize("alpha, q", [(0.5, 2.0), (1.3, 1.0), (1.7, math.inf)])
def test_fractional_equals_per_scale_reference(space, f_lg, besov_reference, alpha, q):
    assert besov_norm_fractional(space, f_lg, alpha, q) == besov_reference.fractional(
        space, f_lg, alpha, q)


@pytest.mark.parametrize("k, q", [(1, 2.0), (1, math.inf), (2, 1.0)])
def test_zygmund_equals_per_scale_reference(space, f_lg, besov_reference, k, q):
    assert zygmund_norm(space, f_lg, k, q) == besov_reference.zygmund(space, f_lg, k, q)


@pytest.mark.parametrize("q", [2.0, math.inf])
def test_zygmund_order_one_is_the_modulus_form(space, f_lg, q):
    assert zygmund_norm(space, f_lg, 1, q) == besov_norm(space, f_lg, BesovParams(1.0, q, 2),
                                                         "modulus")


@pytest.mark.parametrize("k1, k2, r, alpha, q", [(0, 1, 2, 0.5, 2.0), (1, 2, 3, 1.5, math.inf)])
def test_reiteration_equals_per_scale_reference(space, f_xexp, besov_reference,
                                                k1, k2, r, alpha, q):
    f = f_xexp * (1.0 / xp_norm(f_xexp))
    assert reiteration_check(space, f, k1, k2, r, alpha, q) == besov_reference.reiteration(
        space, f, k1, k2, r, alpha, q)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_stacked_sobolev_equals_per_word_reference(grid, space, f_lg, f_xexp,
                                                   sobolev_reference, m):
    value = sobolev_space_norm(space, f_lg, m)
    assert type(value) is float
    assert value == sobolev_reference(space, f_lg.values, m)
    stack = HalfLineFunction(grid, np.stack([f_lg.values, f_xexp.values, 2.0 * f_lg.values]))
    norms = sobolev_space_norm(space, stack, m)
    assert norms.shape == (3,)
    assert np.array_equal(norms, sobolev_reference(space, stack.values, m))
    assert list(norms) == [sobolev_reference(space, row, m) for row in stack.values]


def _small_spaces():
    """The half-line and both half-plane sides on small grids, each with three smooth members,
    as the complex values the public entry points pass on."""
    line = LogGrid(-8.0, 4.0, 64)
    plane = HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    ones = [np.exp(-((line.u - u0) ** 2) / 2.0 + 1j * line.x) for u0 in (-3.0, -1.0, 0.5)]
    twos = [log_gaussian_2d(plane, u0=u0, y0=y0).values for u0, y0 in ((-1.0, 0.0), (0.0, 2.0),
                                                                       (-2.0, -1.0))]
    return {"halfline": (halfline_space(line), np.stack(ones)),
            "left": (halfplane_space(plane, "left"), np.stack(twos)),
            "right": (halfplane_space(plane, "right"), np.stack(twos))}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["halfline", "left", "right"])
def test_word_stacks_equal_apply_word(name, k):
    space, members = _small_spaces()[name]
    for f in (members[0], members):
        stacks = list(_word_stacks(space, f, k))
        assert [g.shape for g in stacks] == [(2 ** order,) + f.shape for order in range(k + 1)]
        for order, g in enumerate(stacks):
            for row, word in zip(g, product((1, 2), repeat=order)):
                assert np.array_equal(row.view(np.uint64),
                                      apply_word(space, word, f).view(np.uint64))


@pytest.mark.parametrize("r", [1, 2])
def test_k_spectral_array_of_scales_equals_per_scale_calls(op, f_lg, r):
    svals = 2.0 ** np.arange(-8, 5, dtype=float)
    values = k_spectral(op, r, svals, f_lg)
    assert values.shape == svals.shape
    assert list(values) == [k_spectral(op, r, s, f_lg) for s in svals]
    assert type(k_spectral(op, r, 0.5, f_lg)) is float


# every scale check of a ladder, as (op, space, f) -> call, and the start of its message
_BAD_SCALES = {
    "k_spectral nan": (lambda op, space, f: k_spectral(op, 2, math.nan, f), "s must be finite"),
    "k_spectral negative": (lambda op, space, f: k_spectral(op, 2, -1.0, f),
                            "s must be finite and nonnegative"),
    "best_approx nan": (lambda op, space, f: best_approx(math.nan, f, op), "sigma must be finite"),
    "best_approx 2-D": (lambda op, space, f: best_approx([[1.0]], f, op),
                        r"sigma must be finite and nonnegative \(one scale or a 1-D ladder\)"),
    "jackson_check zero": (lambda op, space, f: jackson_check([0.0, 1.0], 2, f, op, space),
                           "sigma must be finite and positive"),
    "k_upper negative": (lambda op, space, f: k_upper(space, 2, -1.0, f),
                         "s must be finite and positive"),
    "k_upper zero in a ladder": (lambda op, space, f: k_upper(space, 2, [0.5, 0.0], f),
                                 "s must be finite and positive"),
    "k_upper_detail ladder": (lambda op, space, f: k_upper_detail(space, 2, [0.5, 1.0], f),
                              r"s must be one scale, got shape \(2,\)"),
    "modulus_mixed negative": (lambda op, space, f: modulus_mixed(space, 2, -1.0, f),
                               "s must be finite and nonnegative"),
    "k_lower nan in a ladder": (lambda op, space, f: k_lower(space, 2, [0.5, math.nan], f),
                                "s must be finite"),
    "verify_modulus_inequalities inf": (
        lambda op, space, f: verify_modulus_inequalities(space, 2, 1, f, (0.5, math.inf)),
        "s must be finite"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SCALES))
def test_every_ladder_takes_one_scale_rule(op, space, f_lg, case):
    call, match = _BAD_SCALES[case]
    with pytest.raises(ValueError, match=f"^{match}"):
        call(op, space, f_lg)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open: the modulus profile is not monotone in s (ROADMAP item 10); "
                          "from s = 8 to 16 it drops from 9.052902 to 9.050644 at r = 2 and "
                          "from 2.995296 to 2.995249 at r = 1")
def test_modulus_profile_is_monotone_in_s(grid, space):
    f = DEFAULT_CORPUS[4].build(grid)  # power_exp(alpha=1.5,beta=2), analytic: no seed
    svals = 2.0 ** np.arange(-8, 5, dtype=float)  # the kfunctional suite's ladder
    drops = {r: np.flatnonzero(np.diff(modulus_mixed(space, r, svals, f)) < 0) for r in (1, 2)}
    assert all(idx.size == 0 for idx in drops.values()), drops


def test_hot_path_builds_no_container(monkeypatch, space, f_lg):
    made = []
    post_init = HalfLineFunction.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(HalfLineFunction, "__post_init__", counted)
    modulus_mixed(space, 2, 0.5, f_lg)
    k_upper(space, 2, 0.5, f_lg)
    besov_norm(space, f_lg, BesovParams(0.5, 2.0, 2))
    assert made == []
    act_modulation(0.25, f_lg)  # the counter is live: the container form builds one
    assert len(made) == 1


# every public entry point of moduli that takes a function, as f -> call
_ENTRY_POINTS = {
    "apply_word": lambda space, op, f: apply_word(space, (1, 2), f),
    "sobolev_space_norm": lambda space, op, f: sobolev_space_norm(space, f, 1),
    "modulus_mixed": lambda space, op, f: modulus_mixed(space, 2, 0.5, f),
    "k_upper": lambda space, op, f: k_upper(space, 2, 0.5, f),
    "k_upper_detail": lambda space, op, f: k_upper_detail(space, 2, 0.5, f),
    "k_lower": lambda space, op, f: k_lower(space, 2, 0.5, f),
    "k_spectral": lambda space, op, f: k_spectral(op, 2, 0.5, f),
    "verify_modulus_inequalities": lambda space, op, f: verify_modulus_inequalities(
        space, 2, 1, f, (0.5,)),
    "besov_norm": lambda space, op, f: besov_norm(space, f, BesovParams(0.5, 2.0, 2)),
    "besov_tail_report": lambda space, op, f: besov_tail_report(
        space, f, BesovParams(0.5, 2.0, 2)),
    "besov_norm_fractional": lambda space, op, f: besov_norm_fractional(space, f, 0.5, 2.0),
    "zygmund_norm": lambda space, op, f: zygmund_norm(space, f, 1, 2.0),
    "reiteration_check": lambda space, op, f: reiteration_check(space, f, 0, 1, 2, 0.5, 2.0),
}


def _bad_values(v):
    nan, inf = v.copy(), v.copy()
    nan[100] = np.nan
    inf[7] = -np.inf
    return {
        "nan member": (nan, "finite"),
        "inf member": (inf, "finite"),
        "nan in a stack": (np.stack([v, nan]), "finite"),
        "(n, 1)": (v[:, None], "shape"),
        "(n - 1,)": (v[:-1], "shape"),
        "scalar": (np.asarray(1.0), "shape"),
    }


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_point_rejects_bad_bare_values(space, op, f_lg, entry):
    call = _ENTRY_POINTS[entry]
    for label, (bad, match) in _bad_values(f_lg.values).items():
        with pytest.raises(ValueError, match=match):
            call(space, op, bad)


@pytest.mark.parametrize("entry", ["modulus_mixed", "k_upper", "k_spectral", "sobolev_space_norm",
                                   "besov_norm"])
def test_entry_point_bare_values_equal_container(space, op, f_lg, entry):
    call = _ENTRY_POINTS[entry]
    assert call(space, op, f_lg.values) == call(space, op, f_lg)
    assert call(space, op, f_lg.values.real) == call(space, op, f_lg)  # real input promoted


def test_non_finite_results_raise(space, f_lg):
    # the input is finite; the actions and generators blow up inside
    blown = dataclasses.replace(space, act=lambda j, t, v: np.full_like(v, np.nan),
                                gen=lambda j, v: np.full_like(v, np.nan))
    with pytest.raises(ValueError, match="modulus_mixed is not finite"):
        modulus_mixed(blown, 1, 0.5, f_lg)
    with pytest.raises(ValueError, match="k_upper is not finite"):
        k_upper(blown, 2, 0.5, f_lg)
    with pytest.raises(ValueError, match="not finite"):
        besov_norm(blown, f_lg, BesovParams(0.5, 2.0, 2), "modulus")
    # a blown smoothing witness is an internal result, not a bad caller input
    blown_hardy = dataclasses.replace(space, hardy=lambda r, s, v: np.full_like(v, np.nan))
    with pytest.raises(ValueError, match="k_upper is not finite"):
        k_upper(blown_hardy, 2, 0.5, f_lg)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_candidate_times_computed_once_per_direction(monkeypatch, space, f_lg, r):
    from axbkit import moduli

    expected = modulus_mixed(space, r, 0.7, f_lg)
    calls = []

    def counted(s, cap, step):
        calls.append(step)
        return grid_candidates(s, cap, step)

    monkeypatch.setattr(moduli, "grid_candidates", counted)
    assert modulus_mixed(space, r, 0.7, f_lg) == expected
    assert calls == list(space.steps)


def _fresh_candidates(s, cap, step):
    """The candidate steps computed directly, without the table."""
    if step is None:
        return s * np.arange(1, cap + 1) / cap
    mmax = int(math.floor(s / step + 1e-9))
    if mmax < 1:
        return np.empty(0)
    count = min(cap, mmax)
    return np.unique(np.round(np.linspace(1, mmax, count)).astype(int)) * step


@pytest.mark.parametrize("s, cap, step", [
    (0.5, 12, None), (2.0 ** -16, 8, None), (3.0, 4, None),
    (4.0, 8, 18.0 / 511), (0.1, 8, 18.0 / 511), (16.0, 3, 0.375),
    (0.01, 8, 18.0 / 511), (2.0 ** -16, 12, 0.375),  # empty: s below the step
    (4.0, 1, 18.0 / 511), (16.0, 1, 0.375), (0.375, 1, 0.375),  # cap = 1
    (3.0, 8, 0.375), (3.0, 7, 0.375), (3.0, 9, 0.375),  # mmax = cap, cap + 1, cap - 1
    (8 * (18.0 / 511), 8, 18.0 / 511), (8 * (18.0 / 511), 7, 18.0 / 511),
    (0.0, 8, 0.375), (0.375 - 2.0 ** -20, 3, 0.375),  # empty: s at zero, just below the step
])
def test_grid_candidates_are_a_read_only_table_of_the_direct_steps(s, cap, step):
    from axbkit.spectral import clear_caches

    clear_caches()
    ts = grid_candidates(s, cap, step)
    fresh = _fresh_candidates(s, cap, step)
    assert ts.dtype == fresh.dtype == np.float64 and ts.shape == fresh.shape
    assert np.array_equal(ts.view(np.uint64), fresh.view(np.uint64))
    assert not ts.flags.writeable
    if ts.size:
        with pytest.raises(ValueError):
            ts[0] = 1.0
    # the same key, however the scale arrives, is the same table entry
    for same in (s, np.float64(s), np.array(s)):
        assert grid_candidates(same, cap, step) is ts


@pytest.mark.parametrize("s, step, name", [
    (math.inf, None, "s"), (math.nan, 0.375, "s"), (-0.5, None, "s"),
    (0.5, 0.0, "step"), (0.5, -0.375, "step"), (0.5, math.inf, "step"), (0.5, math.nan, "step"),
])
def test_grid_candidates_refuse_a_bad_scale_or_step(s, step, name):
    # (inf, 8, None) gave eight inf steps, and a NaN scale failed converting NaN to an integer
    with pytest.raises(ValueError, match=f"{name} must be"):
        grid_candidates(s, 8, step)


@pytest.mark.parametrize("step", [18.0 / 511, 0.375])
def test_grid_candidate_multiples_never_repeat(step):
    # the table drops consecutive repeats where the oracle sorts and dedups with np.unique;
    # at every exact multiple s = mmax * step and every cap around mmax the two agree bit
    # for bit, and the multiples are strictly increasing, so neither ever has a repeat to
    # drop: count <= mmax spaces the rounded linspace at least one apart
    for mmax in range(1, 161):
        s = mmax * step
        for cap in sorted({1, 2, 3, 4, 8, 12, mmax - 1, mmax, mmax + 1} - {0}):
            ts, fresh = grid_candidates(s, cap, step), _fresh_candidates(s, cap, step)
            assert ts.shape == fresh.shape == (min(cap, mmax),)
            assert np.array_equal(ts.view(np.uint64), fresh.view(np.uint64)), (mmax, cap)
            assert np.all(np.diff(ts) > 0)


def test_shared_suffixes_act_once_per_candidate(space, f_lg):
    # at s = 0.5 both directions have 8 candidates.  The dilation suffix (1,) acts
    # on f (ndim 1) once per candidate: 8 calls.  The words (1, 1) and (1, 2) add
    # their outer factor on the shared (8, n) suffix stacks: 2 * 8 calls of ndim 2.
    # The modulation group acts only on the constant function (ndim 1), once per
    # candidate, 8 calls, and those symbols serve the suffix (2,) and the first
    # letter of (2, 1) and (2, 2) alike: 8 + 8 = 16 calls of ndim 1
    calls = []

    def act(j, t, v):
        calls.append(v.ndim)
        return space.act(j, t, v)

    act.multiplies = space.act.multiplies
    assert [grid_candidates(0.5, 8, step).size for step in space.steps] == [8, 8]
    counted = dataclasses.replace(space, act=act)
    assert modulus_mixed(counted, 2, 0.5, f_lg) == modulus_mixed(space, 2, 0.5, f_lg)
    assert (calls.count(1), calls.count(2)) == (2 * 8, 2 * 8)


def _counting_space(space):
    """``space`` with a fresh symbol table and an action that records ``(j, t)`` for every
    call on one function (for a stack input, the constant function of the symbols)."""
    calls = []

    def act(j, t, v):
        if v.ndim == 1:
            calls.append((j, t))
        return space.act(j, t, v)

    act.multiplies = space.act.multiplies
    return dataclasses.replace(space, act=act), calls


def test_symbols_act_once_per_space_across_a_ladder_and_calls(space, f_lg, f_xexp):
    stack = np.stack([f_lg.values, f_xexp.values])
    counted, calls = _counting_space(space)
    assert counted._symbols == {}  # replace starts the table empty
    ladder = np.array([0.5, 0.25, 1.0, 0.5])
    for r in (1, 2, 1):
        assert np.array_equal(modulus_mixed(counted, r, ladder, stack),
                              modulus_mixed(space, r, ladder, stack))
    # one act per distinct (j, t), in the order the search first meets them
    seen = {}
    for r in (1, 2):
        for s in ladder.tolist():
            for t in grid_candidates(s, _SUP_CAP[r], None).tolist():
                seen.setdefault((2, t), None)
    assert calls == list(seen)
    assert {key for key in counted._symbols if len(key) == 2} == set(seen)
    # the Sobolev-norm space of reiteration_check declares no l^p norm: it tables the
    # symbols alone, and takes each of them once too
    sobolev, calls = _counting_space(dataclasses.replace(
        space, norm=lambda g: sobolev_space_norm(space, g, 1)))
    for _ in range(2):
        modulus_mixed(sobolev, 2, ladder, stack)
    assert len(calls) == len(set(calls)) == len(sobolev._symbols) > 0


def test_reiteration_space_takes_no_symbol_its_parent_holds(space, f_lg):
    counted, calls = _counting_space(space)
    rep = reiteration_check(counted, f_lg, 0, 1, 2, 0.5, 2.0)
    # the parent's Besov ladder and the Sobolev-norm space's one share one symbol per t
    symbols = [call for call in calls if call[0] == 2]
    assert symbols and len(symbols) == len(set(symbols))
    assert rep == reiteration_check(space, f_lg, 0, 1, 2, 0.5, 2.0)


def test_symbol_table_dies_with_its_space(grid, f_lg):
    space = halfline_space(grid)
    modulus_mixed(space, 2, 0.5, f_lg)
    tabled = [weakref.ref(a) for a in space._symbols.values()]
    assert tabled and all(not ref().flags.writeable for ref in tabled)
    del space
    gc.collect()
    assert all(ref() is None for ref in tabled)


def _parent_symbol_weights(grid, p, ts):
    """The per-scale rows ``weights * |e^{itx} 1 - 1|^p`` as they were formed before
    the table: the modulation phase times the constant function, one row per ``t``."""
    one = np.ones(grid.n, dtype=complex)
    return np.stack([(grid.weights * np.abs(np.exp(1j * t * grid.x) * one - 1.0) ** p).ravel()
                     for t in ts.tolist()])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_tabled_rows_and_symbols_have_the_per_scale_bits(grid, f_lg, p):
    space = halfline_space(grid, p)
    ladder = [grid.h / 4, 0.3, 0.7, 2.0]
    for r in (1, 2, 3):
        modulus_mixed(space, r, ladder, f_lg)
    bits = lambda a: a.view(np.uint64)  # noqa: E731
    one = np.ones(grid.n, dtype=complex)
    for r in (1, 2, 3):
        for s in ladder:
            ts = grid_candidates(s, _SUP_CAP[r], None)
            rows = _symbol_weights(space, 2, ts)
            assert np.array_equal(bits(rows), bits(_parent_symbol_weights(grid, p, ts)))
            for t in ts.tolist():
                symbol = space._symbols[(2, t)]
                assert np.array_equal(bits(symbol), bits(np.exp(1j * t * grid.x) * one))
                assert np.array_equal(bits(symbol), bits(act_modulation(t, one, grid=grid)))


@pytest.mark.parametrize("word", [(2,), (2, 1), (1, 2), (2, 2), (2, 2, 1), (1, 2, 2)])
def test_symbol_product_suffixes_have_the_acted_bits(space, f_lg, f_xexp, word):
    # a plain action declares no multiplication, so its suffixes act once per candidate
    acting = dataclasses.replace(space, act=lambda j, t, v: space.act(j, t, v))
    stack = np.stack([f_lg.values, f_xexp.values])
    for f in (f_lg.values, stack):
        candidates = {j: grid_candidates(0.5, 8, space.steps[j - 1]) for j in (1, 2)}
        got = _suffix(space, word, candidates, f, {}, space.act.multiplies)
        ref = _suffix(acting, word, candidates, f, {}, (False, False))
        assert got.shape == ref.shape == tuple(candidates[j].size for j in word) + f.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_symbols_taken_once_per_candidate(space, f_lg, f_xexp, r):
    # on a stack the only one-function input of the search is the constant 1,
    # acted on by the modulation group once per candidate, for all the words
    stack = np.stack([f_lg.values, f_xexp.values])
    calls = []

    def act(j, t, v):
        if v.ndim == 1:
            assert np.all(v == 1.0)
            calls.append((j, t))
        return space.act(j, t, v)

    act.multiplies = space.act.multiplies
    counted = dataclasses.replace(space, act=act)
    assert np.array_equal(modulus_mixed(counted, r, 0.5, stack),
                          modulus_mixed(space, r, 0.5, stack))
    assert calls == [(2, t) for t in grid_candidates(0.5, _SUP_CAP.get(r, 2), None).tolist()]


@pytest.mark.parametrize("q", [2.0, math.inf])
def test_besov_realizations_take_zygmund_from_the_modulus_column(monkeypatch, op, space,
                                                                  f_lg, q):
    from axbkit import suites
    from axbkit.corpus import DEFAULT_CORPUS

    entry = DEFAULT_CORPUS[0]  # log_gaussian(sigma=1,u0=-3), the member f_lg samples
    expected = zygmund_norm(space, f_lg, 1, q)
    calls = []
    monkeypatch.setattr(suites.md, "zygmund_norm", lambda *a: calls.append(a))
    ((vals,),) = suites._besov_realizations([(entry, f_lg)], op, space, [(1.0, q)])
    assert vals["zygmund"] == vals["modulus"] == expected
    assert calls == []


def test_inequality_constants_keep_a_nan():
    # ||f|| turns NaN, so every C2 ratio is NaN; the worst case must say so
    grid = LogGrid(-12.0, 6.0, 128)
    plain = halfline_space(grid)
    calls = []

    def norm(v):
        calls.append(1)
        return math.nan if len(calls) == 1 else plain.norm(v)

    f = np.exp(-((grid.u + 3.0) ** 2) / 2.0)
    rep = verify_modulus_inequalities(dataclasses.replace(plain, norm=norm), 2, 1, f,
                                      (0.25, 1.0, 4.0))
    assert math.isnan(rep["C2_hat"])
    assert np.isfinite(rep["C0_hat"]) and np.isfinite(rep["C1_hat"])


def test_a_space_reaches_operations_rebound_after_it_was_built(grid, f_lg):
    # the half-line space looks its operations up in moduli each time a callable runs,
    # so a rebinding made after the space is built (as a tracer makes one in every
    # axbkit module that holds the function) reaches it, and undoing it leaves nothing
    import sys

    from axbkit import halfline, smoothing

    space = halfline_space(grid)
    v = f_lg.values
    runs = {"shift_log": lambda: space.act(1, grid.h, v),
            "act_modulation": lambda: space.act(2, 0.3, v),
            "xp_norm": lambda: space.norm(v),
            "generator": lambda: space.gen(1, v),
            "hardy_steklov": lambda: space.hardy(1, 0.5, v)}
    owners = {name: smoothing if name == "hardy_steklov" else halfline for name in runs}
    calls = dict.fromkeys(runs, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    undo = []
    try:
        for name, owner in owners.items():
            original = getattr(owner, name)
            wrapper = counting(name, original)
            for mod in [m for key, m in list(sys.modules.items()) if key.startswith("axbkit")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        for name, run in runs.items():
            before = calls[name]
            run()
            assert calls[name] == before + 1, name
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)
    counted = dict(calls)
    for run in runs.values():
        run()
    assert calls == counted
