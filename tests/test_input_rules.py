"""The input rules of :mod:`axbkit.grids` at every entry point that takes an order, a
grid's node count, a direction, a side or a scale (a band, a time, a spectral parameter,
a dilation factor, ``alpha``), the word-order bound, the modulus-order bound and the
``q`` rule of :mod:`axbkit.moduli` at every entry point that takes a derivative order, a
modulus order or ``q``, and the guard that each rule (the one-function and the same-grid
rules too) has one copy and that the texts of the copies they replaced are gone."""

import math
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

import axbkit
from axbkit import frames, group, halfline, halfplane, moduli, paleywiener, smoothing, spectral
from axbkit.grids import (HalfLineFunction, LogGrid, SpectralGrid, require_direction,
                          require_integer, require_scale, require_scales, require_side)
from axbkit.spectral import build_matrix_laplacian


@pytest.fixture(scope="module")
def ctx():
    grid = LogGrid(-12.0, 6.0, 64)
    f = HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0))
    hgrid = halfplane.HalfPlaneGrid(LogGrid(-6.0, 4.0, 20), -8.0, 8.0, 16)
    f2 = halfplane.log_gaussian_2d(hgrid)
    return SimpleNamespace(grid=grid, f=f, space=moduli.halfline_space(grid),
                           op=build_matrix_laplacian(grid), hgrid=hgrid, f2=f2,
                           left=halfplane.halfplane_space(hgrid, "left"))


NAN, INF = math.nan, math.inf

#: (entry point and bad value, the parameter its error names, the call, and what the
#: code before these rules did with it: the exception it raised, or "value" when it
#: returned one)
_ROWS = [
    # moduli: r an integer >= 1, m >= 0, k in [1, r], k1 and k2 in [0, r]
    ("modulus_mixed r=1.5", "r", lambda c: moduli.modulus_mixed(c.space, 1.5, 0.5, c.f),
     "ValueError"),
    ("modulus_mixed r=True", "r", lambda c: moduli.modulus_mixed(c.space, True, 0.5, c.f), "value"),
    ("k_upper r=0", "r", lambda c: moduli.k_upper(c.space, 0, 0.5, c.f), "ValueError"),
    ("k_upper_detail r=True", "r", lambda c: moduli.k_upper_detail(c.space, True, 0.5, c.f),
     "value"),
    ("BesovParams r=True", "r", lambda c: moduli.BesovParams(0.5, 2.0, True), "value"),
    ("sobolev_space_norm m=-1", "m", lambda c: moduli.sobolev_space_norm(c.space, c.f, -1),
     "value"),
    ("sobolev_space_norm m=1.5", "m", lambda c: moduli.sobolev_space_norm(c.space, c.f, 1.5),
     "TypeError"),
    ("verify_modulus_inequalities k=1.5", "k",
     lambda c: moduli.verify_modulus_inequalities(c.space, 2, 1.5, c.f, [0.5]), "TypeError"),
    ("verify_modulus_inequalities k=3>r", "k",
     lambda c: moduli.verify_modulus_inequalities(c.space, 2, 3, c.f, [0.5]), "ValueError"),
    ("zygmund_norm k=1.5", "k", lambda c: moduli.zygmund_norm(c.space, c.f, 1.5, 2.0),
     "TypeError"),
    ("zygmund_norm k=0", "k", lambda c: moduli.zygmund_norm(c.space, c.f, 0, 2.0), "ValueError"),
    ("reiteration_check k1=0.5", "k1",
     lambda c: moduli.reiteration_check(c.space, c.f, 0.5, 2, 2, 1.0, 2.0), "ValueError"),
    ("reiteration_check k2=1.5", "k2",
     lambda c: moduli.reiteration_check(c.space, c.f, 0, 1.5, 2, 1.0, 2.0), "ValueError"),
    ("reiteration_check r=True", "r",
     lambda c: moduli.reiteration_check(c.space, c.f, 0, 1, True, 0.5, 2.0), "value"),
    # moduli: each derivative-word order at most MAX_SOBOLEV_ORDER, the first order past it
    ("sobolev_space_norm m=5", "m", lambda c: moduli.sobolev_space_norm(c.space, c.f, 5),
     "value"),
    ("besov_norm_fractional alpha=5.5", "alpha",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, 5.5, 2.0), "value"),
    ("zygmund_norm k=6", "k", lambda c: moduli.zygmund_norm(c.space, c.f, 6, 2.0), "value"),
    ("besov_tail_report r=5", "r",
     lambda c: moduli.besov_tail_report(c.space, c.f, moduli.BesovParams(0.5, 2.0, 5)), "value"),
    ("verify_modulus_inequalities k=5", "k",
     lambda c: moduli.verify_modulus_inequalities(c.space, 3, 5, c.f, [0.5]), "ValueError"),
    ("reiteration_check r=5", "r",
     lambda c: moduli.reiteration_check(c.space, c.f, 0, 5, 5, 0.5, 2.0), "value"),
    # moduli: each modulus order at most 4, the largest the search has a candidate count for
    ("modulus_mixed r=5", "r", lambda c: moduli.modulus_mixed(c.space, 5, 0.5, c.f), "value"),
    ("k_lower r=5", "r", lambda c: moduli.k_lower(c.space, 5, 0.5, c.f), "value"),
    ("besov_norm modulus r=5", "r",
     lambda c: moduli.besov_norm(c.space, c.f, moduli.BesovParams(0.5, 2.0, 5), "modulus"),
     "value"),
    ("jackson_check r=5", "r",
     lambda c: paleywiener.jackson_check([1.0, 2.0], 5, c.f, c.op, c.space), "value"),
    ("verify_modulus_inequalities r+k=5", "k",
     lambda c: moduli.verify_modulus_inequalities(c.space, 3, 2, c.f, [0.5]), "value"),
    # r of verify_modulus_inequalities is at most 3, as every k >= 1 takes r + k past 4
    ("verify_modulus_inequalities r=4", "r",
     lambda c: moduli.verify_modulus_inequalities(c.space, 4, 1, c.f, [0.5]), "ValueError"),
    # the K-functional's order at most the Hardy-Steklov witness's MAX_ORDER, named r
    ("k_upper r=5", "r", lambda c: moduli.k_upper(c.space, 5, 0.5, c.f), "ValueError"),
    ("k_upper_detail r=5", "r", lambda c: moduli.k_upper_detail(c.space, 5, 0.5, c.f),
     "ValueError"),
    ("besov_norm k r=5", "r",
     lambda c: moduli.besov_norm(c.space, c.f, moduli.BesovParams(0.5, 2.0, 5), "k"),
     "ValueError"),
    # smoothing: the order in [1, MAX_ORDER], the direction 1 or 2
    ("hardy_steklov r=1.5", "order", lambda c: smoothing.hardy_steklov(1.5, 0.5, c.f),
     "TypeError"),
    ("hardy_steklov_dir r=5", "order", lambda c: smoothing.hardy_steklov_dir(1, 5, 0.5, c.f),
     "ValueError"),
    ("m_operator r=1.5", "order", lambda c: smoothing.m_operator(2, 1.5, 0.3, c.f), "TypeError"),
    ("m_operator j=3", "direction", lambda c: smoothing.m_operator(3, 2, 0.3, c.f), "ValueError"),
    ("irwin_hall_nodes r=1.5", "order", lambda c: smoothing.irwin_hall_nodes(1.5, 0.5),
     "TypeError"),
    ("steklov_avg r=2.0", "order", lambda c: smoothing.steklov_avg(1, 2.0, 0.5, c.f), "value"),
    ("steklov_avg r=True", "order", lambda c: smoothing.steklov_avg(1, True, 0.5, c.f), "value"),
    ("steklov_avg j=0", "direction", lambda c: smoothing.steklov_avg(0, 2, 0.5, c.f),
     "ValueError"),
    ("steklov_avg j=3", "direction", lambda c: smoothing.steklov_avg(3, 2, 0.5, c.f),
     "ValueError"),
    ("steklov_avg_generic j=0", "direction",
     lambda c: smoothing.steklov_avg_generic(c.space.act, 0, 2, 0.5, c.f.values), "value"),
    ("steklov_avg_generic j=3", "direction",
     lambda c: smoothing.steklov_avg_generic(c.space.act, 3, 2, 0.5, c.f.values), "value"),
    ("hardy_steklov_generic r=1.5", "order",
     lambda c: smoothing.hardy_steklov_generic(c.space.act, 1.5, 0.5, c.f.values), "TypeError"),
    # the half-line: the Sobolev order in [0, MAX_SOBOLEV_ORDER], the direction 1 or 2
    ("sobolev_norm m=1.5", "m", lambda c: moduli.sobolev_norm(c.f, 1.5), "TypeError"),
    ("sobolev_norm m=5", "m", lambda c: moduli.sobolev_norm(c.f, 5), "ValueError"),
    ("sobolev_norm_top m=1.5", "m", lambda c: moduli.sobolev_norm_top(c.f, 1.5), "TypeError"),
    ("sobolev_norm_top m=-1", "m", lambda c: moduli.sobolev_norm_top(c.f, -1), "ValueError"),
    ("halfline generator j=3", "direction", lambda c: halfline.generator(3, c.f), "ValueError"),
    ("halfline_space act j=0", "direction", lambda c: c.space.act(0, 0.3, c.f.values), "value"),
    ("halfline_space act j=3", "direction", lambda c: c.space.act(3, 0.3, c.f.values), "value"),
    # halfplane: the side 'left' or 'right', the direction 1 or 2
    ("halfplane_space side='up'", "side", lambda c: halfplane.halfplane_space(c.hgrid, "up"),
     "value"),
    ("halfplane_space act j=0", "direction", lambda c: c.left.act(0, 0.3, c.f2.values), "value"),
    ("halfplane_space act j=3", "direction", lambda c: c.left.act(3, 0.3, c.f2.values), "value"),
    ("generator_2d j=3", "direction", lambda c: halfplane.generator_2d(3, c.f2, "left"),
     "ValueError"),
    ("generator_2d side='up'", "side", lambda c: halfplane.generator_2d(1, c.f2, "up"),
     "ValueError"),
    ("act_2d side='up'", "side",
     lambda c: halfplane.act_2d(group.GroupElement(1.0, 0.3), c.f2, "up"), "ValueError"),
    ("lp_norm_2d side='up'", "side", lambda c: halfplane.lp_norm_2d(c.f2, 2.0, "up"),
     "ValueError"),
    ("build_halfplane_laplacian side='up'", "side",
     lambda c: halfplane.build_halfplane_laplacian(c.hgrid, "up"), "ValueError"),
    ("expanded_laplacian_apply side='up'", "side",
     lambda c: halfplane.expanded_laplacian_apply(c.f2, "up"), "value"),
    # group
    ("haar_weight side='up'", "side",
     lambda c: group.haar_weight(group.GroupElement(2.0, 1.0), "up"), "ValueError"),
    # paleywiener: the modulus order an integer >= 1
    ("schrodinger_modulus r=True", "r",
     lambda c: paleywiener.schrodinger_modulus(True, 0.5, c.f, c.op), "value"),
    ("jackson_check r=1.5", "r",
     lambda c: paleywiener.jackson_check([1.0, 2.0], 1.5, c.f, c.op, c.space), "ValueError"),
    # frames: band indices are integers >= 0
    ("partition_values J=1.5", "J", lambda c: frames.partition_values(1.5, [0.5]), "ValueError"),
    ("band_frames J=True", "J", lambda c: frames.band_frames(c.op, True), "value"),
    ("build_band_frame j=-1", "j", lambda c: frames.build_band_frame(c.op, -1), "value"),
    # Besov indices: alpha positive and finite, q >= 1 (inf for the sup form)
    ("BesovParams alpha=0", "alpha", lambda c: moduli.BesovParams(0.0, 2.0, 2), "ValueError"),
    ("BesovParams alpha=nan", "alpha", lambda c: moduli.BesovParams(NAN, 2.0, 2), "ValueError"),
    ("BesovParams alpha=inf", "alpha", lambda c: moduli.BesovParams(INF, 2.0, 2), "ValueError"),
    ("BesovParams q=0.5", "q", lambda c: moduli.BesovParams(0.5, 0.5, 2), "ValueError"),
    ("BesovParams q=nan", "q", lambda c: moduli.BesovParams(0.5, NAN, 2), "ValueError"),
    ("besov_norm_fractional alpha=-0.5", "alpha",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, -0.5, 2.0), "value"),
    ("besov_norm_fractional alpha=nan", "alpha",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, NAN, 2.0), "ValueError"),
    ("besov_norm_fractional alpha=inf", "alpha",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, INF, 2.0), "OverflowError"),
    ("besov_norm_fractional q=0.5", "q",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, 0.5, 0.5), "value"),
    ("besov_norm_fractional q=0", "q",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, 0.5, 0.0), "ZeroDivisionError"),
    ("besov_norm_fractional q=nan", "q",
     lambda c: moduli.besov_norm_fractional(c.space, c.f, 0.5, NAN), "ValueError"),
    ("zygmund_norm q=0.5", "q", lambda c: moduli.zygmund_norm(c.space, c.f, 1, 0.5), "value"),
    ("zygmund_norm q=-1", "q", lambda c: moduli.zygmund_norm(c.space, c.f, 1, -1.0), "value"),
    ("zygmund_norm q=nan", "q", lambda c: moduli.zygmund_norm(c.space, c.f, 1, NAN),
     "ValueError"),
    ("besov_norm_bands alpha=nan", "alpha",
     lambda c: frames.besov_norm_bands(c.f, c.op, NAN, 2.0), "value"),
    ("besov_norm_bands alpha=inf", "alpha",
     lambda c: frames.besov_norm_bands(c.f, c.op, INF, 2.0), "value"),
    ("besov_norm_bands alpha=-1", "alpha",
     lambda c: frames.besov_norm_bands(c.f, c.op, -1.0, 2.0), "ValueError"),
    ("besov_norm_bands q=nan", "q", lambda c: frames.besov_norm_bands(c.f, c.op, 0.5, NAN),
     "value"),
    ("besov_norm_bands q=0.5", "q", lambda c: frames.besov_norm_bands(c.f, c.op, 0.5, 0.5),
     "ValueError"),
    ("besov_norm_bands second pair q=nan", "q",
     lambda c: frames.besov_norm_bands(c.f, c.op, (0.5, 1.0), (2.0, NAN)), "value"),
    ("approx_space_norm alpha=-1", "alpha",
     lambda c: frames.approx_space_norm(c.f, c.op, -1.0, 2.0), "value"),
    ("approx_space_norm alpha=nan", "alpha",
     lambda c: frames.approx_space_norm(c.f, c.op, NAN, 2.0), "value"),
    ("approx_space_norm q=0.5", "q", lambda c: frames.approx_space_norm(c.f, c.op, 0.5, 0.5),
     "value"),
    ("approx_space_norm q=nan", "q", lambda c: frames.approx_space_norm(c.f, c.op, 0.5, NAN),
     "value"),
    # scales: finite and positive (a smoothing scale, a band, a dilation factor, a step) or
    # finite and nonnegative (a modulus scale, a time, a spectral parameter)
    ("steklov_avg s=0", "s", lambda c: smoothing.steklov_avg(1, 2, 0.0, c.f), "ValueError"),
    ("steklov_avg s=nan", "s", lambda c: smoothing.steklov_avg(1, 2, NAN, c.f), "ValueError"),
    ("hardy_steklov_dir s=-1", "s", lambda c: smoothing.hardy_steklov_dir(2, 2, -1.0, c.f),
     "ValueError"),
    ("hardy_steklov_dir s=nan", "s", lambda c: smoothing.hardy_steklov_dir(2, 2, NAN, c.f),
     "ValueError"),
    ("irwin_hall_nodes s=0", "s", lambda c: smoothing.irwin_hall_nodes(2, 0.0), "ValueError"),
    ("irwin_hall_nodes s=nan", "s", lambda c: smoothing.irwin_hall_nodes(2, NAN), "ValueError"),
    ("steklov_avg_generic s=nan", "s",
     lambda c: smoothing.steklov_avg_generic(c.space.act, 1, 2, NAN, c.f.values), "ValueError"),
    ("hardy_steklov_generic s=0", "s",
     lambda c: smoothing.hardy_steklov_generic(c.space.act, 2, 0.0, c.f.values), "ValueError"),
    ("grid_candidates s=-1", "s", lambda c: moduli.grid_candidates(-1.0, 4, None), "ValueError"),
    ("grid_candidates s=nan", "s", lambda c: moduli.grid_candidates(NAN, 4, 0.1), "ValueError"),
    ("grid_candidates step=0", "step", lambda c: moduli.grid_candidates(1.0, 4, 0.0),
     "ValueError"),
    ("grid_candidates step=nan", "step", lambda c: moduli.grid_candidates(1.0, 4, NAN),
     "ValueError"),
    ("bernstein_check omega=0", "omega",
     lambda c: paleywiener.bernstein_check(c.f, 0.0, (1,), c.op), "ValueError"),
    ("bernstein_check omega=nan", "omega",
     lambda c: paleywiener.bernstein_check(c.f, NAN, (1,), c.op), "ValueError"),
    ("riesz_boas omega=-1", "omega", lambda c: paleywiener.riesz_boas(-1.0, c.f, 8, c.op),
     "ValueError"),
    ("riesz_boas omega=nan", "omega", lambda c: paleywiener.riesz_boas(NAN, c.f, 8, c.op),
     "ValueError"),
    ("pw_project omega=0", "omega", lambda c: paleywiener.pw_project(0.0, c.f, c.op),
     "ValueError"),
    ("pw_project omega=nan", "omega", lambda c: paleywiener.pw_project(NAN, c.f, c.op),
     "ValueError"),
    ("pw_project omega=inf", "omega", lambda c: paleywiener.pw_project(INF, c.f, c.op), "value"),
    ("schrodinger_modulus t=-1", "t",
     lambda c: paleywiener.schrodinger_modulus(2, -1.0, c.f, c.op), "ValueError"),
    ("schrodinger_modulus t=nan", "t",
     lambda c: paleywiener.schrodinger_modulus(2, NAN, c.f, c.op), "ValueError"),
    ("GroupElement a=0", "a", lambda c: group.GroupElement(0.0, 1.0), "ValueError"),
    ("GroupElement a=nan", "a", lambda c: group.GroupElement(NAN, 1.0), "ValueError"),
    ("SpectralGrid tau_max=0", "tau_max", lambda c: SpectralGrid(0.0, 40), "ValueError"),
    ("SpectralGrid tau_max=nan", "tau_max", lambda c: SpectralGrid(NAN, 40), "ValueError"),
    ("macdonald_kernel tau=-1", "tau", lambda c: spectral.macdonald_kernel(-1.0, 1.0), "value"),
    ("macdonald_kernel tau=nan", "tau", lambda c: spectral.macdonald_kernel(NAN, 1.0), "value"),
    ("macdonald_kernel tau=inf", "tau", lambda c: spectral.macdonald_kernel(INF, 1.0), "value"),
    ("macdonald_kernel x=0", "x", lambda c: spectral.macdonald_kernel(1.0, [1.0, 0.0]),
     "ValueError"),
    ("macdonald_kernel x=nan", "x", lambda c: spectral.macdonald_kernel(1.0, NAN), "value"),
    ("partition_values lambda=-1", "lambda", lambda c: frames.partition_values(2, [0.5, -1.0]),
     "ValueError"),
    ("partition_values lambda=nan", "lambda", lambda c: frames.partition_values(2, NAN), "value"),
    # node counts: integers from the least each grid takes
    ("LogGrid n=15", "n", lambda c: LogGrid(-1.0, 1.0, 15), "ValueError"),
    ("LogGrid n=20.5", "n", lambda c: LogGrid(-1.0, 1.0, 20.5).u, "TypeError"),
    ("LogGrid n=nan", "n", lambda c: LogGrid(-1.0, 1.0, NAN).u, "TypeError"),
    ("SpectralGrid m=31", "m", lambda c: SpectralGrid(5.0, 31), "ValueError"),
    ("SpectralGrid m=40.5", "m", lambda c: SpectralGrid(5.0, 40.5).tau, "TypeError"),
    ("HalfPlaneGrid n_y=15", "n_y", lambda c: halfplane.HalfPlaneGrid(c.hgrid.xgrid, -8.0, 8.0, 15),
     "ValueError"),
    ("HalfPlaneGrid n_y=20.5", "n_y",
     lambda c: halfplane.HalfPlaneGrid(c.hgrid.xgrid, -8.0, 8.0, 20.5).y, "TypeError"),
]


@pytest.mark.parametrize("name, call, was", [row[1:] for row in _ROWS],
                         ids=[row[0] for row in _ROWS])
def test_every_entry_point_refuses_a_bad_order_direction_or_side(ctx, name, call, was):
    # ``was`` records what each entry point did with the value before the rules, so a row
    # that raised a TypeError or returned a value is one the rules mend; scales, bands,
    # times and node counts go through the same table
    assert was in ("ValueError", "TypeError", "OverflowError", "ZeroDivisionError", "value")
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(ctx)


@pytest.mark.parametrize("value, lo, hi", [
    (0, 1, None), (1.0, 1, None), (True, 0, None), (False, 0, None), (np.float64(2.0), 1, None),
    ("2", 1, None), (None, 0, None), (5, 1, 4), (np.int64(0), 1, 4),
])
def test_require_integer_refuses(value, lo, hi):
    text = (f"n must be an integer >= {lo}, got {value!r}" if hi is None
            else f"n must be in [{lo}, {hi}] and an integer, got {value!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        require_integer("n", value, lo, hi)


@pytest.mark.parametrize("value, lo, hi", [(1, 1, None), (np.int64(7), 0, None), (4, 1, 4),
                                           (np.uint8(0), 0, 4)])
def test_require_integer_accepts(value, lo, hi):
    require_integer("n", value, lo, hi)


@pytest.mark.parametrize("value, positive, ok", [
    (0.0, False, True), (0, False, True), (2.5, True, True), (np.float64(1e300), True, True),
    (0.0, True, False), (-0.5, False, False), (-1e-300, False, False), (NAN, False, False),
    (INF, False, False), (-INF, True, False), (NAN, True, False),
])
def test_require_scale_and_scales(value, positive, ok):
    rule = "must be finite and positive" if positive else "must be finite and nonnegative"
    for ladder in (value, [1.0, value]):
        if ok:
            require_scale("s", value, positive)
            assert np.array_equal(require_scales("s", ladder, positive), np.asarray(ladder, float))
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(f's {rule}, got {value!r}')}$"):
            require_scale("s", value, positive)
        with pytest.raises(ValueError, match=re.escape(f"s {rule} (one scale or a 1-D ladder)")):
            require_scales("s", ladder, positive)


def test_require_scales_refuses_a_2d_ladder_and_returns_floats():
    with pytest.raises(ValueError, match=r"^s must be finite and nonnegative \(one scale"):
        require_scales("s", [[0.5, 1.0]])
    scales = require_scales("s", [1, 2])
    assert scales.dtype == np.float64 and scales.shape == (2,)
    assert require_scales("s", 3).ndim == 0


def test_one_function_of_each_kind_refuses_another_grid(ctx):
    g = HalfLineFunction(LogGrid(-12.0, 6.0, 65), np.ones(65))
    h2 = halfplane.HalfPlaneFunction(halfplane.HalfPlaneGrid(ctx.hgrid.xgrid, -8.0, 8.0, 17),
                                     np.ones((20, 17)))
    for call in (lambda: ctx.f + g, lambda: ctx.f - g, lambda: halfline.inner(ctx.f, g),
                 lambda: ctx.f2 - h2):
        with pytest.raises(ValueError, match="^functions live on different grids$"):
            call()


def test_require_direction_and_side():
    for j in (1, 2):
        require_direction(j)
    for side in ("left", "right"):
        require_side(side)
    for j in (0, 3, -1, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"direction must be 1 or 2, got {j!r}")):
            require_direction(j)
    for side in ("up", "Left", "", None):
        with pytest.raises(ValueError,
                           match=re.escape(f"side must be 'left' or 'right', got {side!r}")):
            require_side(side)


#: the text of each rule's error, which only :mod:`axbkit.grids` may hold
_RULE_TEXTS = ("must be an integer", "direction must be 1 or 2", "side must be 'left' or 'right'",
               "takes one function, got a stack of shape", "must be finite and positive",
               "must be finite and nonnegative", "functions live on different grids")


#: the text of the Besov ``q`` error, which only :mod:`axbkit.moduli` may hold
_BESOV_TEXTS = ("q must be >= 1",)


#: the texts of the scale and node-count checks the rules replaced, which no module may hold
_RETIRED_TEXTS = ("scale must be positive", "omega: must", "t: must", "must be finite and >= 0",
                  "must be None or finite and > 0", "dilation factor must be positive",
                  "tau_max must be positive", "x must be positive", "lambda must be nonnegative",
                  "alpha must be positive and finite", "need at least")


def test_each_input_rule_has_one_copy():
    src = pathlib.Path(axbkit.__file__).parent
    holders = {text: sorted(path.name for path in src.glob("*.py") if text in path.read_text())
               for text in _RULE_TEXTS + _BESOV_TEXTS + _RETIRED_TEXTS}
    assert holders == {**{text: ["grids.py"] for text in _RULE_TEXTS},
                       **{text: ["moduli.py"] for text in _BESOV_TEXTS},
                       **{text: [] for text in _RETIRED_TEXTS}}


def test_the_besov_index_rule_keeps_the_sup_form(ctx):
    # q = inf is the sup form, not a bad index, at every entry point the rule guards
    assert moduli.BesovParams(0.5, INF, 2).q == INF
    values = [moduli.besov_norm_fractional(ctx.space, ctx.f, 0.5, INF),
              moduli.zygmund_norm(ctx.space, ctx.f, 1, INF),
              frames.besov_norm_bands(ctx.f, ctx.op, 0.5, INF),
              frames.approx_space_norm(ctx.f, ctx.op, 0.5, INF)]
    assert all(math.isfinite(v) and v > 0 for v in values)
