import dataclasses
import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from axbkit.grids import HalfLineFunction, LogGrid, SpectralGrid
from axbkit.halfline import xp_norm
from axbkit.moduli import (
    _FLOOR,
    _SUP_CAP,
    BesovParams,
    _accumulate,
    apply_word,
    besov_s_grid,
    grid_candidates,
    halfline_space,
    k_upper,
    modulus_mixed,
)
from axbkit.spectral import build_matrix_laplacian


@pytest.fixture(scope="session")
def grid():
    return LogGrid(-12.0, 6.0, 512)


@pytest.fixture(scope="session")
def sgrid():
    return SpectralGrid(12.0, 400)


@pytest.fixture(scope="session")
def op(grid):
    return build_matrix_laplacian(grid)


@pytest.fixture(scope="session")
def space(grid):
    return halfline_space(grid)


def normalized(grid, values):
    f = HalfLineFunction(grid, values)
    return f * (1.0 / xp_norm(f))


@pytest.fixture(scope="session")
def f_xexp(grid):
    return HalfLineFunction(grid, grid.x * np.exp(-grid.x))


@pytest.fixture(scope="session")
def f_lg(grid):
    return normalized(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0))


@pytest.fixture(scope="session")
def f_lg_wide(grid):
    return normalized(grid, np.exp(-((grid.u + 6.0) ** 2) / 8.0))


def _word_sup_per_tuple(space, word, t_sets, f) -> float:
    """The supremum search one candidate tuple at a time, one function per action."""
    best = 0.0
    for ts in product(*t_sets):
        g = f.values
        for j, t in zip(reversed(word), reversed(ts)):
            g = space.act(j, t, g) - g
        best = max(best, space.norm(g))
    return best


def _modulus_per_tuple(space, r: int, s: float, f) -> float:
    total = 0.0
    for word in product((1, 2), repeat=r):
        t_sets = [grid_candidates(s, _SUP_CAP.get(r, 2), space.steps[j - 1]) for j in word]
        if all(ts.size for ts in t_sets):
            total += _word_sup_per_tuple(space, word, t_sets, f)
    return total


@pytest.fixture(scope="session")
def modulus_reference():
    """Reference oracle for ``modulus_mixed``: the per-tuple loop, no stacks."""
    return _modulus_per_tuple


def _sobolev_per_word(space, v, m: int):
    """``sobolev_space_norm`` applying every word to the values ``v``, one word at a time."""
    total = space.norm(v)
    for k in range(1, m + 1):
        for word in product((1, 2), repeat=k):
            total += space.norm(apply_word(space, word, v))
    return total


@pytest.fixture(scope="session")
def sobolev_reference():
    """Reference oracle for ``sobolev_space_norm``: the per-word loop, no stacks."""
    return _sobolev_per_word


def _besov_per_scale(space, f, params, method):
    core = k_upper if method == "k" else modulus_mixed
    weighted = [s ** (-params.alpha) * core(space, params.r, s, f) for s in besov_s_grid()]
    return space.norm(f.values) + _accumulate(weighted, params.q)


def _fractional_per_scale(space, f, alpha, q):
    k = int(math.floor(alpha))
    total = _sobolev_per_word(space, f.values, k)
    for word in product((1, 2), repeat=k):
        g = apply_word(space, word, f)
        weighted = [s ** (k - alpha) * modulus_mixed(space, 1, s, g) for s in besov_s_grid()]
        total += _accumulate(weighted, q)
    return total


def _zygmund_per_scale(space, f, k, q):
    total = _sobolev_per_word(space, f.values, k - 1)
    for word in product((1, 2), repeat=k - 1):
        g = apply_word(space, word, f)
        weighted = [s ** (-1.0) * modulus_mixed(space, 2, s, g) for s in besov_s_grid()]
        total += _accumulate(weighted, q)
    return total


def _reiteration_per_scale(space, f, k1, k2, r, alpha, q):
    lhs = _besov_per_scale(space, f, BesovParams(alpha, q, r), "modulus")
    base = dataclasses.replace(space, norm=lambda g: _sobolev_per_word(space, g, k1))
    weighted = [s ** (-(alpha - k1)) * modulus_mixed(base, k2 - k1, s, f)
                for s in besov_s_grid()]
    rhs = base.norm(f.values) + _accumulate(weighted, q)
    k = k2 - k1
    nf = space.norm(f.values)
    nk = _sobolev_per_word(space, f.values, k)
    nr = _sobolev_per_word(space, f.values, r)
    gn = nk / max(nf ** (1 - k / r) * nr ** (k / r), _FLOOR * max(nf, 1.0))
    return {"lhs_norm": lhs, "rhs_norm": rhs, "ratio": lhs / max(rhs, _FLOOR),
            "gagliardo_hat": gn}


@pytest.fixture(scope="session")
def besov_reference():
    """Reference oracles for the integral Besov realizations: one scale at a
    time, each with its own weight expression, and per-word Sobolev norms."""
    return SimpleNamespace(norm=_besov_per_scale, fractional=_fractional_per_scale,
                           zygmund=_zygmund_per_scale, reiteration=_reiteration_per_scale)
