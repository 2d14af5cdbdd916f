from itertools import product

import numpy as np
import pytest

from axbkit.grids import HalfLineFunction, LogGrid, SpectralGrid
from axbkit.halfline import xp_norm
from axbkit.moduli import _SUP_CAP, halfline_space
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
        g = f
        for j, t in zip(reversed(word), reversed(ts)):
            g = space.act(j, t, g) - g
        best = max(best, space.norm(g))
    return best


def _modulus_per_tuple(space, r: int, s: float, f) -> float:
    total = 0.0
    for word in product((1, 2), repeat=r):
        t_sets = [np.asarray(space.t_candidates(j, s, _SUP_CAP.get(r, 2))) for j in word]
        if all(ts.size for ts in t_sets):
            total += _word_sup_per_tuple(space, word, t_sets, f)
    return total


@pytest.fixture(scope="session")
def modulus_reference():
    """Reference oracle for ``modulus_mixed``: the per-tuple loop, no stacks."""
    return _modulus_per_tuple
