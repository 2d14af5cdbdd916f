"""Hardy-Steklov-type smoothing operators along the two subgroups.

For a one-parameter group ``T_j`` the order-r averaging operator is

``P_{j,r}(s) f = (s/r)^{-r} int_0^{s/r} ... int_0^{s/r}
                 T_j(t_1 + ... + t_r) f  dt_1 ... dt_r``,

and with the alternating binomial combination

``M_{j,r} f = sum_{k=1}^{r} (-1)^k C(r,k) T_j(k (t_1 + ... + t_r)) f``

the Hardy-Steklov operator is ``H_{j,r}(s) f = (s/r)^{-r} int ... int M_{j,r} f``
and ``H_r(s) = H_{1,r}(s) H_{2,r}(s)``.  Note ``I + M_{j,r} = (I - T_j(t))^r``
at ``t = t_1 + ... + t_r``, so each ``H_{j,r}(s) -> -I`` as ``s -> 0`` and the
composition tends to the identity, with ``||f - H_r(s) f||`` controlled by
the order-r mixed modulus of continuity.

The nested integrals are collapsed analytically.  The sum ``t_1 + ... + t_r``
of independent uniforms has the box-spline (Irwin-Hall) density, so every
operator is a symbol applied along its direction: ``box_profile(z h')^r``
for ``P`` and its alternating combination over ``k z`` for ``H``, with
``h' = s/r``.  There is one copy of that combination, and one dispatch on
the direction:

* direction 2 (modulation) applies the symbol pointwise at ``z = x``, the
  explicit multiplier ``[ (e^{i h' x} - 1) / (i h' x) ]^r`` for ``P``;
* direction 1 (dilation = log-shift) applies it as the exact Fourier
  multiplier of a one-dimensional convolution in ``u``, on a window
  zero-padded on the right by the kernel's reach (:func:`axbkit.grids.fourier_multiplier`).

The factors of ``H_{j,r}(s)`` depend only on ``(j, r, s, grid)``:
:func:`hardy_steklov_dir` keeps them, read-only, in a table of at most 256
arrays, each one grid long (direction 2) or one padded frequency axis long
(direction 1).  A whole report at the default grids fills 132 of them,
about 1 MB; :func:`axbkit.spectral.clear_caches` empties the table.  The
order ``r`` is an integer in ``[1, MAX_ORDER]`` and ``j`` is 1 or 2, by the rules
of :mod:`axbkit.grids`; ``s`` and ``r * s`` must be finite.  Each operator
checks these itself, order and scale first, then direction.  The kernel's
reach in grid steps of the log grid must be at most ``MAX_REACH_STEPS``,
which :func:`steklov_avg` and :func:`hardy_steklov_dir` check last, before
any factor is built or the table is read: a larger ``s`` would pad
direction 1 by as many nodes and turns direction 2's factors to NaN near
``s = 1e308``.  The suites reach at most about 1,800 steps (``s =
16`` at ``r = 4`` on the 512-node default grid).

A quadrature fallback against the explicit Irwin-Hall density is provided
for representation spaces without closed forms (the half-plane models) and
doubles as a cross-check oracle; it sums the arrays its action callback
returns and keeps the closed forms' rule on ``r`` and ``s``.  Its
Gauss-Legendre panel nodes are computed once, on first use.

Every closed-form operator (:func:`steklov_avg`, :func:`m_operator`,
:func:`hardy_steklov_dir`, :func:`hardy_steklov`) also takes a stack of
functions (leading batch axes, the grid on the trailing axis) and acts on
every member with the same arithmetic as on one function.
:func:`hardy_steklov` and :func:`hardy_steklov_dir` have the two calling
forms of :func:`axbkit.grids.unwrap`: a container in gives a validated
container out, and bare values with ``grid=`` given give an unvalidated
ndarray out, the form the half-line representation interface binds.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import comb, factorial

import numpy as np

from .grids import (HalfLineFunction, LogGrid, _frequencies, fourier_multiplier,
                    require_direction, require_finite, require_integer, unwrap)
from .halfline import act_modulation, shift_log, xp_norm

__all__ = [
    "steklov_avg",
    "steklov",
    "m_operator",
    "hardy_steklov_dir",
    "hardy_steklov",
    "commutation_check",
    "box_profile",
    "irwin_hall_nodes",
    "steklov_avg_generic",
    "hardy_steklov_generic",
]

MAX_ORDER = 4

#: most grid steps of the log grid a kernel may reach, ``r s / h`` for ``H_{j,r}(s)``
#: and ``s / h`` for ``P_{j,r}(s)``: direction 1 pads every member by that many nodes
MAX_REACH_STEPS = 1 << 16

#: Gauss-Legendre nodes per panel of the Irwin-Hall quadrature
_N_GL = 12

#: factor arrays kept by :func:`hardy_steklov_dir`, each at most a padded grid long
_FACTOR_TABLE_SIZE = 256


def _require_order_scale(r: int, s: float) -> None:
    """The rule every averaging operator's order and scale keep, closed form or
    quadrature: ``r`` an integer in ``[1, MAX_ORDER]``, ``s > 0``, ``s`` and ``r * s`` finite."""
    require_integer("order", r, 1, MAX_ORDER)
    if not s > 0:
        raise ValueError("scale must be positive")
    require_finite("s", s)
    require_finite("r * s", r * s)


def box_profile(z: np.ndarray) -> np.ndarray:
    """``(e^{iz} - 1)/(iz)`` with the limit value 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z, dtype=complex)
    nz = np.abs(z) > 1e-300
    zi = z[nz]
    out[nz] = (np.exp(1j * zi) - 1.0) / (1j * zi)
    return out


def _binomial(r: int) -> list[tuple[int, int]]:
    """The pairs ``(k, (-1)^k C(r, k))``, k = 1..r, of the alternating combination."""
    return [(k, (-1) ** k * comb(r, k)) for k in range(1, r + 1)]


def _alternating(r: int, term):
    """``sum_{k=1}^r (-1)^k C(r, k) term(k)``, added in the order k = 1, ..., r."""
    return sum(coeff * term(k) for k, coeff in _binomial(r))


def _check_reach(reach: float, s: float, grid: LogGrid) -> None:
    """Raise a ``ValueError`` naming ``s`` when the kernel's ``reach`` in u spans more
    than ``MAX_REACH_STEPS`` steps of ``grid``."""
    steps = reach / grid.h
    if not steps <= MAX_REACH_STEPS:
        raise ValueError(f"s = {s} reaches {steps:.3g} grid steps of h = {grid.h:.3g}, "
                         f"beyond the cap of {MAX_REACH_STEPS}")


def _factors(j: int, symbol, reach: float, grid: LogGrid) -> np.ndarray:
    """``symbol`` where direction j applies it: at the nodes ``x`` for direction 2;
    for direction 1 at the angular frequencies in u of the grid padded right by
    the kernel's ``reach`` in u.
    """
    if j == 2:
        return symbol(grid.x)
    return symbol(_frequencies(grid.n + int(np.ceil(reach / grid.h)) + 8, grid.h))


def _along(j: int, factors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The operator with the :func:`_factors` ``factors`` along direction j, on
    bare values (a stack too): a pointwise product for direction 2, a Fourier
    multiplier on the padded axis for direction 1.
    """
    if j == 2:
        return factors * values
    return fourier_multiplier(values, factors, 0)


def steklov_avg(j: int, r: int, s: float, f: HalfLineFunction) -> HalfLineFunction:
    """The r-fold moving average ``P_{j,r}(s) f = (s/r)^{-r} int ... int
    T_j(t_1 + ... + t_r) f dt`` along one subgroup.
    """
    _require_order_scale(r, s)
    require_direction(j)
    _check_reach(s, s, f.grid)
    hp = s / r
    factors = _factors(j, lambda z: box_profile(z * hp) ** r, s, f.grid)
    return f.with_values(_along(j, factors, f.values))


def steklov(r: int, s: float, f: HalfLineFunction) -> HalfLineFunction:
    """``P_r(s) = P_{1,r}(s) P_{2,r}(s)``; the order matters, the groups do not commute."""
    return steklov_avg(1, r, s, steklov_avg(2, r, s, f))


def m_operator(j: int, r: int, t_sum: float, f: HalfLineFunction) -> HalfLineFunction:
    """Alternating combination ``M f = sum_{k=1}^r (-1)^k C(r,k) T_j(k t) f`` at
    ``t = t_sum``, so that ``f + M f = (I - T_j(t))^r f``; at ``t = 0`` it is ``-f``.
    """
    require_integer("order", r, 1, MAX_ORDER)
    require_direction(j)
    v, g = f.values, f.grid
    return f.with_values(_alternating(r, lambda k: shift_log(v, k * t_sum, grid=g) if j == 1
                                      else act_modulation(k * t_sum, v, grid=g)))


@lru_cache(maxsize=_FACTOR_TABLE_SIZE)
def _hardy_factors(j: int, r: int, s: float, grid: LogGrid) -> np.ndarray:
    """The read-only :func:`_factors` of ``H_{j,r}(s)`` on ``grid``, tabled per key."""
    hp = s / r

    def symbol(z):
        return _alternating(r, lambda k: box_profile(k * z * hp) ** r)

    factors = _factors(j, symbol, r * s, grid)
    factors.flags.writeable = False
    return factors


def hardy_steklov_dir(j: int, r: int, s: float, f, grid: LogGrid | None = None):
    """One-direction Hardy-Steklov operator ``H_{j,r}(s)``.

    ``f`` is a container, or bare values on ``grid``.  ``s`` and ``r * s``
    must be finite, and ``r s / h`` at most ``MAX_REACH_STEPS``.
    """
    _require_order_scale(r, s)
    require_direction(j)
    values, g, wrap = unwrap(f, grid)
    _check_reach(r * s, s, g)
    return wrap(_along(j, _hardy_factors(j, r, float(s), g), values))


def hardy_steklov(r: int, s: float, f, grid: LogGrid | None = None):
    """An analog of the Hardy-Steklov operator, ``H_r(s) = H_{1,r}(s) H_{2,r}(s)``:
    the smoothing witness for the upper K-functional bound.

    ``f`` is a container, or bare values on ``grid``.
    """
    return hardy_steklov_dir(1, r, s, hardy_steklov_dir(2, r, s, f, grid), grid)


def commutation_check(m: int, t1: float, t2: float, f: HalfLineFunction) -> float:
    """Relative residual of ``D2^m T1(t1) T2(t2) f = e^{-m t1} T1(t1) T2(t2) D2^m f``,
    the commutation formula that ``(e^t1, 0)(1, t2) = (e^t1, t2 e^t1)`` implies.

    Both sides are exact pointwise operations up to the windowed shift, so
    the residual measures only roundoff and window loss.
    """
    x = f.grid.x
    moved = shift_log(act_modulation(t2, f), t1)
    lhs = moved.with_values((1j * x) ** m * moved.values)
    powered = f.with_values((1j * x) ** m * f.values)
    rhs = np.exp(-m * t1) * shift_log(act_modulation(t2, powered), t1)
    denom = max(xp_norm(rhs), 1e-300)
    return xp_norm(lhs - rhs) / denom


# ---------------------------------------------------------------------------
# quadrature route: explicit Irwin-Hall density, for generic representations


def _irwin_hall_std(y: np.ndarray, r: int) -> np.ndarray:
    """Density of the sum of r independent U[0,1] variables."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for k in range(0, r + 1):
        out += (-1) ** k * comb(r, k) * np.where(y - k > 0, (y - k) ** (r - 1), 0.0)
    return out / factorial(r - 1)


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss-Legendre nodes and weights on ``[-1, 1]``, read-only.

    Computed on first use, so ``numpy.polynomial`` loads only in a process
    that integrates.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def irwin_hall_nodes(r: int, s: float):
    """Quadrature nodes and weights for ``int_0^s rho_r(t) (.) dt``.

    ``rho_r`` is the density of ``t_1 + ... + t_r`` with ``t_i ~ U[0, s/r]``,
    piecewise polynomial with knots at ``k s / r``; Gauss-Legendre panels
    between knots integrate it essentially exactly.  Weights sum to 1.
    ``r`` and ``s`` keep the closed forms' rule, :func:`_require_order_scale`.
    """
    _require_order_scale(r, s)
    hp = s / r
    gl_x, gl_w = _gauss_legendre(_N_GL)
    nodes, weights = [], []
    for k in range(r):
        a, b = k * hp, (k + 1) * hp
        t = 0.5 * (b - a) * (gl_x + 1.0) + a
        w = 0.5 * (b - a) * gl_w * _irwin_hall_std(t / hp, r) / hp
        nodes.append(t)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def steklov_avg_generic(act, j: int, r: int, s: float, f):
    """``P_{j,r}(s)`` through an action callback ``act(j, t, f)``, for ``j`` 1 or 2."""
    require_direction(j)
    t, w = irwin_hall_nodes(r, s)
    return sum(wi * act(j, ti, f) for ti, wi in zip(t, w))


def hardy_steklov_generic(act, r: int, s: float, f):
    """``H_r(s)`` through an action callback, for spaces without closed forms."""
    t, w = irwin_hall_nodes(r, s)

    def one_direction(j, g):
        return sum((coeff * wi) * act(j, k * ti, g)
                   for k, coeff in _binomial(r) for ti, wi in zip(t, w))

    return one_direction(1, one_direction(2, f))
