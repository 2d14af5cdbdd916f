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
of independent uniforms has the box-spline (Irwin-Hall) density, so:

* direction 2 (modulation) operators become explicit pointwise multipliers
  ``[ (e^{i h' x} - 1) / (i h' x) ]^r`` with ``h' = s/r``;
* direction 1 (dilation = log-shift) operators become one-dimensional
  convolutions, evaluated through the exact Fourier multiplier of the
  box-spline kernel on a window zero-padded on the right
  (:func:`axbkit.grids.fourier_multiplier`).

A quadrature fallback against the explicit Irwin-Hall density is provided
for representation spaces without closed forms (the half-plane models) and
doubles as a cross-check oracle; it works on whatever its action callback
returns, containers or bare arrays.

:func:`steklov_avg`, :func:`hardy_steklov_dir` and :func:`hardy_steklov` also
take a stack of functions (leading batch axes, the grid on the trailing
axis) and act on every member with the same arithmetic as on one function.
:func:`hardy_steklov` and :func:`hardy_steklov_dir` have the two calling
forms of :func:`axbkit.grids.unwrap`: a container in gives a validated
container out, and bare values with ``grid=`` given give an unvalidated
ndarray out, the form the half-line representation interface binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .grids import HalfLineFunction, LogGrid, fourier_multiplier, unwrap
from .halfline import shift_log

__all__ = [
    "SteklovParams",
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

#: Gauss-Legendre nodes per panel of the Irwin-Hall quadrature
_N_GL = 12


@dataclass(frozen=True)
class SteklovParams:
    """Order r, scale s and direction j of one averaging operator."""

    r: int
    s: float
    j: int

    def __post_init__(self):
        if not 1 <= self.r <= MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}]")
        if not self.s > 0:
            raise ValueError("scale must be positive")
        if self.j not in (1, 2):
            raise ValueError("direction must be 1 or 2")


def box_profile(z: np.ndarray) -> np.ndarray:
    """``(e^{iz} - 1)/(iz)`` with the limit value 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z, dtype=complex)
    nz = np.abs(z) > 1e-300
    zi = z[nz]
    out[nz] = (np.exp(1j * zi) - 1.0) / (1j * zi)
    return out


def steklov_avg(params: SteklovParams, f: HalfLineFunction) -> HalfLineFunction:
    """The r-fold averaging operator ``P_{j,r}(s)``."""
    r, s, j = params.r, params.s, params.j
    hp = s / r
    if j == 2:
        return f.with_values(box_profile(hp * f.grid.x) ** r * f.values)
    pad = int(np.ceil(s / f.grid.h)) + 8
    return f.with_values(
        fourier_multiplier(f.values, f.grid.h, lambda xi: box_profile(xi * hp) ** r, 0, pad))


def steklov(r: int, s: float, f: HalfLineFunction) -> HalfLineFunction:
    """``P_r(s) = P_{1,r}(s) P_{2,r}(s)``; the order matters, the groups do not commute."""
    inner_avg = steklov_avg(SteklovParams(r, s, 2), f)
    return steklov_avg(SteklovParams(r, s, 1), inner_avg)


def m_operator(j: int, r: int, t_sum: float, f: HalfLineFunction) -> HalfLineFunction:
    """Alternating combination ``sum_{k=1}^r (-1)^k C(r,k) T_j(k t) f`` at ``t = t_sum``.

    Satisfies ``f + M f = (I - T_j(t))^r f``; at ``t = 0`` it returns ``-f``.
    """
    if not 1 <= r <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    out = np.zeros(f.grid.n, dtype=complex)
    for k in range(1, r + 1):
        coeff = (-1) ** k * comb(r, k)
        if j == 2:
            term = np.exp(1j * k * t_sum * f.grid.x) * f.values
        else:
            term = shift_log(f, k * t_sum).values
        out += coeff * term
    return f.with_values(out)


def hardy_steklov_dir(j: int, r: int, s: float, f, grid: LogGrid | None = None):
    """One-direction Hardy-Steklov operator ``H_{j,r}(s)``.

    ``f`` is a container, or bare values on ``grid``.
    """
    params = SteklovParams(r, s, j)
    hp = params.s / params.r
    values, g, wrap = unwrap(f, grid)
    if j == 2:
        mult = np.zeros(g.n, dtype=complex)
        for k in range(1, r + 1):
            mult += (-1) ** k * comb(r, k) * box_profile(k * hp * g.x) ** r
        return wrap(mult * values)

    def mult_fn(xi):
        total = np.zeros_like(xi, dtype=complex)
        for k in range(1, r + 1):
            total += (-1) ** k * comb(r, k) * box_profile(k * xi * hp) ** r
        return total

    pad = int(np.ceil(r * s / g.h)) + 8
    return wrap(fourier_multiplier(values, g.h, mult_fn, 0, pad))


def hardy_steklov(r: int, s: float, f, grid: LogGrid | None = None):
    """``H_r(s) = H_{1,r}(s) H_{2,r}(s)``, the K-functional smoothing witness.

    ``f`` is a container, or bare values on ``grid``.
    """
    return hardy_steklov_dir(1, r, s, hardy_steklov_dir(2, r, s, f, grid), grid)


def commutation_check(m: int, t1: float, t2: float, f: HalfLineFunction) -> float:
    """Relative residual of ``D2^m T1(t1) T2(t2) f = e^{-m t1} T1(t1) T2(t2) D2^m f``.

    Both sides are exact pointwise operations up to the windowed shift, so
    the residual measures only roundoff and window loss.
    """
    from .halfline import act_modulation, xp_norm

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


def irwin_hall_nodes(r: int, s: float):
    """Quadrature nodes and weights for ``int_0^s rho_r(t) (.) dt``.

    ``rho_r`` is the density of ``t_1 + ... + t_r`` with ``t_i ~ U[0, s/r]``,
    piecewise polynomial with knots at ``k s / r``; Gauss-Legendre panels
    between knots integrate it essentially exactly.  Weights sum to 1.
    """
    hp = s / r
    gl_x, gl_w = np.polynomial.legendre.leggauss(_N_GL)
    nodes, weights = [], []
    for k in range(r):
        a, b = k * hp, (k + 1) * hp
        t = 0.5 * (b - a) * (gl_x + 1.0) + a
        w = 0.5 * (b - a) * gl_w * _irwin_hall_std(t / hp, r) / hp
        nodes.append(t)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def steklov_avg_generic(act, j: int, r: int, s: float, f):
    """``P_{j,r}(s)`` through an action callback ``act(j, t, f)``."""
    t, w = irwin_hall_nodes(r, s)
    out = None
    for ti, wi in zip(t, w):
        term = wi * act(j, ti, f)
        out = term if out is None else out + term
    return out


def hardy_steklov_generic(act, r: int, s: float, f):
    """``H_r(s)`` through an action callback, for spaces without closed forms."""
    t, w = irwin_hall_nodes(r, s)

    def one_direction(j, g):
        out = None
        for k in range(1, r + 1):
            coeff = (-1) ** k * comb(r, k)
            for ti, wi in zip(t, w):
                term = (coeff * wi) * act(j, k * ti, g)
                out = term if out is None else out + term
        return out

    return one_direction(1, one_direction(2, f))
