"""Left- and right-regular representations on the half-plane, at desk scale.

The group is identified with the right half-plane ``(x, y), x > 0``; the
left-invariant measure is ``x^{-2} dx dy`` and the right-invariant one is
``x^{-1} dx dy``.  In the log variable ``u = ln x`` these are ``e^{-u} du dy``
and ``du dy``.

Actions, each at most one u pass and one y pass, by :func:`act_2d` or a space's ``act``:

* left:  ``U^L(a, b) f(x, y) = f(a x, a y + b)``, generators
  ``D1 = x dx + y dy`` and ``D2 = dy``;
* right: ``U^R(a, b) f(x, y) = f(x a, x b + y)``, generators
  ``D1 = x dx`` and ``D2 = x dy``.

Direct expansion gives ``[D1, D2] = -D2`` on the left and
``[D1, D2] = +D2`` on the right; both are computed and reported by the
tests together with the (sign-ambiguous) alternative, and only the
symbolically forced identity is asserted.  Every side and direction is
checked by the rules of :mod:`axbkit.grids`, a space's side when it is built.

Laplacians are ``D1* D1 + D2* D2`` built from the skew-symmetrized
discrete generators, so they are symmetric and nonnegative.  They are kept
Kronecker-factored (each generator a sum of ``kron(B, C)`` terms with
one-axis factors) and applied axis by axis; the full product-grid matrix
is never formed, and the minimum eigenvalue is computed exactly by a
block reduction to one-axis eigenproblems.  Nothing tables the operators:
each build is its caller's.  The expanded second-order forms

``Delta_L = -(1 + y^2) dyy - x^2 dxx - 2 x y dxy - x dx - y dy``
``Delta_R = -x^2 (dxx + dyy) - x dx``

serve only as an interior consistency oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import (LogGrid, _checked_samples, fd6, grid_steps, pth_root, require_direction,
                    require_exponent, require_finite, require_side, shift_zero_fill,
                    trapezoid_weights, unwrap)
from .group import GroupElement
# half-plane moduli are modulus_mixed(halfplane_space(...), r, s, f); the
# name stays importable from this module
from .moduli import RepresentationSpace, modulus_mixed, sobolev_space_norm  # noqa: F401
from .smoothing import hardy_steklov_generic
from .spectral import flat_skew, fourier_diff_matrix, skew

__all__ = [
    "HalfPlaneGrid",
    "HalfPlaneFunction",
    "lp_norm_2d",
    "act_2d",
    "generator_2d",
    "halfplane_space",
    "KroneckerLaplacian",
    "build_halfplane_laplacian",
    "expanded_laplacian_apply",
    "sobolev_graph_check",
    "log_gaussian_2d",
]

DENSE_CAP_2D = 4096


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Product of a log grid in x and a uniform grid in y."""

    xgrid: LogGrid = LogGrid(-6.0, 4.0, 48)
    y_min: float = -8.0
    y_max: float = 8.0
    n_y: int = 48

    def __post_init__(self):
        require_finite("y_min", self.y_min)
        require_finite("y_max", self.y_max)
        if not self.y_min < self.y_max:
            raise ValueError("y_min must be < y_max")
        if self.n_y < 16:
            raise ValueError("need at least 16 nodes in y")

    @property
    def h_y(self) -> float:
        return (self.y_max - self.y_min) / (self.n_y - 1)

    @cached_property
    def y(self) -> np.ndarray:
        nodes = np.linspace(self.y_min, self.y_max, self.n_y)
        nodes.flags.writeable = False
        return nodes

    def measure_weights(self, side: str, rule: str = "trapezoid") -> np.ndarray:
        """Quadrature-times-measure weights, shape (n_x, n_y).

        ``rule='uniform'`` skips the trapezoid endpoint halving; the dense
        operators use it so that constants along an axis stay exactly in
        the kernel of that axis derivative.
        """
        require_side(side)
        if rule == "trapezoid":
            wu = trapezoid_weights(self.xgrid.n, self.xgrid.h)
            wy = trapezoid_weights(self.n_y, self.h_y)
        elif rule == "uniform":
            wu = np.full(self.xgrid.n, self.xgrid.h)
            wy = np.full(self.n_y, self.h_y)
        else:
            raise ValueError("rule must be 'trapezoid' or 'uniform'")
        density = np.exp(-self.xgrid.u) if side == "left" else np.ones(self.xgrid.n)
        return np.outer(wu * density, wy)


@dataclass(frozen=True)
class HalfPlaneFunction:
    """Complex samples on a :class:`HalfPlaneGrid`, shape (n_x, n_y).

    ``values`` may also hold a stack of functions on the same grid: leading
    batch axes, with the grid on the two trailing axes.
    """

    grid: HalfPlaneGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _checked_samples(self.values, (self.grid.xgrid.n, self.grid.n_y)).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "HalfPlaneFunction":
        return HalfPlaneFunction(self.grid, values)

    def __sub__(self, other):
        if self.grid != other.grid:
            raise ValueError("functions live on different grids")
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar):
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__


def log_gaussian_2d(grid: HalfPlaneGrid, u0: float = -1.0, y0: float = 0.0,
                    su: float = 1.0, sy: float = 1.5) -> HalfPlaneFunction:
    """Separable log-Gaussian-times-Gaussian corpus member, unit left norm."""
    vals = np.outer(
        np.exp(-((grid.xgrid.u - u0) ** 2) / (2 * su ** 2)),
        np.exp(-((grid.y - y0) ** 2) / (2 * sy ** 2)),
    )
    f = HalfPlaneFunction(grid, vals)
    return f * (1.0 / lp_norm_2d(f, 2.0, "left"))


def lp_norm_2d(f, p: float, side: str, grid: HalfPlaneGrid | None = None) -> float | np.ndarray:
    """Weighted ``L^p`` norm, ``x^{-2} dx dy`` on the left and ``x^{-1} dx dy`` on the
    right; for a stack, an array of norms over its leading axes.

    ``f`` is a container, or bare values on ``grid``.
    """
    require_exponent(p)
    values, g, _ = unwrap(f, grid)
    w = g.measure_weights(side)
    return pth_root(np.sum(w * np.abs(values) ** p, axis=(-2, -1)), p)


def _natural_spline_coeffs(nodes: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Piecewise-polynomial coefficients, shape ``(4, n - 1) + vals.shape[1:]``, of the
    natural cubic spline through ``vals`` (axis 0) at ``nodes``.

    The layout and the arithmetic are those of scipy's
    ``CubicSpline(nodes, vals, axis=0, bc_type="natural").c``, so the result is
    bit-for-bit the same.  The slope system is diagonally dominant, so LAPACK's
    ``gtsv`` swaps no rows and divides real and imaginary parts by the same real
    pivot: the elimination below runs on a real view of the right-hand side.
    """
    y = np.asarray(vals, dtype=complex if np.iscomplexobj(vals) else float)
    n = y.shape[0]
    dx = np.diff(nodes)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    s = np.empty_like(y)
    s[0] = 3 * (y[1] - y[0])
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    s[-1] = 3 * (y[-1] - y[-2])
    diag = np.concatenate(([2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]]))
    upper = np.concatenate((dx[:1], dx[:-1]))
    lower = np.concatenate((dx[1:], dx[-1:]))
    rows = s.reshape(n, -1).view(float)
    for k in range(n - 1):
        m = lower[k] / diag[k]
        diag[k + 1] -= m * upper[k]
        rows[k + 1] -= m * rows[k]
    rows[-1] /= diag[-1]
    for k in range(n - 2, -1, -1):
        rows[k] = (rows[k] - upper[k] * rows[k + 1]) / diag[k]
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _resample(values: np.ndarray, nodes: np.ndarray, scale: float, offset, axis: int,
              step: float) -> np.ndarray:
    """Sample a stack at ``scale * node + offset`` along grid ``axis`` (-2 for u, -1 for y).

    ``offset`` is one number or one per line of the other grid axis.  A unit
    scale with one grid-multiple offset is an exact zero-fill shift.  Otherwise
    one natural cubic spline through every line of every member is evaluated
    in one gather, in scipy's own sum order; targets outside the window give 0.
    """
    if scale == 1.0 and np.ndim(offset) == 0:
        steps = grid_steps(offset, step)
        if steps is not None:
            return shift_zero_fill(values, steps, axis=axis)
    # contiguous, interpolated axis first; the stack, then the lines, follow it
    vals = np.ascontiguousarray(np.moveaxis(values, axis, 0))
    n, lines = vals.shape[0], vals.shape[-1]
    lead = (n,) + (1,) * (vals.ndim - 2) + (lines,)
    targets = np.broadcast_to(scale * nodes[:, None] + offset, (n, lines))
    inside = (targets >= nodes[0]) & (targets <= nodes[-1])
    # the interval scipy picks: nodes[i] <= target < nodes[i + 1], the last one closed
    idx = np.clip(np.searchsorted(nodes, targets, side="right") - 1, 0, n - 2)
    s = np.where(inside, targets - nodes[idx], 0.0).reshape(lead)
    # every sample's four coefficients in one gather, by flat (interval, line) cell
    width = vals[0].size
    cells = idx.reshape(lead) * width + np.arange(width).reshape(vals.shape[1:])
    coeffs = _natural_spline_coeffs(nodes, vals).reshape(4, -1)
    c = np.take(coeffs, cells, axis=1)
    out = np.where(inside.reshape(lead), c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s), 0)
    return np.moveaxis(out, 0, axis)


def _passes(f, grid: HalfPlaneGrid | None, side: str, du, a: float, b: float):
    """``f`` at ``u + du`` (no u pass for ``du = None``), then at ``a y + b`` on the left or
    ``y + b x`` per row on the right (no y pass there at ``b = 0``), each pass over the whole
    stack by :func:`_resample`; always new, an ndarray for bare values on ``grid``."""
    values, grid, wrap = unwrap(f, grid)
    out = values if du is None else _resample(values, grid.xgrid.u, 1.0, du, -2, grid.xgrid.h)
    if side == "left":
        out = _resample(out, grid.y, a, b, -1, grid.h_y)
    elif b != 0.0:
        out = _resample(out, grid.y, 1.0, b * grid.xgrid.x, -1, grid.h_y)
    return wrap(out.copy() if out is values else out)


def act_2d(g: GroupElement, f, side: str, grid: HalfPlaneGrid | None = None):
    """The left-regular ``f(ax, ay + b)`` and right-regular ``f(xa, xb + y)`` representations,
    isometries of their weighted norms: :func:`_passes` by ``(log a, a, b)``."""
    require_side(side)
    return _passes(f, grid, side, math.log(g.a), g.a, g.b)


def _du(values: np.ndarray, grid: HalfPlaneGrid) -> np.ndarray:
    return fd6(values, grid.xgrid.h, 1, axis=values.ndim - 2)


def _dy(values: np.ndarray, grid: HalfPlaneGrid) -> np.ndarray:
    return fd6(values, grid.h_y, 1, axis=values.ndim - 1)


def generator_2d(j: int, f, side: str, grid: HalfPlaneGrid | None = None):
    """Generators of the one-parameter subgroups, left ``x dx + y dy`` and ``dy``,
    right ``x dx`` and ``x dy``; 6th-order stencils in (u, y).

    A stack is differentiated along its two trailing (grid) axes.  ``f`` is
    a container, or bare values on ``grid``.
    """
    v, g, wrap = unwrap(f, grid)
    require_side(side)
    left = side == "left"
    if j == 1:
        return wrap(_du(v, g) + g.y[None, :] * _dy(v, g) if left else _du(v, g))
    if j == 2:
        return wrap(_dy(v, g) if left else g.xgrid.x[:, None] * _dy(v, g))
    require_direction(j)  # raises: j is neither 1 nor 2


def halfplane_space(grid: HalfPlaneGrid, side: str, p: float = 2.0) -> RepresentationSpace:
    """Representation interface for one of the regular representations.

    Its callables act on bare value arrays of shape ``(..., n_x, n_y)``.  ``act(1, t, v)``
    shifts u by ``t`` itself (and scales y by ``e^t`` on the left), or gives zeros when
    ``|t|`` passes the u-window length; ``act(2, t, v)`` makes only the side's y pass.  The
    Hardy-Steklov operator has no closed form here and is evaluated by Gauss panels against
    the explicit box-spline time density.  A bad ``side``, or an exponent ``p`` that is not
    finite or is below 1, is refused here, when the space is built.
    """
    require_side(side)
    require_exponent(p)

    def act(j, t, v):
        require_direction(j)
        require_finite("t", t)
        if j == 1 and abs(t) > grid.xgrid.u_max - grid.xgrid.u_min:
            # every target leaves the u-window; exp(t) itself may overflow
            return np.zeros_like(v)
        return _passes(v, grid, side, *((t, math.exp(t), 0.0) if j == 1 else (None, 1.0, t)))

    return RepresentationSpace(
        shape=(grid.xgrid.n, grid.n_y),
        norm=lambda v: lp_norm_2d(v, p, side, grid=grid),
        act=act,
        gen=lambda j, v: generator_2d(j, v, side, grid=grid),
        # exact steps exist for log-x shifts and for left y-shifts; the right
        # y-shift is interpolated, so its suprema are empirical rather than
        # certified
        steps=(grid.xgrid.h, grid.h_y if side == "left" else None),
        hardy=lambda r, s, v: hardy_steklov_generic(act, r, s, v),
    )


@dataclass
class KroneckerLaplacian:
    """``A = sum_g M_g^T M_g`` in flat coordinates, each ``M_g`` a sum of ``kron(B, C)``.

    Flat coordinates are ``phi = sqrt(w) * f`` on the (n_x, n_y) value
    array, where ``kron(B, C)`` acts as ``B @ phi @ C.T``; there ``A`` is
    real symmetric positive semidefinite.  ``lambda_min`` is its exact
    minimum eigenvalue, from the block reduction in
    :func:`build_halfplane_laplacian`.
    """

    weights: np.ndarray  # (n_x, n_y), quadrature times measure
    generators: tuple  # per skew-symmetrized generator, its (B, C) factor pairs
    lambda_min: float

    @property
    def eigenvectors(self) -> np.ndarray:
        """No eigenvectors are formed: an empty block of columns, so storage
        summed over operators counts zero here."""
        return np.empty((self.weights.size, 0))

    def _flat_apply(self, phi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(phi)
        for terms in self.generators:
            mphi = sum(B @ phi @ C.T for B, C in terms)
            out = out + sum(B.T @ mphi @ C for B, C in terms)
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``A f`` for an (n_x, n_y) value array."""
        sw = np.sqrt(self.weights)
        return self._flat_apply(sw * values) / sw

    def power_form(self, values: np.ndarray, m: int) -> float:
        """``<f, A^m f>`` in the weighted inner product, by ``m`` applications."""
        psi = np.sqrt(self.weights) * values
        for _ in range(m // 2):
            psi = self._flat_apply(psi)
        other = self._flat_apply(psi) if m % 2 else psi
        return float(np.real(np.vdot(psi, other)))

    def norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(values) ** 2)))


def build_halfplane_laplacian(grid: HalfPlaneGrid, side: str) -> KroneckerLaplacian:
    """Half-plane Laplacian ``D1* D1 + D2* D2``, kept as Kronecker factors on the two
    axes and applied axis by axis, with an exact ``lambda_min`` from a block
    reduction and no dense product-grid matrix.

    Generators are carried to flat coordinates (square root of the total
    weight) and antisymmetrized there, so the operator is exactly symmetric
    positive semidefinite.  The uniform-rule weights factor as
    ``w_u (x) w_y`` with constant ``w_y``, so with ``S_u`` the flat skew
    ``d_u`` and ``T = skew(Y D_y)`` the flat generators are

    * left:  ``M1 = S_u (x) I + I (x) T``, ``M2 = I (x) D_y``;
    * right: ``M1 = S_u (x) I``,           ``M2 = X (x) D_y``.

    ``lambda_min`` comes from a unitary block reduction (the fast diagonalization of
    Lynch, Rice and Thomas, Numer. Math. 6 (1964)): on the left, diagonalizing ``i S_u``
    (eigenvalues ``alpha_j``) leaves the blocks ``(alpha_j + i T)^2 + D_y^T D_y``; on the
    right, diagonalizing ``D_y^T D_y`` (eigenvalues ``mu_k``) leaves
    ``S_u^T S_u + mu_k X^2``.  Each block is built and diagonalized on its own and only
    the running minimum is kept, so no stack of blocks is held; the minimum has the bits
    of one ``eigvalsh`` over the whole stack.
    """
    if grid.xgrid.n * grid.n_y > DENSE_CAP_2D:
        raise ValueError(
            f"grid has {grid.xgrid.n * grid.n_y} points, half-plane operator cap is {DENSE_CAP_2D}"
        )
    w = grid.measure_weights(side, rule="uniform")
    nx, ny = grid.xgrid.n, grid.n_y
    # w_y is constant, so conjugating by sqrt(w) only rescales the u factors
    Su = flat_skew(fourier_diff_matrix(nx, grid.xgrid.h), np.sqrt(w[:, 0]))
    Dy = fourier_diff_matrix(ny, grid.h_y)
    DtD = Dy.T @ Dy
    Iu, Iy = np.eye(nx), np.eye(ny)
    lam = math.inf
    if side == "left":
        T = skew(grid.y[:, None] * Dy)
        generators = (((Su, Iy), (Iu, T)), ((Iu, Dy),))
        iT = 1j * T
        for alpha in np.linalg.eigvalsh(1j * Su):
            H = alpha * Iy + iT
            lam = min(lam, np.linalg.eigvalsh(H @ H + DtD)[0])
    else:
        X = np.diag(grid.xgrid.x)
        generators = (((Su, Iy),), ((X, Dy),))
        StS, XX = Su.T @ Su, X @ X
        for mu in np.linalg.eigvalsh(DtD):
            lam = min(lam, np.linalg.eigvalsh(StS + mu * XX)[0])
    return KroneckerLaplacian(weights=w, generators=generators, lambda_min=float(lam))


def expanded_laplacian_apply(f: HalfPlaneFunction, side: str) -> HalfPlaneFunction:
    """Stencil application of the expanded second-order forms (interior oracle).

    In the (u, y) variables the left Laplacian reads
    ``-d_uu - 2 y d_uy - y d_y - (1 + y^2) d_yy`` and the right one
    ``-d_uu - x^2 d_yy``.
    """
    require_side(side)
    g = f.grid
    duu = fd6(f.values, g.xgrid.h, 2, axis=0)
    dyy = fd6(f.values, g.h_y, 2, axis=1)
    if side == "right":
        return f.with_values(-duu - (g.xgrid.x ** 2)[:, None] * dyy)
    du = _du(f.values, g)
    duy = fd6(du, g.h_y, 1, axis=1)
    dy = _dy(f.values, g)
    y = g.y[None, :]
    return f.with_values(-duu - 2.0 * y * duy - y * dy - (1.0 + y ** 2) * dyy)


def sobolev_graph_check(f: HalfPlaneFunction, m: int, side: str, op: KroneckerLaplacian) -> dict:
    """Ratio between the order-m Sobolev norm and the graph norm ``||f|| +
    ||Delta^{m/2} f||``; the two norms are equivalent.

    ``op`` is the side's Laplacian, :func:`build_halfplane_laplacian`.
    """
    space = halfplane_space(f.grid, side, 2.0)
    sob = sobolev_space_norm(space, f, m)
    graph = op.norm(f.values) + math.sqrt(max(op.power_form(f.values, m), 0.0))
    return {
        "sobolev_norm": sob,
        "graph_norm": graph,
        "ratio": sob / max(graph, 1e-300),
        "inverse_ratio": graph / max(sob, 1e-300),
    }
