"""Discretization grids and the sampled-function containers.

The half-line carries the measure ``dx/x``, which becomes the uniform
measure ``du`` under ``u = ln x``.  All half-line data lives on a uniform
grid in ``u``; quadrature is trapezoidal in ``u``.  Values outside the
window are treated as zero, and the boundary-mass diagnostic
:func:`axbkit.halfline.window_loss` quantifies what that truncation costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

__all__ = [
    "LogGrid",
    "SpectralGrid",
    "HalfLineFunction",
    "trapezoid_weights",
    "fd6",
    "fourier_multiplier",
    "grid_steps",
    "shift_zero_fill",
    "pth_root",
    "require_finite",
    "require_exponent",
    "require_integer",
    "require_direction",
    "require_side",
    "require_scale",
    "require_scales",
    "unwrap",
]

#: 6th-order central stencils, offsets -3..3, for the first and second derivative
_FD6_D1 = np.array([-1.0 / 60, 3.0 / 20, -3.0 / 4, 0.0, 3.0 / 4, -3.0 / 20, 1.0 / 60])
_FD6_D2 = np.array([1.0 / 90, -3.0 / 20, 3.0 / 2, -49.0 / 18, 3.0 / 2, -3.0 / 20, 1.0 / 90])

#: tolerance, in grid steps, for treating a shift as an exact grid multiple
_SNAP = 1e-9


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Trapezoid-rule weights for ``n`` nodes a distance ``step`` apart."""
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def fd6(values: np.ndarray, h: float, order: int = 1, axis: int = 0) -> np.ndarray:
    """Derivative of order 1 or 2 along ``axis`` by the 6th-order central stencil.

    Samples outside the array count as zero.  The result has the dtype of
    ``values`` promoted with float64, so real input stays real.  The stencil
    runs along the last axis of a zero-padded copy, so along the last axis
    the result comes back C-contiguous.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    stencil = _FD6_D1 if order == 1 else _FD6_D2
    vals = np.moveaxis(values, axis, -1)
    n = vals.shape[-1]
    padded = np.zeros(vals.shape[:-1] + (n + 6,), dtype=np.result_type(vals, stencil))
    padded[..., 3 : n + 3] = vals
    out = np.zeros(vals.shape, dtype=padded.dtype)
    term = np.empty_like(out)  # one scratch array for every stencil term
    for k, c in enumerate(stencil):
        if c != 0.0:
            out += np.multiply(c, padded[..., k : k + n], out=term)
    out /= h ** order
    return np.moveaxis(out, -1, axis)


def fourier_multiplier(values: np.ndarray, factors: np.ndarray, left: int) -> np.ndarray:
    """Fourier multiplier along the last axis of a stack, by its ``factors``.

    The samples are zero-padded to the length of ``factors``, ``left`` nodes
    before them and the rest after, so the periodic transform does not wrap a
    kernel of that reach into the window; ``factors`` holds the symbol at the
    angular frequencies of the padded axis (:func:`_frequencies`).
    """
    n = values.shape[-1]
    buf = np.zeros(values.shape[:-1] + factors.shape, dtype=complex)
    buf[..., left : left + n] = values
    return np.fft.ifft(np.fft.fft(buf) * factors)[..., left : left + n]


def _frequencies(npad: int, h: float) -> np.ndarray:
    """The angular frequencies ``2 pi fftfreq(npad, h)`` of an ``npad``-node axis, step ``h``."""
    return 2.0 * np.pi * np.fft.fftfreq(npad, d=h)


def grid_steps(t: float, h: float) -> int | None:
    """``t / h`` as an integer when ``t`` is a grid multiple of ``h``, else ``None``."""
    steps = t / h
    nearest = round(steps)
    return int(nearest) if abs(steps - nearest) < _SNAP else None


def shift_zero_fill(values: np.ndarray, steps: int, axis: int = 0) -> np.ndarray:
    """``out[i] = values[i + steps]`` along ``axis``, zero where ``i + steps`` is outside.

    A negative ``axis`` counts from the last, as in numpy; one out of range raises.
    """
    axis = normalize_axis_index(axis, values.ndim)
    n = values.shape[axis]
    if abs(steps) >= n:
        return np.zeros_like(values)
    # one write per entry: the kept part is copied and only the vacated end is zeroed
    out = np.empty_like(values)
    lead = (slice(None),) * axis
    if steps >= 0:
        out[lead + (slice(0, n - steps),)] = values[lead + (slice(steps, None),)]
        out[lead + (slice(n - steps, None),)] = 0
    else:
        out[lead + (slice(-steps, None),)] = values[lead + (slice(0, n + steps),)]
        out[lead + (slice(0, -steps),)] = 0
    return out


def pth_root(sums, p: float):
    """``sums ** (1/p)``: a float for one sum, an array of the same shape for several.

    One array power over all of them, so a single sum (taken as a 0-d array)
    rounds as each entry of a stack does; at ``p = 2`` numpy computes it as
    ``sqrt``.
    """
    root = np.asarray(sums) ** (1.0 / p)
    return float(root) if root.ndim == 0 else root


def require_finite(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming the parameter unless the number ``value`` is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def require_exponent(p: float) -> None:
    """Raise a ``ValueError`` naming ``p`` unless the norm exponent is finite and ``>= 1``.

    ``inf`` is refused, not read as the sup norm: the root ``sums ** (1/p)``
    of the ``l^p`` formula would be ``sums ** 0``, 1.0 for every function.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be finite and >= 1, got {p}")


def require_integer(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise a ``ValueError`` naming the parameter unless ``value`` is an ``int`` or numpy
    integer, not a ``bool``, from ``lo`` up to ``hi`` (no upper bound when ``None``)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and lo <= value and (hi is None or value <= hi)):
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}" if hi is None else
                         f"{name} must be in [{lo}, {hi}] and an integer, got {value!r}")


def require_direction(j) -> None:
    """Raise a ``ValueError`` unless the direction ``j`` is 1 (dilations) or 2 (translations)."""
    if j not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {j!r}")


def require_side(side) -> None:
    """Raise a ``ValueError`` unless ``side`` names a regular representation."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _sign_rule(positive: bool) -> str:
    """The text of the scale rule: finite and positive, or finite and nonnegative."""
    return "must be finite and positive" if positive else "must be finite and nonnegative"


def require_scale(name: str, value, positive: bool = False) -> None:
    """Raise a ``ValueError`` naming the parameter unless the number ``value`` (a scale, band,
    time or spectral parameter) is finite and nonnegative, or with ``positive`` positive."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} {_sign_rule(positive)}, got {value!r}")


def require_scales(name: str, s, positive: bool = False) -> np.ndarray:
    """The scales ``s``, one number or a 1-D ladder, as a float array, each kept to the rule
    of :func:`require_scale`; anything else raises a ``ValueError`` naming the parameter."""
    scales = np.asarray(s, dtype=float)
    ok = np.isfinite(scales) & ((scales > 0) if positive else (scales >= 0))
    if scales.ndim > 1 or not ok.all():
        raise ValueError(f"{name} {_sign_rule(positive)} (one scale or a 1-D ladder), got {s!r}")
    return scales


def _require_same_grid(f, g) -> None:
    """Raise a ``ValueError`` unless the two containers ``f`` and ``g`` live on one grid."""
    if f.grid != g.grid:
        raise ValueError("functions live on different grids")


def _worst(values, reduce=np.max) -> float:
    """The worst of several values (by ``reduce``), NaN when any is NaN; none at all raises.

    Python's ``max`` drops a NaN that is not its first argument.
    """
    if not len(values):
        raise ValueError("no values to reduce")
    return float(reduce(values))


def _require_one(values: np.ndarray, ndim: int = 1) -> None:
    """Raise a ``ValueError`` unless ``values`` hold one function of ``ndim`` grid axes, not a
    stack."""
    if values.ndim != ndim:
        raise ValueError(f"takes one function, got a stack of shape {values.shape}")


def _checked_samples(values, shape: tuple) -> np.ndarray:
    """``values`` as a complex array, checked to end in the grid ``shape`` and be finite.

    Leading axes index a stack; an ``(n, 1)`` array on an n-point grid is
    rejected, not broadcast.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.shape[-len(shape):] != shape:
        raise ValueError(f"values shape {vals.shape} does not end in the grid size {shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return vals


def unwrap(f, grid=None):
    """``(values, grid, wrap)`` for the two calling forms of a grid operation.

    A container ``f`` (``grid=None``) gives its validated values, its grid and
    ``f.with_values``, so the result is a container, validated again.  Bare
    values with ``grid`` given come back as they are, and ``wrap`` only makes
    the result C-contiguous, as a container stores it (reductions over a
    strided view can round differently): the result is an unvalidated ndarray.
    """
    if grid is not None:
        return f, grid, np.ascontiguousarray
    if isinstance(f, np.ndarray):
        raise TypeError("bare values need the grid they live on: pass grid=")
    return f.values, f.grid, f.with_values


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in ``u = ln x`` covering ``[u_min, u_max]`` with n nodes."""

    u_min: float = -12.0
    u_max: float = 6.0
    n: int = 512

    def __post_init__(self):
        require_finite("u_min", self.u_min)
        require_finite("u_max", self.u_max)
        if not self.u_min < self.u_max:
            raise ValueError("u_min must be < u_max")
        require_integer("n", self.n, 16)

    @property
    def h(self) -> float:
        return (self.u_max - self.u_min) / (self.n - 1)

    @cached_property
    def u(self) -> np.ndarray:
        nodes = np.linspace(self.u_min, self.u_max, self.n)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def x(self) -> np.ndarray:
        nodes = np.exp(self.u)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights for integrals in the u variable (measure dx/x)."""
        w = trapezoid_weights(self.n, self.h)
        w.flags.writeable = False
        return w

    @cached_property
    def interleaved_weights(self) -> np.ndarray:
        """:attr:`weights` with each entry twice, for complex samples viewed as
        interleaved ``(real, imaginary)`` floats."""
        w = np.repeat(self.weights, 2)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid of the spectral parameter ``tau`` on ``[0, tau_max]``.

    The Laplacian corresponds to ``lambda = tau**2``, so ``tau`` carries
    the scale of the square root of the operator.

    Each instance carries the kernel tables :func:`axbkit.spectral.kernel_table` builds
    for it, keyed by :class:`LogGrid`; they take no part in equality or hashing, and
    go when the instance does.
    """

    tau_max: float = 12.0
    m: int = 400
    _kernel_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_scale("tau_max", self.tau_max, positive=True)
        require_integer("m", self.m, 32)

    @property
    def step(self) -> float:
        return self.tau_max / (self.m - 1)

    @cached_property
    def tau(self) -> np.ndarray:
        nodes = np.linspace(0.0, self.tau_max, self.m)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def weights(self) -> np.ndarray:
        w = trapezoid_weights(self.m, self.step)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class HalfLineFunction:
    """Complex samples of a function on the half-line over a :class:`LogGrid`.

    ``values`` may also hold a stack of functions on the same grid: leading
    batch axes, with the grid on the trailing axis.
    """

    grid: LogGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _checked_samples(self.values, (self.grid.n,)).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "HalfLineFunction":
        return HalfLineFunction(self.grid, values)

    def __add__(self, other: "HalfLineFunction") -> "HalfLineFunction":
        _require_same_grid(self, other)
        return HalfLineFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "HalfLineFunction") -> "HalfLineFunction":
        _require_same_grid(self, other)
        return HalfLineFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "HalfLineFunction":
        return HalfLineFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check_one(self):
        """Raise unless this holds one function, not a stack."""
        _require_one(self.values)
