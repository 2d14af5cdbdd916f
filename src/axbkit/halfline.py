"""The half-line representation space and its one-parameter groups.

Functions live in ``X^p``, the Lebesgue space of ``f: (0, inf) -> C`` with
norm ``|| f(.) (.)^{-1/p} ||_p``, equivalently the ``L^p`` space of the
measure ``dx/x``.  The group acts by ``U(a, b) f(x) = e^{ib} f(a x)``, so
on the logarithmic grid the dilation subgroup is a shift in ``u = ln x``
(exact for shifts that are integer multiples of the grid step) and the
modulation subgroup is an exact pointwise multiplication.

``xp_norm``, ``shift_log``, ``act_modulation`` and ``generator`` also take a
stack of functions (leading batch axes, the grid on the trailing axis) and
act on every member with the same arithmetic as on one function.  Each has
two calling forms (see :func:`axbkit.grids.unwrap`): a
:class:`~axbkit.grids.HalfLineFunction` in gives a validated container out,
and bare complex values with ``grid=`` given give an unvalidated ndarray out.
The second form is the one :func:`axbkit.moduli.halfline_space` calls from
the representation interface, so the hot paths build no containers.  Both
forms reject a time ``t`` that is not finite, and :func:`xp_norm` an
exponent ``p`` that is not finite or is below 1.  The module keeps no table between
calls: the modulation symbols the supremum search reuses live on the
:class:`~axbkit.moduli.RepresentationSpace` that took them and go with it.
The module imports only :mod:`axbkit.grids` and :mod:`axbkit.group`; the Sobolev norms
and ``mixed_derivative`` live in :mod:`axbkit.moduli`, beside the space they use.

Generators: ``D1 = x d/dx`` (a plain ``d/du`` on the log grid) and
``D2 = i x`` (multiplication).  They satisfy ``[D1, D2] = D2``.
"""

from __future__ import annotations

import numpy as np

from .grids import (HalfLineFunction, LogGrid, _frequencies, fd6, fourier_multiplier, grid_steps,
                    pth_root, require_direction, require_exponent, require_finite,
                    shift_zero_fill, unwrap)
from .group import GroupElement

__all__ = [
    "xp_norm",
    "inner",
    "window_loss",
    "dilation_loss",
    "act",
    "act_dilation",
    "act_modulation",
    "shift_log",
    "generator",
]

def xp_norm(f, p: float = 2.0, grid: LogGrid | None = None) -> float | np.ndarray:
    """The norm ``||f(x) x^{-1/p}||_p`` of ``X^p``: trapezoid quadrature of
    ``|f|^p du`` in ``u = ln x``, to the power 1/p.

    A float for one function; for a stack, an array of norms over its
    leading axes.  ``f`` is a container, or bare values on ``grid``.

    At ``p = 2`` the samples are viewed as interleaved real and imaginary
    floats, squared, and each row is summed against the weights by one BLAS
    dot (``np.vecdot``), so a member of a stack gets the same bits as the
    same function on its own.
    """
    require_exponent(p)
    values, g, _ = unwrap(f, grid)
    if p == 2.0:
        flat = np.ascontiguousarray(values, dtype=complex).view(np.float64)
        return pth_root(np.vecdot(flat * flat, g.interleaved_weights), p)
    return pth_root(np.sum(g.weights * np.abs(values) ** p, axis=-1), p)


def inner(f: HalfLineFunction, g: HalfLineFunction) -> complex:
    """Inner product ``<f, g> = int_0^inf f conj(g) dx/x`` of ``X^2`` of two single functions,
    conjugate-linear in ``g``; a stack is rejected."""
    f._check_same_grid(g)
    f._check_one()
    g._check_one()
    return complex(np.sum(f.grid.weights * f.values * np.conj(g.values)))


def window_loss(f: HalfLineFunction) -> float:
    """Fraction of the squared norm of one function sitting on the outermost two nodes per side.

    A proxy for the mass the zero-extension policy would misplace under
    grid-size shifts; small values certify that the window resolves ``f``.
    """
    f._check_one()
    g = f.grid
    a2 = np.abs(f.values) ** 2
    edge = g.h * (0.5 * (a2[0] + a2[-1]) + a2[1] + a2[-2])
    total = np.sum(g.weights * a2)
    return float(edge / total) if total > 0 else 0.0


def shift_log(f, t: float, grid: LogGrid | None = None):
    """Translation ``f(u) -> f(u + t)`` in the log variable: a zero-filled shift on
    grid multiples, band-limited interpolation otherwise; a non-finite t is rejected.

    The interpolation is Whittaker-type on a window zero-padded on both
    sides (:func:`~axbkit.grids.fourier_multiplier`), spectrally accurate
    for the smooth decaying corpus.  ``f`` is a container, or bare values
    on ``grid``, one function or a stack.
    """
    require_finite("t", t)
    values, g, wrap = unwrap(f, grid)
    exact = grid_steps(t, g.h)
    if exact is not None:
        return wrap(shift_zero_fill(values, exact, axis=-1))
    pad = int(np.ceil(abs(t / g.h))) + 8
    xi = _frequencies(values.shape[-1] + 2 * pad, g.h)
    return wrap(fourier_multiplier(values, np.exp(1j * xi * t), pad))


def dilation_loss(f: HalfLineFunction, t: float) -> float:
    """Squared-norm deficit of the windowed shift by ``t``: ``||f||^2 - ||T1(t)f||^2``."""
    return xp_norm(f) ** 2 - xp_norm(shift_log(f, t)) ** 2


def act(g: GroupElement, f: HalfLineFunction) -> HalfLineFunction:
    """The representation ``U(a, b) f(x) = e^{ibx} f(a x)``, unitary on ``X^2``.

    Equivalently ``U(g) = U2(b) U1(ln a)``, matching the factorization
    ``(a, b) = (1, b)(a, 0)``; this is the unique phase assignment that
    makes ``U`` a homomorphism with the stated one-parameter subgroups.
    """
    return act_modulation(g.b, shift_log(f, np.log(g.a)))


def act_dilation(t: float, f: HalfLineFunction) -> HalfLineFunction:
    """One-parameter group ``U1(t) f(x) = f(e^t x)``, a log-shift."""
    return shift_log(f, t)


def act_modulation(t: float, f, grid: LogGrid | None = None):
    """One-parameter group ``U2(t) f(x) = e^{itx} f(x)``, exact for every finite t.

    ``f`` is a container, or bare values on ``grid``.  The phase is computed
    afresh on every call and nothing is kept: the supremum search takes each
    phase once, on the constant function, and keeps it on its
    :class:`~axbkit.moduli.RepresentationSpace` (see :mod:`axbkit.moduli`).
    """
    require_finite("t", t)
    values, g, wrap = unwrap(f, grid)
    return wrap(np.exp(1j * float(t) * g.x) * values)


def generator(j: int, f, grid: LogGrid | None = None):
    """Infinitesimal generators ``D1 = x d/dx`` and ``D2 = i x`` of the two
    one-parameter groups; they span a Lie algebra with ``[D1, D2] = D2``.

    On the log grid ``x d/dx`` is a plain ``d/du``, taken with the
    6th-order central stencil and zero extension, which stays robust for
    samples that do not vanish at the window edge.  ``f`` is a container,
    or bare values on ``grid``.
    """
    values, g, wrap = unwrap(f, grid)
    if j == 1:
        return wrap(fd6(values, g.h, axis=values.ndim - 1))
    if j == 2:
        return wrap(1j * g.x * values)
    require_direction(j)  # raises: j is neither 1 nor 2
