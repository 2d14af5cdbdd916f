"""Exact arithmetic of the affine group of the line.

Elements are pairs ``(a, b)`` with ``a > 0``, composing as
``(a, b)(c, d) = (a*c, a*d + b)``.  The two one-parameter subgroups are
dilations ``(e^t, 0)`` and translations ``(1, t)``; their tangent vectors
span a two-dimensional Lie algebra with bracket ``[X1, X2] = X2``.

Group elements are stored in ``(a, b)`` coordinates.  The 2x2 matrix
realization exists only as a test oracle (see :func:`to_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import require_finite, require_side

__all__ = [
    "GroupElement",
    "LieVector",
    "multiply",
    "inverse",
    "exp_map",
    "factor",
    "haar_weight",
    "bracket",
    "to_matrix",
    "lie_to_matrix",
]


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A point ``(a, b)`` of the affine group: ``a > 0`` and ``b``, both finite."""

    a: float
    b: float

    def __post_init__(self):
        require_finite("a", self.a)
        require_finite("b", self.b)
        if not self.a > 0:
            raise ValueError(f"dilation factor must be positive, got a={self.a}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)


@dataclass(frozen=True, slots=True)
class LieVector:
    """Coefficients ``x1*X1 + x2*X2`` in the Lie algebra basis."""

    x1: float
    x2: float


_SPLIT = 134217729.0  # 2^27 + 1


def _split(x):
    """Veltkamp's split ``x = hi + lo`` into halves of at most 26 bits."""
    hi = _SPLIT * x
    hi -= hi - x
    return hi, x - hi


def _compose(a, b, c, d):
    """The group law ``(a, b)(c, d) = (a*c, a*d + b)`` on floats or, elementwise, on arrays.

    ``a*d + b`` is rounded once, up to ``2^-53`` ulp: Dekker's TwoProduct and
    Knuth's TwoSum give it exactly as ``s + t + e`` (Ogita, Rump and Oishi,
    SISC 2005).  These are plain IEEE operations, so an array rounds exactly
    as the same elements one at a time.  Where the split overflows (inputs
    above about ``1e300``), ``e`` is not finite and the twice-rounded
    ``fl(a*d) + b`` is kept.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * d  # TwoProduct: p + e == a*d
        (ah, al), (dh, dl) = _split(a), _split(d)
        e = al * dl - (((p - ah * dh) - al * dh) - ah * dl)
        s = p + b  # TwoSum: s + t == p + b
        z = s - p
        t = (p - (s - z)) + (b - z)
        return a * c, np.where(np.isfinite(e), s + (t + e), s)


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group law of the affine group: the half-plane ``a > 0`` equipped with the group
    operation ``(a, b)(c, d) = (a*c, a*d + b)``, with ``a*d + b`` rounded once
    (see :func:`_compose`).

    Over the ``group`` suite's ranges (``a`` in ``[e^-3, e^3]``, ``|b| <= 10``)
    the two bracketings of a triple product then differ by at most about
    ``7.4e-13`` before their last rounding and lie below 8192, where one ulp
    is ``2^-40 = 9.1e-13``, so their rounded ``b`` parts differ by at most
    ``2^-40``.  The ``a`` parts of a triple product can still differ by two
    ulps above 4096.
    """
    a, b = _compose(g1.a, g1.b, g2.a, g2.b)
    return GroupElement(a, float(b))


def inverse(g: GroupElement) -> GroupElement:
    """Inverse ``(1/a, -b/a)``, so that ``g * inverse(g)`` is the identity ``(1, 0)``."""
    return GroupElement(1.0 / g.a, -g.b / g.a)


def exp_map(v: LieVector) -> GroupElement:
    """Exponential coordinates ``exp(x1*X1 + x2*X2) = (e^x1, x2*(e^x1 - 1)/x1)``,
    a coordinate system near the identity.

    The removable singularity at ``x1 = 0`` is handled by the stable form
    ``x2 * expm1(x1) / x1``, which returns the limit value ``(1, x2)``.
    """
    if v.x1 == 0.0:
        return GroupElement(1.0, v.x2)
    return GroupElement(math.exp(v.x1), v.x2 * math.expm1(v.x1) / v.x1)


def factor(g: GroupElement) -> tuple[float, float]:
    """Coordinates ``(t1, t2) = (ln a, b/a)``: every element is ``exp(t1*X1) exp(t2*X2)``."""
    return math.log(g.a), g.b / g.a


def haar_weight(g: GroupElement, side: str = "left") -> float:
    """Density of the Haar measure at ``g`` relative to ``da db``: ``a^-2`` for
    the left-invariant measure and, the group not being unimodular, ``a^-1``
    for the right-invariant one.
    """
    require_side(side)
    return g.a ** -2 if side == "left" else g.a ** -1


def bracket(v: LieVector, w: LieVector) -> LieVector:
    """Lie bracket; with ``[X1, X2] = X2`` it equals ``(0, x1*y2 - x2*y1)``."""
    return LieVector(0.0, v.x1 * w.x2 - v.x2 * w.x1)


def to_matrix(g: GroupElement) -> np.ndarray:
    """Matrix image ``[[a, b], [0, 1]]`` (test oracle only)."""
    return np.array([[g.a, g.b], [0.0, 1.0]])


def lie_to_matrix(v: LieVector) -> np.ndarray:
    """Matrix image ``[[x1, x2], [0, 0]]`` of a Lie algebra element."""
    return np.array([[v.x1, v.x2], [0.0, 0.0]])
