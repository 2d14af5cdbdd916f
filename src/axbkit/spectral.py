"""Spectral calculus for the Mellin harmonic oscillator.

The Laplacian of the half-line representation is
``Delta = -(x d/dx)^2 + x^2``, a Schroedinger operator ``-d^2/du^2 + e^{2u}``
in the log variable.  Two independent realizations of ``F(Delta)`` are
provided:

* a kernel-transform backend built on the Macdonald functions
  ``K_{i tau}(x)``, which diagonalize the operator with ``lambda = tau^2``;
* a dense Hermitian matrix discretization with its full eigensystem,
  which serves as the ground-truth oracle.

:func:`apply_multiplier` enters either one: the object passed picks the backend.  The
eigenbasis refuses a :class:`HalfLineFunction` from another grid rather than expand it.

The matrix uses Fourier spectral differentiation on the periodically
extended window, antisymmetrized to exact skew symmetry, so the assembled
operator ``D^T D + diag(x^2)`` is positive semidefinite by construction.

The kernel transform pair is

``F(tau) = integral K_{i tau}(x) f(x) dx/x``,
``f(x)   = c * integral tau sinh(pi tau) K_{i tau}(x) F(tau) dtau``.

The inversion constant ``c`` is not hard-coded blindly: the analytically
expected value ``2/pi^2`` ships as the default, and
:func:`estimate_kl_constant` re-derives it by least squares against the
identity on a corpus (the two agree to 12+ digits at desk scale; the
matrix oracle arbitrates).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .grids import HalfLineFunction, LogGrid, SpectralGrid, trapezoid_weights
from .halfline import _phase, inner, xp_norm
from .moduli import _candidates
from .smoothing import _hardy_factors

__all__ = [
    "KL_CONSTANT",
    "KERNEL_NYQUIST",
    "Spectrum",
    "DiscreteOperator",
    "UnresolvedSpectrumWarning",
    "macdonald_kernel",
    "kernel_table",
    "kl_forward",
    "kl_inverse",
    "kernel_leakage",
    "estimate_kl_constant",
    "skew",
    "flat_skew",
    "fourier_diff_matrix",
    "build_matrix_laplacian",
    "apply_multiplier",
    "spectral_measure",
    "clear_caches",
]

#: analytically expected Kontorovich-Lebedev inversion constant
KL_CONSTANT = 2.0 / np.pi ** 2

#: truncation and node count of the kernel quadrature in t
_KERNEL_T_MAX = 18.0
_KERNEL_N_T = 720

#: the Nyquist frequency ``pi / dt`` of the kernel quadrature's step in t (about 125.49):
#: above it a ``tau`` reads the table of its alias ``2 pi / dt - tau``
KERNEL_NYQUIST = np.pi * (_KERNEL_N_T - 1) / _KERNEL_T_MAX

#: dense eigensolver size cap
DENSE_CAP = 2048

#: identity columns transformed at once by :func:`fourier_diff_matrix`, and the fewest ``x``
#: nodes whose quadrature decay :func:`macdonald_kernel` tables at once (the last block takes
#: the remainder too): each block's temporaries stay well below the ``(n, n)`` matrix or the
#: ``(m, len(x))`` table being filled.  A shorter last block would change bits: on one thread,
#: OpenBLAS 0.3.31 (Haswell kernels) rounds the last ``len(x) % 8`` columns of a product with
#: fewer than about 200 of them differently from those of a longer one.
_FFT_BLOCK = 64
_KERNEL_X_BLOCK = 256

#: energy fraction above the resolved band that triggers a flag
UNRESOLVED_FRACTION = 1e-3


class UnresolvedSpectrumWarning(UserWarning):
    """Input has significant energy above the resolved spectral band."""


@dataclass(frozen=True)
class Spectrum:
    """Coefficients against the diagonalizing kernel family on a tau grid."""

    sgrid: SpectralGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.sgrid.m,):
            raise ValueError("coefficient length does not match spectral grid")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def macdonald_kernel(tau, x, per_tau: bool = False):
    """Macdonald function ``K_{i tau}(x) = int_0^inf exp(-x cosh t) cos(tau t) dt``,
    the generalized eigenfunction of the Laplacian with eigenvalue ``tau^2``.

    Trapezoid quadrature with 720 nodes on ``[0, t_max]``; the integrand is
    even in t and entire, so the rule converges superalgebraically.
    ``t_max = 18`` puts ``exp(-x cosh t_max) < 1e-16`` for every ``x`` down
    to ``3e-8``.

    Accepts scalars or arrays; with array-valued ``tau`` and ``x`` the
    result has shape ``(len(tau), len(x))``.  The decay ``exp(-x cosh t)`` is
    tabled for a block of ``x`` nodes at a time, so no ``(len(x), 720)`` table is
    held; on one BLAS thread each entry has the bits of one product over all of ``x``.
    The decay table is shared by every ``tau``; with ``per_tau`` each ``tau`` takes its
    own product per block, so row i has the bits of ``macdonald_kernel(tau[i], x)``
    (one product over all ``tau`` rounds its rows differently).
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ValueError("x must be positive")
    t = np.linspace(0.0, _KERNEL_T_MAX, _KERNEL_N_T)
    wt = trapezoid_weights(_KERNEL_N_T, t[1] - t[0])
    cos_wt = np.cos(np.outer(tau_arr, t)) * wt
    neg_cosh = -np.cosh(t)
    n_blocks = max(x_arr.size // _KERNEL_X_BLOCK, 1)
    edges = [i * _KERNEL_X_BLOCK for i in range(n_blocks)] + [x_arr.size]
    rows = [slice(i, i + 1) for i in range(tau_arr.size)] if per_tau else [slice(None)]
    table = np.empty((tau_arr.size, x_arr.size))
    decay = np.empty((edges[-1] - edges[-2], _KERNEL_N_T))
    with np.errstate(under="ignore"):
        for a, b in zip(edges[:-1], edges[1:]):
            block = decay[:b - a]
            np.multiply(x_arr[a:b, None], neg_cosh, out=block)
            np.exp(block, out=block)
            for row in rows:
                table[row, a:b] = cos_wt[row] @ block.T
    if np.isscalar(tau) and np.isscalar(x):
        return float(table[0, 0])
    if np.isscalar(tau):
        return table[0]
    if np.isscalar(x):
        return table[:, 0]
    return table


@cache
def kernel_table(grid: LogGrid, sgrid: SpectralGrid) -> np.ndarray:
    """Precomputed ``K_{i tau_k}(x_i)`` table of shape (m, n), read-only, cached per pair."""
    table = macdonald_kernel(sgrid.tau, grid.x)
    table.flags.writeable = False
    return table


def kl_forward(f: HalfLineFunction, sgrid: SpectralGrid) -> Spectrum:
    """Forward kernel transform ``F(tau) = int K_{i tau}(x) f(x) dx/x``, diagonalizing Delta,
    of one function: the transform is not stacked.  It runs in real arithmetic, the
    samples' real and imaginary parts through the real kernel table in turn."""
    if f.values.shape != (f.grid.n,):
        raise ValueError(f"kl_forward: the kernel transform takes one function of {f.grid.n} "
                         f"samples, got shape {f.values.shape}")
    table = kernel_table(f.grid, sgrid)
    return Spectrum(sgrid, _real_matvec(table, f.grid.weights * f.values))


def kl_inverse(spec: Spectrum, grid: LogGrid, constant: float = KL_CONSTANT) -> HalfLineFunction:
    """Inverse transform with weight ``c * tau * sinh(pi tau)``; ``c`` defaults to
    the analytic ``2/pi^2``, which :func:`estimate_kl_constant` re-derives.  Like
    :func:`kl_forward` it runs in real arithmetic on the real kernel table.
    """
    table = kernel_table(grid, spec.sgrid)
    sg = spec.sgrid
    weight = constant * sg.weights * sg.tau * np.sinh(np.pi * sg.tau)
    return HalfLineFunction(grid, _real_matvec(table.T, weight * spec.coeffs))


def kernel_leakage(f: HalfLineFunction, spec: Spectrum) -> float:
    """Fraction of ``||f||^2`` not captured by the resolved tau band, from the forward
    transform ``spec`` of ``f`` that the caller holds.

    Computed as the relative defect of the transform-side Parseval sum;
    values above :data:`UNRESOLVED_FRACTION` mean the band is too short
    (or the quadrature too coarse) for this input.
    """
    f._check_one()
    sg = spec.sgrid
    captured = KL_CONSTANT * np.sum(
        sg.weights * sg.tau * np.sinh(np.pi * sg.tau) * np.abs(spec.coeffs) ** 2
    )
    total = xp_norm(f) ** 2
    if total == 0.0:
        return 0.0
    return float(abs(total - captured) / total)


def estimate_kl_constant(sgrid: SpectralGrid, corpus) -> float:
    """Least-squares fit of the inversion constant on a corpus.

    Minimizes ``sum_i || c * R f_i - f_i ||^2`` where ``R`` is the raw
    inverse-after-forward map with unit constant, each member on its own grid.
    Intended to be run once per discretization and compared against :data:`KL_CONSTANT`.
    """
    num = 0.0
    den = 0.0
    for f in corpus:
        raw = kl_inverse(kl_forward(f, sgrid), f.grid, constant=1.0)
        num += inner(raw, f).real
        den += float(np.real(np.sum(f.grid.weights * np.abs(raw.values) ** 2)))
    if den == 0.0:
        raise ValueError("corpus carries no energy")
    return num / den


def fourier_diff_matrix(n: int, h: float) -> np.ndarray:
    """Spectral d/du matrix on the periodic window, exactly antisymmetric.

    The Nyquist mode is zeroed so the matrix is real; antisymmetrization
    removes roundoff asymmetry.  The columns are the transforms of the identity's
    columns, a block at a time into one real matrix: each column's transform is
    independent of the others, so no complex ``(n, n)`` array is needed.
    """
    length = n * h
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    ik = (1j * 2.0 * np.pi / length * k)[:, None]
    D = np.empty((n, n))
    for j in range(0, n, _FFT_BLOCK):
        cols = np.eye(n, min(_FFT_BLOCK, n - j), -j)
        D[:, j:j + cols.shape[1]] = np.fft.ifft(ik * np.fft.fft(cols, axis=0), axis=0).real
    return skew(D)


def skew(M: np.ndarray) -> np.ndarray:
    """The antisymmetric part ``(M - M^T) / 2``."""
    return 0.5 * (M - M.T)


def flat_skew(D: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """``D`` carried to flat coordinates ``phi = sw * f``, then antisymmetrized."""
    return skew((sw[:, None] * D) / sw[None, :])


def _real_matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for a real matrix ``M``; a complex ``x`` goes through two real
    products, so ``M`` is never copied to complex, and a real ``x`` stays real."""
    if np.iscomplexobj(x):
        return (M @ x.real) + 1j * (M @ x.imag)
    return M @ x


@dataclass
class DiscreteOperator:
    """Hermitian discretization of a Laplacian with its full eigensystem.

    The operator is stored in "flat" coordinates ``phi = sqrt(w) * f``,
    where ``w`` collects quadrature and measure weights; there the matrix
    is real symmetric and its eigenvectors are plainly orthonormal, so the
    discrete Parseval identity ``sum |<f, v_k>|^2 = ||f||^2`` is exact in
    the weighted norm.  The eigen-expansion runs in real arithmetic: a
    complex vector is transformed as its real and imaginary parts.  Each method takes
    one function ``(n,)``, by matrix-vector products, or a stack ``(k, n)``, by matrix
    products, which round each member within about 1e-15 of its own matrix-vector product.

    The operator keeps only its eigensystem; :attr:`matrix` re-assembles the matrix
    from ``grid`` on each read, bit for bit the one that was diagonalized.
    """

    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal in flat coordinates
    grid: LogGrid
    sqrt_w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.sqrt_w = np.sqrt(self.weights)

    @property
    def matrix(self) -> np.ndarray:
        """The assembled flat-coordinate matrix, re-assembled on each read."""
        return _assemble(self.grid)

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Eigen-coefficients ``<f, v_k>`` in the weighted inner product."""
        x = self.sqrt_w * self._shaped("values", values)
        return _real_matvec(self.eigenvectors.T, x.T).T

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        """The function whose eigen-coefficients are ``coeffs``; the inverse of :meth:`coeffs`."""
        return _real_matvec(self.eigenvectors, self._shaped("coeffs", coeffs).T).T / self.sqrt_w

    def _shaped(self, what: str, x):
        """The samples of ``x``, checked to be one function ``(n,)`` or a stack ``(k, n)``:
        any other shape, ``(n, 1)`` for one, would broadcast into a wrong product.  A
        :class:`HalfLineFunction` gives its values and must live on :attr:`grid`."""
        if isinstance(x, HalfLineFunction):
            if x.grid != self.grid:
                raise ValueError(f"{what}: the function lives on {x.grid}, the operator "
                                 f"on {self.grid}")
            x = x.values
        n = self.sqrt_w.size
        if np.ndim(x) not in (1, 2) or np.shape(x)[-1:] != (n,):
            raise ValueError(f"{what}: the eigenbasis takes one function of {n} samples or a "
                             f"(k, {n}) stack, got shape {np.shape(x)}")
        return x

    def apply_fn(self, F, values: np.ndarray) -> np.ndarray:
        """Functional calculus ``F(Delta) f`` via the eigen-expansion."""
        c = self.coeffs(values)
        return self.synth(np.asarray(F(self.eigenvalues)) * c)

    def spectral_weights(self, values: np.ndarray) -> np.ndarray:
        return np.abs(self.coeffs(values)) ** 2

    def norm(self, values: np.ndarray) -> float | np.ndarray:
        out = np.sqrt(np.sum(self.weights * np.abs(self._shaped("values", values)) ** 2, axis=-1))
        return out if out.ndim else float(out)

    def hermitian_residual(self) -> float:
        """Relative reassembly residual ``||V L V^T - M|| / ||M||`` (oracle check)."""
        A = self.matrix
        re = self.eigenvectors @ (self.eigenvalues[:, None] * self.eigenvectors.T)
        return float(np.linalg.norm(re - A) / np.linalg.norm(A))


def _assemble(grid: LogGrid) -> np.ndarray:
    """The flat-coordinate matrix ``D^T D + diag(x^2)``, symmetrized, built in place so
    that only ``A`` outlives the assembly.  Adding ``x^2`` to the diagonal alone has the
    bits of adding ``diag(x^2)``: its off-diagonal zeros would change only a ``-0.0``,
    and ``D^T D`` has none, its columns sharing nonzero rows."""
    D_flat = flat_skew(fourier_diff_matrix(grid.n, grid.h), np.sqrt(grid.weights))
    A = D_flat.T @ D_flat
    del D_flat
    A.flat[::grid.n + 1] += grid.x ** 2
    A += A.T
    A *= 0.5
    return A


@cache
def build_matrix_laplacian(grid: LogGrid) -> DiscreteOperator:
    """Dense eigendecomposition of the Laplacian ``Delta = -(x d/dx)^2 + x^2``, the
    brute-force spectral oracle: ``-D_u^2 + diag(x^2)`` on the log grid.

    ``D_u`` is the antisymmetrized Fourier differentiation matrix carried
    to flat coordinates, so the assembly ``D^T D + diag(x^2)`` is
    symmetric positive semidefinite by construction.  The assembled matrix is
    dropped once diagonalized.
    """
    if grid.n > DENSE_CAP:
        raise ValueError(f"grid size {grid.n} exceeds dense eigensolver cap {DENSE_CAP}")
    lam, V = np.linalg.eigh(_assemble(grid))
    return DiscreteOperator(
        weights=grid.weights.copy(),
        eigenvalues=lam,
        # column-major, as LAPACK returns it: numpy hands back a row-major copy,
        # on which the coeffs/synth matvecs of a cold oracles run were slower
        eigenvectors=np.asfortranarray(V),
        grid=grid,
    )


def apply_multiplier(F, f: HalfLineFunction,
                     op: DiscreteOperator | SpectralGrid) -> HalfLineFunction:
    """Functional calculus ``F(Delta) f`` for a scalar map ``F`` on ``lambda >= 0``, by
    the backend passed as ``op``: the eigen-expansion of a :class:`DiscreteOperator`, for an
    ``f`` on its grid, or the kernel transform on a :class:`SpectralGrid` (``lambda = tau^2``),
    which warns with :class:`UnresolvedSpectrumWarning` when ``f`` leaks past the band."""
    if isinstance(op, DiscreteOperator):
        return f.with_values(op.apply_fn(F, f))
    if not isinstance(op, SpectralGrid):
        raise TypeError("op: must be a DiscreteOperator or a SpectralGrid, "
                        f"got {type(op).__name__}")
    spec = kl_forward(f, op)
    leak = kernel_leakage(f, spec)
    if leak > UNRESOLVED_FRACTION:
        warnings.warn(f"input has {leak:.2e} relative energy outside the resolved band",
                      UnresolvedSpectrumWarning, stacklevel=2)
    filtered = Spectrum(op, np.asarray(F(op.tau ** 2)) * spec.coeffs)
    return kl_inverse(filtered, f.grid)


def spectral_measure(f: HalfLineFunction, op: DiscreteOperator):
    """Spectral measure of f, ``(lambda_k, |<f, v_k>|^2)``; the weights sum to ``||f||^2``."""
    return op.eigenvalues, op.spectral_weights(f)


def clear_caches():
    """Empty the kernel-table and Laplacian caches, the modulation phase table, the
    candidate-step table and the Hardy-Steklov factor table."""
    kernel_table.cache_clear()
    build_matrix_laplacian.cache_clear()
    _phase.cache_clear()
    _candidates.cache_clear()
    _hardy_factors.cache_clear()
