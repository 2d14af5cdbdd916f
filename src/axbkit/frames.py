"""Dyadic spectral partitions, band frames, and band-side Besov norms.

Partition of unity: a smooth non-increasing cutoff g with g = 1 on [0, 1]
and g = 0 beyond 2 generates ``h(lam) = g(lam) - g(2 lam)`` supported in
[1/2, 2], and the telescoping family ``Q_0 = g``, ``Q_j = h(2^{-j} lam)``
with partial sums ``sum_{j<=J} Q_j(lam) = g(2^{-J} lam)``.  Applied through
the functional calculus this yields the Littlewood-Paley decomposition
``f = sum_j Q_j(Delta) f`` with the exact energy identity
``sum_j ||F_j(Delta) f||^2 = ||f||^2`` where ``F_j = sqrt(Q_j)``.

Band conventions.  The decomposition above is dyadic in the eigenvalue
``lambda`` of Delta.  Everything Besov-flavored in this module is instead
indexed dyadically in ``tau = sqrt(lambda)`` (the scale of Delta^{1/2}),
because the best-approximation scale, the Bernstein bound, and the
K-functional scale all live on the tau axis; mixing the two conventions
silently doubles exponents.  Every report states its convention.

Frames.  Band j collects the discrete eigenvectors with
``tau in [2^j, 2^{j+1})`` (band 0 takes [0, 2)), a tight frame with bounds
a = b = 1 for its span; bins are disjoint so the union is a tight frame
for the whole space and the global Parseval identity is exact.  A
redundant variant duplicates each atom (bounds a = b = 2) purely to
exercise the dual-frame computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import paleywiener as pw
from .grids import HalfLineFunction, _worst
from .moduli import BesovParams, _accumulate, besov_norm
from .spectral import DiscreteOperator

__all__ = [
    "g_cutoff",
    "h_cutoff",
    "partition_values",
    "full_band_count",
    "lp_decompose",
    "band_energies",
    "BandFrame",
    "build_band_frame",
    "band_frames",
    "frame_analysis",
    "frame_synthesis",
    "besov_norm_bands",
    "approx_space_norm",
    "direct_inverse_check",
]


def _ramp(t):
    """Smooth increasing 0 -> 1 transition on [0, 1] from exp(-1/t)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return lo / (lo + hi)


def g_cutoff(lam):
    """The concrete smooth cutoff: 1 on [0, 1], down to 0 across (1, 2)."""
    lam = np.asarray(lam, dtype=float)
    out = np.where(lam <= 1.0, 1.0, 0.0)
    mid = (lam > 1.0) & (lam < 2.0)
    out[mid] = _ramp(2.0 - lam[mid])
    return out


def h_cutoff(lam):
    """``h(lam) = g(lam) - g(2 lam)``, the profile of every band after the first."""
    return g_cutoff(lam) - g_cutoff(2.0 * np.asarray(lam, dtype=float))


def partition_values(J: int, lam) -> np.ndarray:
    """Values at lam of the dyadic partition of unity ``Q_0 = g``, ``Q_j = h(2^{-j} .)``,
    whose partial sums telescope to ``g(2^{-J} .)``; axis 0 indexes the band.

    ``g`` is evaluated once per scale ``2^{-j} lam``, j = 0 .. J, and band j
    is the difference of rows j and j - 1: doubling is exact, so each row has
    the bits of ``h_cutoff(2^{-j} lam)``.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    g = g_cutoff(np.multiply.outer(2.0 ** -np.arange(0, J + 1), lam))
    g[1:] -= g[:-1]  # numpy buffers the overlapping operands
    return g


def _require_convention(convention: str) -> None:
    """Raise unless ``convention`` names one of the two band conventions."""
    if convention not in ("lambda", "tau"):
        raise ValueError(f"convention must be 'lambda' or 'tau', got {convention!r}")


def full_band_count(op: DiscreteOperator, convention: str = "lambda") -> int:
    """Smallest J with ``g(2^{-J} .) = 1`` on the resolved spectrum."""
    _require_convention(convention)
    top = float(np.max(op.eigenvalues))
    if convention == "tau":
        top = math.sqrt(max(top, 0.0))
    return max(0, math.ceil(math.log2(max(top, 1.0))))


def lp_decompose(f: HalfLineFunction, op: DiscreteOperator, J: int | None = None):
    """Littlewood-Paley pieces ``Q_j(Delta) f`` for j = 0 .. J, each bandlimited to
    ``[2^{j-1}, 2^{j+1}]`` in lambda.

    With the default J the partial sums telescope to 1 on the whole
    resolved spectrum, so the reconstruction ``sum_j Q_j(Delta) f = f`` is
    exact up to roundoff.  Returns the list of band functions (stacks for a stack), all
    synthesized in one matrix product.
    """
    if J is None:
        J = full_band_count(op, "lambda")
    c = op.coeffs(f)
    # a roundoff-negative eigenvalue is read as 0, where g and h are already constant
    q = np.maximum(partition_values(J, np.maximum(op.eigenvalues, 0.0)), 0.0)
    rows = q[:, None] * c.reshape(-1, c.shape[-1])
    return [f.with_values(band) for band in op.synth(rows.reshape(-1, c.shape[-1]))
            .reshape((J + 1,) + c.shape)]


def band_energies(f: HalfLineFunction, op: DiscreteOperator, J: int | None = None,
                  convention: str = "lambda") -> np.ndarray:
    """Norms ``||F_j(Delta) f||`` of the quadratic partition pieces, j = 0 .. J, exact
    through the spectral weights; their squares sum to ``||f||^2``.  A stack adds an axis.
    """
    _require_convention(convention)
    if J is None:
        J = full_band_count(op, convention)
    lam = np.maximum(op.eigenvalues, 0.0)
    arg = np.sqrt(lam) if convention == "tau" else lam
    w = op.spectral_weights(f)
    q = np.maximum(partition_values(J, arg), 0.0)
    return np.array([np.sqrt(np.sum(row * w, axis=-1)) for row in q])


@dataclass
class BandFrame:
    """A frame for the span of the eigenvectors inside one tau-dyadic bin.

    ``eigen_indices`` selects the participating eigenvectors; ``amat``
    holds the atoms' coefficients against them (columns are atoms), so the
    orthonormal construction is the identity matrix.
    """

    j: int
    tau_lo: float
    tau_hi: float
    eigen_indices: np.ndarray
    amat: np.ndarray = field(repr=False)

    @property
    def n_atoms(self) -> int:
        return self.amat.shape[1]

    def analyze_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Coefficients ``<f, Phi_k>`` of every atom, from ``c = op.coeffs(f)``."""
        return (self.amat.conj().T @ c[..., self.eigen_indices].T).T

    def estimated_bounds(self) -> tuple[float, float]:
        """Extremal nonzero eigenvalues of the frame operator on the span."""
        if self.n_atoms == 0:
            return (0.0, 0.0)
        gram = self.amat @ self.amat.conj().T
        eigs = np.linalg.eigvalsh(gram)
        nonzero = eigs[eigs > 1e-12 * max(eigs.max(), 1.0)]
        if nonzero.size == 0:
            return (0.0, 0.0)
        return (float(nonzero.min()), float(nonzero.max()))

    def dual(self) -> "BandFrame":
        """Canonical dual frame: ``S^+ Phi_k`` with S the frame operator."""
        if self.n_atoms == 0:
            return self
        S = self.amat @ self.amat.conj().T
        damat = np.linalg.pinv(S, hermitian=True) @ self.amat
        return BandFrame(self.j, self.tau_lo, self.tau_hi, self.eigen_indices, damat)


def _tau_bin(j: int) -> tuple[float, float]:
    return (0.0, 2.0) if j == 0 else (2.0 ** j, 2.0 ** (j + 1))


def build_band_frame(op: DiscreteOperator, j: int, redundant: bool = False) -> BandFrame:
    """Frame for the Paley-Wiener space of tau-bin j from the discrete eigenvectors,
    tight by default; ``redundant`` duplicates atoms to exercise the canonical dual.
    """
    lo, hi = _tau_bin(j)
    tau = np.sqrt(np.maximum(op.eigenvalues, 0.0))
    idx = np.where((tau >= lo) & (tau < hi))[0]
    eye = np.eye(idx.size)
    amat = np.concatenate([eye, eye], axis=1) if redundant else eye
    return BandFrame(j, lo, hi, idx, amat)


def band_frames(op: DiscreteOperator, J: int | None = None, redundant: bool = False):
    """:func:`build_band_frame` for every tau-bin j = 0 .. J."""
    if J is None:
        J = full_band_count(op, "tau")
    return [build_band_frame(op, j, redundant=redundant) for j in range(J + 1)]


def frame_analysis(f: HalfLineFunction, frames, op: DiscreteOperator):
    """Per-band coefficient arrays ``<f, Phi^j_k>``."""
    c = op.coeffs(f)
    return [fr.analyze_coeffs(c) for fr in frames]


def frame_synthesis(coefficients, duals, op: DiscreteOperator) -> HalfLineFunction:
    """Reconstruction ``f = sum_{j,k} c^j_k Psi^j_k`` from the canonical dual frames."""
    lead = np.shape(coefficients[0])[:-1] if len(coefficients) else ()
    total = np.zeros(lead + op.eigenvalues.shape, dtype=complex)
    for cvec, fr in zip(coefficients, duals):
        if fr.n_atoms == 0:
            continue
        total[..., fr.eigen_indices] += (fr.amat @ cvec.T).T
    return HalfLineFunction(op.grid, op.synth(total))


def besov_norm_bands(f: HalfLineFunction, op: DiscreteOperator, alpha, q,
                     variant: str = "projections") -> float | list[float]:
    """Band-side Besov norms from best approximations, band projections or frame
    coefficients, all indexed dyadically in tau.

    * ``approx``: ``||f|| + lq over j of 2^{j alpha} E(2^j, f)`` with E the
      best approximation from the tau-band;
    * ``projections``: ``lq of 2^{j alpha} ||F_j(Delta^{1/2}) f||`` (the
      j = 0 band plays the role of the missing ``||f||`` term);
    * ``frames``: ``lq of 2^{j alpha} (sum_k |<f, Phi^j_k>|^2)^{1/2}`` with
      the tight band frames.

    ``alpha`` and ``q`` are two numbers (returns a float) or two sequences of
    one length (returns a list, one norm per pair; ``[]`` when empty).  The
    band data of the variant is computed once for all pairs, and of all members of a stack.
    """
    single = np.ndim(alpha) == 0
    alphas = [alpha] if single else list(alpha)
    qs = [q] if np.ndim(q) == 0 else list(q)
    if np.ndim(q) != np.ndim(alpha) or len(qs) != len(alphas):
        raise ValueError("alpha and q must be two numbers or two sequences of one length, "
                         f"got lengths {len(alphas)} and {len(qs)}")
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha must be positive")
    if any(b < 1 for b in qs):
        raise ValueError("q must be >= 1")
    if variant not in ("approx", "projections", "frames"):
        raise ValueError(f"unknown variant {variant!r}")
    if not alphas:
        return []
    J = full_band_count(op, "tau")
    js = np.arange(J + 1)
    base = 0.0
    if variant == "approx":
        band = pw.best_approx(2.0 ** js, f, op)
        base = op.norm(f)
    elif variant == "projections":
        band = band_energies(f, op, J, convention="tau")
    else:
        c = op.coeffs(f)
        band = [np.sqrt(np.sum(np.abs(fr.analyze_coeffs(c)) ** 2, axis=-1))
                for fr in band_frames(op, J)]
    norms = [base + _accumulate([2.0 ** (j * a) * band[j] for j in js], b, 1.0)
             for a, b in zip(alphas, qs)]
    return norms[0] if single else norms


def approx_space_norm(f: HalfLineFunction, op: DiscreteOperator, alpha: float, q: float) -> float:
    """Approximation-space quasi-norm from best approximations at the dyadic scales,
    the approximating family being the union of the Paley-Wiener spaces.

    Its quasi-norm is ``inf { omega : f in PW_omega }``, so the distance at
    budget t is exactly ``best_approx(t, f)``.
    """
    J = full_band_count(op, "tau")
    scales = 2.0 ** np.arange(0, J + 1, dtype=float)
    errors = pw.best_approx(scales, f, op)
    return _accumulate([t ** alpha * err for t, err in zip(scales, errors)], q)


def direct_inverse_check(f: HalfLineFunction, op: DiscreteOperator, r: int, space) -> dict:
    """Empirical constants of the direct (Jackson) and inverse (Bernstein) embeddings.

    Reports the Jackson-hypothesis constant ``max_t t^r E(t, f) / ||f||_graph``,
    the Bernstein margin ``||Delta^{r/2} f|| / (omega_f^r ||f||)`` with
    ``omega_f`` the spectral quasi-norm of f, and the two one-sided ratios
    between the interpolation-space norm and the approximation-space norm,
    both at ``alpha = r / 2`` and ``q = 2``, of one function.
    """
    f._check_one()
    lam = np.maximum(op.eigenvalues, 0.0)
    w = op.spectral_weights(f)
    total = float(np.sum(w))
    bern = float(np.sqrt(np.sum(lam ** r * w)))
    graph = op.norm(f) + bern
    J = full_band_count(op, "tau")
    scales = 2.0 ** np.arange(0, J + 1, dtype=float)
    errors = pw.best_approx(scales, f, op)
    jackson_hat = _worst([t ** r * err / graph for t, err in zip(scales, errors)])
    significant = w > 1e-24 * max(total, 1e-300)
    omega_f = float(np.sqrt(np.max(lam[significant]))) if np.any(significant) else 0.0
    bern_margin = bern / max(omega_f ** r * math.sqrt(total), 1e-300)
    interp = besov_norm(space, f, BesovParams(r / 2.0, 2.0, r), method="k")
    approx = approx_space_norm(f, op, r / 2.0, 2.0)
    return {
        "jackson_hypothesis_hat": jackson_hat,
        "bernstein_margin": bern_margin,
        "omega_quasi_norm": omega_f,
        "interp_norm": interp,
        "approx_norm": approx,
        "interp_over_approx": interp / max(approx, 1e-300),
        "approx_over_interp": approx / max(interp, 1e-300),
    }
