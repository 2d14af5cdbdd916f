"""Paley-Wiener subspaces, best approximation, and the Jackson machinery.

Bandlimitedness is defined spectrally against the discrete operator: f is
omega-bandlimited when its spectral measure is supported where
``sqrt(lambda) <= omega``, i.e. f lies in the range of the projection
``1_{[0, omega]}(Delta^{1/2})``.  On the Hilbert instantiation the best
approximation from the band is attained by the orthogonal projection, the
Bernstein inequality ``||Delta^{s/2} f|| <= omega^s ||f||`` is exact in the
discrete functional calculus, and the Riesz-Boas interpolation series

``i sqrt(Delta) f = (omega/pi^2) sum_k (-1)^{k-1}/(k-1/2)^2
                     exp(i (pi/omega)(k-1/2) sqrt(Delta)) f``

is checked with symmetric truncation and an explicit tail bound.  :func:`riesz_boas`
takes a ladder of truncations and computes what they share once: the phase table of
the largest (half of it exponentiated, the other half its conjugate), the
eigen-coefficients, ``i sqrt(Delta) f`` and the norms.

Each function expands ``f`` in the eigenbasis of the operator ``op`` it is given, which
refuses a function from another grid; every band, ``sigma`` and time keeps the scale rule
of :mod:`axbkit.grids`.  :func:`pw_project` also takes one band per member of a stack, so
draws with different bands are projected together.
"""

from __future__ import annotations

import numpy as np

from .grids import HalfLineFunction, require_integer, require_scale, require_scales
from .moduli import _by_scale, _members, modulus_mixed
from .spectral import DiscreteOperator, apply_multiplier

__all__ = [
    "pw_project",
    "best_approx",
    "bernstein_check",
    "riesz_boas",
    "schrodinger_modulus",
    "jackson_check",
    "decay_slope",
]


def pw_project(omega, f: HalfLineFunction, op: DiscreteOperator) -> HalfLineFunction:
    """Projection onto ``PW_omega``, ``1_{[0, omega]}(Delta^{1/2}) f``, by the eigen-expansion
    of ``op``, on whose grid ``f`` must live.

    ``omega`` is one band ``> 0`` for ``f`` and every member of a stack, or, for a ``(k, n)``
    stack, a 1-D array of ``k`` bands, one per member: the stack is then projected by one
    matrix product each way, which rounds each member within about 1e-15 of its own call."""
    bands = require_scales("omega", omega, positive=True)
    if bands.ndim:
        if f.values.shape[:-1] != bands.shape:
            raise ValueError(f"omega must be one band per member of a stack of shape "
                             f"{f.values.shape}, got shape {bands.shape}")
        bands = bands[:, None]
    return apply_multiplier(
        lambda lam: (np.sqrt(np.maximum(lam, 0.0)) <= bands).astype(float), f, op)


def best_approx(sigma, f: HalfLineFunction, op: DiscreteOperator) -> float | np.ndarray:
    """The best approximation ``E(sigma, f) = inf_{g in PW_sigma} ||f - g||``, which
    is ``||f - P_sigma f||``, computed spectrally; a 1-D ladder of bands ``sigma >= 0``
    gives ``(band, member...)``.

    Orthogonal projection attains the infimum in a Hilbert space, so this
    is the tail energy ``(sum_{sqrt(lam) > sigma} w_k)^{1/2}``; the spectral
    weights are computed once for a whole ladder.
    """
    lam, w = op.eigenvalues, op.spectral_weights(f)
    root = np.sqrt(np.maximum(lam, 0.0))
    return _by_scale(require_scales("sigma", sigma), w.shape[:-1],
                     lambda s: _members(np.sqrt(np.sum(w[..., root > s], axis=-1))))


def bernstein_check(f: HalfLineFunction, omega: float, s_exponents, op: DiscreteOperator) -> dict:
    """Ratios of the Bernstein inequality ``||Delta^{s/2} f|| <= omega^s ||f||`` on
    ``PW_omega``, for a finite band ``omega > 0``."""
    require_scale("omega", omega, positive=True)
    f._check_one()
    lam, w = op.eigenvalues, op.spectral_weights(f)
    total = np.sum(w)
    ratios = {}
    for s in s_exponents:
        num = np.sqrt(np.sum(np.maximum(lam, 0.0) ** s * w))
        ratios[float(s)] = float(num / (omega ** s * np.sqrt(total))) if total > 0 else 0.0
    return {"ratios": ratios, "max_ratio": float(np.max(list(ratios.values()), initial=0.0))}


def riesz_boas(omega: float, f: HalfLineFunction, k_trunc, op: DiscreteOperator):
    """Truncated Riesz-Boas interpolation series for ``i sqrt(Delta) f`` on a
    bandlimited f, with an a-priori tail bound.

    The sum runs over ``k in [-K+1, K]`` (symmetric about the half-integers) for a
    truncation ``K = k_trunc``.  Returns the series value, its relative deviation from
    ``i sqrt(Delta) f``, and the a-priori tail bound
    ``(omega/pi^2) * 2 * sum_{k > K} (k - 1/2)^{-2} * ||f||``, per member of a stack.

    ``k_trunc`` is one integer ``K >= 1`` or a 1-D ladder of them; a ladder gives the
    series as a stack ``(truncation, member..., n)`` and the error and the bound as
    ``(truncation, member...)``, each truncation with the bits of its own call.  The
    phase table is built once, for the largest truncation, and each truncation's
    multiplier is formed from its contiguous rows; the eigen-coefficients,
    ``i sqrt(Delta) f`` and the norms of ``i sqrt(Delta) f`` and ``f`` are computed once.
    Only the rows ``k >= 1`` are exponentiated: the row of ``k <= 0`` is the conjugate of
    the row of ``1 - k``, whose arguments are its exact negatives, so with an even cosine
    and an odd sine it has the bits of its own exponential.
    """
    require_scale("omega", omega, positive=True)
    truncs = np.asarray(k_trunc)
    if truncs.dtype.kind not in "iu" or truncs.ndim > 1 or truncs.size == 0 or np.any(truncs < 1):
        raise ValueError("k_trunc: must be one integer >= 1 or a 1-D ladder of them, "
                         f"got {k_trunc!r}")
    root = np.sqrt(np.maximum(op.eigenvalues, 0.0))
    top = int(truncs.max())
    ks = np.arange(-top + 1, top + 1, dtype=float)
    scaled = (omega / np.pi ** 2) * ((-1.0) ** (ks - 1.0) * (1.0 / (ks - 0.5) ** 2))
    phases = np.empty((2 * top, root.size), dtype=complex)
    np.exp(1j * np.outer(np.pi / omega * (ks[top:] - 0.5), root), out=phases[top:])
    np.conjugate(phases[top:][::-1], out=phases[:top])  # k = -top+1..0 from k = top..1
    c = op.coeffs(f)
    exact = op.synth(1j * root * c)
    exact_norm = np.maximum(op.norm(exact), 1e-300)
    f_norm = op.norm(f)

    def truncated(k: int):
        rows = slice(top - k, top + k)  # the terms k in [-K+1, K]
        series = op.synth((scaled[rows] @ phases[rows]) * c)
        err = op.norm(series - exact) / exact_norm
        return series, _members(err), (omega / np.pi ** 2) * 2.0 / (k - 0.5) * f_norm

    if truncs.ndim == 0:
        series, err, tail = truncated(int(truncs))
        return f.with_values(series), err, tail
    series, err, tail = (np.array(part) for part in zip(*map(truncated, truncs.tolist())))
    return f.with_values(series), err, tail


def schrodinger_modulus(r: int, t: float, f: HalfLineFunction, op: DiscreteOperator) -> float:
    """Modulus of continuity of the Schroedinger group,
    ``sup_{0 <= tau <= t} ||(exp(i tau Delta) - I)^r f||``, via spectral weights.

    The unitary group makes each factor a pointwise phase, so the norm is
    ``(sum_k |e^{i tau lam_k} - 1|^{2r} w_k)^{1/2}``; the supremum is taken
    over 64 uniform tau steps including the endpoint (a lower bound).  The order ``r``
    is an integer >= 1 and ``t`` finite and nonnegative.
    """
    require_integer("r", r, 1)
    require_scale("t", t)
    lam, w = op.eigenvalues, op.spectral_weights(f)
    taus = np.linspace(0.0, t, 65)[1:]
    phase = np.abs(np.exp(1j * np.outer(taus, lam)) - 1.0) ** (2 * r)
    out = np.sqrt(np.max(phase @ w.T, axis=0))
    return out if out.ndim else float(out)


def decay_slope(sigmas, values, floor: float = 1e-11) -> float:
    """Log-log slope of a decay profile, ignoring entries at the numeric floor."""
    sigmas = np.asarray(sigmas, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > floor
    if np.sum(keep) < 2:
        return float("nan")
    return float(np.polyfit(np.log(sigmas[keep]), np.log(values[keep]), 1)[0])


def jackson_check(sigma_list, r: int, f: HalfLineFunction, op: DiscreteOperator,
                  space) -> dict | list[dict]:
    """Empirical constant C of the Jackson bound ``E(sigma, f) <= C (Omega^r(1/sigma, f)
    + min(sigma^{-r}, 1) ||f||)``, and the large-sigma decay slope.

    The ratio of the two sides is recorded for every sigma; the slope is fitted over an
    adaptively chosen decade where the best-approximation error is neither
    saturated nor at the numeric floor.  ``f`` may hold a stack: the moduli and the best
    approximations of all members are then computed together, and one report per member
    comes back.  Every sigma must be positive, as the modulus is taken at ``1 / sigma``.
    """
    sigmas = require_scales("sigma", sigma_list, positive=True)
    # per member, its moduli at 1 / sigma and its best approximations, one value per sigma;
    # the moduli go first, so a bad order is refused before any best approximation
    moduli = modulus_mixed(space, r, 1.0 / sigmas, f).reshape(len(sigmas), -1).T
    members = best_approx(sigmas, f, op).reshape(len(sigmas), -1).T
    norms = np.atleast_1d(space.norm(f.values))
    reports = []
    for errors, member_moduli, nf in zip(members, moduli, norms):
        ratios = [err / max(om + min(sigma ** (-r), 1.0) * nf, 1e-14 * max(nf, 1.0))
                  for sigma, err, om in zip(sigmas, errors, member_moduli)]
        # decade choice: start where the error first drops below 0.5 ||f||
        active = np.where(errors < 0.5 * nf)[0]
        slope = float("nan")
        if active.size:
            lo = sigmas[active[0]]
            window = (sigmas >= lo) & (sigmas <= 10.0 * lo)
            slope = decay_slope(sigmas[window], errors[window], floor=1e-11 * max(nf, 1.0))
        reports.append({"C_hat": float(np.max(ratios)), "ratios": [float(v) for v in ratios],
                        "errors": [float(v) for v in errors], "slope": slope})
    return reports if f.values.ndim > 1 else reports[0]
