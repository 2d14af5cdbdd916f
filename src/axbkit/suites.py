"""Verification suites: one callable per suite, acceptance criteria pinned.

Every suite returns a JSON-ready payload with one entry per check:
criterion id, the measured value, the threshold, and the verdict, which
:func:`_check` derives from the check's relation between the two.  Each
check's description, relation, base threshold and ``tol_scale`` rule are one
row of :data:`CHECKS`.  The payloads are deterministic given the
configuration and seed.
"""

from __future__ import annotations

import math
import operator
import os
from itertools import product

import numpy as np

from . import frames as fr
from . import halfplane as hp
from . import moduli as md
from . import paleywiener as pw
from . import smoothing as sm
from . import spectral as sp
from .config import ConfigError, RunConfig
from .corpus import build_corpus
from .grids import HalfLineFunction, LogGrid, SpectralGrid, _worst, fd6
from .group import GroupElement, _compose
from .halfline import act_modulation, inner, xp_norm
from .reporting import canonical_json, write_profile_csv, write_report

__all__ = ["CHECKS", "SUITES", "run_suite", "run_all"]

#: the version of the report layout, written at the top of every JSON report
_SCHEMA_VERSION = 1


def _grid(cfg: RunConfig, n: int | None = None) -> LogGrid:
    return LogGrid(cfg.u_min, cfg.u_max, n or cfg.grid_n)


def _sgrid(cfg: RunConfig) -> SpectralGrid:
    return SpectralGrid(cfg.tau_max, cfg.tau_n)


def _hpgrid(cfg: RunConfig) -> hp.HalfPlaneGrid:
    return hp.HalfPlaneGrid(LogGrid(cfg.hp_u_min, cfg.hp_u_max, cfg.hp_n),
                            cfg.y_min, cfg.y_max, cfg.y_n)


def _corpus(cfg, grid, op=None, only_decaying=False, families=None):
    pairs = build_corpus(grid, names=cfg.corpus or None, op=op, seed=cfg.seed,
                         only_decaying=only_decaying, families=families)
    if not pairs:
        raise ConfigError(f"corpus: empty corpus for this suite, got {list(cfg.corpus)}")
    return pairs


def _stack(pairs) -> HalfLineFunction:
    """The corpus members of ``pairs`` as one stack, in corpus order."""
    return HalfLineFunction(pairs[0][1].grid, np.stack([f.values for _, f in pairs]))


#: the analytic decaying families, on which the kernel backend and the refinement checks run
_ANALYTIC = frozenset({"log_gaussian", "power_exp"})


def _rungs(cfg: RunConfig):
    """The fine rung, then the coarse one, as ``(label, op, space, corpus)``; the corpus
    holds the analytic decaying members on that rung's grid."""
    for label, n in (("fine", cfg.grid_n), ("coarse", cfg.grid_n_coarse)):
        grid = _grid(cfg, n)
        op = sp.build_matrix_laplacian(grid)
        yield (label, op, md.halfline_space(grid),
               _corpus(cfg, grid, op=op, only_decaying=True, families=_ANALYTIC))


#: the relations a check may state between its value and its threshold
_RULES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: how ``tol_scale`` moves a base threshold: times it, times its excess over 1, or not at all
_SCALINGS = {
    "yes": lambda base, k: base * k,
    "excess": lambda base, k: 1.0 + (base - 1.0) * k,
    "no": lambda base, k: base,
}

#: every check the suites emit: id -> (description, relation, base threshold, scaling)
CHECKS = {
    # group
    "AC1": ("group algebra: associativity, inverses, exp/factor round trips", "<", 1e-12, "yes"),
    # partition
    "AC2": ("dyadic partition telescoping over 1e4 log-spaced points", "<", 1e-12, "yes"),
    "PART_support": ("band j supported in [2^(j-1), 2^(j+1)]", "<=", 1e-15, "no"),
    "AC3": ("energy identity sum ||F_j f||^2 = ||f||^2 (matrix backend)", "<", 1e-10, "yes"),
    "PART_reconstruction": ("reconstruction sum Q_j(Delta) f = f", "<", 1e-10, "yes"),
    # spectral
    "AC4": ("kernel eigenrelation Delta K = tau^2 K, interior residual", "<", 1e-4, "yes"),
    "AC5": ("heat multiplier, kernel vs matrix backend", "<", 1e-3, "yes"),
    "SPEC_parseval": ("kernel-transform Parseval defect", "<", 1e-3, "yes"),
    "SPEC_roundtrip": ("kernel inverse after forward", "<", 1e-3, "yes"),
    "SPEC_constant": ("least-squares inversion constant vs 2/pi^2", "<", 1e-6, "no"),
    "SPEC_identity": ("multiplier F = 1 reproduces f", "<", 1e-12, "no"),
    "SPEC_product": ("(FG)(Delta) = F(Delta) G(Delta), matrix backend", "<", 1e-12, "no"),
    # in units of ||f||^2
    "SPEC_positivity": ("F >= 0 implies <F(Delta) f, f> >= -1e-10 ||f||^2", ">=", -1e-10, "no"),
    "SPEC_unitary": ("exp(i t Delta) norm drift", "<", 1e-10, "no"),
    "SPEC_measure": ("spectral measure weights sum to ||f||^2", "<", 1e-12, "no"),
    "SPEC_nonneg": ("matrix Laplacian eigenvalues nonnegative", ">", -1e-10, "no"),
    # paleywiener
    "AC6": ("Bernstein ratio ||Delta^{s/2} f|| / (omega^s ||f||)", "<=", 1.0 + 1e-8, "excess"),
    "AC7": ("Riesz-Boas truncation error, strictly decreasing in K", "<", 1e-2, "yes"),
    "PW_monotone": ("projection family is monotone and nested", "<", 1e-12, "no"),
    "PW_idempotent": ("projecting twice equals projecting once", "<", 1e-12, "no"),
    "PW_selfadjoint": ("<P f, g> = <f, P g>", "<", 1e-12, "no"),
    "PW_pythagoras": ("best_approx^2 + ||P f||^2 = ||f||^2", "<", 1e-12, "no"),
    "PW_schrodinger_bound": ("Schroedinger modulus <= 2^r ||f||", "<=", 1.0 + 1e-12, "no"),
    # smoothing
    "AC9a": ("direction-2 quadrature vs analytic multipliers (P and H)", "<", 1e-10, "yes"),
    "AC9b": ("||f - H_r(s) f|| -> 0 with observed order >= 1", ">=", 1.0, "no"),
    "SMOOTH_binomial": ("(I - T)^r f = f + M_{j,r} f (direction 2)", "<", 1e-10, "no"),
    "SMOOTH_m_at_zero": ("M f = -f at t = 0", "<", 1e-14, "no"),
    "AC8": ("commutation formula residual, m in {1,2,3}", "<", 1e-8, "yes"),
    "SMOOTH_unit_mass": ("constant input fixed on the interior (j=1)", "<", 1e-6, "no"),
    "SMOOTH_density_mass": ("box-spline time density integrates to 1", "<", 1e-12, "no"),
    "SMOOTH_bounded": ("||H_r(s) f|| <= (2^r)^2 ||f||", "<=", 1.0, "no"),
    "SMOOTH_noncommuting": ("P1 P2 differs from P2 P1 generically", ">", 1e-8, "no"),
    # kfunctional
    "AC10a": ("sandwich: k_lower <= C k_upper over corpus and dyadic s", "<", 10.0, "yes"),
    "AC10b": ("sandwich: k_upper <= C' (k_lower + min(s^r,1) ||f||)", "<", 100.0, "yes"),
    "AC10c": ("spectral K-surrogate inside the same band (lower)", "<", 10.0, "yes"),
    "AC10d": ("spectral K-surrogate inside the same band (upper)", "<", 100.0, "yes"),
    "K_ineq_constants": ("modulus inequality constants finite", "<", math.inf, "no"),
    "K_reiteration": ("reiteration ratio finite", "<", math.inf, "no"),
    # besov
    "AC11a": ("max/min ratio across Besov realizations per function", "<", 50.0, "yes"),
    "AC11b": ("ratio drift under grid refinement", "<", 0.2, "yes"),
    # jackson
    "AC12a": ("empirical Jackson constant finite and < 100", "<", 100.0, "yes"),
    "AC12b": ("log-log decay slope of E(sigma, f) <= -r + 0.25", "<=", -1.75, "no"),
    "AC12c": ("Jackson constant stable under grid refinement", "<", 0.5, "no"),
    # frames
    "FRAME_tight": ("orthonormal band frames have bounds [1, 1]", "<", 1e-10, "no"),
    "FRAME_redundant": ("duplicated atoms give bounds [2, 2]", "<", 1e-10, "no"),
    "FRAME_parseval": ("global Parseval with tight band frames", "<", 1e-10, "no"),
    "FRAME_reconstruction": ("synthesis after analysis reproduces f", "<", 1e-10, "no"),
    "FRAME_dual_reconstruction": ("redundant frame + canonical dual", "<", 1e-10, "no"),
    "FRAME_direct_inverse": ("direct/inverse embedding constants finite", "<", math.inf, "no"),
    # halfplane
    "AC13a": ("discrete action isometry, grid-compatible parameters", "<", 1e-10, "yes"),
    "AC13b": ("assembled Laplacians nonnegative", ">", -1e-8, "no"),
    "AC13c": ("Sobolev vs graph norm ratio finite, m = 1", "<", math.inf, "no"),
    "HP_commutator_left": ("[D1, D2] = -D2 (left); the D1 variant is reported", "<", 5e-3, "no"),
    "HP_commutator_right": ("[D1, D2] = +D2 (right); the D1 variant is reported", "<", 5e-3, "no"),
    "HP_expanded_left": ("assembled vs expanded Laplacian, interior residual", "<", 5e-2, "no"),
    "HP_expanded_right": ("assembled vs expanded Laplacian, interior residual", "<", 5e-2, "no"),
    "HP_modulus_bound": ("Omega^1(s, f) <= 4 ||f|| (left)", "<=", 1.0, "no"),
    # determinism
    "AC14": ("repeated runs with a fixed seed are byte-identical", "<", 0.5, "no"),
}


def _threshold(cfg: RunConfig, cid: str) -> float:
    """Check ``cid``'s threshold: its base threshold moved by ``cfg.tol_scale`` as its row says."""
    _, _, base, scaling = CHECKS[cid]
    return _SCALINGS[scaling](base, cfg.tol_scale)


def _check(cfg, cid, value, also=True, factor=1.0, **extra):
    """One check entry: it passes when ``value <relation> threshold`` holds and ``also`` is true.

    The description, relation and threshold come from the check's ``CHECKS``
    row; ``factor`` multiplies a threshold stated in units of the data.
    ``also`` carries a side condition that the relation does not imply; the
    check's extras show what it was computed from.  A NaN value fails.
    """
    description, rule, _, _ = CHECKS[cid]
    threshold = _threshold(cfg, cid) * factor
    passed = bool(also) and bool(_RULES[rule](value, threshold))
    return {"id": cid, "description": description, "value": value, "threshold": threshold,
            "passed": passed, **extra}


def _payload(cfg, suite, checks, profiles=()):
    """The suite's report; ``profiles`` are ``(name, rows, header)`` CSV triples."""
    echo = cfg.to_dict()
    echo.pop("out_dir", None)  # environmental, would break byte-determinism
    return {
        "schema_version": _SCHEMA_VERSION,
        "suite": suite,
        "seed": cfg.seed,
        "config": echo,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "profiles": sorted(p[0] for p in profiles),
        "_profiles_raw": list(profiles),
    }


# ---------------------------------------------------------------------- group


def suite_group(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    n = 1000
    draws = rng.uniform([-3, -10], [3, 10], size=(n, 2))
    a, b = np.exp(draws[:, 0]), draws[:, 1]
    i1, i2, i3 = rng.integers(n, size=(n, 3)).T
    g1, g2, g3 = (a[i1], b[i1]), (a[i2], b[i2]), (a[i3], b[i3])

    def defect(g, h):
        return np.abs(g[0] - h[0]), np.abs(g[1] - h[1])

    assoc = defect(_compose(*_compose(*g1, *g2), *g3), _compose(*g1, *_compose(*g2, *g3)))
    inv = defect(_compose(a, b, 1.0 / a, -b / a), (1.0, 0.0))
    # math.log/math.exp as in factor/exp_map: numpy's vector exp/log round differently
    t1, t2 = np.array([math.log(x) for x in a]), b / a
    back = _compose(np.array([math.exp(x) for x in t1]), 0.0, 1.0, t2)
    tt1, tt2 = np.array([math.log(x) for x in back[0]]), back[1] / back[0]
    rt = defect(back, (a, b)) + (np.abs(tt1 - t1), np.abs(tt2 - t2))
    assoc, inv, rt = (_worst(np.column_stack(d)) for d in (assoc, inv, rt))
    worst = _worst([assoc, inv, rt])
    checks = [_check(cfg, "AC1", worst, associativity=assoc, inverse=inv, roundtrip=rt)]
    return _payload(cfg, "group", checks)


# ------------------------------------------------------------------ partition


def suite_partition(cfg: RunConfig):
    lam = np.logspace(-6, 6, 10_000)
    defect = _worst([np.max(np.abs(fr.partition_values(J, lam).sum(axis=0)
                                   - fr.g_cutoff(2.0 ** (-J) * lam)))
                     for J in (0, 3, 6, 12, 20)])
    checks = [_check(cfg, "AC2", defect)]

    # support of the bands
    bad = []
    for j in (1, 3, 7):
        outside = np.concatenate([lam[lam < 2.0 ** (j - 1) * 0.999],
                                  lam[lam > 2.0 ** (j + 1) * 1.001]])
        bad.append(np.max(np.abs(fr.h_cutoff(2.0 ** (-j) * outside)), initial=0.0))
    checks.append(_check(cfg, "PART_support", _worst(bad)))

    grid = _grid(cfg)
    op = sp.build_matrix_laplacian(grid)
    corpus = _corpus(cfg, grid, op=op, only_decaying=True)
    stack = _stack(corpus)
    nrm2 = xp_norm(stack) ** 2
    energies = fr.band_energies(stack, op)  # (band, member)
    energy = [abs(float(np.sum(e ** 2)) - n2) / n2 for e, n2 in zip(energies.T, nrm2)]
    recon = np.sum([p.values for p in fr.lp_decompose(stack, op)], axis=0)
    recon_defects = xp_norm(stack.with_values(recon - stack.values)) / np.sqrt(nrm2)
    alpha = 0.5
    profiles = [(f"band_energy_{entry.family}_{i}",
                 [(j, e, 2.0 ** (j * alpha) * e) for j, e in enumerate(energies[:, i])],
                 "j,energy,weighted") for i, (entry, _) in enumerate(corpus)]
    checks.append(_check(cfg, "AC3", _worst(energy)))
    checks.append(_check(cfg, "PART_reconstruction", _worst(recon_defects)))
    return _payload(cfg, "partition", checks, profiles)


# ------------------------------------------------------------------- spectral


def _eigenrelation_residuals(grid: LogGrid, taus) -> list[float]:
    """Apply the oscillator with a local stencil to each sampled kernel; the kernels
    share one decay table, each with the bits of its own :func:`sp.macdonald_kernel`."""
    sl = slice(8, grid.n - 8)
    residuals = []
    for tau, k in zip(taus, sp.macdonald_kernel(taus, grid.x, per_tau=True)):
        lhs = -fd6(k, grid.h, 2) + grid.x ** 2 * k
        rhs = tau ** 2 * k
        residuals.append(float(np.linalg.norm(lhs[sl] - rhs[sl]) / np.linalg.norm(rhs[sl])))
    return residuals


def suite_spectral(cfg: RunConfig):
    checks = []
    residuals = _eigenrelation_residuals(_grid(cfg, cfg.oracle_n), (0.5, 1.0, 2.0, 5.0))
    checks.append(_check(cfg, "AC4", _worst(residuals)))

    grid = _grid(cfg)
    sgrid = _sgrid(cfg)
    op = sp.build_matrix_laplacian(grid)
    # the kernel backend approximates the continuum transform, so it is
    # cross-validated on the analytic decaying families; the band-limited
    # members are constructed from the matrix oracle itself
    corpus = _corpus(cfg, grid, op=op, only_decaying=True, families=_ANALYTIC)

    heat, leak, rts, heat_ms = [], [], [], []
    for entry, f in corpus:
        heat_m = sp.apply_multiplier(lambda lam: np.exp(-lam), f, op)
        heat_k = sp.apply_multiplier(lambda lam: np.exp(-lam), f, sgrid)
        heat.append(xp_norm(heat_k - heat_m) / xp_norm(heat_m))
        heat_ms.append(heat_m)
        spec = sp.kl_forward(f, sgrid)  # shared by the Parseval and round-trip checks
        leak.append(sp.kernel_leakage(f, spec))
        rt = sp.kl_inverse(spec, grid)
        rts.append(xp_norm(rt - f) / xp_norm(f))
    checks.append(_check(cfg, "AC5", _worst(heat)))
    checks.append(_check(cfg, "SPEC_parseval", _worst(leak)))
    checks.append(_check(cfg, "SPEC_roundtrip", _worst(rts)))

    fit = sp.estimate_kl_constant(sgrid, [f for _, f in corpus])
    dev = abs(fit / sp.KL_CONSTANT - 1.0)
    checks.append(_check(cfg, "SPEC_constant", dev, fitted=fit, expected=sp.KL_CONSTANT))

    f = corpus[0][1]
    ident = sp.apply_multiplier(lambda lam: np.ones_like(lam), f, op)
    v_ident = xp_norm(ident - f) / xp_norm(f)
    checks.append(_check(cfg, "SPEC_identity", v_ident))
    # the heat multiplier of f, from the loop above
    pos = heat_ms[0]
    fg = sp.apply_multiplier(lambda lam: np.exp(-lam) / (1 + lam), f, op)
    gf = sp.apply_multiplier(lambda lam: 1.0 / (1 + lam), pos, op)
    v_prod = xp_norm(fg - gf) / xp_norm(fg)
    checks.append(_check(cfg, "SPEC_product", v_prod))
    quad = inner(pos, f).real
    checks.append(_check(cfg, "SPEC_positivity", quad, factor=xp_norm(f) ** 2))
    schro = sp.apply_multiplier(lambda lam: np.exp(0.7j * lam), f, op)
    drift = abs(xp_norm(schro) - xp_norm(f)) / xp_norm(f)
    checks.append(_check(cfg, "SPEC_unitary", drift))
    lam_k, w_k = sp.spectral_measure(f, op)
    pars = abs(float(np.sum(w_k)) - xp_norm(f) ** 2) / xp_norm(f) ** 2
    checks.append(_check(cfg, "SPEC_measure", pars))
    nonneg = float(np.min(op.eigenvalues))
    checks.append(_check(cfg, "SPEC_nonneg", nonneg))
    return _payload(cfg, "spectral", checks)


# ---------------------------------------------------------------- paleywiener


def suite_paleywiener(cfg: RunConfig):
    grid = _grid(cfg)
    op = sp.build_matrix_laplacian(grid)
    rng = np.random.default_rng(cfg.seed + 1)
    checks = []

    ratios = []
    for _ in range(20):
        omega = float(rng.uniform(1.0, 8.0))
        raw = HalfLineFunction(grid, rng.standard_normal(grid.n))
        band = pw.pw_project(omega, raw, op)
        if xp_norm(band) < 1e-12:
            continue
        rep = pw.bernstein_check(band, omega, (1, 2, 3), op)
        ratios.append(rep["max_ratio"])
    checks.append(_check(cfg, "AC6", _worst(ratios)))

    ks = (8, 16, 32, 64, 128)
    decreasing = True
    last = []
    for cutoff in (2.0, 4.0):
        raw = HalfLineFunction(grid, rng.standard_normal(grid.n))
        band = pw.pw_project(cutoff, raw, op)
        band = band * (1.0 / xp_norm(band))
        # the formula holds for every omega at or above the type of f; a
        # 25% margin keeps the highest band eigenvalue away from the edge
        # resonances of the sampling series, where convergence oscillates
        omega = 1.25 * cutoff
        errs = pw.riesz_boas(omega, band, ks, op)[1].tolist()
        decreasing = decreasing and all(errs[i + 1] < errs[i] for i in range(len(ks) - 1))
        last.append(errs[-1])
    checks.append(_check(cfg, "AC7", _worst(last), also=decreasing,
                         strictly_decreasing=decreasing))

    f = HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0))
    f = f * (1.0 / xp_norm(f))
    p2 = pw.pw_project(2.0, f, op)
    p4 = pw.pw_project(4.0, f, op)
    mono = xp_norm(p2) <= xp_norm(p4) + 1e-12
    nest = xp_norm(pw.pw_project(2.0, p4, op) - p2) / xp_norm(p2)
    checks.append(_check(cfg, "PW_monotone", nest, also=mono, mono=mono))
    idem = xp_norm(pw.pw_project(2.0, p2, op) - p2) / xp_norm(p2)
    checks.append(_check(cfg, "PW_idempotent", idem))
    g = HalfLineFunction(grid, np.exp(-((grid.u + 5.0) ** 2) / 3.0))
    sym = abs(inner(p2, g) - inner(f, pw.pw_project(2.0, g, op)))
    checks.append(_check(cfg, "PW_selfadjoint", sym))
    pyth = abs(pw.best_approx(2.0, f, op) ** 2 + xp_norm(p2) ** 2 - xp_norm(f) ** 2)
    checks.append(_check(cfg, "PW_pythagoras", pyth))
    r = 2
    bound = pw.schrodinger_modulus(r, 0.5, f, op) / (2.0 ** r * xp_norm(f))
    checks.append(_check(cfg, "PW_schrodinger_bound", bound))
    return _payload(cfg, "paleywiener", checks)


# ------------------------------------------------------------------ smoothing


def _dir2_tensor_quadrature(r: int, s: float, f: HalfLineFunction, dilation: int = 1):
    """Independent oracle: average of ``T_2(k (t_1 + ... + t_r))``.

    Computed by tensor Gauss-Legendre with 24 nodes per factor.
    """
    nodes, wts = sm._gauss_legendre(24)
    hp_ = s / r
    t = 0.5 * hp_ * (nodes + 1.0)
    w = 0.5 * hp_ * wts
    x = f.grid.x
    # the tuples in product order, each sum and product reduced left to right
    idx = np.array(list(product(range(nodes.size), repeat=r))).T
    tsum, coeff = np.add.reduce(t[idx]), np.multiply.reduce(w[idx])
    # one phase per distinct node sum; the terms added in tuple order, 24 rows at a time
    sums, which = np.unique(tsum, return_inverse=True)
    phase = np.exp(1j * dilation * sums[:, None] * x)
    acc = np.zeros((1, f.grid.n), dtype=complex)
    for c, k in zip(coeff.reshape(-1, nodes.size), which.reshape(-1, nodes.size)):
        acc = np.add.reduce(np.concatenate([acc, c[:, None] * phase[k]]), keepdims=True)
    return f.with_values(acc[0] / hp_ ** r * f.values)


def _hardy_dir2_tensor_quadrature(r: int, s: float, f: HalfLineFunction,
                                  average: HalfLineFunction):
    """Independent oracle for ``H_{2,r}(s)``: the alternating sum of dilated averages.

    ``average`` is the undilated one, ``_dir2_tensor_quadrature(r, s, f)``, which the
    caller holds already; the dilated ones are computed here.
    """
    acc = np.zeros(f.grid.n, dtype=complex)
    for k in range(1, r + 1):
        coeff = (-1) ** k * math.comb(r, k)
        term = average if k == 1 else _dir2_tensor_quadrature(r, s, f, dilation=k)
        acc += coeff * term.values
    return f.with_values(acc)


def suite_smoothing(cfg: RunConfig):
    grid = _grid(cfg)
    checks = []
    f = HalfLineFunction(grid, grid.x * np.exp(-grid.x))
    f = f * (1.0 / xp_norm(f))

    closed_form = []
    for r, s in ((1, 0.5), (2, 0.5), (2, 2.0)):
        oracle = _dir2_tensor_quadrature(r, s, f)
        closed = sm.steklov_avg(sm.SteklovParams(r, s, 2), f)
        closed_form.append(xp_norm(oracle - closed) / xp_norm(closed))
        h_oracle = _hardy_dir2_tensor_quadrature(r, s, f, oracle)
        h_closed = sm.hardy_steklov_dir(2, r, s, f)
        closed_form.append(xp_norm(h_oracle - h_closed) / xp_norm(h_closed))
    checks.append(_check(cfg, "AC9a", _worst(closed_form)))

    orders = {}
    shrinks = True
    for r in (1, 2):
        svals = [0.2 / 2 ** k for k in range(5)]
        errs = [xp_norm(f - sm.hardy_steklov(r, s, f)) for s in svals]
        orders[r] = float(np.polyfit(np.log(svals), np.log(errs), 1)[0])
        shrinks = shrinks and errs[-1] < errs[0]
    checks.append(_check(cfg, "AC9b", _worst(list(orders.values()), np.min),
                         also=shrinks, orders=orders, shrinks=shrinks))

    # binomial identity (I - T)^r = I + M on the exact modulation action
    binomial = []
    t0 = 0.37
    for r in (1, 2, 3):
        mf = sm.m_operator(2, r, t0, f)
        g = f
        for _ in range(r):
            g = g - act_modulation(t0, g)
        binomial.append(xp_norm((f + mf) - g))
    checks.append(_check(cfg, "SMOOTH_binomial", _worst(binomial)))
    mzero = xp_norm(sm.m_operator(2, 3, 0.0, f) + f)
    checks.append(_check(cfg, "SMOOTH_m_at_zero", mzero))

    op = sp.build_matrix_laplacian(grid)
    residuals = [sm.commutation_check(m, 5 * grid.h, 0.4, g)
                 for entry, g in _corpus(cfg, grid, op=op) for m in (1, 2, 3)]
    checks.append(_check(cfg, "AC8", _worst(residuals)))

    # box kernel has unit mass: constants are interior fixed points
    const = HalfLineFunction(grid, np.ones(grid.n))
    avg = sm.steklov_avg(sm.SteklovParams(2, 1.0, 1), const)
    interior = slice(grid.n // 4, grid.n // 2)
    fix = float(np.max(np.abs(avg.values[interior] - 1.0)))
    checks.append(_check(cfg, "SMOOTH_unit_mass", fix))
    nodes_w = sm.irwin_hall_nodes(3, 0.7)[1]
    mass = abs(float(np.sum(nodes_w)) - 1.0)
    checks.append(_check(cfg, "SMOOTH_density_mass", mass))

    bound = _worst([xp_norm(sm.hardy_steklov(r, 1.0, f)) / ((2.0 ** r) ** 2 * xp_norm(f))
                    for r in (1, 2, 3)])
    checks.append(_check(cfg, "SMOOTH_bounded", bound))

    p12 = sm.steklov_avg(sm.SteklovParams(2, 1.0, 1), sm.steklov_avg(sm.SteklovParams(2, 1.0, 2), f))
    p21 = sm.steklov_avg(sm.SteklovParams(2, 1.0, 2), sm.steklov_avg(sm.SteklovParams(2, 1.0, 1), f))
    noncomm = xp_norm(p12 - p21)
    checks.append(_check(cfg, "SMOOTH_noncommuting", noncomm))
    return _payload(cfg, "smoothing", checks)


# ---------------------------------------------------------------- kfunctional


def suite_kfunctional(cfg: RunConfig):
    grid = _grid(cfg)
    op = sp.build_matrix_laplacian(grid)
    space = md.halfline_space(grid)
    corpus = _corpus(cfg, grid, op=op, only_decaying=True)
    svals = 2.0 ** np.arange(-8, 5, dtype=float)
    # every surrogate as a (scale, member) array; the moduli of the whole corpus at once
    stack = _stack(corpus)
    norms = space.norm(stack.values)
    lower, upper, spectral = {}, {}, {}
    hats = {"AC10a": [], "AC10b": [], "AC10c": [], "AC10d": []}
    for r in (1, 2):
        kl = lower[r] = md.k_lower(space, r, svals, stack)
        ku = upper[r] = md.k_upper(space, r, svals, stack)
        ksp = spectral[r] = md.k_spectral(op, r, svals, stack)
        trivial = np.minimum(svals ** r, 1.0)[:, None] * norms
        for cid, num, den in (("AC10a", kl, ku), ("AC10b", ku, kl + trivial),
                              ("AC10c", kl, ksp), ("AC10d", ksp, kl + trivial)):
            hats[cid].append(num / np.maximum(den, 1e-300))
    checks = [_check(cfg, cid, _worst(ratios)) for cid, ratios in hats.items()]
    profiles = [(f"kprofile_{entry.family}_{i}",
                 list(zip(svals, lower[2][:, i], upper[2][:, i], spectral[2][:, i])),
                 "s,k_lower,k_upper,k_spectral") for i, (entry, _) in enumerate(corpus)]
    # the order-1 moduli of corpus[0], emitted as their own profile
    profiles.append(("modulus_order1", list(zip(svals.tolist(), lower[1][:, 0])), "s,value"))
    entry, f = corpus[0]
    ineq = md.verify_modulus_inequalities(space, 2, 1, f, (0.25, 1.0, 4.0))
    checks.append(_check(cfg, "K_ineq_constants", ineq["C0_hat"],
                         also=all(np.isfinite(v) for v in ineq.values()), **ineq))
    reit = md.reiteration_check(space, f, 0, 1, 2, 0.5, 2.0)
    checks.append(_check(cfg, "K_reiteration", reit["ratio"], **reit))
    return _payload(cfg, "kfunctional", checks, profiles)


# ---------------------------------------------------------------------- besov


def _besov_realizations(corpus, op, space, params):
    """Per member of the ``(entry, function)`` pairs ``corpus``, one dict of
    realization norms per ``(alpha, q)`` in ``params``, all of order 2.

    Every form runs on the corpus as one stack, and each profile is computed
    once for all pairs.
    """
    alphas, qs = zip(*params)
    stack = _stack(corpus)
    besov = [md.BesovParams(alpha, q, 2) for alpha, q in params]
    columns = {"k": md.besov_norm(space, stack, besov, method="k"),
               "modulus": md.besov_norm(space, stack, besov, method="modulus")}
    for variant in ("approx", "projections", "frames"):
        columns[variant] = fr.besov_norm_bands(stack, op, alphas, qs, variant=variant)
    extra = []  # per pair: the Zygmund or fractional form's name and its norms
    for i, (alpha, q) in enumerate(params):
        if alpha == 1:  # the modulus form exactly, see md.zygmund_norm
            extra.append(("zygmund", columns["modulus"][i]))
        elif float(alpha).is_integer():
            extra.append(("zygmund", md.zygmund_norm(space, stack, int(alpha), q)))
        else:
            extra.append(("fractional", md.besov_norm_fractional(space, stack, alpha, q)))
    return [[{**{key: column[i][m] for key, column in columns.items()}, name: norms[m]}
             for i, (name, norms) in enumerate(extra)] for m in range(len(corpus))]


def suite_besov(cfg: RunConfig):
    params = ((0.5, 2.0), (1.0, math.inf), (1.3, 1.0))
    results = {}
    tails = {}  # truncation bounds of the integral-based realizations, per fine-rung member
    for label, op, space, corpus in _rungs(cfg):
        for (entry, f), member in zip(corpus, _besov_realizations(corpus, op, space, params)):
            for (alpha, q), vals in zip(params, member):
                arr = np.array(list(vals.values()))
                results[(entry.name, alpha, q, label)] = (float(arr.max() / arr.min()), vals)
                if label == "fine":
                    key = f"{entry.name}|alpha={alpha}|q={'inf' if math.isinf(q) else q}"
                    tails[key] = md.besov_tail_report(space, f, md.BesovParams(alpha, q, 2))
    ratios = []
    drifts = []
    table = []
    for (name, alpha, q, label), (ratio, vals) in sorted(results.items(), key=str):
        if label == "fine":
            ratios.append(ratio)
            coarse_ratio = results[(name, alpha, q, "coarse")][0]
            drift = abs(ratio / coarse_ratio - 1.0)
            drifts.append(drift)
            keys = sorted(vals)
            pairwise = {a: {b: _worst([vals[a], vals[b]]) / _worst([vals[a], vals[b]], np.min)
                            for b in keys}
                        for a in keys}
            table.append({"function": name, "alpha": alpha,
                          "q": "inf" if math.isinf(q) else q, "r": 2,
                          "ratio": ratio, "drift": drift,
                          "norms": {k: float(v) for k, v in sorted(vals.items())},
                          "pairwise_ratios": pairwise})
    checks = [_check(cfg, "AC11a", _worst(ratios)), _check(cfg, "AC11b", _worst(drifts))]
    payload = _payload(cfg, "besov", checks)
    payload["besov_table"] = table
    payload["truncation_bounds"] = tails
    return payload


# -------------------------------------------------------------------- jackson


def suite_jackson(cfg: RunConfig):
    r = 2
    sigmas = 2.0 ** np.arange(-2.0, 5.01, 0.5)
    # per rung: its corpus and one Jackson report per member
    reports = {label: (corpus, pw.jackson_check(sigmas, r, _stack(corpus), op, space))
               for label, op, space, corpus in _rungs(cfg)}
    hats = {label: _worst([rep["C_hat"] for rep in reps]) for label, (_, reps) in reports.items()}
    corpus, fine = reports["fine"]
    # a member without a decade to fit reports a NaN slope
    slopes = [rep["slope"] for rep in fine if not math.isnan(rep["slope"])]
    profiles = [(f"jackson_{entry.family}_{i}", list(zip(sigmas, rep["errors"])), "s,value")
                for i, ((entry, _), rep) in enumerate(zip(corpus, fine))]
    drift = abs(hats["fine"] / hats["coarse"] - 1.0)
    checks = [_check(cfg, "AC12a", hats["fine"]),
              _check(cfg, "AC12b", _worst(slopes or [math.nan])),
              _check(cfg, "AC12c", drift, also=hats["coarse"] < _threshold(cfg, "AC12a"),
                     fine=hats["fine"], coarse=hats["coarse"])]
    return _payload(cfg, "jackson", checks, profiles)


# --------------------------------------------------------------------- frames


def suite_frames(cfg: RunConfig):
    grid = _grid(cfg)
    op = sp.build_matrix_laplacian(grid)
    space = md.halfline_space(grid)
    checks = []
    frames = fr.band_frames(op)
    bounds = np.array([b.estimated_bounds() for b in frames if b.n_atoms])
    lo, hi = _worst(bounds[:, 0], np.min), _worst(bounds[:, 1])
    tight = _worst([abs(lo - 1.0), abs(hi - 1.0)])
    checks.append(_check(cfg, "FRAME_tight", tight))
    red = fr.build_band_frame(op, 1, redundant=True)
    rb = red.estimated_bounds()
    red_dev = _worst([abs(rb[0] - 2.0), abs(rb[1] - 2.0)])
    checks.append(_check(cfg, "FRAME_redundant", red_dev))
    f = _corpus(cfg, grid, op=op, only_decaying=True)[0][1]
    coeffs = fr.frame_analysis(f, frames, op)
    mass = sum(float(np.sum(np.abs(c) ** 2)) for c in coeffs)
    pars = abs(mass - xp_norm(f) ** 2) / xp_norm(f) ** 2
    checks.append(_check(cfg, "FRAME_parseval", pars))
    duals = [b.dual() for b in frames]
    recon = fr.frame_synthesis(coeffs, duals, op)
    rec = xp_norm(recon - f) / xp_norm(f)
    checks.append(_check(cfg, "FRAME_reconstruction", rec))
    red_frames = fr.band_frames(op, redundant=True)
    red_coeffs = fr.frame_analysis(f, red_frames, op)
    red_recon = fr.frame_synthesis(red_coeffs, [b.dual() for b in red_frames], op)
    rec2 = xp_norm(red_recon - f) / xp_norm(f)
    checks.append(_check(cfg, "FRAME_dual_reconstruction", rec2))
    rep = fr.direct_inverse_check(f, op, 2, space)
    checks.append(_check(cfg, "FRAME_direct_inverse", rep["jackson_hypothesis_hat"],
                         also=all(np.isfinite(v) for v in rep.values()), **rep))
    return _payload(cfg, "frames", checks)


# ------------------------------------------------------------------ halfplane


def suite_halfplane(cfg: RunConfig):
    grid = _hpgrid(cfg)
    f = hp.log_gaussian_2d(grid)
    checks = []
    # grid-compatible actions: pure y-shift (left), pure log-x shift (right)
    gL = GroupElement(1.0, 3 * grid.h_y)
    dl = abs(hp.lp_norm_2d(hp.act_2d(gL, f, "left"), 2, "left") - hp.lp_norm_2d(f, 2, "left"))
    dl /= hp.lp_norm_2d(f, 2, "left")
    gR = GroupElement(math.exp(2 * grid.xgrid.h), 0.0)
    dr = abs(hp.lp_norm_2d(hp.act_2d(gR, f, "right"), 2, "right") - hp.lp_norm_2d(f, 2, "right"))
    dr /= hp.lp_norm_2d(f, 2, "right")
    worst_iso = _worst([dl, dr])
    checks.append(_check(cfg, "AC13a", worst_iso, left_defect=dl, right_defect=dr))
    mins = {}
    ratios = {}
    for side in ("left", "right"):
        op = hp.build_halfplane_laplacian(grid, side)
        mins[side] = op.lambda_min
        rep = hp.sobolev_graph_check(f, 1, side, op)
        ratios[side] = rep["ratio"]
    worst_min = _worst(list(mins.values()), np.min)
    checks.append(_check(cfg, "AC13b", worst_min, **mins))
    finite = all(np.isfinite(v) and v > 0 for v in ratios.values())
    checks.append(_check(cfg, "AC13c", _worst(list(ratios.values())), also=finite, **ratios))

    # commutator residuals: the symbolically forced identities
    for side, sign in (("left", -1.0), ("right", 1.0)):
        alt, d2 = hp.generator_2d(1, f, side), hp.generator_2d(2, f, side)
        comm = hp.generator_2d(1, d2, side) - hp.generator_2d(2, alt, side)
        target = sign * d2
        res_forced = hp.lp_norm_2d(comm - target, 2, side) / hp.lp_norm_2d(target, 2, side)
        res_doc = hp.lp_norm_2d(comm - alt, 2, side) / hp.lp_norm_2d(alt, 2, side)
        checks.append(_check(cfg, f"HP_commutator_{side}", res_forced,
                             alternative_residual=res_doc))

    # interior agreement of the assembled and expanded Laplacian forms
    for side in ("left", "right"):
        op = hp.build_halfplane_laplacian(grid, side)
        assembled = op.apply(f.values)
        expanded = hp.expanded_laplacian_apply(f, side).values
        inner_u = slice(4, grid.xgrid.n - 4)
        inner_y = slice(4, grid.n_y - 4)
        num = np.linalg.norm((assembled - expanded)[inner_u, inner_y])
        den = np.linalg.norm(expanded[inner_u, inner_y])
        checks.append(_check(cfg, f"HP_expanded_{side}", float(num / den)))

    space = hp.halfplane_space(grid, "left")
    m1 = md.modulus_mixed(space, 1, 0.5, f)
    bound = m1 / (4.0 * hp.lp_norm_2d(f, 2, "left"))
    checks.append(_check(cfg, "HP_modulus_bound", bound))
    return _payload(cfg, "halfplane", checks)


# ---------------------------------------------------------------- determinism


def suite_determinism(cfg: RunConfig):
    first = canonical_json(suite_group(cfg))
    second = canonical_json(suite_group(cfg))
    part1 = canonical_json(suite_partition(cfg))
    part2 = canonical_json(suite_partition(cfg))
    same = first == second and part1 == part2
    checks = [_check(cfg, "AC14", 0.0 if same else 1.0)]
    return _payload(cfg, "determinism", checks)


SUITES = {
    "group": suite_group,
    "partition": suite_partition,
    "spectral": suite_spectral,
    "paleywiener": suite_paleywiener,
    "smoothing": suite_smoothing,
    "kfunctional": suite_kfunctional,
    "besov": suite_besov,
    "jackson": suite_jackson,
    "frames": suite_frames,
    "halfplane": suite_halfplane,
    "determinism": suite_determinism,
}


def run_suite(cfg: RunConfig, name: str, out_dir: str | None = None):
    """Run one suite, write its JSON report and CSV profiles, return the payload."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    payload = SUITES[name](cfg)
    out = out_dir or cfg.out_dir
    raw_profiles = payload.pop("_profiles_raw", [])
    write_report(payload, os.path.join(out, f"{name}.json"))
    for pname, rows, header in raw_profiles:
        write_profile_csv(rows, os.path.join(out, f"{name}_{pname}.csv"), header=header)
    return payload


def run_all(cfg: RunConfig, out_dir: str | None = None):
    """Run every suite in name order and write the ``report.json`` summary."""
    out = out_dir or cfg.out_dir
    summary = {"schema_version": _SCHEMA_VERSION, "seed": cfg.seed,
               "config": cfg.to_dict(), "suites": {}}
    ok = True
    for name in sorted(SUITES):
        payload = run_suite(cfg, name, out_dir=out)
        summary["suites"][name] = {
            "all_passed": payload["all_passed"],
            "checks": [{"id": c["id"], "passed": c["passed"]} for c in payload["checks"]],
        }
        ok = ok and payload["all_passed"]
    summary["all_passed"] = ok
    write_report(summary, os.path.join(out, "report.json"))
    return summary
