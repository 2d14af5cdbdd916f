import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from axbkit import spectral
from axbkit import frames, paleywiener
from axbkit.config import RunConfig
from axbkit.grids import HalfLineFunction, LogGrid, SpectralGrid, trapezoid_weights
from axbkit.halfline import xp_norm
from axbkit.moduli import halfline_space, k_spectral
from axbkit.spectral import (
    KL_CONSTANT,
    Spectrum,
    UnresolvedSpectrumWarning,
    apply_multiplier,
    build_matrix_laplacian,
    estimate_kl_constant,
    flat_skew,
    fourier_diff_matrix,
    kernel_leakage,
    kernel_table,
    kl_forward,
    kl_inverse,
    macdonald_kernel,
    skew,
    spectral_measure,
)


def test_macdonald_against_scipy_real_order():
    import scipy.special as sps

    for x in (0.5, 1.0, 5.0, 20.0):
        assert macdonald_kernel(0.0, x) == pytest.approx(float(sps.k0(x)), rel=1e-12)


def test_macdonald_against_mpmath_imaginary_order():
    mpmath = pytest.importorskip("mpmath")
    for tau in (0.5, 2.0):
        for x in (0.01, 1.0, 3.0):
            expected = float(mpmath.re(mpmath.besselk(1j * tau, mpmath.mpf(x))))
            assert macdonald_kernel(tau, x) == pytest.approx(expected, rel=1e-11)


def test_macdonald_docstring_states_a_truncation_bound_it_meets():
    # the t-truncation's tail exp(-x cosh t_max) is below 1e-16 exactly where the docstring
    # says, and the stated bound is tight to 1%
    doc = " ".join(macdonald_kernel.__doc__.split())
    x_min = float(re.search(r"``x > ([0-9.e-]+)``", doc).group(1))
    u_min = float(re.search(r"``u = ln x > ([0-9.-]+)``", doc).group(1))
    cosh_t = math.cosh(spectral._KERNEL_T_MAX)
    for x in (x_min, math.exp(u_min)):
        assert math.exp(-x * cosh_t) < 1e-16
    assert math.exp(-x_min / 1.01 * cosh_t) >= 1e-16
    # the range it used to state: at x = 3e-8 the tail is of order one
    assert math.exp(-3e-8 * cosh_t) > 0.3


def test_macdonald_asymptotic_bound():
    # K_{i tau}(x) <= K_0(x) ~ sqrt(pi / 2x) e^{-x} for large x
    x = 25.0
    bound = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * 1.05
    val = macdonald_kernel(1.0, x)
    assert 0.0 < val <= bound


def test_macdonald_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        macdonald_kernel(1.0, -2.0)


def test_fourier_diff_matrix_antisymmetric_and_accurate():
    n, h = 128, 0.1
    D = fourier_diff_matrix(n, h)
    np.testing.assert_allclose(D, -D.T, atol=1e-16)
    u = np.arange(n) * h
    length = n * h
    f = np.sin(2 * np.pi * 3 * u / length)
    df = 2 * np.pi * 3 / length * np.cos(2 * np.pi * 3 * u / length)
    np.testing.assert_allclose(D @ f, df, atol=1e-11)


def test_operator_invariants(grid, op):
    assert float(np.min(op.eigenvalues)) > -1e-10
    assert op.hermitian_residual() < 1e-10
    # ground state of the discretized -d^2/du^2 + e^{2u}: sign-definite up
    # to the spectral discretization floor in the deep-barrier region
    g0 = op.eigenvectors[:, 0]
    g0 = g0 * np.sign(g0[np.argmax(np.abs(g0))])
    neg_mass = float(np.sum(np.minimum(g0, 0.0) ** 2) / np.sum(g0 ** 2))
    assert neg_mass < 1e-4


def test_identity_multiplier(grid, op, f_lg):
    out = apply_multiplier(lambda lam: np.ones_like(lam), f_lg, op)
    assert xp_norm(out - f_lg) / xp_norm(f_lg) < 1e-12


def test_spectral_measure_eigenvector(grid, op):
    k = 7
    v = HalfLineFunction(grid, op.synth(np.eye(op.eigenvalues.size)[:, k]))
    lam, w = spectral_measure(v, op)
    assert w[k] == pytest.approx(1.0, rel=1e-12)
    others = np.delete(w, k)
    assert np.max(others) < 1e-20


def test_spectral_measure_parseval(grid, op, f_lg):
    _, w = spectral_measure(f_lg, op)
    assert abs(float(np.sum(w)) - xp_norm(f_lg) ** 2) / xp_norm(f_lg) ** 2 < 1e-12


def test_spectral_measure_band_concentration(grid, op, f_lg):
    band = apply_multiplier(lambda lam: ((lam >= 1.0) & (lam <= 9.0)).astype(float), f_lg, op)
    lam, w = spectral_measure(band, op)
    outside = np.sum(w[(lam < 1.0) | (lam > 9.0)])
    assert outside < 1e-10 * np.sum(w)


def test_spectral_measure_grid_mismatch(op):
    other = LogGrid(-12.0, 6.0, 128)
    g = HalfLineFunction(other, np.exp(-other.u ** 2))
    with pytest.raises(ValueError):
        spectral_measure(g, op)


# every eigenbasis consumer, as (f, op, space) -> call
_CONSUMERS = {
    "apply_multiplier": lambda f, op, space: apply_multiplier(np.exp, f, op),
    "pw_project": lambda f, op, space: paleywiener.pw_project(2.0, f, op),
    "best_approx": lambda f, op, space: paleywiener.best_approx(2.0, f, op),
    "bernstein_check": lambda f, op, space: paleywiener.bernstein_check(f, 2.0, (1, 2), op),
    "riesz_boas": lambda f, op, space: paleywiener.riesz_boas(2.5, f, 8, op),
    "schrodinger_modulus": lambda f, op, space: paleywiener.schrodinger_modulus(2, 0.5, f, op),
    "jackson_check": lambda f, op, space: paleywiener.jackson_check([1.0, 2.0], 2, f, op, space),
    "lp_decompose": lambda f, op, space: frames.lp_decompose(f, op),
    "band_energies": lambda f, op, space: frames.band_energies(f, op),
    "frame_analysis": lambda f, op, space: frames.frame_analysis(f, frames.band_frames(op), op),
    **{f"besov_norm_bands_{variant}": lambda f, op, space, v=variant: frames.besov_norm_bands(
        f, op, 0.5, 2.0, v) for variant in ("approx", "projections", "frames")},
    "direct_inverse_check": lambda f, op, space: frames.direct_inverse_check(f, op, 2, space),
    "k_spectral": lambda f, op, space: k_spectral(op, 2, 0.5, f),
    "spectral_measure": lambda f, op, space: spectral_measure(f, op),
}


@pytest.fixture(scope="module")
def another_window():
    """A function on one 256-node window, the operator of another and the function's space."""
    grid = LogGrid(-10.0, 8.0, 256)
    f = HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0))
    return f, build_matrix_laplacian(LogGrid(-12.0, 6.0, 256)), halfline_space(grid)


@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_eigenbasis_consumer_refuses_a_function_from_another_grid(another_window, consumer):
    # same node count, another window: the samples would be expanded in the wrong eigenbasis
    with pytest.raises(ValueError, match=r"^values: the function lives on LogGrid\(u_min=-10"):
        _CONSUMERS[consumer](*another_window)


def test_matrix_form_is_the_eigen_expansion(op, f_lg):
    heat = lambda lam: np.exp(-lam)
    assert _same_bits(apply_multiplier(heat, f_lg, op).values,
                      f_lg.with_values(op.apply_fn(heat, f_lg.values)).values)


def test_kernel_form_is_the_filtered_transform(grid, sgrid, f_lg):
    spec = kl_forward(f_lg, sgrid)
    filtered = kl_inverse(Spectrum(sgrid, np.exp(-sgrid.tau ** 2) * spec.coeffs), grid)
    assert _same_bits(apply_multiplier(lambda lam: np.exp(-lam), f_lg, sgrid).values,
                      filtered.values)


@pytest.mark.parametrize("backend", ["matrix", "kernel", None, LogGrid(-12.0, 6.0, 512)])
def test_apply_multiplier_takes_no_other_backend(f_lg, backend):
    with pytest.raises(TypeError, match=f"^op: must be a DiscreteOperator or a SpectralGrid, "
                                        f"got {type(backend).__name__}$"):
        apply_multiplier(np.exp, f_lg, backend)


def test_kl_roundtrip_and_parseval(grid, sgrid, f_lg):
    spec = kl_forward(f_lg, sgrid)
    rt = kl_inverse(spec, grid)
    assert xp_norm(rt - f_lg) / xp_norm(f_lg) < 1e-5
    assert kernel_leakage(f_lg, spec) < 1e-3


def test_kernel_leakage_takes_the_held_transform(sgrid, f_lg):
    spec = kl_forward(f_lg, sgrid)
    assert kernel_leakage(f_lg, spec) == kernel_leakage(f_lg, kl_forward(f_lg, sgrid))
    # the transform passed is the one read: an empty one captures none of ||f||^2
    assert kernel_leakage(f_lg, Spectrum(sgrid, np.zeros(sgrid.m))) == 1.0


def test_kl_forward_zero(grid, sgrid):
    spec = kl_forward(HalfLineFunction(grid, np.zeros(grid.n)), sgrid)
    assert np.all(spec.coeffs == 0.0)


def test_kl_bump_localization(grid, sgrid):
    # synthesize from a narrow spectral bump; the forward transform must
    # recover its location within one grid step
    tau0 = 2.0
    bump = np.exp(-((sgrid.tau - tau0) ** 2) / (2 * 0.2 ** 2))
    f = kl_inverse(Spectrum(sgrid, bump), grid)
    spec = kl_forward(f, sgrid)
    peak = sgrid.tau[int(np.argmax(np.abs(spec.coeffs)))]
    assert abs(peak - tau0) <= sgrid.step + 1e-12


def test_heat_multiplier_two_backends(grid, sgrid, op, f_lg):
    heat_m = apply_multiplier(lambda lam: np.exp(-lam), f_lg, op)
    heat_k = apply_multiplier(lambda lam: np.exp(-lam), f_lg, sgrid)
    assert xp_norm(heat_k - heat_m) / xp_norm(heat_m) < 1e-3


def test_multiplier_product_rule(grid, op, f_lg):
    F = lambda lam: np.exp(-lam)
    G = lambda lam: 1.0 / (1.0 + lam)
    fg = apply_multiplier(lambda lam: F(lam) * G(lam), f_lg, op)
    gf = apply_multiplier(G, apply_multiplier(F, f_lg, op), op)
    assert xp_norm(fg - gf) / xp_norm(fg) < 1e-12


def test_unitary_group_isometry(grid, op, f_lg):
    out = apply_multiplier(lambda lam: np.exp(1j * 0.7 * lam), f_lg, op)
    assert abs(xp_norm(out) - xp_norm(f_lg)) / xp_norm(f_lg) < 1e-10


def test_kernel_backend_flags_unresolved_input(grid, sgrid):
    # a sharply localized profile has dilation content far above tau_max
    f = HalfLineFunction(grid, np.exp(-((grid.u - 1.0) ** 2) / (2 * 0.05 ** 2)))
    f = f * (1.0 / xp_norm(f))
    assert kernel_leakage(f, kl_forward(f, sgrid)) > 1e-3
    with pytest.warns(UnresolvedSpectrumWarning):
        apply_multiplier(lambda lam: np.exp(-lam), f, sgrid)


def test_kernel_backend_transforms_once(monkeypatch, sgrid, f_lg):
    import axbkit.spectral as spectral

    calls = []

    def counted(f, sg):
        calls.append(sg)
        return kl_forward(f, sg)

    monkeypatch.setattr(spectral, "kl_forward", counted)
    apply_multiplier(lambda lam: np.exp(-lam), f_lg, sgrid)
    assert len(calls) == 1


def test_kl_constant_least_squares(grid, sgrid):
    fs = [
        HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0)),
        HalfLineFunction(grid, np.exp(-((grid.u + 5.0) ** 2) / 4.0)),
        HalfLineFunction(grid, grid.x * np.exp(-grid.x)),
    ]
    fit = estimate_kl_constant(sgrid, fs)
    assert fit == pytest.approx(KL_CONSTANT, rel=1e-8)


def test_cap_enforced():
    with pytest.raises(ValueError):
        build_matrix_laplacian(LogGrid(-12.0, 6.0, 4096))


def test_kernel_table_is_memoized_and_read_only(monkeypatch):
    # one table per (LogGrid, SpectralGrid) instance, kept on the spectral grid and shared
    # by both transforms and the kernel backend of apply_multiplier
    grid = LogGrid(-4.0, 2.0, 32)
    sgrid = SpectralGrid(6.0, 48)
    built = []

    def counted(tau, x):
        built.append(x.size)
        return macdonald_kernel(tau, x)

    monkeypatch.setattr(spectral, "macdonald_kernel", counted)
    table = kernel_table(grid, sgrid)
    assert kernel_table(LogGrid(-4.0, 2.0, 32), sgrid) is table
    f = HalfLineFunction(grid, np.exp(-((grid.u + 1.0) ** 2)))
    kl_inverse(kl_forward(f, sgrid), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnresolvedSpectrumWarning)
        apply_multiplier(lambda lam: np.exp(-lam), f, sgrid)
    assert built == [32]
    assert list(sgrid._kernel_tables) == [grid] and sgrid._kernel_tables[grid] is table
    # an equal spectral grid is another instance, with its own table
    other = SpectralGrid(6.0, 48)
    assert other == sgrid and hash(other) == hash(sgrid)
    assert kernel_table(grid, other) is not table and built == [32, 32]
    assert table.shape == (48, 32) and not table.flags.writeable
    np.testing.assert_array_equal(table, macdonald_kernel(sgrid.tau, grid.x))


def test_kernel_table_goes_with_its_spectral_grid():
    grid = LogGrid(-4.0, 2.0, 32)
    sgrid = SpectralGrid(6.0, 48)
    spec = kl_forward(HalfLineFunction(grid, np.exp(-((grid.u + 1.0) ** 2))), sgrid)
    table = weakref.ref(kernel_table(grid, sgrid))
    del sgrid
    gc.collect()
    assert table() is not None  # the spectrum still holds its grid
    del spec
    gc.collect()
    assert table() is None


#: functools caches that clear_caches empties, each with the reuse that keeps it process-wide:
#: calls and misses with one BLAS thread, in one seed-5 ``axbkit report`` and in the warm
#: kfunctional, besov and jackson passes after the n = 512/256 operators are built, with the
#: mean cost of one miss
_REUSED_CACHES = {
    "axbkit.spectral.build_matrix_laplacian":
        "report 12 calls, 2 misses of 40 ms (one eigh each); every warm pass 5 calls, 0 misses",
    "axbkit.moduli._candidates":
        "report 474 calls, 155 misses; warm pass 1 472 calls, 153 misses of about 30 us; "
        "pass 2 0 misses",
    "axbkit.smoothing._hardy_factors":
        "report 207 calls, 132 misses; warm pass 1 136 calls, 110 misses of about 0.08 ms; "
        "pass 2 0 misses",
}

#: functools caches that clear_caches leaves alone, with the reason each is kept at all
_KEPT_CACHES = {
    "axbkit.describe._objects": "the name -> public object registry, no numerical data; "
                                "only `axbkit describe` reads it",
    "axbkit.smoothing._gauss_legendre":
        "two read-only rules (12 and 24 nodes) that depend on nothing: a seed-5 report "
        "makes 6 calls and 2 misses, 0.33 and 0.61 ms each",
}


def _functools_caches():
    """Every module-level function or class member of ``axbkit`` with a ``cache_info``."""
    import importlib
    import pkgutil

    import axbkit

    found = {}
    for info in pkgutil.iter_modules(axbkit.__path__):
        mod = importlib.import_module(f"axbkit.{info.name}")
        for name, value in vars(mod).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for attr, member in members:
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if hasattr(member, "cache_info") and member.__module__ == mod.__name__:
                    found[f"{mod.__name__}.{name}" + (f".{attr}" if attr else "")] = member
    return found


def test_clear_caches_empties_every_process_table(grid, f_lg):
    from axbkit.moduli import grid_candidates, halfline_space, modulus_mixed
    from axbkit.smoothing import hardy_steklov
    from axbkit.spectral import clear_caches

    caches = _functools_caches()
    assert set(_KEPT_CACHES) <= set(caches)
    # fill every other table, including the tables behind the moduli hot path
    build_matrix_laplacian(LogGrid(-4.0, 2.0, 32))
    grid_candidates(0.7, 8, grid.h)
    hardy_steklov(2, 0.7, f_lg)
    modulus_mixed(halfline_space(grid), 2, 0.7, f_lg)
    cleared = {name: cache for name, cache in caches.items() if name not in _KEPT_CACHES}
    # every other table has a recorded reuse
    assert set(cleared) == set(_REUSED_CACHES)
    assert cleared and all(c.cache_info().currsize > 0 for c in cleared.values()), sorted(cleared)
    clear_caches()
    assert {name for name, c in cleared.items() if c.cache_info().currsize} == set()
    # the modulation phases are no process-lifetime table at all
    import axbkit.halfline as halfline

    assert not hasattr(halfline, "_phase") and not hasattr(halfline, "_PHASE_TABLE_SIZE")


@pytest.mark.parametrize("n", [512, 256])
def test_real_arithmetic_transforms_match_the_complex_product(n):
    op = build_matrix_laplacian(LogGrid(-12.0, 6.0, n))
    assert np.array_equal(op.sqrt_w, np.sqrt(op.weights))
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V = op.eigenvectors.astype(complex)
    for got, ref in ((op.coeffs(z), V.T @ (op.sqrt_w * z)), (op.synth(z), (V @ z) / op.sqrt_w)):
        assert got.dtype == complex
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a real input keeps the plain real product and a real result
    e = np.eye(n)[:, 3]
    assert op.synth(e).dtype == np.float64 and op.coeffs(e).dtype == np.float64
    assert np.array_equal(op.synth(e), (op.eigenvectors @ e) / op.sqrt_w)


def test_real_arithmetic_kernel_transforms_match_the_complex_product(grid, sgrid):
    # the transforms once cast the kernel table to complex; the real products round within
    # about an ulp of the table's scale
    rng = np.random.default_rng(7)
    f = HalfLineFunction(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    table = kernel_table(grid, sgrid).astype(complex)
    spec = kl_forward(f, sgrid)
    ref = table @ (grid.weights * f.values)
    assert np.max(np.abs(spec.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
    weight = KL_CONSTANT * sgrid.weights * sgrid.tau * np.sinh(np.pi * sgrid.tau)
    ref = (weight * spec.coeffs) @ table
    got = kl_inverse(spec, grid).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # neither transform copies the (cached) table: a complex copy alone is twice its size
    for call in (lambda: kl_forward(f, sgrid), lambda: kl_inverse(spec, grid)):
        assert _traced_peak(call)[0] < 0.1 * table.real.nbytes


@pytest.mark.parametrize("n", [256, 512])
def test_eigensystem_agrees_with_scipy_eigh(n):
    # paired oracle: the package's numpy eigh against scipy's LAPACK driver
    sla = pytest.importorskip("scipy.linalg")
    op = build_matrix_laplacian(LogGrid(-12.0, 6.0, n))
    A, lam, V = op.matrix, op.eigenvalues, op.eigenvectors
    lam_ref, V_ref = sla.eigh(A)
    assert np.max(np.abs(lam - lam_ref) / np.abs(lam_ref)) <= 1e-10
    assert np.linalg.norm(A @ V - V * lam) / np.linalg.norm(A) <= 1e-14
    assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-13
    # eigenvector signs are arbitrary; the projector onto the lowest modes is not
    P, P_ref = V[:, :32] @ V[:, :32].T, V_ref[:, :32] @ V_ref[:, :32].T
    assert np.max(np.abs(P - P_ref)) <= 1e-10


# one-shot forms of the blocked builders, kept as their oracles


def _fourier_diff_one_shot(n, h):
    """The Fourier differentiation matrix from the complex FFT of all of ``np.eye(n)``."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    ik = 1j * 2.0 * np.pi / (n * h) * k
    D = np.fft.ifft(ik[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
    return skew(D)


def _macdonald_one_shot(tau, x):
    """The Macdonald table from one ``(len(x), 720)`` decay table and one product."""
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.linspace(0.0, 18.0, 720)
    wt = trapezoid_weights(720, t[1] - t[0])
    with np.errstate(under="ignore"):
        decay = np.exp(np.outer(x_arr, -np.cosh(t)))
    table = (np.cos(np.outer(tau_arr, t)) * wt) @ decay.T
    if np.isscalar(tau) and np.isscalar(x):
        return float(table[0, 0])
    if np.isscalar(tau):
        return table[0]
    if np.isscalar(x):
        return table[:, 0]
    return table


def _assembled_inline(grid):
    """The flat-coordinate Laplacian matrix, assembled with ``np.diag`` and out of place."""
    D_flat = flat_skew(fourier_diff_matrix(grid.n, grid.h), np.sqrt(grid.weights))
    A = D_flat.T @ D_flat + np.diag(grid.x ** 2)
    return 0.5 * (A + A.T)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [100, 511, 1000])
def test_blocked_fourier_diff_matrix_has_the_one_shot_bits(n):
    # none of the sizes is a multiple of the column block
    h = 18.0 / n
    assert _same_bits(fourier_diff_matrix(n, h), _fourier_diff_one_shot(n, h))


@pytest.mark.parametrize("n", [100, 511, 1000])
def test_blocked_macdonald_kernel_has_the_one_shot_bits(n):
    # 1000 ends in a longer last block.  A ragged size above 511 keeps the bits on one BLAS
    # thread only: two threads split a long product's columns where the blocks do not
    x = LogGrid(-12.0, 6.0, n).x
    tau = SpectralGrid(12.0, 401).tau
    for args in ((tau, x), (2.0, x), (tau, float(x[n // 2])), (2.0, float(x[n // 2]))):
        assert _same_bits(macdonald_kernel(*args), _macdonald_one_shot(*args))


@pytest.mark.parametrize("tau", [1.5, np.array(1.5), np.array([0.5, 1.5])],
                         ids=["tau-float", "tau-0d", "tau-1d"])
@pytest.mark.parametrize("x", [0.7, np.array(0.7), np.array([0.3, 0.7, 2.0])],
                         ids=["x-float", "x-0d", "x-1d"])
def test_macdonald_kernel_has_the_shape_of_tau_then_x(tau, x):
    # a 0-d array once gave a (1, 1) table or a (1,) row where a Python float gave a float
    got = macdonald_kernel(tau, x)
    shape = np.shape(tau) + np.shape(x)
    if shape:
        assert isinstance(got, np.ndarray) and got.shape == shape
    else:
        assert type(got) is float
    ref = _macdonald_one_shot(np.atleast_1d(tau), np.atleast_1d(x))
    assert _same_bits(np.ravel(got), ref.ravel())


def test_per_tau_rows_share_one_decay_table_with_the_bits_of_each_tau():
    # the eigenrelation check's four kernels on its oracle grid; one product over the four
    # rows would move the tau = 5 row by about 2e-13 relative
    cfg = RunConfig()
    x = LogGrid(cfg.u_min, cfg.u_max, cfg.oracle_n).x
    taus = (0.5, 1.0, 2.0, 5.0)
    rows = macdonald_kernel(taus, x, per_tau=True)
    assert rows.shape == (len(taus), x.size)
    for tau, row in zip(taus, rows):
        assert _same_bits(row, macdonald_kernel(tau, x))


def test_kernel_table_keeps_the_one_product_bits():
    # the default spectral suite's table: all of tau in one product per x block
    cfg = RunConfig()
    grid, sgrid = LogGrid(cfg.u_min, cfg.u_max, cfg.grid_n), SpectralGrid(cfg.tau_max, cfg.tau_n)
    assert _same_bits(kernel_table(grid, sgrid), _macdonald_one_shot(sgrid.tau, grid.x))


@pytest.mark.parametrize("n", [100, 511])
def test_operator_keeps_the_eigensystem_of_the_inline_assembly(n):
    grid = LogGrid(-12.0, 6.0, n)
    op = build_matrix_laplacian(grid)
    A = _assembled_inline(grid)
    assert _same_bits(op.matrix, A)
    lam, V = np.linalg.eigh(A)
    assert _same_bits(op.eigenvalues, lam)
    assert _same_bits(op.eigenvectors, V)
    assert _same_bits(op.weights, grid.weights)


# Memory guards.  tracemalloc counts numpy's array buffers only: the work arrays of LAPACK's
# eigh and pocketfft's own buffers are allocated outside it, so these bound the package's
# arrays, not the process's peak.


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_matrix_laplacian_build_holds_few_dense_matrices():
    # the one-shot FFT and the out-of-place assembly peaked at 5.07 n x n float64 matrices
    # (10.1 MiB at n = 512), and out-of-place skews at 3.03; antisymmetrizing in place, the
    # build holds at most two at once (2.16 with the FFT's column blocks)
    grid = LogGrid(-12.0, 6.0, 512)
    spectral.clear_caches()
    peak, op = _traced_peak(lambda: build_matrix_laplacian(grid))
    assert peak <= 2.5 * op.eigenvectors.nbytes


def test_skew_and_flat_skew_overwrite_and_return_their_argument():
    # the out-of-place forms are the oracles; in place, the result is the argument itself
    rng = np.random.default_rng(11)
    M = rng.standard_normal((300, 300))
    sw = rng.uniform(0.5, 2.0, 300)
    work = M.copy()
    assert skew(work) is work and _same_bits(work, 0.5 * (M - M.T))
    carried = (sw[:, None] * M) / sw[None, :]
    work = M.copy()
    assert flat_skew(work, sw) is work and _same_bits(work, 0.5 * (carried - carried.T))
    # one M-sized temporary (numpy's copy of the overlapping transpose), not two
    peak, _ = _traced_peak(lambda: flat_skew(M.copy(), sw))
    assert peak <= 2.1 * M.nbytes


@pytest.mark.parametrize("tau", [1.0, SpectralGrid(12.0, 400).tau], ids=["scalar", "m400"])
def test_macdonald_kernel_holds_one_decay_block(tau):
    # the one-shot form held the whole (1024, 720) decay table, 5.6 MiB; the blocked one
    # holds the output, the (m, 720) cosine table and, per x block, the decay block (256
    # nodes, a quarter of the table) and the block's product
    x = LogGrid(-12.0, 6.0, 1024).x
    peak, table = _traced_peak(lambda: macdonald_kernel(tau, x))
    cos_bytes = np.size(tau) * spectral._KERNEL_N_T * 8
    block_bytes = spectral._KERNEL_X_BLOCK * spectral._KERNEL_N_T * 8
    assert peak <= table.nbytes + cos_bytes + 2 * block_bytes


def test_operator_norm_is_the_half_line_norm(op):
    # the draws at seeds 0..3 include one (seed 1) whose weighted sum of |v|^2 rounds
    # differently from xp_norm's interleaved dot, so a second formula would show here
    rows = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rows.append(rng.standard_normal(op.grid.n) + 1j * rng.standard_normal(op.grid.n))
    stack = np.stack(rows)
    one = op.norm(stack[1])
    assert type(one) is float and one == xp_norm(stack[1], grid=op.grid)
    assert np.array_equal(op.norm(stack), xp_norm(stack, grid=op.grid))
