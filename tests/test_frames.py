import math

import numpy as np
import pytest

from axbkit.frames import (
    _ramp,
    approx_space_norm,
    band_energies,
    band_frames,
    besov_norm_bands,
    build_band_frame,
    direct_inverse_check,
    frame_analysis,
    frame_synthesis,
    full_band_count,
    g_cutoff,
    h_cutoff,
    lp_decompose,
    partition_values,
)
from axbkit.grids import HalfLineFunction
from axbkit.halfline import xp_norm
from axbkit.paleywiener import pw_project
from axbkit.spectral import apply_multiplier


def test_cutoff_shape():
    lam = np.linspace(0.0, 3.0, 301)
    g = g_cutoff(lam)
    assert np.all(g[lam <= 1.0] == 1.0)
    assert np.all(g[lam >= 2.0] == 0.0)
    assert np.all((0.0 <= g) & (g <= 1.0))
    assert np.all(np.diff(g) <= 1e-15)  # non-increasing


def _g_cutoff_full(lam):
    """``g_cutoff`` with the ramp evaluated on the whole array and the band kept."""
    lam = np.asarray(lam, dtype=float)
    mid = (lam > 1.0) & (lam < 2.0)
    with np.errstate(invalid="ignore"):  # the ramp at NaN is 0/0
        ramp = _ramp(2.0 - lam)
    return np.where(mid, ramp, np.where(lam <= 1.0, 1.0, 0.0))


@pytest.mark.parametrize("lam", [
    pytest.param(1.0, id="1"),
    pytest.param(2.0, id="2"),
    pytest.param(np.nextafter(1.0, 2.0), id="nextafter(1,2)"),
    pytest.param(np.nextafter(2.0, 1.0), id="nextafter(2,1)"),
    pytest.param(math.nan, id="nan"),
    pytest.param(np.array(1.5), id="0-d"),
    pytest.param(np.array([]), id="empty"),
    pytest.param(np.array([1.0, np.nextafter(1.0, 2.0), math.nan, 1.3, np.nextafter(2.0, 1.0),
                           2.0, 7.0, 0.2]), id="mixed"),
    pytest.param(np.logspace(-6, 6, 1001).reshape(7, 143), id="logspace-2d"),
])
def test_masked_cutoff_equals_the_full_array_formula(lam):
    got, want = g_cutoff(lam), _g_cutoff_full(lam)
    assert got.shape == want.shape == np.shape(lam)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_low_band_is_one():
    lam = np.linspace(0.0, 1.0, 50)
    vals = partition_values(4, lam)
    np.testing.assert_array_equal(vals[0], np.ones(50))
    assert np.max(np.abs(vals[1:])) == 0.0


def test_telescoping_pointwise():
    lam = np.array([3.7])
    vals = partition_values(6, lam)
    expected = g_cutoff(3.7 / 2.0 ** 6)
    assert abs(vals.sum() - expected) < 1e-15
    assert expected == 1.0


def test_band_support():
    lam = np.concatenate([np.linspace(0.0, 0.49, 10), np.linspace(2.01, 6.0, 10)])
    j = 3
    assert np.max(np.abs(h_cutoff(2.0 ** (-j) * lam * 2.0 ** j / 1.0) *
                         0 + h_cutoff(lam))) <= np.max(np.abs(h_cutoff(lam)))
    # h is supported inside [1/2, 2]
    assert np.max(np.abs(h_cutoff(lam))) == 0.0


def test_lp_reconstruction_and_energy(grid, op, f_lg):
    pieces = lp_decompose(f_lg, op)
    recon = np.sum([p.values for p in pieces], axis=0)
    assert xp_norm(f_lg.with_values(recon - f_lg.values)) / xp_norm(f_lg) < 1e-10
    energies = band_energies(f_lg, op)
    total = float(np.sum(energies ** 2))
    assert abs(total - xp_norm(f_lg) ** 2) / xp_norm(f_lg) ** 2 < 1e-10


def test_single_band_leaks_only_to_neighbors(grid, op, f_lg):
    # project f onto the lambda-band [2^{j-1}, 2^{j+1}] and decompose
    j = 3
    band = apply_multiplier(
        lambda lam: ((lam >= 2.0 ** (j - 1)) & (lam <= 2.0 ** (j + 1))).astype(float),
        f_lg, op)
    energies = band_energies(band, op)
    far = [e for i, e in enumerate(energies) if abs(i - j) > 1]
    assert max(far) < 1e-10 * xp_norm(band)


def test_tight_frame_bounds_and_parseval(grid, op, f_lg):
    frames = band_frames(op)
    for b in frames:
        if b.n_atoms:
            lo, hi = b.estimated_bounds()
            assert abs(lo - 1.0) < 1e-10 and abs(hi - 1.0) < 1e-10
    coeffs = frame_analysis(f_lg, frames, op)
    for b, c in zip(frames, coeffs):  # one coefficient vector serves every band
        np.testing.assert_array_equal(c, frame_analysis(f_lg, [b], op)[0])
    mass = sum(float(np.sum(np.abs(c) ** 2)) for c in coeffs)
    assert abs(mass - xp_norm(f_lg) ** 2) / xp_norm(f_lg) ** 2 < 1e-10


def test_tight_band_mass_equals_projection(grid, op, f_lg):
    b = build_band_frame(op, 2)
    mass = float(np.sum(np.abs(frame_analysis(f_lg, [b], op)[0]) ** 2))
    tau = np.sqrt(np.maximum(op.eigenvalues, 0.0))
    proj = apply_multiplier(
        lambda lam: ((np.sqrt(np.maximum(lam, 0.0)) >= b.tau_lo)
                     & (np.sqrt(np.maximum(lam, 0.0)) < b.tau_hi)).astype(float),
        f_lg, op)
    assert mass == pytest.approx(xp_norm(proj) ** 2, rel=1e-12)


def test_dual_of_tight_frame_is_itself(grid, op):
    b = build_band_frame(op, 1)
    d = b.dual()
    np.testing.assert_allclose(d.amat, b.amat, atol=1e-12)


def test_redundant_frame(grid, op, f_lg):
    b = build_band_frame(op, 1, redundant=True)
    lo, hi = b.estimated_bounds()
    assert abs(lo - 2.0) < 1e-10 and abs(hi - 2.0) < 1e-10
    frames = band_frames(op, redundant=True)
    coeffs = frame_analysis(f_lg, frames, op)
    recon = frame_synthesis(coeffs, [fr.dual() for fr in frames], op)
    assert xp_norm(recon - f_lg) / xp_norm(f_lg) < 1e-10


def test_empty_band_flagged(grid, op):
    b = build_band_frame(op, 40)
    assert b.n_atoms == 0
    assert b.estimated_bounds() == (0.0, 0.0)


def test_frame_analysis_zero(grid, op):
    zero = HalfLineFunction(grid, np.zeros(grid.n))
    frames = band_frames(op)
    coeffs = frame_analysis(zero, frames, op)
    assert all(np.all(c == 0.0) for c in coeffs)


def test_besov_band_variants_zero(grid, op):
    zero = HalfLineFunction(grid, np.zeros(grid.n))
    for variant in ("approx", "projections", "frames"):
        assert besov_norm_bands(zero, op, 0.5, 2.0, variant) == 0.0


def test_besov_band_single_band_value(grid, op, f_lg):
    # a function in one tau-bin: each variant ~ 2^{j alpha} ||f|| up to
    # neighbor leakage and the extra ||f|| term of the approx variant
    j = 2
    band = apply_multiplier(
        lambda lam: ((np.sqrt(np.maximum(lam, 0)) >= 2.0 ** j)
                     & (np.sqrt(np.maximum(lam, 0)) < 2.0 ** (j + 1))).astype(float),
        f_lg, op)
    band = band * (1.0 / xp_norm(band))
    alpha = 0.5
    ref = 2.0 ** (j * alpha)
    for variant in ("projections", "frames"):
        v = besov_norm_bands(band, op, alpha, 2.0, variant)
        assert 0.5 * ref <= v <= 3.0 * ref
    v = besov_norm_bands(band, op, alpha, 2.0, "approx")
    assert 1.0 <= v <= 1.0 + 2.0 * ref


def test_besov_band_variants_within_band(grid, op, f_lg):
    for alpha, q in ((0.5, 2.0), (1.0, math.inf), (1.3, 1.0)):
        vals = [besov_norm_bands(f_lg, op, alpha, q, v)
                for v in ("approx", "projections", "frames")]
        assert max(vals) / min(vals) < 50.0


def test_besov_band_validation(grid, op, f_lg):
    with pytest.raises(ValueError):
        besov_norm_bands(f_lg, op, -1.0, 2.0)
    with pytest.raises(ValueError):
        besov_norm_bands(f_lg, op, 0.5, 0.2)
    with pytest.raises(ValueError):
        besov_norm_bands(f_lg, op, 0.5, 2.0, "unknown")


def test_approx_space_norm_bandlimited(grid, op, f_lg):
    band = pw_project(2.0, f_lg, op=op)
    band = band * (1.0 / xp_norm(band))
    v = approx_space_norm(band, op, 1.0, 2.0)
    assert np.isfinite(v)
    # scales at or beyond the band contribute nothing
    from axbkit.paleywiener import best_approx

    assert best_approx(2.0, band, op) < 1e-10


def test_direct_inverse_check(grid, op, space, f_lg):
    band = pw_project(4.0, f_lg, op=op)
    band = band * (1.0 / xp_norm(band))
    rep = direct_inverse_check(band, op, 2, space)
    assert rep["bernstein_margin"] <= 1.0 + 1e-8
    assert np.isfinite(rep["jackson_hypothesis_hat"])
    assert rep["interp_over_approx"] > 0
    assert np.isfinite(rep["interp_over_approx"])


def test_full_band_count_covers_spectrum(grid, op):
    J = full_band_count(op, "lambda")
    top = float(np.max(op.eigenvalues))
    assert 2.0 ** (-J) * top <= 1.0


@pytest.mark.parametrize("convention", ["Tau", "LAMBDA", "sqrt", ""])
def test_band_convention_must_be_lambda_or_tau(op, f_lg, convention):
    # any other spelling used to be read as "lambda", which doubles the tau exponents
    with pytest.raises(ValueError, match=f"convention must be 'lambda' or 'tau', got {convention!r}"):
        full_band_count(op, convention)
    for J in (None, 3):
        with pytest.raises(ValueError, match="convention must be"):
            band_energies(f_lg, op, J, convention=convention)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.floats(1e-6, 1e6), st.integers(0, 24))
@settings(max_examples=200, deadline=None)
def test_telescoping_property(lam, J):
    vals = partition_values(J, np.array([lam]))
    assert abs(vals.sum() - g_cutoff(2.0 ** (-J) * lam)) < 1e-12


@given(st.floats(0.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_partition_nonnegative_bounded(lam):
    vals = partition_values(8, np.array([lam]))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-15)


_VARIANTS = ("approx", "projections", "frames")


@pytest.mark.parametrize("variant", _VARIANTS)
def test_besov_band_sequences_equal_single_calls(op, f_lg, variant):
    alphas, qs = (0.5, 1.0, 1.3), (2.0, math.inf, 1.0)
    norms = besov_norm_bands(f_lg, op, alphas, qs, variant)
    assert norms == [besov_norm_bands(f_lg, op, a, q, variant) for a, q in zip(alphas, qs)]
    assert besov_norm_bands(f_lg, op, np.array(alphas[:2]), list(qs[:2]), variant) == norms[:2]
    assert type(besov_norm_bands(f_lg, op, 0.5, 2.0, variant)) is float


def test_besov_band_frames_equal_per_band_reference(op, f_lg):
    # the frames variant against the frame coefficients, one band at a time
    coeffs = frame_analysis(f_lg, band_frames(op), op)
    for alpha, q in ((0.5, 2.0), (1.0, math.inf), (1.3, 1.0)):
        vals = [2.0 ** (j * alpha) * math.sqrt(float(np.sum(np.abs(c) ** 2)))
                for j, c in enumerate(coeffs)]
        if math.isinf(q):
            ref = float(np.max(vals))
        else:
            ref = float(np.sum(np.asarray(vals) ** q) ** (1 / q))
        assert besov_norm_bands(f_lg, op, alpha, q, "frames") == ref


def test_besov_band_sequence_validation(op, f_lg):
    with pytest.raises(ValueError, match="alpha and q"):
        besov_norm_bands(f_lg, op, (0.5, 1.0), (2.0,))
    with pytest.raises(ValueError, match="alpha and q"):
        besov_norm_bands(f_lg, op, (0.5, 1.0), 2.0)
    with pytest.raises(ValueError, match="alpha"):
        besov_norm_bands(f_lg, op, (0.5, -1.0), (2.0, 2.0))
    for variant in _VARIANTS:
        assert besov_norm_bands(f_lg, op, (), (), variant) == []
    with pytest.raises(ValueError):
        besov_norm_bands(f_lg, op, (), (), "unknown")


def _q_band(j, lam):
    """Band j's profile, one evaluation of one cutoff: the reference for the band rows."""
    if j == 0:
        return g_cutoff(lam)
    return np.maximum(h_cutoff(2.0 ** (-j) * np.asarray(lam, dtype=float)), 0.0)


def test_band_rows_equal_the_per_band_cutoffs(op):
    # one vectorized evaluation of the cutoffs gives, bit for bit, the rows
    # of one evaluation per band, and clipped at 0 the band rows that
    # lp_decompose and band_energies weight; 2^-j lam turns subnormal at the
    # smallest points, where the cutoffs are 1
    lam = op.eigenvalues
    assert np.min(lam) > 0.0
    tau = np.sqrt(lam)
    points = np.concatenate([np.logspace(-6.0, 8.0, 10 ** 4), [0.0, 1.0, 1.5, 2.0, 1e-300, 3e-308]])
    for arg, J in ((lam, full_band_count(op, "lambda")), (tau, full_band_count(op, "tau")),
                   *((points, J) for J in (0, 1, 3, 12, 20))):
        rows = partition_values(J, arg)
        assert rows.shape == (J + 1, arg.size)
        for j, row in enumerate(rows):
            one = g_cutoff(arg) if j == 0 else h_cutoff(2.0 ** (-j) * arg)
            assert np.array_equal(row.view(np.uint64), one.view(np.uint64)), j
            assert np.array_equal(np.maximum(row, 0.0), _q_band(j, arg)), j


@pytest.mark.parametrize("J", [-1, 1.5, 2.0])
def test_band_count_must_be_a_nonnegative_integer(op, f_lg, J):
    # J = -1 gave no band at all: an empty decomposition whose sum is 0
    calls = (lambda: partition_values(J, [0.5, 1.0]), lambda: lp_decompose(f_lg, op, J),
             lambda: band_energies(f_lg, op, J), lambda: band_frames(op, J))
    for call in calls:
        with pytest.raises(ValueError, match="J must be an integer >= 0"):
            call()


def test_lp_decompose_equals_per_band_apply_fn(op, f_lg):
    # all bands are synthesized in one matrix product, one functional-calculus call per
    # band is a matrix-vector product each: they agree to 1e-12 of ||f||
    pieces = lp_decompose(f_lg, op)
    assert len(pieces) == full_band_count(op, "lambda") + 1
    for j, piece in enumerate(pieces):
        ref = op.apply_fn(lambda lam: _q_band(j, lam), f_lg.values)
        assert op.norm(piece.values - ref) <= 1e-12 * xp_norm(f_lg)


def test_direct_inverse_check_keeps_a_nan(monkeypatch, op, space, f_lg):
    # a NaN best approximation at a scale after the first reaches the constant
    from axbkit import paleywiener

    real = paleywiener.best_approx

    def poisoned(sigma, f, op):
        errors = np.array(real(sigma, f, op), dtype=float)
        if errors.ndim:
            errors[1] = math.nan
        return errors

    monkeypatch.setattr(paleywiener, "best_approx", poisoned)
    band = pw_project(4.0, f_lg, op=op)
    rep = direct_inverse_check(band * (1.0 / xp_norm(band)), op, 2, space)
    assert math.isnan(rep["jackson_hypothesis_hat"])
