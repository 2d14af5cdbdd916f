"""Numerical harmonic analysis on the affine group of the line.

The package realizes, at desk scale, the circle of constructions around
the "ax+b" group: its representations on the half-line and the half-plane,
mixed moduli of continuity and K-functionals, Hardy-Steklov smoothing,
Paley-Wiener projections with Bernstein and Riesz-Boas checks, dyadic
Littlewood-Paley frames, and four independently computed realizations of
the Besov norms, all cross-validated against a brute-force matrix
spectral oracle.
"""

# numpy >= 2 imports these submodules on first attribute access; every run uses
# both, so they load with the package rather than inside whichever computation
# touches them first.  numpy.polynomial (the Gauss-Legendre nodes) and numpy.ma
# (np.unique's masked-array test) load on first use instead: the moduli reach
# neither, and together they hold about 2.6 MB
import numpy.fft, numpy.random  # noqa: E401, F401

from .config import RunConfig, parse_config_file
from .corpus import DEFAULT_CORPUS, build_corpus, corpus_names
from .describe import describe, operation_names
from .frames import (
    band_energies,
    besov_norm_bands,
    build_band_frame,
    frame_analysis,
    frame_synthesis,
    g_cutoff,
    lp_decompose,
    partition_values,
)
from .grids import HalfLineFunction, LogGrid, SpectralGrid
from .group import GroupElement, LieVector, exp_map, factor, haar_weight, inverse, multiply
from .halfline import (
    act,
    act_dilation,
    act_modulation,
    generator,
    inner,
    xp_norm,
)
from .moduli import (
    BesovParams,
    RepresentationSpace,
    besov_norm,
    besov_norm_fractional,
    halfline_space,
    k_lower,
    k_spectral,
    k_upper,
    mixed_derivative,
    modulus_mixed,
    reiteration_check,
    sobolev_norm,
    verify_modulus_inequalities,
    zygmund_norm,
)
from .paleywiener import (
    bernstein_check,
    best_approx,
    jackson_check,
    pw_project,
    riesz_boas,
    schrodinger_modulus,
)
from .smoothing import (
    commutation_check,
    hardy_steklov,
    m_operator,
    steklov,
    steklov_avg,
)
from .spectral import (
    KL_CONSTANT,
    DiscreteOperator,
    Spectrum,
    apply_multiplier,
    build_matrix_laplacian,
    estimate_kl_constant,
    kl_forward,
    kl_inverse,
    macdonald_kernel,
    spectral_measure,
)
from .suites import SUITES, run_all, run_suite

__version__ = "0.1.0"
