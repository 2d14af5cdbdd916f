"""Human-readable registry of the public operations.

``describe(name)`` returns a short account of what the operation computes,
with the defining formula where one exists; ``axbkit describe <name>``
prints it.
"""

from __future__ import annotations

__all__ = ["describe", "operation_names"]

_OPS: dict[str, str] = {
    "multiply": (
        "Group law of the affine group of the line, the half-plane of pairs "
        "(a, b) with a > 0 equipped with the group operation "
        "(a, b)(c, d) = (ac, ad + b)."
    ),
    "inverse": "Group inverse (1/a, -b/a), so g * inverse(g) is the identity (1, 0).",
    "exp_map": (
        "Exponential coordinates exp(x1 X1 + x2 X2) = (e^{x1}, x2 (e^{x1} - 1)/x1); "
        "this map is a coordinate system in a neighborhood of the identity."
    ),
    "factor": (
        "Every group element can be written as exp(ln a X1) exp((b/a) X2); "
        "returns the pair (ln a, b/a)."
    ),
    "haar_weight": (
        "Densities of the invariant measures: the left-invariant measure on G is "
        "a^{-2} da db. The group G is not unimodular; the right-invariant measure "
        "is a^{-1} da db."
    ),
    "bracket": "Lie bracket in the basis with [X1, X2] = X2.",
    "xp_norm": (
        "Norm of X^p, the space of functions on the half-line such that "
        "f(.)(.)^{-1/p} is p-integrable; computed with the norm "
        "||f(.)(.)^{-1/p}||_p as a trapezoid sum in u = ln x. Takes a function "
        "container, or bare values with grid= (the representation-interface form)."
    ),
    "inner": (
        "X^2 inner product with respect to the inner product "
        "<f1, f2> = int_0^inf f1 conj(f2) dx/x."
    ),
    "act": (
        "The half-line representation, defined by using the formula "
        "U(a, b) f(x) = e^{ibx} f(ax), i.e. U2(b) U1(ln a); unitary on X^2, "
        "in the sense that every U(g) preserves the inner product."
    ),
    "act_dilation": "One-parameter dilation group U1(t) f(x) = f(e^t x), a log-shift.",
    "shift_log": (
        "Translation f(u) -> f(u + t) in u = ln x: an exact zero-filled shift on grid "
        "multiples, band-limited interpolation otherwise. A container in gives a "
        "validated container out; bare values with grid= give an unvalidated array "
        "out. A non-finite t is rejected."
    ),
    "act_modulation": (
        "One-parameter modulation group U2(t) f(x) = e^{itx} f(x), exact for every "
        "finite t (a non-finite t is rejected). A container in gives a validated "
        "container out; bare values with grid= give an unvalidated array out."
    ),
    "generator": (
        "The infinitesimal operator of this pair of one-parameter groups: "
        "D1 = x d/dx (a plain d/du on the log grid) and D2 f = ixf; "
        "they span a Lie algebra with [D1, D2] = D2."
    ),
    "mixed_derivative": "Iterated generators D_{j1} ... D_{jk} for a word over {1, 2}.",
    "sobolev_norm": (
        "Sobolev norm: the X^p norm plus, for every order k <= m and every word "
        "(j1, ..., jk) in {1,2}^k, the norm of the mixed derivative; the space of "
        "functions for which the following norm is finite is the order-m Sobolev space."
    ),
    "macdonald_kernel": (
        "Macdonald function of imaginary order, "
        "K_{i tau}(x) = int_0^inf exp(-x cosh t) cos(tau t) dt, the generalized "
        "eigenfunction of the Mellin harmonic oscillator with eigenvalue tau^2."
    ),
    "kl_forward": (
        "Forward kernel transform F(tau) = int K_{i tau}(x) f(x) dx/x, the "
        "concrete diagonalization used for spectral multipliers."
    ),
    "kl_inverse": (
        "Inverse kernel transform with weight c tau sinh(pi tau); the constant c "
        "defaults to the analytically expected 2/pi^2 and is re-derived by least "
        "squares at build time, with the matrix oracle as arbiter."
    ),
    "build_matrix_laplacian": (
        "Dense Hermitian discretization of the corresponding Laplace operator "
        "Delta = -D1^2 - D2^2 = -(x d/dx)^2 + x^2 with its full eigensystem; the "
        "brute-force spectral oracle. A Mellin harmonic oscillator: x d/dx plays "
        "the role d/dx plays in the classical oscillator -(d/dx)^2 + x^2."
    ),
    "apply_multiplier": (
        "Functional calculus F(Delta) f. Using the spectral theorem one has "
        "F(Delta) f as the inverse transform of F(lambda) times the transform of f; "
        "backend 'matrix' uses the eigen-expansion, 'kernel' the kernel transform."
    ),
    "spectral_measure": (
        "Discrete spectral measure of f: pairs (lambda_k, |<f, v_k>|^2); the "
        "weights sum to ||f||^2 exactly."
    ),
    "steklov_avg": (
        "We introduce the Hardy-Steklov-type operators "
        "P_{j,r}(s) f = (s/r)^{-r} int ... int T_j(t_1 + ... + t_r) f dt, the "
        "r-fold moving average along one subgroup. Direction 2 collapses to the "
        "multiplier ((e^{i(s/r)x} - 1)/(i(s/r)x))^r; direction 1 to a box-spline "
        "convolution in u."
    ),
    "steklov": "Composition P_r(s) = P_{1,r}(s) P_{2,r}(s); the factors do not commute.",
    "m_operator": (
        "Alternating combination M_{j,r} f = sum_{k=1}^r (-1)^k C(r,k) T_j(k t) f, "
        "where C(r,k) are the binomial coefficients; f + M f = (I - T_j(t))^r f."
    ),
    "hardy_steklov": (
        "An analog of the Hardy-Steklov operator: H_r(s) = H_{1,r}(s) H_{2,r}(s) "
        "with H_{j,r}(s) f = (s/r)^{-r} int ... int M_{j,r} f; the smoothing "
        "witness for the upper K-functional bound."
    ),
    "commutation_check": (
        "Residual of the commutation formula "
        "D2^m T1(t1) T2(t2) f = e^{-m t1} T1(t1) T2(t2) D2^m f, which follows "
        "from (e^{t1}, 0)(1, t2) = (e^{t1}, t2 e^{t1})."
    ),
    "modulus_mixed": (
        "The mixed modulus of continuity of a vector: Omega^r(s, f) sums, over "
        "words (j1, ..., jr) in {1,2}^r, the suprema over 0 <= t_i <= s of "
        "||(T_{j1}(t1) - I) ... (T_{jr}(tr) - I) f||. Grid suprema make every "
        "value a certified lower bound. Each supremum is searched on a stack: "
        "right to left through the word, every factor applies its group once per "
        "candidate time to all differences built so far, and the norm is taken "
        "once over the final stack of candidate tuples. f is a container or bare "
        "values, checked once at entry (finite, ending in the grid shape); inside, "
        "plain arrays flow through the space's callables, and a non-finite result "
        "raises."
    ),
    "verify_modulus_inequalities": (
        "Empirical constants of the three modulus inequalities: order reduction "
        "through generators, scale doubling against (1 + a)^r, and the weighted "
        "comparison with the higher-order modulus."
    ),
    "k_upper": (
        "Upper K-functional surrogate from the splitting "
        "f = (f - H_r(s) f) + H_r(s) f, capped by the trivial splitting at ||f||; "
        "K(s^r, f) <= ||f|| holds by definition of the infimum."
    ),
    "k_lower": "Lower K-functional surrogate: the mixed modulus Omega^r(s, f) itself.",
    "k_spectral": (
        "Spectral comparator (sum_k min(1, s^r lambda_k^{r/2})^2 w_k)^{1/2} from "
        "the discrete spectral measure; equivalent to the K-functional of the "
        "pair (H, D(Delta^{r/2})) with recorded constants. An array of scales "
        "shares one spectral-weight vector of f."
    ),
    "besov_norm": (
        "Besov norm: ||f|| plus the truncated integral of (s^{-alpha} core(s))^q "
        "ds/s over dyadic s, where core is the K-functional surrogate or the "
        "mixed modulus; with the usual modifications for q = infinity. Given a "
        "sequence of (alpha, q, r) sharing one r it computes the core profile once "
        "and returns one norm per entry."
    ),
    "besov_norm_fractional": (
        "For non-integer alpha: the order-[alpha] Sobolev norm plus integrated "
        "first-order moduli of the [alpha]-fold mixed derivatives, weight "
        "s^{[alpha]-alpha}, where [alpha] is the integer part of alpha."
    ),
    "zygmund_norm": (
        "For integer alpha = k (Zygmund condition): the order-(k-1) Sobolev norm "
        "plus integrated second-order moduli of the (k-1)-fold derivatives with "
        "weight 1/s. At k = 1 it coincides exactly with the modulus realization "
        "of besov_norm at alpha = 1, r = 2."
    ),
    "reiteration_check": (
        "The isomorphism between (E, E^r) and (E^{k1}, E^{k2}) interpolation "
        "norms, realized through moduli on both sides, plus the interpolation "
        "inequality ||f||_{E^k} <= C ||f||^{1-k/r} ||f||_{E^r}^{k/r}."
    ),
    "pw_project": (
        "Spectral projection onto the Paley-Wiener space: the image space of the "
        "projection operator 1_{[0, omega]}(Delta^{1/2}), understood through the "
        "operational calculus of the discrete operator."
    ),
    "best_approx": (
        "The best approximation functional E(sigma, f) = inf over bandlimited g "
        "in PW_sigma of ||f - g||; the orthogonal projection attains it. An array "
        "of sigmas shares one spectral-weight vector of f."
    ),
    "bernstein_check": (
        "Bernstein-type inequalities hold true on PW_omega: "
        "||Delta^{s/2} f|| <= omega^s ||f||; reports the ratios."
    ),
    "riesz_boas": (
        "Riesz-Boas interpolation formula: i sqrt(Delta) f = (omega/pi^2) "
        "sum_k (-1)^{k-1} (k - 1/2)^{-2} exp(i (pi/omega)(k - 1/2) sqrt(Delta)) f, "
        "truncated symmetrically with an explicit tail bound."
    ),
    "schrodinger_modulus": (
        "Modulus of continuity of the Schroedinger group: "
        "sup_{0 <= tau <= t} ||(e^{i tau Delta} - I)^r f||, evaluated through "
        "spectral weights."
    ),
    "jackson_check": (
        "Jackson-type bound E(sigma, f) <= C (Omega^r(1/sigma, f) "
        "+ min(sigma^{-r}, 1) ||f||) with the empirical constant C, which is "
        "independent on f, reported over the corpus."
    ),
    "partition_values": (
        "(dyadic) partition of unity: Q_0 = g, Q_j = h(2^{-j} lambda) with "
        "h(lambda) = g(lambda) - g(2 lambda); partial sums telescope to "
        "g(2^{-J} lambda)."
    ),
    "lp_decompose": (
        "Littlewood-Paley decomposition f = sum_j Q_j(Delta) f with finitely many "
        "nonzero terms; each piece is bandlimited to [2^{j-1}, 2^{j+1}] in lambda."
    ),
    "band_energies": (
        "Norms ||F_j(Delta) f|| of the quadratic partition pieces; taking inner "
        "product with f gives the energy identity sum_j ||F_j(Delta) f||^2 = ||f||^2."
    ),
    "build_band_frame": (
        "A frame in the Paley-Wiener space of one dyadic band, built from the "
        "discrete eigenvectors (tight, a = b = 1); a redundant variant duplicates "
        "atoms to exercise the canonical dual frame."
    ),
    "frame_analysis": "Frame coefficients <f, Phi^j_k> across all bands.",
    "frame_synthesis": (
        "The reconstruction formulas hold for every f: "
        "f = sum_{j,k} <f, Phi^j_k> Psi^j_k with the canonical dual frame; with "
        "tight bands the global frame constants equal the per-band ones."
    ),
    "besov_norm_bands": (
        "Band-side Besov norms: from best approximations (2^{j alpha} E(2^j, f)), "
        "from band projections (2^{j alpha} ||F_j f||), or from frame coefficients "
        "(2^{j alpha} l2-mass); all dyadic in tau = sqrt(lambda). Given equal-length "
        "sequences of alpha and q it computes the band data once and returns one "
        "norm per pair."
    ),
    "approx_space_norm": (
        "The approximation space quasi-norm built from E(f, t) = inf over "
        "||g||_T <= t of ||f - g||, where T is the union of Paley-Wiener spaces "
        "with quasi-norm inf{omega : f in PW_omega}."
    ),
    "direct_inverse_check": (
        "Empirical constants of the direct theorem (a Jackson-type inequality is "
        "satisfied: t^r E(t, f) <= C ||f||) and the inverse theorem (a "
        "Bernstein-type inequality holds), with the two one-sided embedding ratios."
    ),
    "lp_norm_2d": (
        "Weighted half-plane norms: x^{-2} dx dy on the left (e^{-u} du dy in log "
        "coordinates) and x^{-1} dx dy on the right (du dy)."
    ),
    "act_2d": (
        "The left-regular representation U^L(a,b) f(x,y) = f(ax, ay + b) and the "
        "right-regular representation U^R(a,b) f(x,y) = f(xa, xb + y); isometries "
        "of their weighted norms. Exact zero-fill shifts on grid multiples, natural "
        "cubic splines otherwise; a and b must be finite."
    ),
    "generator_2d": (
        "Generators: left D1 = x dx + y dy and D2 = dy; right D1 = x dx and "
        "D2 = x dy. Direct expansion gives [D1, D2] = -D2 (left) and +D2 (right); "
        "both residuals are reported."
    ),
    "laplacian_2d": (
        "Half-plane Laplacians D1* D1 + D2* D2 from skew-symmetrized generators, "
        "kept as Kronecker factors on the two axes and applied axis by axis; the "
        "exact minimum eigenvalue comes from a block reduction to one-axis "
        "eigenproblems, with no dense product-grid matrix. The expanded forms "
        "-(1+y^2) dyy - x^2 dxx - 2xy dxy - x dx - y dy and -x^2 (dxx + dyy) - x dx "
        "are interior consistency oracles."
    ),
    "sobolev_graph_check": (
        "Ratio between the order-m Sobolev norm and the graph norm "
        "||f|| + ||Delta^{m/2} f||; the two are equivalent and the constants are "
        "reported."
    ),
    "run_suite": "Run one verification suite and emit deterministic JSON and CSV reports.",
    "list_corpus": "Enumerate the registered corpus families and their parameters.",
    "describe": "Print this registry entry for a named operation.",
}


def operation_names() -> list[str]:
    return sorted(_OPS)


def describe(name: str) -> str:
    try:
        return _OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown operation {name!r}; known operations: {', '.join(sorted(_OPS))}"
        ) from None
