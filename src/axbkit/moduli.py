"""Mixed moduli of continuity, K-functionals, and Besov norms.

The machinery is written against a small representation interface so the
same code measures the half-line model and the two half-plane models.  A
space provides its norm, the two one-parameter groups, their generators,
the admissible time steps for supremum search, and a Hardy-Steklov
smoothing operator.

The order-r mixed modulus of a vector f is

``Omega^r(s, f) = sum over words (j_1 .. j_r) in {1,2}^r of
  sup_{0 <= t_i <= s} || (T_{j_1}(t_1) - I) ... (T_{j_r}(t_r) - I) f ||``

with one independent supremum per factor.  Suprema are taken over finite
candidate sets, so every computed modulus is a certified lower bound of
the continuum value; inequality checks are arranged so that this weakens
only the favorable side where possible and are otherwise reported as
empirical constants.

The interface works on plain complex ndarrays: the space's grid is bound
into its callables when the space is built, ``shape`` is the grid's
sample shape, and ``steps`` holds, per direction, the step whose multiples
are the group's exact times (``None`` when every time is exact), from
which :func:`grid_candidates` draws the supremum search's candidates.
Two optional declarations ride on the callables they describe: an
attribute ``act.multiplies`` says per direction whether ``T_j(t)`` is
pointwise multiplication by its symbol ``T_j(t) 1``, and ``norm.lp`` gives
``(weights, p)`` when the norm is ``(sum weights |v|^p)^{1/p}``.  The
half-line declares its modulation group and its ``X^p`` norm this way, the
half-plane nothing; a space made by ``dataclasses.replace`` with a plain
callable in place of either declares nothing for it.  An
array may hold a stack of functions on that grid: leading batch axes, with
the grid on the trailing axis or axes.  ``act``,
``gen`` and ``hardy`` apply to every member of a stack, and ``norm`` returns one
value per leading index (a float for a single function).  The supremum
search uses this: going right to left through a word, each factor applies
its group once per candidate time to the whole stack built so far, and the
stack of each proper suffix is built once per scale and shared by every
word that ends in it.  The first letter's factor is
normed block by block, one block per candidate, as it is formed, and a
running maximum keeps each member's best, so the stack of a whole word over
every candidate tuple is never built.  A direction that multiplies never
acts on the stack: its symbol ``T_j(t) 1`` is taken on the constant
function once per space and time and kept in the space's own table, which
goes with the space, and each of its factors multiplies by the tabled
symbols, a suffix's as one broadcast product over its candidates.  Under an
``l^p`` norm such a first letter forms no block at all: ``||(T_j(t) - I)
g||^p`` is the dot of ``|g|^p`` with the tabled row ``weights |T_j(t) 1 -
1|^p``.  With candidate sets ``T_1`` and ``T_2`` for the two directions,
order r thus makes ``(2^r - 1)(|T_1| + |T_2|)`` calls of the group action
per scale, one per candidate for the first letter of each of the
``2^{r+1} - 2`` suffixes (the words included), instead of ``r`` per
candidate tuple; a direction j that multiplies makes at most ``|T_j|``
instead, on the constant function, and none for a time its space has met
before (the half-line: ``(2^r - 1)|T_1|`` log-shifts per scale and one
modulation per distinct time per space).
Every acted or multiplied difference is computed with the same floating-point operations
as one candidate tuple at a time.  The row path sums the same positive
terms in another order, so each modulus is within ``1e-13`` relative of the
acted path (measured over the eleven suites at seeds 0 and 5: at most
2.6e-16).  The candidate steps
depend only on ``(s, cap, step)``, so :func:`grid_candidates` keeps them in
a table of at most 1024 read-only arrays of at most 12 steps each (a whole
report at the default grids fills 155 of them, about 7 kB), emptied by
:func:`axbkit.spectral.clear_caches`.

The public functions of this module take a validated container
(:class:`~axbkit.grids.HalfLineFunction`,
:class:`~axbkit.halfplane.HalfPlaneFunction`) or bare values.  Bare values
are checked once, at entry: they must be finite and end in the space's grid
shape (a ``(n, 1)`` array on an n-point grid is rejected, not broadcast).
Past that boundary only arrays flow, and no container is built.
Every order (``r >= 1``, the Sobolev ``m >= 0``, ``k``, ``k1``, ``k2``) is an integer and
every direction of ``act`` and ``gen`` 1 or 2, by the rules of :mod:`axbkit.grids`.
A derivative-word order is at most ``MAX_SOBOLEV_ORDER``, since the order-k
word stack holds ``2^k`` copies of its input: ``m`` of
:func:`sobolev_space_norm`, ``floor(alpha)`` of :func:`besov_norm_fractional`,
``k - 1`` of :func:`zygmund_norm`, ``k`` of :func:`verify_modulus_inequalities`,
and ``r`` of :func:`besov_tail_report` and :func:`reiteration_check`.  Each
refuses a larger one with a ``ValueError`` that names its parameter.  A
modulus order is at most 4, the largest with a candidate count: ``r`` of
:func:`modulus_mixed` (so of every caller), and ``r + k`` of
:func:`verify_modulus_inequalities`, which refuses such a ``k``.

:func:`halfline_space` calls the ``shift_log``, ``act_modulation``, ``xp_norm``,
``generator`` and ``hardy_steklov`` this module imports, looked up each time a
callable of the space runs, so a rebinding here (as a tracer makes) reaches
every space; :func:`sobolev_norm`, :func:`sobolev_norm_top` and
:func:`mixed_derivative` measure a container on that space.  Modules import one
another at module level only: ``grids``, ``group``, ``halfline``,
``smoothing``, this module, ``spectral``, then the rest.

:func:`modulus_mixed`, :func:`k_upper_detail`, :func:`k_upper`,
:func:`k_lower`, :func:`sobolev_space_norm` and the Besov norms
(:func:`besov_norm`, :func:`besov_norm_fractional`, :func:`zygmund_norm`)
take a stack of functions as well as one function.  A stack goes through
each group-action call of the search once, for every member at once, and
one result per member comes back, an array over the leading axes; one
function gives a Python float.  Each member gets exactly the bits it gets
alone: its words are added in the same order, and its Besov profile is
folded on its own.  These results, one per member, are checked to be
finite, so a non-finite intermediate of any member raises instead of being
lost in a later ``max``.  The scale ``s`` of :func:`modulus_mixed`,
:func:`k_lower`, :func:`k_upper` and :func:`k_spectral` (``sigma`` of
:func:`axbkit.paleywiener.best_approx`) is one number or a 1-D ladder, each
finite and nonnegative (positive for :func:`k_upper`).  A ladder gives
``(scale, member...)``, row i with the bits of the call at ``s[i]``.

K-functional surrogates for the pair (E, E^r):

* ``k_lower``  = the mixed modulus (a lower bound up to the theorem's
  constant);
* ``k_upper``  = the best of the two canonical splittings, the
  Hardy-Steklov witness ``f = (f - H_r(s) f) + H_r(s) f`` and the trivial
  splitting ``f = f + 0`` which caps the value at ``||f||``.  The gap to
  the true infimum is reported, never assumed zero;
* ``k_spectral`` (Hilbert case) = ``(sum_k min(1, s^r lam_k^{r/2})^2 w_k)^{1/2}``
  from the discrete spectral measure, one set of weights for a whole ladder.

Besov norms ``B^alpha_q`` are realized four independent ways across this
module and :mod:`axbkit.frames`; here live the K-functional and modulus
forms plus the fractional and Zygmund variants.  Each samples a scale
profile ``core(s)`` that depends only on ``f`` and the order on the dyadic
scales of :func:`besov_s_grid`; ``(alpha, q)`` only weights it.  So
:func:`besov_norm` also takes a sequence of :class:`BesovParams` sharing one
``r``: the profile is computed once and one norm per entry is returned.  At
``k = 1`` the Zygmund form integrates ``Omega^2(s, f) / s``, which is
exactly the modulus form at ``alpha = 1``, ``r = 2``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .grids import (HalfLineFunction, LogGrid, _checked_samples, _require_one, _worst, pth_root,
                    require_direction, require_exponent, require_integer)
from .halfline import act_modulation, generator, shift_log, xp_norm
from .smoothing import hardy_steklov

if TYPE_CHECKING:
    from .spectral import DiscreteOperator

__all__ = [
    "RepresentationSpace",
    "BesovParams",
    "halfline_space",
    "mixed_derivative",
    "sobolev_norm",
    "sobolev_norm_top",
    "grid_candidates",
    "apply_word",
    "sobolev_space_norm",
    "modulus_mixed",
    "verify_modulus_inequalities",
    "k_upper",
    "k_upper_detail",
    "k_lower",
    "k_spectral",
    "besov_s_grid",
    "besov_norm",
    "besov_tail_report",
    "besov_norm_fractional",
    "zygmund_norm",
    "reiteration_check",
]

#: the one bound on a derivative-word order: the order-k word stack holds ``2^k`` copies
#: of its input
MAX_SOBOLEV_ORDER = 4

#: per-factor candidate counts for the supremum search, by modulus order; the largest
#: order here is the largest the search takes
_SUP_CAP = {1: 12, 2: 8, 3: 4, 4: 3}

#: dyadic scales for the truncated Besov integral, s in [2^-16, 2^4]
_BESOV_J_RANGE = (-4, 16)

#: denominator floor factor for ratio reports
_FLOOR = 1e-14

#: candidate arrays kept by :func:`grid_candidates`, each at most ``max(_SUP_CAP)`` long
_CANDIDATE_TABLE_SIZE = 1024


@dataclass(frozen=True)
class RepresentationSpace:
    """Bundle of the operations a represented Banach space must expose.

    The callables take and return plain complex ndarrays on the space's own
    grid, unchecked; ``norm``, ``act``, ``gen`` and ``hardy`` accept a stack
    of functions as well as one function (see the module docstring).

    ``_symbols`` is not a field of the interface: it is the space's own table
    of the read-only symbols ``T_j(t) 1`` of its multiplying directions, and
    of their ``l^p`` weight rows, filled by the supremum search.  It starts
    empty, in a space made by ``dataclasses.replace`` too, and is freed with
    the space; :func:`reiteration_check` hands its Sobolev-norm space the parent's
    symbols, which the same action has taken.
    """

    shape: tuple  # the grid's sample shape, the trailing axes of every array
    norm: callable  # norm(v) -> float; for a stack, one norm per leading index
    act: callable  # act(j, t, v) -> array, the group T_j(t), on every member of a stack
    gen: callable  # gen(j, v) -> array, the generator A_j, on every member of a stack
    steps: tuple  # steps[j - 1]: T_j is exact on multiples of it, None if on every t
    hardy: callable  # hardy(r, s, v) -> array, the operator H_r(s), on every member of a stack
    # (j, t) -> the symbol T_j(t) 1; (j, t, "lp") -> its row weights * |T_j(t) 1 - 1|^p
    _symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _require_besov_index(alpha, q) -> None:
    """Raise a ``ValueError`` naming the index unless the smoothness ``alpha`` is positive
    and finite and the integrability ``q`` is ``>= 1``, ``inf`` for the sup form; every
    Besov entry point of this module and of :mod:`axbkit.frames` calls it."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if not q >= 1:
        raise ValueError(f"q must be >= 1 (use math.inf for the sup form), got {q!r}")


@dataclass(frozen=True)
class BesovParams:
    """Smoothness ``0 < alpha < r``, integrability ``q >= 1`` and integer modulus order ``r >= 1``."""

    alpha: float
    q: float
    r: int

    def __post_init__(self):
        require_integer("r", self.r, 1)
        _require_besov_index(self.alpha, self.q)
        if not self.alpha < self.r:
            raise ValueError("need alpha < r")


def halfline_space(grid: LogGrid, p: float = 2.0) -> RepresentationSpace:
    """The concrete half-line instantiation of the representation interface; an exponent
    ``p`` that is not finite or is below 1 is refused when the space is built."""
    require_exponent(p)

    def norm(v):
        return xp_norm(v, p, grid=grid)

    def act(j, t, v):
        if j == 1:
            return shift_log(v, t, grid=grid)
        if j == 2:
            return act_modulation(t, v, grid=grid)
        require_direction(j)  # raises: j is neither 1 nor 2

    # the declarations the supremum search reads (see the module docstring)
    norm.lp = (grid.weights, p)
    act.multiplies = (False, True)
    return RepresentationSpace(
        shape=(grid.n,),
        norm=norm,
        act=act,
        gen=lambda j, v: generator(j, v, grid=grid),
        # dilations are exact only on grid multiples of the step, the
        # modulation group for every t
        steps=(grid.h, None),
        hardy=lambda r, s, v: hardy_steklov(r, s, v, grid=grid),
    )


def mixed_derivative(word, f: HalfLineFunction) -> HalfLineFunction:
    """Iterated generators ``D_{j1} ... D_{jk}`` for a word ``(j1, ..., jk)`` over {1, 2}.

    The rightmost letter acts first, matching operator-product notation.
    """
    word = tuple(word)
    if len(word) == 0:
        raise ValueError("derivative word must be nonempty")
    return f.with_values(apply_word(halfline_space(f.grid), word, f))


def sobolev_norm(f: HalfLineFunction, m: int, p: float = 2.0) -> float:
    """Order-m Sobolev norm ``||f|| + sum_{|w| <= m} ||D_w f||``, ``0 <= m <= MAX_SOBOLEV_ORDER``."""
    return sobolev_space_norm(halfline_space(f.grid, p), f, m)


def sobolev_norm_top(f: HalfLineFunction, m: int, p: float = 2.0) -> float | np.ndarray:
    """Equivalent norm using only the top-order words: ``||f|| + sum_{|word|=m}``,
    per member of a stack; ``m`` as in :func:`sobolev_norm`."""
    require_integer("m", m, 0, MAX_SOBOLEV_ORDER)
    space = halfline_space(f.grid, p)
    top = sum(space.norm(_top_words(space, f.values, m))) if m > 0 else 0.0
    return _members(space.norm(f.values) + top)


def _values(f, shape: tuple, one: bool = False) -> np.ndarray:
    """The values of ``f`` at a public entry point, checked once.

    A container's values or bare values, converted to complex; the trailing
    axes (with ``one``, all axes) must be the grid ``shape`` exactly and every sample finite.
    """
    values = _checked_samples(getattr(f, "values", f), shape)
    if one:
        _require_one(values, len(shape))
    return values


def _ladder(s, name: str = "s", positive: bool = False) -> np.ndarray:
    """The scales ``s``: one number or a 1-D ladder, finite and nonnegative (or ``positive``)."""
    scales = np.asarray(s, dtype=float)
    ok = np.isfinite(scales) & ((scales > 0) if positive else (scales >= 0))
    if scales.ndim > 1 or not ok.all():
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}"
                         f" (one scale or a 1-D ladder), got {s!r}")
    return scales


def _by_scale(scales: np.ndarray, lead: tuple, at) -> float | np.ndarray:
    """``at(s)`` per checked scale, packed as ``(scale,) + lead``; one number gives ``at(s)``."""
    if scales.ndim == 0:
        return at(float(scales))
    return np.array([at(s) for s in scales.tolist()]).reshape(scales.shape + lead)


def _finite(value, what: str):
    """``value`` itself, after checking that it is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{what} is not finite: {value}")
    return value


def grid_candidates(s: float, cap: int, step: float | None) -> np.ndarray:
    """At most ``cap`` time steps in ``(0, s]`` for one factor's supremum search.

    With ``step=None`` (a group exact for every t) they are uniform; otherwise
    they are distinct integer multiples of ``step``, empty when ``s < step``.
    ``s`` must be finite and ``>= 0``, and ``step`` ``None`` or finite and ``> 0``.
    The array is read-only and comes from a table of
    ``_CANDIDATE_TABLE_SIZE`` entries keyed by ``(float(s), cap, step)``.
    """
    return _candidates(float(s), cap, None if step is None else float(step))


@lru_cache(maxsize=_CANDIDATE_TABLE_SIZE)
def _candidates(s: float, cap: int, step: float | None) -> np.ndarray:
    """The body of :func:`grid_candidates`, tabled; an argument that fails the checks
    raises here, before anything is tabled."""
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"s must be finite and >= 0, got {s}")
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be None or finite and > 0, got {step}")
    if step is None:
        ts = s * np.arange(1, cap + 1) / cap
    else:
        mmax = int(math.floor(s / step + 1e-9))
        count = max(min(cap, mmax), 0)  # none when s < step
        m = np.round(np.linspace(1, mmax, count)).astype(int)
        # m is non-decreasing, so dropping each entry equal to its predecessor gives
        # np.unique(m) without loading numpy.ma (np.unique calls np.ma.is_masked)
        keep = np.ones(m.size, dtype=bool)
        keep[1:] = m[1:] != m[:-1]
        ts = m[keep] * step
    ts.flags.writeable = False
    return ts


def apply_word(space: RepresentationSpace, word, f) -> np.ndarray:
    """``A_{j1} ... A_{jk} f`` for a word ``(j1, ..., jk)``; the rightmost letter acts first.

    Returns an array, the values of the result.
    """
    v = _values(f, space.shape)
    for j in reversed(word):
        v = space.gen(j, v)
    return v


def sobolev_space_norm(space: RepresentationSpace, f, m: int) -> float | np.ndarray:
    """``||f|| + sum_{k<=m} sum_{words of length k} ||A_word f||``, per member of a stack.

    The norms are added one word at a time, order by order, each order in
    the ``product((1, 2), repeat=k)`` order of :func:`_word_stacks`.
    """
    require_integer("m", m, 0, MAX_SOBOLEV_ORDER)
    return _sobolev_sum(space, _values(f, space.shape), m)


def _word_stacks(space: RepresentationSpace, f: np.ndarray, m: int):
    """Yield, for k = 0 .. m, the stack of ``A_word f`` over the words of order k, the words
    on axis 0 in ``product((1, 2), repeat=k)`` order (order 0: ``f`` alone, the empty word).

    Order k is ``A_1`` and then ``A_2`` applied to the whole stack of order k-1,
    so it costs two generator calls and recomputes no lower order.
    """
    g = f[None]
    yield g
    for k in range(1, m + 1):
        g = np.stack([space.gen(1, g), space.gen(2, g)]).reshape((2 ** k,) + f.shape)
        yield g


def _top_words(space: RepresentationSpace, f: np.ndarray, k: int) -> np.ndarray:
    """The last stack of :func:`_word_stacks`, the order-k words, keeping no lower order."""
    return deque(_word_stacks(space, f, k), maxlen=1)[0]


def _sobolev_sum(space: RepresentationSpace, f: np.ndarray, m: int) -> float | np.ndarray:
    """The body of :func:`sobolev_space_norm`, on values already checked or computed inside."""
    total = 0.0
    for words in _word_stacks(space, f, m):
        for norm in space.norm(words):
            total = total + norm
    return _members(total)


def _suffix(space: RepresentationSpace, word, candidates: dict, f, suffixes: dict,
            multiplies: tuple):
    """The stack of ``(T_{j1}(t1) - I) ... (T_{jk}(tk) - I) f`` over every candidate tuple
    of a proper suffix ``word``, candidate axes first.

    Its first letter's factor writes ``T_j(t) g - g`` for each of its
    candidates into one preallocated stack: acting once per candidate on the
    whole stack ``g`` of the rest of the word, or, when ``multiplies[j - 1]``,
    as one broadcast product of the tabled symbols with ``g``.  Each stack is
    built once and kept in ``suffixes``, which the caller owns, so the words
    ending in the same letters share it.
    """
    g = suffixes.get(word)
    if g is None:
        j, rest = word[0], word[1:]
        inner = _suffix(space, rest, candidates, f, suffixes, multiplies) if rest else f
        ts = candidates[j].tolist()
        g = suffixes[word] = np.empty((len(ts),) + inner.shape, dtype=inner.dtype)
        if multiplies[j - 1]:
            symbols = np.stack([_symbol(space, j, t) for t in ts])
            lead = (1,) * (inner.ndim - len(space.shape))
            np.multiply(symbols.reshape((len(ts),) + lead + space.shape), inner, out=g)
            np.subtract(g, inner, out=g)
        else:
            for i, t in enumerate(ts):
                np.subtract(space.act(j, t, inner), inner, out=g[i])
    return g


def _symbol(space: RepresentationSpace, j: int, t: float) -> np.ndarray:
    """The read-only symbol ``T_j(t) 1`` of a multiplying direction, acted on the constant
    function once per space and ``(j, t)`` and then read from ``space._symbols``."""
    symbol = space._symbols.get((j, t))
    if symbol is None:
        symbol = space._symbols[(j, t)] = space.act(j, t, np.ones(space.shape, dtype=complex))
        symbol.flags.writeable = False
    return symbol


def _symbol_weights(space: RepresentationSpace, j: int, ts: np.ndarray) -> np.ndarray:
    """``weights * |T_j(t) 1 - 1|^p`` over the flattened grid, one row per candidate ``t``,
    with ``(weights, p)`` the declaration ``space.norm.lp``; each row is tabled in
    ``space._symbols`` beside its symbol.

    For a multiplication ``T_j`` and an ``l^p`` norm, ``||(T_j(t) - I) g||^p``
    is the dot of ``|g|^p`` with the row of ``t``.
    """
    weights, p = space.norm.lp
    rows = []
    for t in ts.tolist():
        row = space._symbols.get((j, t, "lp"))
        if row is None:
            row = space._symbols[(j, t, "lp")] = (
                weights * np.abs(_symbol(space, j, t) - 1.0) ** p).ravel()
            row.flags.writeable = False
        rows.append(row)
    return np.stack(rows)


def _word_sup(space: RepresentationSpace, word, candidates: dict, f, suffixes: dict,
              multiplies: tuple, rows: dict):
    """``max ||(T_{j1}(t1) - I) ... (T_{jr}(tr) - I) f||`` over every candidate tuple, per member.

    When the first letter has its symbol rows in ``rows``, every candidate's
    norm comes from ``|g|^p`` at once, one BLAS dot per (row, candidate) pair,
    so a member of a stack gets the bits it gets alone.  Otherwise the first
    letter's factor is normed one candidate block at a time (a multiplying
    letter's block is its tabled symbol times ``g``), and a running
    ``np.maximum`` folds each block's maximum over the suffix's candidate
    axes.  Both maxima keep a NaN.
    """
    j, rest = word[0], word[1:]
    g = _suffix(space, rest, candidates, f, suffixes, multiplies) if rest else f
    axes = tuple(range(len(rest)))
    if j in rows:
        p = space.norm.lp[1]
        gp = np.abs(g.reshape(g.shape[:g.ndim - len(space.shape)] + (1, -1))) ** p
        return np.max(pth_root(np.vecdot(gp, rows[j]), p), axis=axes + (-1,))
    best = None
    for t in candidates[j].tolist():
        acted = _symbol(space, j, t) * g if multiplies[j - 1] else space.act(j, t, g)
        block = np.max(space.norm(acted - g), axis=axes)
        best = block if best is None else np.maximum(best, block)
    return best


def _members(total):
    """A Python float for one function's result, the array itself for a stack's."""
    return total if np.ndim(total) else float(total)


def modulus_mixed(space: RepresentationSpace, r: int, s, f) -> float | np.ndarray:
    """The mixed modulus of continuity ``Omega^r(s, f)`` at a finite scale s >= 0,
    as a certified grid lower bound; a 1-D ladder ``s`` gives ``(scale, member...)``.

    It sums, over words ``(j1, ..., jr)`` in ``{1,2}^r``, the suprema over
    ``0 <= t_i <= s`` of ``||(T_{j1}(t1) - I) ... (T_{jr}(tr) - I) f||``, each
    searched on a grid (:func:`_word_sup`).  ``f`` is one function or a stack
    (one value per member); it is checked once at entry, and a non-finite
    result raises.
    """
    require_integer("r", r, 1)
    require_integer("r", r, 1, max(_SUP_CAP))  # the search's candidate counts end there
    f = _values(f, space.shape)
    lead = f.shape[:f.ndim - len(space.shape)]
    return _by_scale(_ladder(s), lead, lambda si: _modulus(space, r, si, f, lead))


def _modulus(space: RepresentationSpace, r: int, s: float, f: np.ndarray, lead: tuple):
    """The body of :func:`modulus_mixed` at one checked scale ``s``."""
    if s == 0.0:
        return _members(np.zeros(lead))
    cap = _SUP_CAP[r]
    candidates = {j: grid_candidates(s, cap, space.steps[j - 1]) for j in (1, 2)}
    # only a norm and an action that carry their declarations take the symbol paths; a
    # multiplication letter's rows are shared by every word it begins
    multiplies = getattr(space.act, "multiplies", (False, False))
    rows = {j: _symbol_weights(space, j, candidates[j]) for j in (1, 2)
            if hasattr(space.norm, "lp") and multiplies[j - 1] and candidates[j].size}
    suffixes: dict = {}
    total = 0.0
    any_word = False
    for word in product((1, 2), repeat=r):
        if any(candidates[j].size == 0 for j in word):
            # no admissible step for some factor: the word contributes only
            # to the continuum value, and dropping it keeps a lower bound
            continue
        any_word = True
        total = total + _word_sup(space, word, candidates, f, suffixes, multiplies, rows)
    if not any_word:
        raise ValueError(f"no admissible time steps below s={s}")
    return _finite(_members(total), "modulus_mixed")


def k_upper_detail(space: RepresentationSpace, r: int, s: float, f) -> dict:
    """Hardy-Steklov witness split with its components and the trivial cap, at one scale ``s > 0``.

    For a stack every field holds one value per member.  The value is the
    smaller of the witness and the cap, NaN when either is NaN, so a
    non-finite cap raises as a non-finite witness does.
    """
    require_integer("r", r, 1)
    f = _values(f, space.shape)
    scale = _ladder(s, positive=True)
    if scale.ndim:
        raise ValueError(f"s must be one scale, got shape {scale.shape}; k_upper takes a ladder")
    return _k_upper_at(space, r, float(scale), f, space.norm(f))


def _k_upper_at(space: RepresentationSpace, r: int, s: float, f: np.ndarray, cap) -> dict:
    """The body of :func:`k_upper_detail` at one checked scale, with the cap ``||f||`` given."""
    hf = space.hardy(r, s, f)
    rough = space.norm(f - hf)
    smooth = s ** r * _sobolev_sum(space, hf, r)
    witness = rough + smooth
    return {"rough": rough, "smooth": smooth, "witness": witness, "trivial": cap,
            "value": _finite(_members(np.minimum(witness, cap)), "k_upper")}


def k_upper(space: RepresentationSpace, r: int, s, f) -> float | np.ndarray:
    """Upper K-functional surrogate from ``f = (f - H_r(s) f) + H_r(s) f``, capped by the
    trivial splitting at ``||f||``; per member, or ``(scale, member...)`` for a ladder ``s > 0``.
    """
    require_integer("r", r, 1)
    f = _values(f, space.shape)
    cap = space.norm(f)
    return _by_scale(_ladder(s, positive=True), f.shape[:f.ndim - len(space.shape)],
                     lambda si: _k_upper_at(space, r, si, f, cap)["value"])


def k_lower(space: RepresentationSpace, r: int, s, f) -> float | np.ndarray:
    """Lower K-functional surrogate: the mixed modulus ``Omega^r(s, f)`` itself, per member;
    a 1-D ladder ``s`` gives ``(scale, member...)``."""
    return modulus_mixed(space, r, s, f)


def k_spectral(op: DiscreteOperator, r: int, s, f) -> float | np.ndarray:
    """Spectral K-surrogate ``(sum min(1, s^r lam^{r/2})^2 w_k)^{1/2}`` (Hilbert only),
    equivalent to the K-functional of the pair ``(H, D(Delta^{r/2}))``; a 1-D ladder
    ``s`` gives ``(scale, member...)``, one set of spectral weights for all.
    """
    if not isinstance(f, HalfLineFunction):  # a container goes to the operator's grid check
        f = _values(f, op.weights.shape)
    w = op.spectral_weights(f)
    root = op.eigenvalues ** (r / 2.0)
    return _by_scale(_ladder(s), w.shape[:-1], lambda si: _members(
        np.sqrt(np.sum(np.minimum(1.0, si ** r * root) ** 2 * w, axis=-1))))


def verify_modulus_inequalities(space, r: int, k: int, f, s_list) -> dict:
    """Empirical constants of the three modulus inequalities on one vector: order
    reduction through generators, scale doubling and the higher-order comparison.

    Returns the max over the ladder ``s_list`` of each left/right ratio, NaN
    when any ratio is NaN; ``f`` must be one function:

    * C0: ``Omega^r(s, f) <= C0 s^k sum_words Omega^{r-k}(s, A_word f)``
    * C1: ``Omega^r(a s, f) <= C1 Omega^r(s, f)`` for a = 2 (compare (1+a)^r)
    * C2: ``s^k Omega^r(s, f) <= C2 (s^{r+k} ||f|| + Omega^{r+k}(s, f))``
    """
    require_integer("r", r, 1)
    # k is a word order, and the search reaches the modulus order r + k
    require_integer("k", k, 1, min(r, MAX_SOBOLEV_ORDER, max(_SUP_CAP) - r))
    f = _values(f, space.shape, one=True)
    scales = _ladder(s_list)
    nf = space.norm(f)
    floor = _FLOOR * max(nf, 1.0)
    # per scale, the order-(r - k) moduli of the order-k derivative words of f, one stack
    words = _top_words(space, f, k)
    rest = (modulus_mixed(space, r - k, scales, words) if r > k
            else [space.norm(words)] * len(scales))
    c0, c1, c2 = [], [], []
    for s, lhs, doubled, rplus, word_moduli in zip(
            scales.tolist(), modulus_mixed(space, r, scales, f),
            modulus_mixed(space, r, 2 * scales, f), modulus_mixed(space, r + k, scales, f), rest):
        rhs = 0.0
        for value in word_moduli:
            rhs += value
        c0.append(lhs / max(s ** k * rhs, floor))
        c1.append(doubled / max(lhs, floor))
        c2.append(s ** k * lhs / max(s ** (r + k) * nf + rplus, floor))
    return {
        "C0_hat": _worst(c0),
        "C1_hat": _worst(c1),
        "C1_reference": (1.0 + 2.0) ** r,
        "C2_hat": _worst(c2),
    }


def besov_s_grid() -> np.ndarray:
    """The dyadic scales ``2^-16 .. 2^4`` that sample every Besov integral."""
    lo, hi = _BESOV_J_RANGE
    return 2.0 ** (-np.arange(lo, hi + 1, dtype=float))


def _accumulate(weighted, q: float, measure: float = math.log(2.0)) -> float | np.ndarray:
    """``(sum_k weighted_k^q * measure)^{1/q}``, the max for ``q = inf``.

    ``measure`` is the weight of one entry: ``log 2`` of ``ds/s`` on a
    dyadic scale grid, 1.0 for a plain l^q sum over bands.  An entry may hold
    one value per member of a stack: each member is then folded on its own
    floats, as a sum over axis 0 would not add.
    """
    vals = np.asarray(weighted, dtype=float)
    if vals.ndim > 1:
        per_member = vals.reshape(len(vals), -1).T
        return np.array([_accumulate(col, q, measure) for col in per_member]).reshape(vals.shape[1:])
    if math.isinf(q):
        return float(np.max(vals)) if vals.size else 0.0
    return float((np.sum(vals ** q) * measure) ** (1.0 / q))


def _weighted_integral(profile, alpha: float, q: float) -> float | np.ndarray:
    """``(int_0^inf (s^{-alpha} core(s))^q ds/s)^{1/q}`` from ``core`` on :func:`besov_s_grid`.

    ``profile`` holds one value per scale, or per scale one value per member
    of a stack (then one integral per member comes back).
    """
    cols = np.asarray(profile, dtype=float)
    return _accumulate([s ** (-alpha) * core for s, core in zip(besov_s_grid(), cols)], q)


def besov_norm(space, f, params, method: str = "k") -> float | np.ndarray | list:
    """Besov norm ``||f|| + (int_0^inf (s^{-alpha} core(s))^q ds/s)^{1/q}``, with
    ``core`` the K-functional surrogate or the mixed modulus (sup for q = inf).

    The integral is sampled on :func:`besov_s_grid`; :func:`besov_tail_report`
    bounds the truncation error analytically.

    ``params`` is one :class:`BesovParams` (returns one norm) or a sequence of
    them sharing one ``r`` (returns a list, one norm per entry; ``[]`` for an
    empty sequence).  The profile ``core(s)`` depends only on ``f`` and ``r``,
    so it is computed once and each entry only weights it.  A norm is a float
    for one function and an array, one per member, for a stack.
    """
    if method not in ("k", "modulus"):
        raise ValueError(f"method must be 'k' or 'modulus', got {method!r}")
    single = isinstance(params, BesovParams)
    plist = [params] if single else list(params)
    orders = sorted({p.r for p in plist})
    if len(orders) > 1:
        raise ValueError(f"params must share one r, got r = {orders}")
    f = _values(f, space.shape)
    if not plist:
        return []
    profile = (k_upper if method == "k" else modulus_mixed)(space, orders[0], besov_s_grid(), f)
    nf = space.norm(f)
    norms = [_finite(nf + _weighted_integral(profile, p.alpha, p.q), "besov_norm")
             for p in plist]
    return norms[0] if single else norms


def besov_tail_report(space, f, params: BesovParams) -> dict:
    """Bounds for the two discarded tails of the truncated Besov integral.

    Large s: the core never exceeds ``4^r ||f||``, so the tail is an
    explicit geometric sum.  Small s: ``Omega^r(s, f) <= s^r (top-order
    Sobolev sum)`` up to a commutator inflation ``e^{r s}``, again summed
    in closed form.  Both are estimates for reporting, not test oracles.
    """
    alpha, q, r = params.alpha, params.q, params.r
    require_integer("r", r, 1, MAX_SOBOLEV_ORDER)
    f = _values(f, space.shape)
    nf = space.norm(f)
    lo, hi = _BESOV_J_RANGE
    s_big = 2.0 ** (-(lo - 1))
    s_small = 2.0 ** (-(hi + 1))
    words = _top_words(space, f, r)
    top = _members(sum(space.norm(words)))
    if math.isinf(q):
        high = (4.0 ** r) * nf * s_big ** (-alpha)
        low = math.exp(r * s_small) * top * s_small ** (r - alpha)
    else:
        ratio_hi = 2.0 ** (-alpha * q)
        high = (4.0 ** r * nf) * (
            math.log(2.0) * s_big ** (-alpha * q) * ratio_hi / (1.0 - ratio_hi)
        ) ** (1.0 / q)
        ratio_lo = 2.0 ** (-(r - alpha) * q)
        low = (math.exp(r * s_small) * top) * (
            math.log(2.0) * s_small ** ((r - alpha) * q) / (1.0 - ratio_lo)
        ) ** (1.0 / q)
    return {"high_tail_bound": high, "low_tail_bound": low}


def _word_profiles(space, f, k: int, r: int, alpha: float, q: float):
    """Per order-k derivative word of ``f``, the weighted integral of its order-r modulus
    profile, one integral per member; the words form one stack searched in one ladder call.
    """
    words = _top_words(space, f, k)
    return _weighted_integral(modulus_mixed(space, r, besov_s_grid(), words), alpha, q)


def besov_norm_fractional(space, f, alpha: float, q: float) -> float | np.ndarray:
    """Besov norm for non-integer alpha through first-order moduli of the
    [alpha]-fold derivatives, with [alpha] the integer part of alpha.

    Valid for non-integer alpha: ``||f||_{E^[alpha]}`` plus, for every word
    of length [alpha], the weighted integral of ``Omega^1(s, A_word f)``
    with weight ``s^{[alpha]-alpha}``, added word by word.  One norm per
    member of a stack.
    """
    _require_besov_index(alpha, q)
    if float(alpha).is_integer():
        raise ValueError("alpha must not be an integer; use zygmund_norm")
    if not alpha < MAX_SOBOLEV_ORDER + 1:
        raise ValueError(f"alpha must be below {MAX_SOBOLEV_ORDER + 1}, its integer part a "
                         f"word order at most {MAX_SOBOLEV_ORDER}, got {alpha!r}")
    k = int(math.floor(alpha))
    f = _values(f, space.shape)
    total = _sobolev_sum(space, f, k)
    for integral in _word_profiles(space, f, k, 1, alpha - k, q):  # the empty word when k = 0
        total = total + integral
    return _finite(_members(total), "besov_norm_fractional")


def zygmund_norm(space, f, k: int, q: float) -> float | np.ndarray:
    """Integer-order Besov norm via the Zygmund condition: second-order moduli of
    the (k-1)-fold derivatives, weight 1/s.

    At ``k = 1`` this is exactly ``besov_norm(space, f, BesovParams(1.0, q, 2),
    "modulus")``: the same ``||f||`` plus the same weighted ``Omega^2`` profile.
    One norm per member of a stack.
    """
    require_integer("k", k, 1, MAX_SOBOLEV_ORDER + 1)  # words of order k - 1
    _require_besov_index(k, q)  # the smoothness is k itself
    f = _values(f, space.shape)
    total = _sobolev_sum(space, f, k - 1)
    for integral in _word_profiles(space, f, k - 1, 2, 1.0, q):  # the empty word when k = 1
        total = total + integral
    return _finite(_members(total), "zygmund_norm")


def reiteration_check(space, f, k1: int, k2: int, r: int, alpha: float, q: float) -> dict:
    """Numerical face of the reiteration isomorphism ``(E, E^r) ~ (E^k1, E^k2)``
    and of the interpolation bound.

    Computes the modulus realizations of ``(E, E^r)_{alpha/r, q}`` and of
    ``(E^{k1}, E^{k2})_{(alpha-k1)/(k2-k1), q}`` and reports their ratio,
    together with the Gagliardo-type constant of
    ``||f||_{E^k} <= C ||f||^{1-k/r} ||f||_{E^r}^{k/r}`` at ``k = k2 - k1``.
    ``f`` must be one function.
    """
    require_integer("r", r, 1, MAX_SOBOLEV_ORDER)
    require_integer("k1", k1, 0, r)
    require_integer("k2", k2, 0, r)
    if not (0 <= k1 < alpha < k2 <= r):
        raise ValueError("need 0 <= k1 < alpha < k2 <= r")
    f = _values(f, space.shape, one=True)
    lhs = besov_norm(space, f, BesovParams(alpha, q, r), method="modulus")
    base = replace(space, norm=lambda g: _sobolev_sum(space, g, k1))
    # same action and grid, so the parent's symbols hold; base declares no l^p, so no rows
    base._symbols.update((key, sym) for key, sym in space._symbols.items() if len(key) == 2)
    k = k2 - k1
    profile = modulus_mixed(base, k, besov_s_grid(), f)
    rhs = base.norm(f) + _weighted_integral(profile, alpha - k1, q)
    nf = space.norm(f)
    nk = _sobolev_sum(space, f, k)
    nr = _sobolev_sum(space, f, r)
    gn = nk / max(nf ** (1 - k / r) * nr ** (k / r), _FLOOR * max(nf, 1.0))
    return {
        "lhs_norm": lhs,
        "rhs_norm": rhs,
        "ratio": lhs / max(rhs, _FLOOR),
        "gagliardo_hat": gn,
    }
