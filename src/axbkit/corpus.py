"""Named test corpus on the half-line.

A small registry of smooth function families stands in for a dense
invariant domain: log-Gaussians, power-exponential profiles, sampled
Macdonald kernels, and band-limited random functions.  Entries carry a
``decaying`` tag; families that do not vanish toward the left window edge
(the Macdonald kernels oscillate there) are excluded from suites that
require negligible window loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import HalfLineFunction, LogGrid
from .halfline import xp_norm
from .spectral import build_matrix_laplacian, macdonald_kernel

__all__ = ["CorpusEntry", "DEFAULT_CORPUS", "build_corpus", "corpus_names"]


@dataclass(frozen=True)
class CorpusEntry:
    """One named corpus member: a family, its parameters and whether it decays."""

    name: str
    family: str
    params: dict = field(default_factory=dict)
    decaying: bool = True

    def build(self, grid: LogGrid, op=None, seed: int = 0) -> HalfLineFunction:
        u, x = grid.u, grid.x
        p = self.params
        if self.family == "log_gaussian":
            vals = np.exp(-((u - p["u0"]) ** 2) / (2.0 * p["sigma"] ** 2))
        elif self.family == "power_exp":
            vals = x ** p["alpha"] * np.exp(-p["beta"] * x)
        elif self.family == "macdonald":
            vals = macdonald_kernel(p["tau0"], x)
        elif self.family == "bandlimited_random":
            if op is None:
                op = build_matrix_laplacian(grid)
            rng = np.random.default_rng(seed + int(1000 * p["omega"]))
            noise = rng.standard_normal(grid.n)
            vals = op.apply_fn(lambda lam: (np.sqrt(lam) <= p["omega"]).astype(float), noise)
        else:
            raise ValueError(f"unknown corpus family {self.family!r}")
        f = HalfLineFunction(grid, vals)
        nrm = xp_norm(f)
        if nrm > 0:
            f = f * (1.0 / nrm)
        return f


def _entry(family: str, **params) -> CorpusEntry:
    tag = ",".join(f"{k}={params[k]:g}" for k in sorted(params))
    decaying = family != "macdonald"
    return CorpusEntry(name=f"{family}({tag})", family=family, params=params, decaying=decaying)


#: desk-scale default corpus; widths and centers are kept moderate so that
#: every decaying member resolves to < 1e-8 boundary mass on the default
#: window and the empirical modulus and K-functional constants stay in
#: their documented bands
DEFAULT_CORPUS: tuple[CorpusEntry, ...] = (
    _entry("log_gaussian", u0=-3.0, sigma=1.0),
    _entry("log_gaussian", u0=-4.0, sigma=1.3),
    _entry("log_gaussian", u0=-2.0, sigma=1.2),
    _entry("power_exp", alpha=1.0, beta=1.0),
    _entry("power_exp", alpha=1.5, beta=2.0),
    _entry("macdonald", tau0=1.0),
    _entry("macdonald", tau0=2.5),
    _entry("bandlimited_random", omega=2.0),
    _entry("bandlimited_random", omega=4.0),
)


def corpus_names() -> list[str]:
    """Names of the registered corpus members, in registry order."""
    return [e.name for e in DEFAULT_CORPUS]


def build_corpus(
    grid: LogGrid,
    names=None,
    op=None,
    seed: int = 0,
    only_decaying: bool = False,
    families=None,
):
    """Instantiate corpus entries on a grid as ``(entry, function)`` pairs."""
    chosen = []
    for entry in DEFAULT_CORPUS:
        if names is not None and entry.name not in names:
            continue
        if only_decaying and not entry.decaying:
            continue
        if families is not None and entry.family not in families:
            continue
        chosen.append(entry)
    if names is not None:
        known = {e.name for e in DEFAULT_CORPUS}
        missing = [m for m in names if m not in known]
        if missing:
            raise KeyError(f"unknown corpus entries: {missing}")
    return [(e, e.build(grid, op=op, seed=seed)) for e in chosen]
