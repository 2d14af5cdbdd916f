"""Run configuration.

The configuration file is plain ``key = value`` text; a line whose first
non-blank character is ``#`` is a comment (a ``#`` later in a line belongs to
the value).  Unknown keys are rejected with a diagnostic naming the key, so
typos fail loudly.  A fixed seed makes every report byte-identical for a fixed
numpy and BLAS build and thread count.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .corpus import corpus_names
from .halfplane import DENSE_CAP_2D
from .spectral import DENSE_CAP, KERNEL_NYQUIST

__all__ = ["RunConfig", "ConfigError", "ORACLE_N_CAP", "U_RANGE", "Y_STEP_MAX",
           "parse_config_file"]

#: most nodes of the eigenrelation oracle grid and of the spectral grid (``oracle_n`` and
#: ``tau_n``): at the cap the spectral suite's kernel table, ``(tau_n, grid_n)`` float64, holds
#: at most 256 MiB and its ``(tau_n, 720)`` cosine table 90 MiB; the quadrature's decay is
#: tabled for one block of ``x`` nodes at a time, whatever ``oracle_n``
ORACLE_N_CAP = 16384

#: longest y step ``(y_max - y_min) / (y_n - 1)``: the half-plane suite's test function
#: (``halfplane.log_gaussian_2d``) is a Gaussian in y of width 1.5 about ``y = 0``, and each
#: half-plane check divides by a norm of it or of its y-derivative.  With ``y = 0`` in the
#: window and the step at most twice the width, a node lies within one width of the centre,
#: where the function is above ``e^{-1/2}`` of its peak.  A window off the centre (y in
#: [100, 116]) or a step of 2e298 (``y_max = 1e300``) left those norms 0, and the suite ended
#: in ZeroDivisionError
Y_STEP_MAX = 3.0


#: the window of u: the operators square ``x = e^u``, so ``log(min normal) <= u`` keeps ``x``
#: a normal float and ``2 u <= log(max float)`` keeps ``x^2`` finite
U_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max) / 2.0)


class ConfigError(ValueError):
    """A configuration value is invalid; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run: grids, corpus, seed, tolerance scale and output."""

    # half-line discretization
    u_min: float = -12.0
    u_max: float = 6.0
    grid_n: int = 512
    oracle_n: int = 1024
    # spectral grid
    tau_max: float = 12.0
    tau_n: int = 400
    # half-plane discretization
    hp_u_min: float = -6.0
    hp_u_max: float = 4.0
    hp_n: int = 48
    y_min: float = -8.0
    y_max: float = 8.0
    y_n: int = 48
    # corpus selection; empty tuple means the full default registry
    corpus: tuple = ()
    seed: int = 0
    tol_scale: float = 1.0
    out_dir: str = "reports"

    def __post_init__(self):
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ConfigError(f"tol_scale: must be positive and finite, got {self.tol_scale}")
        if not 32 <= self.grid_n <= DENSE_CAP:
            raise ConfigError(f"grid_n: need 32 to {DENSE_CAP} nodes (the coarse rung has "
                              f"grid_n // 2, the dense eigensolver cap is {DENSE_CAP})")
        if self.oracle_n < 16:
            raise ConfigError("oracle_n: need at least 16 nodes")
        if self.oracle_n > ORACLE_N_CAP:
            raise ConfigError(f"oracle_n: at most {ORACLE_N_CAP} nodes (kernel quadrature table)")
        for lo, hi in (("u_min", "u_max"), ("hp_u_min", "hp_u_max"), ("y_min", "y_max")):
            a, b = getattr(self, lo), getattr(self, hi)
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ConfigError(f"{lo}/{hi}: need finite {lo} < {hi}, got {a} and {b}")
        for key in ("u_min", "u_max", "hp_u_min", "hp_u_max"):
            u = getattr(self, key)
            if not U_RANGE[0] <= u <= U_RANGE[1]:
                raise ConfigError(f"{key}: x = e^u must be a normal float with a finite square, "
                                  f"so {U_RANGE[0]:.6g} <= {key} <= {U_RANGE[1]:.6g}, got {u}")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0):
            raise ConfigError(f"tau_max: must be positive and finite, got {self.tau_max}")
        # the kernel quadrature samples cos(tau t) at a step dt = 18 / 719 in t, so a tau above
        # pi / dt reads the table of its alias 2 pi / dt - tau.  Up to that bound the inverse
        # transform's weight tau sinh(pi tau) stays below 1.1e173; it overflows past tau = 224,
        # which ended the spectral suite in a ValueError
        if self.tau_max > KERNEL_NYQUIST:
            raise ConfigError(f"tau_max: at most {KERNEL_NYQUIST!r}, the Nyquist frequency of "
                              f"the kernel quadrature in t, got {self.tau_max}")
        if self.tau_n < 32:
            raise ConfigError("tau_n: need at least 32 spectral nodes")
        if self.tau_n > ORACLE_N_CAP:
            raise ConfigError(f"tau_n: at most {ORACLE_N_CAP} nodes (kernel quadrature table)")
        if self.hp_n < 16 or self.y_n < 16:
            raise ConfigError("hp_n/y_n: need at least 16 nodes")
        if self.hp_n * self.y_n > DENSE_CAP_2D:
            raise ConfigError(f"hp_n/y_n: grid has {self.hp_n * self.y_n} points, "
                              f"half-plane operator cap is {DENSE_CAP_2D}")
        if self.y_min > 0.0 or self.y_max < 0.0:
            key = "y_min" if self.y_min > 0.0 else "y_max"
            raise ConfigError(f"{key}: the y window must hold y = 0, the centre of the "
                              f"half-plane test function, got {getattr(self, key)}")
        step = (self.y_max - self.y_min) / (self.y_n - 1)
        if step > Y_STEP_MAX:
            key = "y_max" if self.y_max >= -self.y_min else "y_min"
            raise ConfigError(f"{key}: the y step (y_max - y_min) / (y_n - 1) = {step!r} is "
                              f"above {Y_STEP_MAX}, twice the width of the half-plane test "
                              f"function, got {getattr(self, key)}")
        unknown = sorted(set(self.corpus) - set(corpus_names()))
        if unknown:
            raise ConfigError(f"corpus: unknown entries {unknown}; see 'axbkit corpus'")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")

    @property
    def grid_n_coarse(self) -> int:
        """Nodes of the coarse rung the refinement checks compare with ``grid_n``."""
        return self.grid_n // 2

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["corpus"] = list(self.corpus)
        return d


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    ftype = _FIELDS[name].type
    kind = ftype if isinstance(ftype, str) else getattr(ftype, "__name__", str(ftype))
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple":
            # corpus names contain commas, so lists are semicolon-separated
            return tuple(s.strip() for s in raw.split(";") if s.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from exc


def parse_config_file(path: str, **overrides) -> RunConfig:
    """Read a plain key-value config file, then apply keyword overrides."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            values[key] = _coerce(key, raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
