"""Run configuration and pinned acceptance tolerances.

The configuration file is plain ``key = value`` text; ``#`` starts a
comment.  Unknown keys are rejected with a diagnostic naming the key, so
typos fail loudly.  A fixed seed makes every report byte-identical for a fixed
numpy and BLAS build and thread count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .corpus import corpus_names
from .halfplane import DENSE_CAP_2D
from .spectral import DENSE_CAP

__all__ = ["RunConfig", "ConfigError", "TOLERANCES", "ORACLE_N_CAP", "parse_config_file"]

#: most nodes of the eigenrelation oracle grid; its ``oracle_n x 720`` float64
#: Macdonald-kernel quadrature table then stays near 100 MB
ORACLE_N_CAP = 16384


class ConfigError(ValueError):
    """A configuration value is invalid; the message names the offending key."""


#: acceptance thresholds by criterion id; tol_scale multiplies the numeric ones
TOLERANCES: dict[str, float] = {
    "AC1_group_defect": 1e-12,
    "AC2_telescoping": 1e-12,
    "AC3_energy_identity": 1e-10,
    "AC4_eigenrelation": 1e-4,
    "AC5_two_oracle_heat": 1e-3,
    "AC6_bernstein": 1.0 + 1e-8,
    "AC7_riesz_boas_err": 1e-2,
    "AC8_commutation": 1e-8,
    "AC9_closed_form": 1e-10,
    "AC9_h_order_min": 1.0,
    "AC10_sandwich_C": 10.0,
    "AC10_sandwich_Cprime": 100.0,
    "AC11_besov_ratio": 50.0,
    "AC11_besov_drift": 0.2,
    "AC12_jackson_C": 100.0,
    "AC12_jackson_slope": -2.0 + 0.25,
    "AC13_isometry": 1e-10,
    "AC13_nonneg": -1e-8,
}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run: grids, corpus, seed, tolerance scale and output."""

    # half-line discretization
    u_min: float = -12.0
    u_max: float = 6.0
    grid_n: int = 512
    grid_n_coarse: int = 256
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
    schema_version: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ConfigError(f"tol_scale: must be positive and finite, got {self.tol_scale}")
        if self.grid_n < 16 or self.grid_n_coarse < 16 or self.oracle_n < 16:
            raise ConfigError("grid_n/grid_n_coarse/oracle_n: need at least 16 nodes")
        if self.grid_n > DENSE_CAP:
            raise ConfigError(f"grid_n: at most {DENSE_CAP} nodes (dense eigensolver cap)")
        # below grid_n, so the coarse rung is within the dense cap too
        if not self.grid_n_coarse < self.grid_n:
            raise ConfigError(
                f"grid_n_coarse: must be below grid_n = {self.grid_n} (the refinement checks "
                f"compare the coarse grid with the fine one), got {self.grid_n_coarse}")
        if self.oracle_n > ORACLE_N_CAP:
            raise ConfigError(f"oracle_n: at most {ORACLE_N_CAP} nodes (kernel quadrature table)")
        for lo, hi in (("u_min", "u_max"), ("hp_u_min", "hp_u_max"), ("y_min", "y_max")):
            a, b = getattr(self, lo), getattr(self, hi)
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ConfigError(f"{lo}/{hi}: need finite {lo} < {hi}, got {a} and {b}")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0):
            raise ConfigError(f"tau_max: must be positive and finite, got {self.tau_max}")
        if self.tau_n < 32:
            raise ConfigError("tau_n: need at least 32 spectral nodes")
        if self.hp_n < 16 or self.y_n < 16:
            raise ConfigError("hp_n/y_n: need at least 16 nodes")
        if self.hp_n * self.y_n > DENSE_CAP_2D:
            raise ConfigError(f"hp_n/y_n: grid has {self.hp_n * self.y_n} points, "
                              f"half-plane operator cap is {DENSE_CAP_2D}")
        unknown = sorted(set(self.corpus) - set(corpus_names()))
        if unknown:
            raise ConfigError(f"corpus: unknown entries {unknown}; see 'axbkit corpus'")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")

    def tolerance(self, key: str) -> float:
        base = TOLERANCES[key]
        if key in ("AC13_nonneg", "AC12_jackson_slope"):
            return base  # sign-flavored thresholds are not scaled
        if key == "AC6_bernstein":
            return 1.0 + (base - 1.0) * self.tol_scale
        return base * self.tol_scale

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
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            values[key] = _coerce(key, raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
