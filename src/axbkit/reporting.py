"""Deterministic report emission.

Reports are JSON (sorted keys, no timestamps, floats written with Python's
shortest round-trip representation, which preserves the full 17
significant digits of information) plus CSV profiles with a ``s,value``
header.  Identical configuration and seed produce byte-identical files for a
fixed numpy and BLAS build and thread count.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["canonical_json", "write_report", "write_profile_csv"]


def _plainify(obj):
    if isinstance(obj, dict):
        return {str(k): _plainify(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plainify(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plainify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def canonical_json(payload: dict) -> str:
    """The payload as JSON with sorted keys and plain Python scalars."""
    return json.dumps(_plainify(payload), sort_keys=True, indent=1) + "\n"


def write_report(payload: dict, path: str) -> None:
    """Write :func:`canonical_json` of the payload to ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(canonical_json(payload))


def write_profile_csv(rows, path: str, header: str = "s,value") -> None:
    """Write rows of numbers to ``path`` as CSV under ``header``, floats in repr form."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
