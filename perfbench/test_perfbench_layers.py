"""Tests of the benchmark's traced-run wrapper (``layers.Tracer``).

Run with ``python3 -m pytest perfbench``; they need only the checkout.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import axbkit  # noqa: E402
import axbkit.cli  # noqa: E402,F401
from axbkit import halfline, moduli, spectral, suites  # noqa: E402
from axbkit.config import RunConfig  # noqa: E402
from axbkit.grids import HalfLineFunction, LogGrid  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402


def _gaussian(grid):
    return HalfLineFunction(grid, np.exp(-((grid.u + 3.0) ** 2) / 2.0))


def _bindings():
    """Every (module, name) -> object binding of a wrapped function or class member."""
    out = {}
    for layer, names in layers.LAYERS.items():
        for name in names:
            owner, attr, original = layers._resolve(layer, name)
            out[(layer, name)] = original
    return out


def _leftover_wrappers() -> list[str]:
    """Names of ``axbkit`` bindings that still hold a benchmark wrapper."""
    left = []
    for mod in layers._axbkit_modules():
        for name, value in vars(mod).items():
            if hasattr(value, layers.MARK):
                left.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                left += [f"{mod.__name__}.{name}.{attr}"
                         for attr, member in vars(value).items() if hasattr(member, layers.MARK)]
    return left


def test_known_call_counts():
    grid = LogGrid(-12.0, 6.0, 128)
    f = _gaussian(grid)
    with layers.Tracer() as tracer:
        space = moduli.halfline_space(grid)
        # r = 1 at s = 3h: three exact log-shifts and twelve modulations
        moduli.modulus_mixed(space, 1, 3 * grid.h, f)
        # the name bound inside suites must be wrapped too
        suites.act_modulation(0.25, f)
        axbkit.act_modulation(0.5, f)
    m = tracer.metrics()
    assert m["moduli.modulus_mixed.calls"] == 1
    assert m["halfline.shift_log.calls"] == 3
    assert m["halfline.act_modulation.calls"] == 12 + 2
    assert m["grids.HalfLineFunction.made"] > 0
    assert tracer.self_time_total() <= tracer.window_s


def test_every_binding_restored():
    before = _bindings()
    named = {"suites.act_modulation": suites.act_modulation, "suites.xp_norm": suites.xp_norm,
             "smoothing.shift_log": sys.modules["axbkit.smoothing"].shift_log,
             "paleywiener.apply_multiplier": sys.modules["axbkit.paleywiener"].apply_multiplier,
             "halfplane.modulus_mixed": sys.modules["axbkit.halfplane"].modulus_mixed}
    post_init = HalfLineFunction.__dict__["__post_init__"]
    tracer = layers.Tracer()
    tracer.install()
    assert suites.act_modulation is not named["suites.act_modulation"]
    assert _leftover_wrappers()
    tracer.uninstall()
    assert _leftover_wrappers() == []
    assert _bindings() == before
    assert suites.act_modulation is halfline.act_modulation is named["suites.act_modulation"]
    assert suites.xp_norm is halfline.xp_norm is named["suites.xp_norm"]
    assert sys.modules["axbkit.smoothing"].shift_log is named["smoothing.shift_log"]
    assert (sys.modules["axbkit.paleywiener"].apply_multiplier
            is named["paleywiener.apply_multiplier"] is spectral.apply_multiplier)
    assert sys.modules["axbkit.halfplane"].modulus_mixed is named["halfplane.modulus_mixed"]
    assert HalfLineFunction.__dict__["__post_init__"] is post_init


def _traced_counts(cfg):
    spectral.clear_caches()
    with layers.Tracer() as tracer:
        for name in ("partition", "paleywiener", "smoothing", "frames"):
            assert suites.SUITES[name](cfg)["all_passed"]
    assert tracer.self_time_total() <= tracer.window_s
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


def test_counts_repeat_exactly():
    cfg = RunConfig(seed=7)
    first = _traced_counts(cfg)
    second = _traced_counts(cfg)
    assert first == second
    assert first["spectral.build_matrix_laplacian.builds"] == 1
    assert first["spectral.DiscreteOperator.coeffs.calls"] > 0


def test_declared_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_unpinned_child_fails_the_run():
    def child(threads):
        unit = {"run_s": 1.0, "suites": {"group": 1.0}, "failed": [], "attempted": 1,
                "digest": "same"}
        return {"threads_pinned": threads == run.PINNED, "fingerprint": {"threads": threads},
                "setup_s": 0.5, "units": [unit], "peak_rss_mb": 10.0}

    args = argparse.Namespace(workload="oracles", seed=0, seconds=1.0, trace=0)
    pinned, unpinned = child(run.PINNED), child({"OPENBLAS_NUM_THREADS": "2"})
    result, _ = run.summarize(args, {"probes": [], "runs": [pinned, pinned], "traced": None})
    assert result["correct"] and result["failed"] == 0
    result, _ = run.summarize(args, {"probes": [], "runs": [pinned, unpinned], "traced": None})
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
