"""Per-layer tracing for the axbkit benchmark.

A :class:`Tracer` wraps the public functions of each ``axbkit`` module (the
layers) from outside the package.  Each wrapped call records a span; a
layer's self time is its span's duration minus the time its child spans
cover.  Several modules import functions by name (``suites`` holds
``xp_norm`` and ``act_modulation``, ``smoothing`` holds ``shift_log``,
``paleywiener`` holds ``apply_multiplier``, ``halfplane`` holds
``modulus_mixed``), so a wrapper is bound everywhere an ``axbkit`` module
holds the function, and every binding is restored on exit.

An untraced run uses only :func:`rebind` and :func:`restore`, to time the
suites; the tracer is installed only in a traced run.
"""

from __future__ import annotations

import functools
import os
import sys
import time

#: wrapped public functions, by layer (module of ``axbkit``); a dotted name
#: is a method of a class defined in that module
LAYERS: dict[str, tuple[str, ...]] = {
    "spectral": ("build_matrix_laplacian", "kernel_table", "DiscreteOperator.coeffs",
                 "DiscreteOperator.synth", "DiscreteOperator.apply_fn", "apply_multiplier"),
    "halfplane": ("build_halfplane_laplacian", "act_2d", "generator_2d", "sobolev_graph_check"),
    "moduli": ("modulus_mixed", "k_upper", "besov_norm", "zygmund_norm",
               "besov_norm_fractional", "sobolev_space_norm"),
    "smoothing": ("hardy_steklov", "hardy_steklov_generic"),
    "frames": ("besov_norm_bands", "band_energies", "lp_decompose"),
    "paleywiener": ("best_approx", "jackson_check", "riesz_boas"),
    "halfline": ("act_modulation", "shift_log", "xp_norm", "generator"),
    "corpus": ("build_corpus",),
    "reporting": ("write_report", "write_profile_csv"),
}

#: cached builders: a returned object not seen before is a cache miss
BUILDERS = ("spectral.build_matrix_laplacian", "spectral.kernel_table",
            "halfplane.build_halfplane_laplacian")
#: operator builders whose eigenvectors count toward ``spectral.eigvec_bytes``
EIGEN_BUILDERS = ("spectral.build_matrix_laplacian", "halfplane.build_halfplane_laplacian")
#: writers whose output file sizes are summed in ``<key>.bytes``
WRITERS = ("reporting.write_report", "reporting.write_profile_csv")
#: constructions of the validating container, counted without a span
MADE_KEY = "grids.HalfLineFunction.made"

#: attribute that marks a wrapper and holds the wrapped original
MARK = "__perfbench_wrapped__"


def span_keys() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for key in span_keys():
        names += [f"{key}.calls", f"{key}.self_s"]
        if key in BUILDERS:
            names.append(f"{key}.builds")
        if key in WRITERS:
            names.append(f"{key}.bytes")
    return names + ["spectral.eigvec_bytes", MADE_KEY]


def _axbkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "axbkit" or name.startswith("axbkit."))]


def _resolve(layer: str, name: str):
    """Return ``(owner, attribute, original)`` for a wrapped name."""
    owner = sys.modules[f"axbkit.{layer}"]
    *cls_path, attr = name.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    return owner, attr, original


def rebind(original, replacement, undo: list) -> int:
    """Bind ``replacement`` wherever an ``axbkit`` module holds ``original``.

    Appends ``(namespace, name, original)`` to ``undo`` for each binding and
    returns how many were changed.
    """
    count = 0
    for mod in _axbkit_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
                count += 1
    return count


def restore(undo: list) -> None:
    while undo:
        owner, name, original = undo.pop()
        setattr(owner, name, original)


class Tracer:
    """Spans and counters over the wrapped ``axbkit`` functions.

    Use as a context manager; the window between install and uninstall is
    ``window_s``, which bounds the summed self times.
    """

    def __init__(self):
        self.calls = {key: 0 for key in span_keys()}
        self.self_s = {key: 0.0 for key in span_keys()}
        self.builds = {key: 0 for key in BUILDERS}
        self.bytes = {key: 0 for key in WRITERS}
        self.eigvec_bytes = 0
        self.made = 0
        self.window_s = 0.0
        self._seen: dict[str, list] = {key: [] for key in BUILDERS}
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._t0 = None

    # -- install / uninstall ------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, names in LAYERS.items():
            for name in names:
                owner, attr, original = _resolve(layer, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, original))
                elif rebind(original, wrapper, self._undo) == 0:
                    raise RuntimeError(f"axbkit.{layer}.{name} is bound nowhere")
        grids = sys.modules["axbkit.grids"]
        cls = grids.HalfLineFunction
        post_init = cls.__dict__["__post_init__"]

        @functools.wraps(post_init)
        def counted(obj):
            self.made += 1
            post_init(obj)

        setattr(counted, MARK, post_init)
        setattr(cls, "__post_init__", counted)
        self._undo.append((cls, "__post_init__", post_init))
        self._t0 = time.perf_counter()

    def uninstall(self) -> None:
        if self._t0 is not None:
            self.window_s += time.perf_counter() - self._t0
            self._t0 = None
        restore(self._undo)

    # -- spans --------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack = self._stack
        clock = time.perf_counter
        after = self._after_hook(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[key] += 1
                self.self_s[key] += duration - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _after_hook(self, key: str):
        if key in BUILDERS:
            seen = self._seen[key]
            eigen = key in EIGEN_BUILDERS

            def after(args, kwargs, result):
                if not any(result is obj for obj in seen):
                    seen.append(result)
                    self.builds[key] += 1
                    if eigen:
                        self.eigvec_bytes += int(result.eigenvectors.nbytes)
            return after
        if key in WRITERS:
            def after(args, kwargs, result):
                path = kwargs["path"] if "path" in kwargs else args[1]
                self.bytes[key] += os.path.getsize(path)
            return after
        return None

    # -- results ------------------------------------------------------------

    def self_time_total(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in span_keys():
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
            if key in BUILDERS:
                out[f"{key}.builds"] = self.builds[key]
            if key in WRITERS:
                out[f"{key}.bytes"] = self.bytes[key]
        out["spectral.eigvec_bytes"] = self.eigvec_bytes
        out[MADE_KEY] = self.made
        return out

