"""One measured process of the axbkit benchmark.

Started by ``run.py``, never by hand: it imports ``axbkit`` from the
checkout's ``src``, does the workload's set-up, then (unless ``--mode
setup``) runs the workload's timed part and writes one JSON record to
``--result``.  The workload seed reaches ``axbkit`` only as
``RunConfig(seed=...)`` or ``--seed``.

Workloads:

* ``report``: ``axbkit.cli.main(["report", ...])`` at the default config
  with cold caches; per-suite times come from timing ``suites.run_suite``.
* ``moduli``: set-up builds the n=512 and n=256 half-line operators; each
  timed pass calls the ``kfunctional``, ``besov`` and ``jackson`` suites
  warm, repeating passes until ``--seconds`` have been measured.
* ``oracles``: the other eight suites, cold, once.

``--mode trace`` runs exactly one timed unit under :class:`layers.Tracer`,
so its call counts do not depend on timing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: thread environment every child must run with
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

MODULI_SUITES = ("kfunctional", "besov", "jackson")
ORACLE_SUITES = ("group", "partition", "spectral", "paleywiener", "smoothing",
                 "frames", "halfplane", "determinism")
WORKLOADS = ("report", "moduli", "oracles")


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _value_repr(value) -> str:
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        return repr(value)


def check_pairs(suite: str, payload: dict) -> list:
    return [[suite, c["id"], _value_repr(c["value"])] for c in payload["checks"]]


def digest(pairs: list) -> str:
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def _run_suites(cfg, names) -> dict:
    """Call each suite callable, timing it; a raise counts as a failure."""
    from axbkit.suites import SUITES

    times, failed, pairs = {}, [], []
    start = time.perf_counter()
    for name in names:
        t = time.perf_counter()
        try:
            payload = SUITES[name](cfg)
        except Exception:
            traceback.print_exc()
            payload = None
        times[name] = time.perf_counter() - t
        if payload is None or not payload["all_passed"]:
            failed.append(name)
        else:
            pairs += check_pairs(name, payload)
    return {"run_s": time.perf_counter() - start, "suites": times, "failed": failed,
            "attempted": len(names), "digest": digest(pairs)}


@contextlib.contextmanager
def _timed_run_suite(times: dict, payloads: dict):
    """Time every call to ``axbkit.suites.run_suite`` and keep its payload."""
    import layers
    from axbkit import suites

    original = suites.run_suite

    def timed(cfg, name, out_dir=None):
        t = time.perf_counter()
        try:
            payloads[name] = original(cfg, name, out_dir=out_dir)
        finally:
            times[name] = time.perf_counter() - t
        return payloads[name]

    undo = []
    layers.rebind(original, timed, undo)
    try:
        yield
    finally:
        layers.restore(undo)


def _run_report(cfg, out_dir: str) -> dict:
    from axbkit.cli import main as cli_main
    from axbkit.suites import SUITES

    times, payloads = {}, {}
    with _timed_run_suite(times, payloads), contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        try:
            rc = cli_main(["report", "--seed", str(cfg.seed), "--out", out_dir])
        except Exception:
            traceback.print_exc()
            rc = None
        run_s = time.perf_counter() - start
    failed = [n for n, p in payloads.items() if not p["all_passed"]]
    if rc != 0 and not failed:
        failed = ["cli"]  # a non-zero exit with every suite passing is still a failure
    pairs = [pair for name in sorted(payloads) for pair in check_pairs(name, payloads[name])]
    report_path = os.path.join(out_dir, "report.json")
    report = {"exit_code": rc}
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            raw = fh.read()
        # recorded as written: report.json echoes out_dir
        report["sha256"] = hashlib.sha256(raw).hexdigest()
        report["out_dir_echo"] = json.loads(raw)["config"]["out_dir"]
    return {"run_s": run_s, "suites": times, "failed": failed, "digest": digest(pairs),
            "attempted": len(SUITES), "report": report}


def _setup(workload: str, cfg) -> None:
    if workload == "moduli":
        from axbkit import spectral
        from axbkit.grids import LogGrid

        for n in (cfg.grid_n, cfg.grid_n_coarse):
            spectral.build_matrix_laplacian(LogGrid(cfg.u_min, cfg.u_max, n))


def _units(workload: str, cfg, seconds: float, once: bool, out_dir: str) -> list:
    if workload == "report":
        return [_run_report(cfg, out_dir)]
    if workload == "oracles":
        return [_run_suites(cfg, ORACLE_SUITES)]
    units = []
    start = time.perf_counter()
    while not units or (not once and time.perf_counter() - start < seconds):
        units.append(_run_suites(cfg, MODULI_SUITES))
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--out-dir", required=True, help="directory for the report workload")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import axbkit
    import axbkit.cli  # noqa: F401  (part of set-up for every workload)
    from axbkit.config import RunConfig

    if not os.path.abspath(axbkit.__file__).startswith(SRC + os.sep):
        print(f"axbkit was imported from {axbkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cfg = RunConfig(seed=args.seed)

    tracer = None
    if args.mode == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    try:
        _setup(args.workload, cfg)
        setup_s = time.monotonic() - args.t0
        units = []
        if args.mode != "setup":
            units = _units(args.workload, cfg, args.seconds, args.mode == "trace", args.out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()

    env = fingerprint()
    record = {
        "fingerprint": env,
        "threads_pinned": env["threads"] == PINNED,
        "setup_s": setup_s,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["trace_window_s"] = tracer.window_s
        record["self_s_total"] = tracer.self_time_total()
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
