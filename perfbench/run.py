"""The axbkit benchmark.

    python3 perfbench/run.py --workload {report,moduli,oracles} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured run is a fresh child
process (``child.py``), started one at a time with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and without
``AXBKIT_CACHE_DIR``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` repeats the untraced runs, adds one traced child and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, starting with ``detail``, records the environment fingerprint,
check-value digests and every sample.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from child import PINNED, ROOT, SRC, WORKLOADS, digest
import layers

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

#: set-up-only children per untraced run, on top of the measured ones
SETUP_PROBES = 4
#: no measured child starts that would likely end after this many seconds
SOFT_DEADLINE_S = 120.0
#: a child still running this many seconds after the run started is killed
HARD_DEADLINE_S = 170.0

HEAVY_SUITES = ("besov", "jackson", "kfunctional", "halfplane")
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
PER_LAYER = (tuple(layers.metric_names()) + ("trace.overhead_s",)
             + tuple(f"suite.{name}_s" for name in HEAVY_SUITES + ("light",)) + ("failed_frac",))


class ChildError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "failed_frac":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("AXBKIT_CACHE_DIR", None)
    env.update(PINNED)
    return env


def spawn(args, mode: str, work: str, deadline: float) -> dict:
    """Run one child to completion and return its record."""
    child_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=work)
    result = os.path.join(child_dir, "result.json")
    out_dir = os.path.join(child_dir, "out")
    t0 = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0),
           "--out-dir", out_dir, "--result", result]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(result):
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise ChildError(f"{mode} child exited with {proc.returncode}:\n{tail}")
    with open(result) as fh:
        record = json.load(fh)
    record["wall_s"] = time.monotonic() - t0
    return record


def collect(args, work: str) -> dict:
    """Start the children of one run: set-up probes, measured runs, a traced run."""
    start = time.monotonic()
    hard = start + HARD_DEADLINE_S

    def probes(count):
        return [spawn(args, "setup", work, hard) for _ in range(0 if args.trace else count)]

    # set-up probes go half before and half after the measured children, so
    # the set-up samples span the run instead of one moment of it
    setups = probes(SETUP_PROBES // 2)
    runs = []
    measure_start = time.monotonic()
    # moduli repeats its warm passes inside one child; the cold workloads
    # repeat whole children until the measuring time is used
    while not runs or (args.workload != "moduli"
                       and time.monotonic() - measure_start < args.seconds):
        if runs and (time.monotonic() + runs[-1]["wall_s"] * (1 + args.trace)
                     > start + SOFT_DEADLINE_S):
            break
        runs.append(spawn(args, "run", work, hard))
    setups += probes(SETUP_PROBES - len(setups))
    traced = spawn(args, "trace", work, hard) if args.trace else None
    return {"probes": setups, "runs": runs, "traced": traced}


def summarize(args, children: dict) -> tuple[dict, dict]:
    runs, traced = children["runs"], children["traced"]
    units = [u for r in runs for u in r["units"]]
    everyone = runs + ([traced] if traced else [])
    attempted = failed = 0
    failures = []
    for child in everyone:
        for unit in child["units"]:
            attempted += unit["attempted"]
            if child["threads_pinned"]:
                failed += len(unit["failed"])
                failures += unit["failed"]
            else:  # a child that ran with other thread settings is a failed run
                failed += unit["attempted"]
                failures.append(f"threads={child['fingerprint']['threads']}")
    digests = sorted({u["digest"] for c in everyone for u in c["units"]})
    pinned = all(c["threads_pinned"] for c in children["probes"] + everyone)
    correct = failed == 0 and pinned and len(digests) == 1

    run_s = [u["run_s"] for u in units]
    suites = {name: statistics.median(u["suites"].get(name, 0.0) for u in units)
              for name in HEAVY_SUITES}
    suites["light"] = statistics.median(
        sum((t for name, t in u["suites"].items() if name not in HEAVY_SUITES), 0.0)
        for u in units)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "fingerprint": runs[0]["fingerprint"],
        "check_digests": digests, "failures": failures,
        "run_s_samples": run_s,
        "setup_s_samples": [c["setup_s"] for c in children["probes"] + runs],
        "peak_rss_mb_samples": [c["peak_rss_mb"] for c in runs],
        "suite_s_median": suites,
        "reports": [u["report"] for u in units if "report" in u],
    }
    if traced is None:
        metrics = {
            "setup_s": statistics.median(detail["setup_s_samples"]),
            "run_s": statistics.median(run_s),
            "peak_rss_mb": statistics.median(detail["peak_rss_mb_samples"]),
        }
    else:
        metrics = dict(traced["layers"])
        traced_run_s = traced["units"][0]["run_s"]
        metrics["trace.overhead_s"] = traced_run_s - statistics.median(run_s)
        metrics.update({f"suite.{name}_s": t for name, t in suites.items()})
        metrics["failed_frac"] = failed / attempted
        within = traced["self_s_total"] <= traced["trace_window_s"]
        correct = correct and within
        detail["trace"] = {
            "run_s": traced_run_s, "window_s": traced["trace_window_s"],
            "self_s_total": traced["self_s_total"], "self_within_window": within,
            "calls_digest": digest(sorted([k, v] for k, v in traced["layers"].items()
                                          if k.endswith(".calls"))),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                          for name in (PER_LAYER if traced else END_TO_END)}}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="axbkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "axbkit", "__init__.py")):
        print(f"perfbench: no axbkit sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        children = collect(args, work)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    result, detail = summarize(args, children)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
