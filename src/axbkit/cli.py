"""Command-line interface.

Subcommands: ``verify <suite>``, the suite shortcuts ``besov``, ``jackson``,
``frames``, ``spectral``, ``halfplane``, plus ``report`` (everything),
``describe <operation>`` and ``corpus``.  Exit status is 0 when every
check passes, 1 on a failed assertion, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, RunConfig, parse_config_file
from .corpus import DEFAULT_CORPUS
from .describe import describe
from .suites import SUITES, run_all, run_suite

_SHORTCUTS = ("besov", "jackson", "frames", "spectral", "halfplane")


def _add_run_options(parser):
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--grid-n", type=int, dest="grid_n", help="half-line grid size")
    parser.add_argument("--tol-scale", type=float, dest="tol_scale",
                        help="multiply the acceptance tolerances")
    parser.add_argument("--seed", type=int, help="random seed (fixes the reports byte-for-byte)")
    parser.add_argument("--out", dest="out_dir", help="report output directory")


def _build_config(args) -> RunConfig:
    overrides = {k: getattr(args, k, None)
                 for k in ("grid_n", "tol_scale", "seed", "out_dir")}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if getattr(args, "config", None):
        try:
            return parse_config_file(args.config, **overrides)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: cannot read {args.config!r}: {exc}") from exc
    return RunConfig(**overrides)


def _make_out_dir(cfg: RunConfig) -> None:
    """Create the report directory before any suite runs (an empty one is the working directory)."""
    try:
        os.makedirs(cfg.out_dir or os.curdir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL byte
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"out_dir: cannot create {cfg.out_dir!r}: {reason}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="axbkit",
        description="verification suites for harmonic analysis on the affine group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    _add_run_options(p_verify)

    for name in _SHORTCUTS:
        p = sub.add_parser(name, help=f"shortcut for 'verify {name}'")
        _add_run_options(p)

    p_report = sub.add_parser("report", help="run every suite and write a summary")
    _add_run_options(p_report)

    p_desc = sub.add_parser("describe", help="describe a named operation")
    p_desc.add_argument("operation")

    sub.add_parser("corpus", help="list the registered corpus")

    args = parser.parse_args(argv)

    if args.command == "describe":
        try:
            print(describe(args.operation))
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
        return 0

    if args.command == "corpus":
        for entry in DEFAULT_CORPUS:
            flag = "decaying" if entry.decaying else "non-decaying"
            print(f"{entry.name}  [{entry.family}; {flag}]")
        return 0

    try:
        cfg = _build_config(args)
        _make_out_dir(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "report":
            summary = run_all(cfg)
            for name in sorted(summary["suites"]):
                passed = summary["suites"][name]["all_passed"]
                print(f"{name}: {'pass' if passed else 'FAIL'}")
            print(f"overall: {'pass' if summary['all_passed'] else 'FAIL'}")
            return 0 if summary["all_passed"] else 1
        suite = args.suite if args.command == "verify" else args.command
        payload = run_suite(cfg, suite)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    for check in payload["checks"]:
        mark = "pass" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['id']}: {check['description']} "
              f"(value={check['value']:.6g}, threshold={check['threshold']:.6g})")
    return 0 if payload["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
