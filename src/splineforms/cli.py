"""Command-line entry point: benchmark runs, case listing, verification."""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from .errors import (
    ConstructionError,
    DegenerateGeometryError,
    DomainError,
    FluxCompatibilityError,
    IllPosedNodesError,
    SingularSystemError,
)
from .harness import (
    _CASE_SETTINGS,
    CASES,
    CaseConfig,
    _out_dir,
    emit_outputs,
    run_cavity,
    run_manufactured,
    run_taylor_couette,
)

_NUMERICAL_ERRORS = (
    ConstructionError,
    DomainError,
    DegenerateGeometryError,
    FluxCompatibilityError,
    IllPosedNodesError,
    SingularSystemError,
    FloatingPointError,
)

_CASE_HELP = {
    "manufactured": "sinusoidal closed-form solution, convergence ladder "
    "(geometries: unit-square, curved-square)",
    "taylor-couette": "flow between rotating inner / fixed outer cylinder "
    "on the exact NURBS annulus",
    "cavity": "lid-driven cavity with centerline profiles and field samples",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splineforms",
        description="Structure-preserving spline discretization benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark case")
    run.add_argument("case", choices=CASES)
    run.add_argument("--degree", type=int, help="velocity/pressure degree (default 2)")
    run.add_argument("--levels", type=int, help="refinement levels (default 4)")
    run.add_argument("--geometry", help="unit-square | curved-square | annulus")
    run.add_argument("--out", dest="out_dir", help="output directory (default ./out)")
    run.add_argument("--nu", type=float, help="viscosity (default 1.0)")
    run.add_argument(
        "--quad",
        type=int,
        help="Gauss points per direction per element, at least degree + 2 "
        "(default: geometry degree + nodal degree + 1)",
    )
    run.add_argument("--spans", type=int, help="cavity spans per direction (default 9)")
    run.add_argument("--base-spans", type=int, help="coarsest level spans (default 4)")
    run.add_argument("--config", help="key=value file; explicit flags take precedence")

    sub.add_parser("list-cases", help="list available cases")
    sub.add_parser("verify", help="run the property-check suite")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    text = Path(path).read_text()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConstructionError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_TYPES = {
    "degree": int,
    "levels": int,
    "nu": float,
    "quad": int,
    "spans": int,
    "base_spans": int,
    "geometry": str,
    "out_dir": str,
    "case": str,
}


def _make_config(args) -> CaseConfig:
    merged = {"case": args.case}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key == "out":
                key = "out_dir"
            if key not in _CONFIG_TYPES:
                raise ConstructionError(f"unknown config key {key!r}")
            if key == "case" and value != args.case:
                raise ConstructionError(
                    f"{args.config}: case={value} disagrees with the case {args.case!r} "
                    f"given on the command line"
                )
            merged[key] = _CONFIG_TYPES[key](value)
    for key in _CONFIG_TYPES:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    config = CaseConfig(**merged)
    unread = sorted(set(merged) - {"case"} - set(_CASE_SETTINGS[config.case]))
    if unread:
        raise ConstructionError(f"{config.case} does not read {', '.join(unread)}")
    return config


def _write_stats(config: CaseConfig, run_s: float, output_s: float, minor_faults: int,
                 level_stats) -> Path:
    """Write ``stats.json``: wall times, peak RSS and the statistics of every solve.

    ``levels`` lists the ``Solution.stats`` of each level (the cavity
    has one).  It is outside the bit-exact output set: times and memory
    change from run to run.
    ``peak_rss_mb`` is ``ru_maxrss`` (KiB on Linux); ``minor_faults``
    counts the pages the run and its output first touched (``ru_minflt``).
    """
    stats = {
        "case": config.case,
        "run_s": run_s,
        "output_s": output_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "minor_faults": minor_faults,
        "levels": level_stats,
    }
    path = Path(config.out_dir) / "stats.json"
    path.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n")
    return path


def _cmd_run(args) -> int:
    try:
        config = _make_config(args)
        _out_dir(config)
    except (ConstructionError, OSError, ValueError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    records = result = None
    if config.case == "cavity":
        result = run_cavity(config)
        level_stats = [result.stats]
    else:
        runner = run_manufactured if config.case == "manufactured" else run_taylor_couette
        records, _ = runner(config)
        level_stats = [rec.stats for rec in records]
    run_s = time.perf_counter() - start
    start = time.perf_counter()
    paths = emit_outputs(config, records=records, cavity=result)
    output_s = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    paths.append(_write_stats(config, run_s, output_s, faults, level_stats))

    if result is not None:
        print(
            f"cavity {result.spans}x{result.spans} degree {result.degree}: "
            f"dof={result.dofs} div={result.div_max:.2e} "
            f"stream_residual={result.stream_residual:.2e}"
        )
    for rec in records or ():
        errors = (f"err_w={rec.err_w:.3e} err_u={rec.err_u:.3e} err_p={rec.err_p:.3e}"
                  if config.case == "manufactured" else
                  f"err_u={rec.err_u:.3e} p_dev={rec.extra['pressure_cochain_dev']:.2e}")
        print(f"level {rec.level}: h={rec.h_max:.4e} dof={rec.dofs} {errors} div={rec.div_max:.2e}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_list() -> int:
    for case in CASES:
        print(f"{case}: {_CASE_HELP[case]}")
    return 0


def _cmd_verify() -> int:
    from .verification import run_verification

    results = run_verification()
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
        failed = failed or not ok
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-cases":
            return _cmd_list()
        return _cmd_verify()
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
