"""Command-line entry point: benchmark runs, case listing, verification."""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import harness
from .errors import (
    ConstructionError,
    DegenerateGeometryError,
    DomainError,
    FluxCompatibilityError,
    IllPosedNodesError,
    SingularSystemError,
)
from .harness import CASES, CaseConfig, CavityResult, _out_dir, emit_outputs

_NUMERICAL_ERRORS = (
    ConstructionError,
    DomainError,
    DegenerateGeometryError,
    FluxCompatibilityError,
    IllPosedNodesError,
    SingularSystemError,
    FloatingPointError,
)


def _build_parser():
    """The parser and its ``run`` subparser, whose defaults a ``--config`` file sets."""
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
    return parser, run


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


def _make_config(args, argv) -> CaseConfig:
    """The run's configuration; a setting the case does not read is rejected.

    A ``--config`` file's values become string defaults of the ``run``
    subparser and the command line is parsed again: each value goes
    through its flag's type, and an explicit flag wins.
    """
    names = [f.name for f in fields(CaseConfig)]
    if args.config:
        values = {"out_dir" if key == "out" else key: value
                  for key, value in _read_config_file(args.config).items()}
        unknown = [key for key in values if key not in names]
        if unknown:
            raise ConstructionError(f"unknown config key {unknown[0]!r}")
        case = values.pop("case", args.case)
        if case != args.case:
            raise ConstructionError(
                f"{args.config}: case={case} disagrees with the case {args.case!r} "
                f"given on the command line"
            )
        parser, run = _build_parser()
        run.set_defaults(**values)
        args = parser.parse_args(argv)
    merged = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    config = CaseConfig(**merged)
    unread = sorted(set(merged) - {"case"} - set(CASES[config.case].settings))
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


def _cmd_run(args, argv) -> int:
    try:
        config = _make_config(args, argv)
        _out_dir(config)
    except (ValueError, OSError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    case = CASES[config.case]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = getattr(harness, case.runner)(config)
    run_s = time.perf_counter() - start
    if isinstance(result, CavityResult):  # a ladder returns (records, last level)
        records, cavity, levels = None, result, [result]
        line = ("cavity {r.spans}x{r.spans} degree {r.degree}: dof={r.dofs} "
                "div={r.div_max:.2e} {errors}")
    else:
        records, cavity, levels = result[0], None, result[0]
        line = "level {r.level}: h={r.h_max:.4e} dof={r.dofs} {errors} div={r.div_max:.2e}"
    start = time.perf_counter()
    paths = emit_outputs(config, records=records, cavity=cavity)
    output_s = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    paths.append(_write_stats(config, run_s, output_s, faults, [r.stats for r in levels]))

    for r in levels:
        print(line.format(r=r, errors=case.summary.format(r=r)))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_list() -> int:
    for name, case in CASES.items():
        print(f"{name}: {case.help}")
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
    args = _build_parser()[0].parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, argv)
        if args.command == "list-cases":
            return _cmd_list()
        return _cmd_verify()
    except (*_NUMERICAL_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
