"""Print every end-to-end metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed 1] [--trace 0|1]

Runs run.py once per workload listed in BENCHMARK.json (about two
minutes untraced, one traced) and prints one line per metric plus the
failed ratio (failed / attempted operations).  Exits 1 if any run fails
or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed with code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:8s} {name:30s} {m['value']:14.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:8s} {'failed_ratio':30s} {ratio:14.6g} "
              f"({result['failed']}/{result['attempted']})")
        if not result["correct"]:
            print(proc.stderr, end="")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
