"""splineforms benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cavity --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout (the program is imported from
``src/``; there is nothing to build).  Each measurement runs in a fresh
worker process (worker.py) with BLAS and OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

- ``scaled_wall_s``: median over whole passes of the workload, each from
  the first call into splineforms to the last output written, scaled to
  the host's reference speed: each step of a pass (worker.PassClock)
  times ``PROBE_REFERENCE_S`` over the mean of the host-probe readings
  (worker.HostProbe) right before and after the step;
- ``setup_s``: median of seven fresh starts, each from process start
  through ``import splineforms`` and building the seeded inputs, scaled
  in the same way by the probe reading right after it;
- ``peak_rss_mb``: ``ru_maxrss`` of the untraced worker, in MiB.

The failed ratio is ``failed / attempted`` of the result line.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics
(tracing.py) with ``trace.overhead_s``, the traced minus the untraced pass,
both scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics with their units and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cavity", "ladders", "forms", "couette")
SETUP_STARTS = 3  # set-up-only workers before and after the measured one
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# HostProbe reading at the faster of the two speeds of a vCPU of the
# reference host (2-vCPU Xeon VM, 2.1 GHz; fifth percentile of 1347 readings)
PROBE_REFERENCE_S = 0.0062
END_TO_END_UNITS = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})  # one thread, never more than nproc
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, *extra) -> tuple[dict, float]:
    """Start worker.py, wait for it, return its report and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--out", str(ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra)} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": worker_env()["OMP_NUM_THREADS"]}


def walls(report) -> list:
    return [sum(steps) for steps in report["steps"]]


def scaled_walls(report) -> list:
    """Per pass, the sum over its steps of the step time times the reference
    probe time over the mean of the probe readings right before and after
    the step."""
    bounds = iter(zip(report["probes"], report["probes"][1:]))
    return [sum(2.0 * step * PROBE_REFERENCE_S / sum(next(bounds)) for step in steps)
            for steps in report["steps"]]


def scaled_setup(report, started) -> float:
    """Start to ready, scaled by the probe reading taken right after it."""
    return (report["ready"] - started) * PROBE_REFERENCE_S / report["probes"][0]


def end_to_end(args, deadline) -> tuple[dict, list]:
    # set-up samples before and after the measured worker, so that the median
    # spans the run rather than one moment of a machine whose speed drifts
    setups = [scaled_setup(*run_worker(args, deadline, "--setup-only"))
              for _ in range(SETUP_STARTS)]
    report, started = run_worker(args, deadline, "--seconds", str(args.seconds))
    setups.append(scaled_setup(report, started))
    setups += [scaled_setup(*run_worker(args, deadline, "--setup-only"))
               for _ in range(SETUP_STARTS)]
    print(f"# {args.workload}: {len(report['steps'])} passes, median unscaled pass "
          f"{statistics.median(walls(report)):.6g} s, "
          f"median probe {statistics.median(report['probes']):.6g} s")
    metrics = {
        "scaled_wall_s": statistics.median(scaled_walls(report)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, \
        report["ops"]


def per_layer(args, deadline) -> tuple[dict, list]:
    from tracing import LAYER_METRICS

    plain, _ = run_worker(args, deadline, "--seconds", "0")
    traced, _ = run_worker(args, deadline, "--seconds", "0", "--trace", "1")
    values = dict(traced["layers"])
    values["trace.wall_s"] = walls(traced)[0]
    # the two workers may meet the CPU at different speeds, so compare them scaled
    values["trace.overhead_s"] = scaled_walls(traced)[0] - scaled_walls(plain)[0]
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in LAYER_METRICS.items()}
    return metrics, plain["ops"] + traced["ops"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small sizes for the self-tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "splineforms" / "__init__.py").is_file():
        print(f"error: no splineforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        metrics, ops = (per_layer if args.trace else end_to_end)(args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [(name, bad) for name, bad in ops if bad]
    for name, bad in failed:
        print(f"FAILED {args.workload}/{name}: {'; '.join(bad)}", file=sys.stderr)
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio = {len(failed)}/{len(ops)} = "
          f"{len(failed) / max(1, len(ops)):.6g}")
    print(json.dumps({"correct": not failed and bool(ops), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
