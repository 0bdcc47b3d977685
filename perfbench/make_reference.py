"""Regenerate reference.json, the stored outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs define "correct" (the references
in the repository were written at the seed commit): it records the
per-level errors, rates and dofs of the manufactured ladders and the
Couette run (with its speed and pressure deviations) and the cavity
centreline profiles, for the full and the smoke sizes.  Takes about ten
seconds.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from run import THREAD_VARS

os.environ.update({var: "1" for var in THREAD_VARS})  # as in the measured workers

from worker import REFERENCE, SIZES, Cavity, Couette, Ladders  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for size in SIZES:
            reference[size] = {}
            for name, cls in (("ladders", Ladders), ("couette", Couette), ("cavity", Cavity)):
                workload = cls(seed=0, size=size)
                results = workload.run(Path(tmp) / f"{size}-{name}")
                reference[size][name] = workload.outputs(results)
                print(f"{size} {name} done", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
