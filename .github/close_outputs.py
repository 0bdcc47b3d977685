# usage: close_outputs.py HEAD BASE [HEAD BASE ...], each a run directory or a file.
# Every value of each file (stats.json aside, and run_metadata.txt without its
# stamp and out_dir lines) lies within 1e-12 of the base's, relative to the
# largest value of the base's file; the rounding-noise columns err_w and err_p
# of convergence.csv within 1e-11 absolute.  Every other token is equal.
import math
import sys
from pathlib import Path

NOISE = {"err_w", "err_p"}

def number(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None

def fields(path):
    """(column, token) of every field; the column is None outside a CSV body."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(("# splineforms ", "out_dir="))]
    if path.suffix == ".csv":
        header = lines[0].split(",")
        body = [(name, token) for line in lines[1:]
                for name, token in zip(header, line.split(","), strict=True)]
        return [(None, name) for name in header] + body
    return [(None, token) for line in lines for token in line.replace("=", " ").split()]

def compare(head, base):
    got, want = fields(head), fields(base)
    if [c for c, _ in got] != [c for c, _ in want]:
        return f"{head}: other fields than {base}"
    scale = max((abs(v) for _, t in want if (v := number(t)) is not None), default=0.0)
    worst, bad = 0.0, []
    for (column, g), (_, w) in zip(got, want):
        a, b = number(g), number(w)
        if a is None or b is None:
            if g != w:
                bad.append(f"{g} != {w}")
            continue
        bound = 1e-11 if column in NOISE else 1e-12 * scale
        worst = max(worst, abs(a - b) / scale if scale else abs(a - b))
        if abs(a - b) > bound:
            bad.append(f"{column or ''} {g} against {w}")
    print(f"{head}: largest change {worst:.2e} of the largest value {scale:.6e}")
    return f"{head}: " + "; ".join(bad[:5]) if bad else None

pairs = [Path(p) for p in sys.argv[1:]]
errors = []
for head, base in zip(pairs[::2], pairs[1::2]):
    if head.is_dir():
        names = sorted({p.name for p in head.iterdir()} | {p.name for p in base.iterdir()})
        files = [(head / n, base / n) for n in names if n != "stats.json"]
    else:
        files = [(head, base)]
    for h, b in files:
        if not (h.exists() and b.exists()):
            errors.append(f"{h} or {b} is missing")
        elif (error := compare(h, b)) is not None:
            errors.append(error)
for error in errors:
    print(f"::error::{error}")
sys.exit(1 if errors else 0)
