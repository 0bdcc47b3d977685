"""One benchmark workload in a fresh interpreter.

run.py starts this script once per measurement; it is not the entry
point for a user.  The worker builds the workload's inputs (this is the
set-up the launcher times), runs whole passes of the workload until
``--seconds`` have elapsed, then checks every operation of every pass
and prints one JSON object as its last line of standard output.

An operation is one solved refinement level of a Stokes workload, or one
unit of the ``forms`` workload.  It fails when it raises, when the solve
residual exceeds 1e-10, when the point-wise or cochain divergence
exceeds 1e-9, when the integer product D21 D10 has a nonzero entry, or
when an output is outside the stored reference (``reference.json``,
written at the seed commit by make_reference.py) or the analytic value.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.sparse as sparse  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

import splineforms as sf  # noqa: E402
from splineforms import geometry, harness, spaces, splines  # noqa: E402

RESIDUAL_TOL = 1e-10
DIV_TOL = 1e-9

# (rtol, atol) per reference quantity; rates are written with 6 decimals
TOLERANCES = {
    "dof": (0.0, 0.0),
    "h_max": (1e-12, 0.0),
    "err_w": (1e-6, 1e-14),
    "err_u": (1e-6, 1e-14),
    "err_p": (1e-6, 1e-14),
    "rate_w": (0.0, 1e-4),
    "rate_u": (0.0, 1e-4),
    "rate_p": (0.0, 1e-4),
    "pressure_cochain_dev": (0.0, 1e-11),
    "speed_err_inner": (1e-6, 1e-13),
    "speed_err_outer": (1e-6, 1e-13),
    "vx_centerline": (1e-7, 1e-9),
    "vy_centerline": (1e-7, 1e-9),
}

SIZES = {
    # spans / levels of the measured runs and of the self-test runs
    "full": {"cavity_spans": 24, "levels": 3, "forms_spans": 64, "forms_grid": 201},
    "smoke": {"cavity_spans": 6, "levels": 2, "forms_spans": 16, "forms_grid": 21},
}


def compare(values: dict, ref: dict, tolerances=TOLERANCES) -> list[str]:
    """Reference quantities that the values miss by more than the tolerance."""
    bad = []
    for key, expected in ref.items():
        rtol, atol = tolerances[key]
        got = np.asarray(values.get(key, np.nan), dtype=float)
        expected = np.asarray(expected, dtype=float)
        if got.shape != expected.shape:
            bad.append(f"{key} shape {got.shape} != {expected.shape}")
            continue
        same_nan = np.isnan(got) & np.isnan(expected)
        close = np.abs(got - expected) <= atol + rtol * np.abs(expected)
        if not np.all(same_nan | close):
            worst = float(np.nanmax(np.abs(got - expected)))
            bad.append(f"{key} off reference by {worst:.3e}")
    return bad


def dd_nonzeros(triples) -> int:
    """Nonzero entries of the integer product D21 D10 over every patch's spaces."""
    return sum(
        int((s1.coboundary_matrix() @ s0.coboundary_matrix()).count_nonzero())
        for s0, s1, _ in triples
    )


@dataclass
class Solved:
    residual: float
    spaces: list
    patches: list
    u: np.ndarray
    map1: list


class SolveLog:
    """Keeps, per solve, what the checks need; wraps the name the harness calls."""

    def __init__(self):
        self.solves: list[Solved] = []

    def __enter__(self):
        self._solve = harness.solve
        harness.solve = self._logged
        return self

    def __exit__(self, *exc):
        harness.solve = self._solve

    def _logged(self, system):
        sol = self._solve(system)
        self.solves.append(Solved(sol.residual, sol.system.spaces, sol.system.patches,
                                  sol.u, sol.system.map1))
        return sol


def solve_checks(solved: Solved, pointwise_div: float, cochain_div: float) -> list[str]:
    bad = []
    if not solved.residual <= RESIDUAL_TOL:
        bad.append(f"solve residual {solved.residual:.3e}")
    if dd_nonzeros(solved.spaces):
        bad.append("D21 D10 != 0")
    for what, value in (("pointwise divergence", pointwise_div),
                        ("cochain divergence", cochain_div)):
        if not value <= DIV_TOL:
            bad.append(f"{what} {value:.3e}")
    return bad


def read_convergence(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


# -- Stokes workloads -----------------------------------------------------------


def run_ladder(runner: str, config):
    """One convergence ladder with its files written: (records, solves, error)."""
    with SolveLog() as log:
        try:
            records, _ = getattr(harness, runner)(config)
            harness.emit_outputs(config, records=records)
            return records, log.solves, None
        except Exception as exc:  # counted as failed operations
            return None, log.solves, repr(exc)


def check_ladder(config, result, written, reference, tolerances=TOLERANCES):
    records, solves, error = result
    if error is not None:
        return [(f"level{i}", [error]) for i in range(config.levels)]
    ops = []
    for level, rec in enumerate(records):
        bad = solve_checks(solves[level], rec.extra["div_pointwise"], rec.div_max)
        bad += compare(written[level], reference[level], tolerances)
        ops.append((f"level{level}", bad))
    return ops


class Ladders:
    """Six manufactured ladders: both grids, degrees 1-3, levels from 4 spans."""

    KEYS = ("dof", "h_max", "err_w", "err_u", "err_p", "rate_w", "rate_u", "rate_p")

    def __init__(self, seed, size):
        levels = SIZES[size]["levels"]
        self.configs = {
            f"{g}/{d}": harness.CaseConfig(case="manufactured", degree=d, levels=levels, geometry=g)
            for g in ("unit-square", "curved-square")
            for d in (1, 2, 3)
        }

    def run(self, out, split=lambda: None):
        results = {}
        for key, config in self.configs.items():
            if results:
                split()
            config.out_dir = str(out / key.replace("/", "-"))
            results[key] = run_ladder("run_manufactured", config)
        return results

    def outputs(self, results):
        """Per ladder, per level: the reference quantities as written to the files."""
        return {
            key: [{k: row[k] for k in self.KEYS}
                  for row in read_convergence(Path(config.out_dir) / "convergence.csv")]
            for key, config in self.configs.items()
            if results[key][2] is None
        }

    def check(self, results, reference):
        written = self.outputs(results)
        return [
            (f"{key}/{name}", bad)
            for key, config in self.configs.items()
            for name, bad in check_ladder(config, results[key], written.get(key),
                                          reference[key])
        ]


class Couette:
    """Taylor-Couette on the four-patch NURBS annulus, degree 2."""

    # the exact vorticity and pressure lie in the discrete spaces, so their
    # errors are rounding noise: bounded, with no meaningful rates
    TOLERANCES = {**TOLERANCES, "err_w": (0.0, 1e-11), "err_p": (0.0, 1e-11)}
    KEYS = ("dof", "h_max", "err_w", "err_u", "err_p", "rate_u",
            "pressure_cochain_dev", "speed_err_inner", "speed_err_outer")

    def __init__(self, seed, size):
        self.config = harness.CaseConfig(case="taylor-couette", degree=2,
                                         levels=SIZES[size]["levels"])

    def run(self, out, split=lambda: None):  # one step: the harness runs every level
        self.config.out_dir = str(out / "couette")
        return run_ladder("run_taylor_couette", self.config)

    def outputs(self, results):
        records = results[0]
        rows = read_convergence(Path(self.config.out_dir) / "convergence.csv")
        return [{k: float(row[k] if k in row else rec.extra[k]) for k in self.KEYS}
                for rec, row in zip(records, rows)]

    def check(self, results, reference):
        written = self.outputs(results) if results[2] is None else None
        return check_ladder(self.config, results, written, reference, self.TOLERANCES)


class Cavity:
    """Lid-driven cavity at degree 3, every output file written."""

    def __init__(self, seed, size):
        self.config = harness.CaseConfig(case="cavity", degree=3,
                                         spans=SIZES[size]["cavity_spans"])

    def run(self, out, split=lambda: None):  # one step of about a second
        self.config.out_dir = str(out / "cavity")
        with SolveLog() as log:
            try:
                result = harness.run_cavity(self.config)
                harness.emit_outputs(self.config, cavity=result)
                return result, log.solves, None
            except Exception as exc:  # counted as a failed operation
                return None, log.solves, repr(exc)

    def outputs(self, results):
        out = Path(self.config.out_dir)
        values = {"dof": results[0].dofs}
        for key, name in (("vx_centerline", "horizontal"), ("vy_centerline", "vertical")):
            table = np.loadtxt(out / f"profile_{name}_velocity.dat")
            values[key] = table[:, 1].tolist()
        return values

    def check(self, results, reference):
        result, solves, error = results
        if error is not None:
            return [("solve", [error])]
        solved = solves[0]
        # point-wise physical divergence at random interior points
        rng = np.random.default_rng(0)
        ax = np.sort(rng.uniform(0.01, 0.99, 23))
        ay = np.sort(rng.uniform(0.01, 0.99, 22))
        fu = spaces.DiscreteForm(solved.spaces[0][1], solved.u[solved.map1[0]])
        dvals = fu.exterior_derivative().eval_grid((ax, ay))[0]
        _, det = solved.patches[0].jacobian_grid(ax, ay)
        bad = solve_checks(solved, float(np.abs(dvals / det).max()), result.div_max)
        bad += compare(self.outputs(results), reference)
        return [("solve", bad)]


# -- library traffic ------------------------------------------------------------


class _Field:
    """Seeded sum of plane waves a sin(2 pi (k x + l y) + phase) with its gradient."""

    def __init__(self, rng, n_modes=3):
        self.k = rng.integers(0, 3, size=(n_modes, 2))
        self.k[:, 0] += self.k.sum(axis=1) == 0  # no constant modes
        self.a = rng.uniform(0.5, 1.0, n_modes)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, n_modes)

    def _arg(self, x, y, i):
        return 2.0 * np.pi * (self.k[i, 0] * x + self.k[i, 1] * y) + self.phase[i]

    def __call__(self, x, y):
        return sum(a * np.sin(self._arg(x, y, i)) for i, a in enumerate(self.a))

    def grad(self, x, y):
        cos = [a * 2.0 * np.pi * np.cos(self._arg(x, y, i)) for i, a in enumerate(self.a)]
        return (sum(c * k for c, k in zip(cos, self.k[:, 0])),
                sum(c * k for c, k in zip(cos, self.k[:, 1])))


def _gauss_square(n=32, panels=16):
    """Tensor Gauss rule on the unit square: 1D points and the 2D weights."""
    pts, wts = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(0.0, 1.0, panels + 1)
    x = (edges[:-1, None] + 0.5 * (pts[None, :] + 1.0) / panels).ravel()
    w = np.tile(0.5 * wts / panels, panels)
    return x, np.outer(w, w)


class Forms:
    """Projection, exterior derivative, mass assembly and grid evaluation.

    Library traffic as in the README sketch, with no linear solve: nodal
    degree 3 on the curved square, interior knots jittered by the seed.
    Seeded plane-wave sums on the reference square give a 0-form F, a
    1-form W and a 2-form density R.  The workload projects them and the
    analytic dF and dW, applies the exterior derivative, assembles the
    three mass matrices over the curved patch and evaluates the
    projections on a grid.
    """

    DEGREE = 3
    # max |projection - exact| on the grid relative to max |exact|, and the
    # relative error of the L2 norms taken with the mass matrices
    GRID_TOL = {"full": 1e-3, "smoke": 1e-1}
    NORM_TOL = {"full": 1e-5, "smoke": 1e-2}

    def __init__(self, seed, size):
        rng = np.random.default_rng(seed)
        spans = SIZES[size]["forms_spans"]
        self.size = size
        self.bases = []
        for _ in range(2):
            h = 1.0 / spans
            inner = h * (np.arange(1, spans) + rng.uniform(-0.3, 0.3, spans - 1))
            knots = np.concatenate(([0.0] * (self.DEGREE + 1), inner, [1.0] * (self.DEGREE + 1)))
            self.bases.append(splines.Basis1D(splines.KnotVector(knots, self.DEGREE)))
        self.patch = geometry.curved_square_patch()
        self.F = _Field(rng)
        self.W = (_Field(rng), _Field(rng))  # components along du and dv
        self.R = _Field(rng)
        self.grid = np.linspace(0.0, 1.0, SIZES[size]["forms_grid"])

    def dF(self, i):
        return lambda u, v: self.F.grad(u, v)[i]

    def dW(self, u, v):
        return self.W[1].grad(u, v)[0] - self.W[0].grad(u, v)[1]

    def run(self, out, split=lambda: None):
        s = [sf.DiscreteFormSpace(tuple(self.bases), k) for k in (0, 1, 2)]
        axes = (self.grid, self.grid)
        T = sf.project_form(s[0], self.F)
        W = sf.project_form(s[1], list(self.W))
        Q = sf.project_form(s[2], self.R)
        res = {
            "spaces": s,
            "T": T,
            "dT": T.exterior_derivative(),
            "P_dF": sf.project_form(s[1], [self.dF(0), self.dF(1)]),
            "W": W,
            "dW": W.exterior_derivative(),
            "P_dW": sf.project_form(s[2], self.dW),
            "Q": Q,
        }
        split()
        res["eval"] = [T.eval_grid(axes), W.eval_grid(axes), Q.eval_grid(axes)]
        res["mass"] = []
        for k in (0, 1, 2):
            split()
            res["mass"].append(sf.assemble_mass(s[k], self.patch).matrix)
        return res

    def check(self, res, reference=None):
        grid_tol = self.GRID_TOL[self.size]
        norm_tol = self.NORM_TOL[self.size]
        U, V = np.meshgrid(self.grid, self.grid, indexing="ij")
        exact = [[self.F(U, V)], [w(U, V) for w in self.W], [self.R(U, V)]]

        # exact L2 norms over the mapped patch, by reference-domain quadrature
        x, wq = _gauss_square()
        X, Y = np.meshgrid(x, x, indexing="ij")
        jac, det = self.patch.jacobian_grid(x, x)
        a, b = self.W[0](X, Y), self.W[1](X, Y)
        g11 = jac[..., 0, 1] ** 2 + jac[..., 1, 1] ** 2  # det * J^-1 J^-T = adj(J^T J) / det
        g12 = -(jac[..., 0, 0] * jac[..., 0, 1] + jac[..., 1, 0] * jac[..., 1, 1])
        g22 = jac[..., 0, 0] ** 2 + jac[..., 1, 0] ** 2
        norms2 = [
            np.sum(wq * self.F(X, Y) ** 2 * det),
            np.sum(wq * (g11 * a * a + 2 * g12 * a * b + g22 * b * b) / det),
            np.sum(wq * self.R(X, Y) ** 2 / det),
        ]

        def commuting(d, proj):
            gap = np.abs(d.coeffs - proj.coeffs).max()
            scale = max(1.0, np.abs(proj.coeffs).max())
            return [] if gap <= 1e-9 * scale else [f"d(P u) - P(du) = {gap:.3e}"]

        ops = []
        for k, form in enumerate((res["T"], res["W"], res["Q"])):
            bad = []
            if k == 0:
                bad += commuting(res["dT"], res["P_dF"])
                if dd_nonzeros([res["spaces"]]):
                    bad.append("D21 D10 != 0")
            if k == 1:
                bad += commuting(res["dW"], res["P_dW"])
            gap = max(np.abs(v - e).max() for v, e in zip(res["eval"][k], exact[k]))
            scale = max(np.abs(e).max() for e in exact[k])
            if not gap <= grid_tol * scale:
                bad.append(f"grid error {gap / scale:.3e}")
            ops.append((f"form{k}", bad))

            M = res["mass"][k]
            bad = []
            asym = abs(M - M.T).max()
            if asym > 1e-13 * abs(M).max():
                bad.append(f"asymmetry {asym:.3e}")
            norm2 = float(form.coeffs @ (M @ form.coeffs))
            if not abs(norm2 - norms2[k]) <= norm_tol * norms2[k]:
                bad.append(f"L2 norm^2 {norm2:.6e} vs {norms2[k]:.6e}")
            if k == 0:
                ones = np.ones(M.shape[0])
                area = float(ones @ (M @ ones))  # the curved square has area 1
                if abs(area - 1.0) > 1e-12:
                    bad.append(f"area {area!r} != 1")
            ops.append((f"mass{k}", bad))
        return ops


class HostProbe:
    """A fixed kernel that uses no splineforms code, timed between steps.

    On a shared VM a vCPU's speed can change from second to second and from
    minute to minute (by up to 1.9x on the 2-vCPU reference VM, each vCPU on
    its own), which moves raw pass times by 20-30%.  The probe runs on the
    worker's own CPU at every step boundary of a pass (PassClock); its time
    tells how fast the CPU ran around that step.  Its parts stand for the
    program's: interpreted Python, a sparse LU factorization and solve, and
    element-wise numpy.  Each reading is the median of five runs of the
    kernel (about 35 ms together).
    """

    def __init__(self):
        n = 40
        a = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.identity(n)
        self.matrix = (sparse.kron(a, eye) + sparse.kron(eye, a)).tocsc()
        self.rhs = np.ones(n * n)
        self.x = np.linspace(0.0, 1.0, 50_000)

    def once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        splu(self.matrix).solve(self.rhs)
        np.sin(self.x).sum()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return statistics.median(self.once() for _ in range(5))


class PassClock:
    """Times each pass in steps, with a probe reading at every step boundary.

    A workload's ``run`` calls ``split`` between the steps of a pass (the
    six ladders, the stages of ``forms``), so that no step lasts much over
    a second and the readings around it describe the CPU speed during it.
    """

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.probes = [probe()]  # the first one right after set-up
        self.passes: list[list[float]] = []  # per pass, its step times

    def start(self):
        self.passes.append([])
        self.t0 = time.perf_counter()

    def split(self):
        self.passes[-1].append(time.perf_counter() - self.t0)
        self.probes.append(self.probe())
        self.t0 = time.perf_counter()


WORKLOADS = {"cavity": Cavity, "ladders": Ladders, "forms": Forms, "couette": Couette}


def load_reference(workload: str, size: str):
    if workload == "forms":
        return None  # checked against analytic values for any seed
    return json.loads(REFERENCE.read_text())[size][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="scratch directory for output files")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.size)
    ready = time.monotonic()
    clock = PassClock(HostProbe())
    if args.setup_only:
        print(json.dumps({"ready": ready, "probes": clock.probes}))
        return 0
    reference = load_reference(args.workload, args.size)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    out = Path(args.out)
    results = []
    start = time.perf_counter()
    while True:
        if out.exists():
            shutil.rmtree(out)
        clock.start()
        result = workload.run(out, clock.split)
        clock.split()
        if time.perf_counter() - start >= args.seconds:
            break
        results.append(workload.check(result, reference))
        del result  # keep one pass's outputs alive at a time
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    results.append(workload.check(result, reference))
    shutil.rmtree(out, ignore_errors=True)
    report = {
        "ready": ready,
        "steps": clock.passes,
        "probes": clock.probes,
        "peak_rss_mb": peak_rss_mb,
        "ops": [[name, bad] for ops in results for name, bad in ops],
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
