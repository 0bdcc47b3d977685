"""Per-layer spans recorded from outside the program.

The tracer replaces public functions and methods of the splineforms
modules by thin wrappers that record a span (metric name, start, end,
parent span) around each call, plus a few counters read off return
values.  Nothing in ``src/`` is edited: a module-level function is
replaced under every name a splineforms module looks it up by (the
harness imports ``solve`` and ``assemble_vvp`` by name), and the
``scipy.sparse.linalg`` module that ``assembly`` and ``harness`` hold
as ``spla`` is replaced by a proxy whose ``splu``/``spsolve`` are
wrapped.  ``uninstall`` restores every original.

Spans stay in memory; ``layer_metrics`` reduces them at the end.  A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans partition the traced time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import scipy.sparse.linalg as spla

from splineforms import assembly, geometry, harness, projection, spaces, splines, topology

# (owner, attribute, span name).  Owners are classes or modules; a module
# function is also replaced wherever another splineforms module imported it.
_TARGETS = [
    *((splines.Basis1D, m, "splines") for m in (
        "window", "eval_nodal_many", "eval_nodal_deriv_many")),
    *((splines.EdgeBasis1D, m, "splines") for m in ("window", "eval_edge_many")),
    *((geometry.NurbsPatch, m, "geometry") for m in (
        "map_grid", "map_point", "jacobian_grid", "jacobian", "side_points", "side_tangent")),
    (projection, "project_form", "projection"),
    (projection, "build_histopolation", "projection"),
    (projection, "build_interpolation", "projection"),
    (projection.ChangeOfBasis, "solve", "projection"),
    (spaces.DiscreteForm, "eval_grid", "spaces"),
    (spaces.DiscreteForm, "exterior_derivative", "spaces"),
    (topology.CellComplex, "coboundary_matrix", "topology"),
    (assembly, "assemble_vvp", "assembly.assemble"),
    (assembly, "assemble_mass", "assembly.assemble"),
    (assembly, "apply_strong_normal_velocity", "assembly.bc"),
    (assembly, "apply_weak_tangential_velocity", "assembly.bc"),
    (assembly, "solve", "assembly.solve"),
    (harness, "run_manufactured", "harness"),
    (harness, "run_taylor_couette", "harness"),
    (harness, "run_cavity", "harness"),
    (harness, "_solution_errors", "harness"),
    (harness, "_stream_function", "harness"),
    (harness, "emit_outputs", "harness.emit"),
]

# per-layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "assembly.solve.factor_s": ("s", "lower"),
    "assembly.solve.trisolve_s": ("s", "lower"),
    "assembly.solve.refine_solves": ("count", "lower"),
    "assembly.solve.self_s": ("s", "lower"),
    "assembly.solve.lu_nnz": ("count", "lower"),
    "assembly.solve.fill_ratio": ("ratio", "lower"),
    "assembly.solve.residual_max": ("ratio", "lower"),
    "assembly.assemble_s": ("s", "lower"),
    "assembly.dofs": ("count", "lower"),
    "assembly.matrix_nnz": ("count", "lower"),
    "assembly.bc_s": ("s", "lower"),
    "splines.self_s": ("s", "lower"),
    "splines.calls": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "geometry.calls": ("count", "lower"),
    "projection.self_s": ("s", "lower"),
    "projection.calls": ("count", "lower"),
    "spaces.self_s": ("s", "lower"),
    "topology.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.spsolve_s": ("s", "lower"),
    "harness.emit_s": ("s", "lower"),
    "harness.bytes_written": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> self-time metric (and the calls metric, where one is reported)
_SELF_METRIC = {
    "splines": "splines.self_s",
    "geometry": "geometry.self_s",
    "projection": "projection.self_s",
    "spaces": "spaces.self_s",
    "topology": "topology.self_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.bc": "assembly.bc_s",
    "assembly.solve": "assembly.solve.self_s",
    "assembly.solve.factor": "assembly.solve.factor_s",
    "assembly.solve.trisolve": "assembly.solve.trisolve_s",
    "harness": "harness.self_s",
    "harness.spsolve": "harness.spsolve_s",
    "harness.emit": "harness.emit_s",
}
_CALLS_METRIC = {
    "splines": "splines.calls",
    "geometry": "geometry.calls",
    "projection": "projection.calls",
}


class _ModuleProxy:
    """Stands in for a module, overriding a few of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedLU:
    """SuperLU factor whose triangular solves are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer
        self._solves = 0

    def solve(self, *args, **kwargs):
        self._solves += 1
        if self._solves > 1:
            self._tracer.counts["assembly.solve.refine_solves"] += 1
        return self._tracer.call("assembly.solve.trisolve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs span-recording wrappers and reduces the spans to metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(float)
        self.factors = []  # (L+U nnz, nnz of the factored matrix) per splu
        self.residuals = []
        self._restore = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- counters read off return values -------------------------------------

    def _after_assemble(self, result):
        matrix = result.matrix
        self.counts["assembly.dofs"] += matrix.shape[0]
        self.counts["assembly.matrix_nnz"] += matrix.nnz

    def _after_solve(self, solution):
        self.residuals.append(solution.residual)

    def _after_emit(self, paths):
        self.counts["harness.bytes_written"] += sum(p.stat().st_size for p in paths)

    def _splu(self, matrix, *args, **kwargs):
        lu = self.call("assembly.solve.factor", spla.splu, (matrix,) + args, kwargs)
        self.factors.append((lu.nnz, matrix.nnz))  # SuperLU.nnz; reading L/U would copy them
        return _TracedLU(lu, self)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        after = {
            "assemble_vvp": self._after_assemble,
            "assemble_mass": self._after_assemble,
            "solve": self._after_solve,
            "emit_outputs": self._after_emit,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "splineforms"]
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                self._replace(owner, attr, self._wrap(name, original))
                continue
            wrapped = self._wrap(name, original, after.get(attr))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, wrapped)
        self._replace(assembly, "spla", _ModuleProxy(spla, splu=self._splu))
        spsolve = self._wrap("harness.spsolve", spla.spsolve)
        self._replace(harness, "spla", _ModuleProxy(spla, spsolve=spsolve))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the trace.* ones, from the spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in LAYER_METRICS if not metric.startswith("trace.")}
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[_SELF_METRIC[name]] += (end - start) - children
            if name in _CALLS_METRIC:
                out[_CALLS_METRIC[name]] += 1
        for key in ("assembly.dofs", "assembly.matrix_nnz", "harness.bytes_written",
                    "assembly.solve.refine_solves"):
            out[key] = self.counts[key]
        if self.factors:
            lu_nnz, a_nnz = max(self.factors)
            out["assembly.solve.lu_nnz"] = lu_nnz
            out["assembly.solve.fill_ratio"] = lu_nnz / a_nnz
        if self.residuals:
            out["assembly.solve.residual_max"] = max(self.residuals)
        return out

