"""Self-contained property checks behind the CLI ``verify`` command.

Each check recomputes its reference side through an independent route
(brute-force products, finite-difference geometry, separate quadratures),
so a pass certifies the main code paths rather than re-running them.
"""

from __future__ import annotations

import numpy as np

from ._quadrature import gauss_rule
from .assembly import assemble_vvp
from .geometry import (
    build_self_glued_annulus,
    build_taylor_couette,
    curved_square_patch,
    unit_square_patch,
)
from .harness import CaseConfig, _solution_errors, _solve_level, couette_fields
from .projection import project_form
from .spaces import DiscreteFormSpace, vvp_spaces
from .splines import Basis1D, EdgeBasis1D, KnotVector, uniform_open_knots
from .topology import CellComplex

__all__ = ["fd_jacobian", "run_verification"]
_FD_STEP = 1e-3  # finite-difference step in parameter space


def fd_jacobian(patch, uv) -> np.ndarray:
    """Jacobian from Richardson-extrapolated central differences of the map.

    All stencil points must stay inside the parametric square; keep the
    evaluation points at least ``_FD_STEP`` away from the boundary.
    """
    return np.stack([fd_tangent(patch, uv, e) for e in np.eye(2)], axis=-1)


def fd_tangent(patch, points, direction) -> np.ndarray:
    """d/dt of Phi(points + t * direction) at t = 0 by Richardson differences.

    The stencil moves along the segment only, so it remains valid on
    patch sides where one coordinate sits at the domain boundary.
    """
    points = np.asarray(points, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def central(step):
        return (
            patch.map_point(points + step * direction)
            - patch.map_point(points - step * direction)
        ) / (2 * step)

    return (4.0 * central(_FD_STEP / 2) - central(_FD_STEP)) / 3.0


def _check_topology(rng):
    worst = 0
    for dims in [(4,), (3, 4), (2, 3), (4, 4, 4), (2, 3, 4)]:
        cx = CellComplex(dims)
        for k in range(2, len(dims) + 1):
            prod = cx.incidence(k - 1) @ cx.incidence(k)
            worst = max(worst, prod.nnz)
        for k in range(len(dims) - 1):
            d_lo = cx.coboundary_matrix(k)
            d_hi = cx.coboundary_matrix(k + 1)
            for _ in range(100 // len(dims)):
                b = rng.integers(-5, 6, size=d_lo.shape[1])
                worst = max(worst, int(np.abs(d_hi @ (d_lo @ b)).max()))
    return worst == 0, f"max |dd| entry/count = {worst}"


def _check_commuting(rng):
    worst = 0.0
    trig = lambda x: np.sin(2 * np.pi * x) + np.cos(np.pi * x)
    dtrig = lambda x: 2 * np.pi * np.cos(2 * np.pi * x) - np.pi * np.sin(np.pi * x)
    for p in range(1, 5):
        b = Basis1D(KnotVector(uniform_open_knots(p, 8), p))
        s0 = DiscreteFormSpace((b,), 0)
        s1 = DiscreteFormSpace((b,), 1)
        for f, df in [(lambda x: x**p, lambda x: p * x ** (p - 1)), (trig, dtrig)]:
            lhs = project_form(s0, f).exterior_derivative().coeffs
            rhs = project_form(s1, df).coeffs
            worst = max(worst, np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1e-14))
        b2 = Basis1D(KnotVector(uniform_open_knots(p, 5), p))
        t0 = DiscreteFormSpace((b, b2), 0)
        t1 = DiscreteFormSpace((b, b2), 1)
        F = lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y) + x**p * y
        Fx = lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(np.pi * y) + p * x ** (p - 1) * y
        Fy = lambda x, y: -np.pi * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + x**p
        lhs = project_form(t0, F).exterior_derivative().coeffs
        rhs = project_form(t1, [Fx, Fy]).coeffs
        worst = max(worst, np.abs(lhs - rhs).max() / np.abs(rhs).max())
    return worst < 1e-10, f"max relative coefficient gap = {worst:.2e}"


def _check_edge_properties(rng):
    worst_pou, worst_int = 0.0, 0.0
    for _ in range(20):
        p = int(rng.integers(1, 5))
        spans = int(rng.integers(2, 8))
        interior = np.sort(rng.uniform(0.1, 0.9, spans - 1))
        knots = np.concatenate((np.zeros(p + 1), interior, np.ones(p + 1)))
        weights = rng.uniform(0.3, 3.0, len(knots) - p - 1)
        basis = Basis1D(KnotVector(knots, p), weights)
        xs = np.linspace(0, 1, 1000)
        worst_pou = max(worst_pou, np.abs(basis.eval_nodal_many(xs).sum(axis=1) - 1).max())
        # rational integrands: 48 Gauss points per span reach machine precision
        worst_int = max(worst_int, np.abs(EdgeBasis1D(basis).integrals(n_gauss=48) - 1).max())
    ok = worst_pou < 1e-14 and worst_int < 1e-12
    return ok, f"partition-of-unity gap {worst_pou:.2e}, unit-integral gap {worst_int:.2e}"


def _check_pullback(rng):
    pts, wts = gauss_rule(24)
    t = 0.5 * (pts + 1)
    w = 0.5 * wts
    forms = [
        lambda x, y: np.stack((np.sin(x) + y, x * y + np.cos(y)), axis=-1),
        lambda x, y: np.stack((x**2 - y, np.exp(0.3 * x) * y), axis=-1),
    ]
    worst = 0.0
    patches = [curved_square_patch()] + build_taylor_couette().patches
    for patch in patches:
        for a_fun in forms:
            for _ in range(3):
                lo = rng.uniform(0.05, 0.55, 2)
                hi = lo + rng.uniform(0.2, 0.35, 2)
                # 1-form over a mapped reference segment
                c0, c1 = lo, np.array([hi[0], lo[1]])
                seg = c0 + np.outer(t, c1 - c0)
                phys_pts = patch.map_point(seg)
                a_vals = a_fun(phys_pts[:, 0], phys_pts[:, 1])
                tangent_fd = fd_tangent(patch, seg, c1 - c0)
                phys = np.einsum("mc,mc,m->", a_vals, tangent_fd, w)
                pulled = patch.pullback_components(1, seg, a_vals)
                ref = np.einsum("md,d,m->", pulled, c1 - c0, w)
                worst = max(worst, abs(phys - ref) / max(abs(ref), 1e-3))
                # 2-form over the mapped cell, FD determinant vs pullback
                gx = lo[0] + (hi[0] - lo[0]) * t
                gy = lo[1] + (hi[1] - lo[1]) * t
                UV = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1)
                q = lambda x, y: 1.0 + x * y + np.sin(x + y)
                P = patch.map_point(UV.reshape(-1, 2))
                qv = q(P[:, 0], P[:, 1])
                J_fd = fd_jacobian(patch, UV.reshape(-1, 2))
                det_fd = np.linalg.det(J_fd)
                W2 = np.outer(w * (hi[0] - lo[0]), w * (hi[1] - lo[1])).ravel()
                phys2 = np.sum(qv * det_fd * W2)
                pb = patch.pullback_components(2, UV.reshape(-1, 2), qv)
                ref2 = np.sum(pb * W2)
                worst = max(worst, abs(phys2 - ref2) / max(abs(ref2), 1e-3))
    # annulus arc against an exact circle parametrization (no patch code at all)
    patch = build_taylor_couette().patches[0]
    theta = 0.5 * np.pi * t
    for a_fun in forms:
        a_vals = a_fun(np.cos(theta), np.sin(theta))
        tang = np.stack((-np.sin(theta), np.cos(theta)), axis=-1) * 0.5 * np.pi
        exact = np.einsum("mc,mc,m->", a_vals, tang, w)
        seg = patch.side_points("left", t)
        pulled = patch.pullback_components(
            1, seg, a_fun(*patch.map_point(seg).T)
        )
        ref = np.einsum("m,m->", pulled[:, 1], w)  # left side runs along direction 2
        worst = max(worst, abs(exact - ref) / abs(exact))
    return worst < 1e-11, f"max relative quadrature gap = {worst:.2e}"


def _check_symmetry(rng):
    worst = 0.0
    b = lambda: Basis1D(KnotVector(uniform_open_knots(3, 4), 3))
    for patch in (unit_square_patch(), curved_square_patch()):
        system = assemble_vvp(vvp_spaces((b(), b())), patch)
        worst = max(worst, system.asymmetry())
    mp = build_taylor_couette()
    triples = [vvp_spaces((b(), b())) for _ in range(4)]
    worst = max(worst, assemble_vvp(triples, mp).asymmetry())
    return worst < 1e-12, f"max relative asymmetry = {worst:.2e}"


def _check_self_glued(rng):
    """Taylor-Couette on the annulus as one patch glued to itself along its seam.

    Both copies of a seam 1-cell lie in the same patch; the glued D10 must
    keep one integer row for it, so ``D21 D10 = 0`` and the solve passes
    its residual gate with a divergence-free velocity near the exact flow.
    """
    _, system, solution, div = _solve_level(
        CaseConfig(case="taylor-couette"), build_self_glued_annulus(), 8,
        tangential={(0, "left"): lambda x, y: (-y, x)})
    dd = (system.D21 @ system.D10).count_nonzero()
    d10_max = abs(system.D10).max()
    err_u = _solution_errors(solution, couette_fields())[1]
    ok = dd == 0 and d10_max == 1 and div < 1e-12 and err_u < 2e-4
    return ok, (f"D21 D10 nonzeros {dd}, max |D10| {d10_max}, residual {solution.residual:.2e}, "
                f"divergence {div:.2e}, err_u {err_u:.2e}")


def run_verification():
    """Run the property suite; returns (name, passed, detail) triples."""
    rng = np.random.default_rng(20240815)
    checks = [
        ("topological exactness (dd = 0, integer)", _check_topology),
        ("commuting projection (d pi_h = pi_h d)", _check_commuting),
        ("edge basis properties (PoU, unit integrals)", _check_edge_properties),
        ("pullback adjointness (independent quadratures)", _check_pullback),
        ("saddle-system symmetry", _check_symmetry),
        ("self-glued one-patch annulus solve", _check_self_glued),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
