"""Mass matrices, the mixed vorticity-velocity-pressure system and its solve.

Mass matrices are integrated element-wise on the reference domain after
pulling the basis back through the patch map: 0-forms carry the det J
weight, 1-forms the metric J^{-1} J^{-T} det J, 2-form densities 1/det J.
The saddle system couples them with the integer coboundary matrices; the
assembled operator is symmetric, and with normal velocity prescribed on
the whole boundary the pressure is gauged by a zero-mean multiplier row.

The solve does not factor the saddle system.  Because D21 D10 = 0 in
integers, the velocity is sought as u = u0 + D10 C y, divergence-free by
construction, and only the symmetric (vorticity, y) system is factored;
pressure and multiplier are recovered afterwards from the momentum and
pressure rows through the integer 2-cell Laplacian.  The assembled
saddle system remains the operator whose residual gates the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from ._quadrature import interval_rule, panel_rule
from .errors import (
    ConstructionError,
    FluxCompatibilityError,
    SingularSystemError,
)
from .geometry import SIDES, MultiPatch, NurbsPatch
from .projection import build_histopolation, greville_edges
from .spaces import DiscreteForm, DiscreteFormSpace
from .splines import EdgeBasis1D

__all__ = [
    "MassMatrix",
    "SaddleSystem",
    "BCSpec",
    "Solution",
    "assemble_mass",
    "assemble_vvp",
    "apply_strong_normal_velocity",
    "apply_weak_tangential_velocity",
    "solve",
]

# outward-flux sign of a side cell's cochain value, and the sign of the
# side parametrization within the induced boundary traversal
_OUTWARD_SIGN = {"bottom": 1.0, "top": -1.0, "right": 1.0, "left": -1.0}
_TRAVERSAL_SIGN = {"bottom": 1.0, "right": 1.0, "top": -1.0, "left": -1.0}


class _PatchGrid:
    """Quadrature grid plus basis/geometry tables shared by one patch's spaces."""

    def __init__(self, nodal_bases, patch: NurbsPatch, n_quad=None, extra: int = 0):
        self.nodal_bases = tuple(nodal_bases)
        self.patch = patch
        self.N, self.M, self.first, self.w, self.pts = [], [], [], [], []
        axes = []
        for j, b in enumerate(self.nodal_bases):
            breaks = b.breakpoints
            geo_breaks = patch.bases[j].breakpoints
            inner = geo_breaks[1:-1]
            if inner.size and np.min(np.abs(inner[:, None] - breaks[None, :]), axis=1).max() > 1e-12:
                raise ConstructionError(
                    "field breakpoints must refine the geometry breakpoints"
                )
            nq = int(n_quad) if n_quad else patch.bases[j].degree + b.degree + 1
            nq += extra
            pts, wts = panel_rule(breaks, nq)
            flat = pts.ravel()
            spans, nvals, nders = b.window(flat)
            p = b.degree
            edge = EdgeBasis1D(b)
            _, evals = edge.window(flat)
            n_el = pts.shape[0]
            self.N.append(nvals.reshape(n_el, nq, p + 1))
            self.M.append(evals.reshape(n_el, nq, p))
            self.first.append(spans.reshape(n_el, nq)[:, 0] - p)
            self.w.append(wts)
            self.pts.append(pts)
            axes.append(flat)
        self.jac, self.det = patch.jacobian_grid(axes[0], axes[1])
        self.phys = patch.map_grid(axes[0], axes[1])
        self.shape4 = (
            self.pts[0].shape[0],
            self.pts[0].shape[1],
            self.pts[1].shape[0],
            self.pts[1].shape[1],
        )

    def metric_weight(self, k: int):
        """Inner-product weight fields per component pair, shaped (e1, q1, e2, q2)."""
        det = self.det.reshape(self.shape4[0], self.shape4[1], self.shape4[2], self.shape4[3])
        if k == 0:
            return {(0, 0): det}
        if k == 2:
            return {(0, 0): 1.0 / det}
        a = self.jac[..., 0, 0]
        b = self.jac[..., 0, 1]
        c = self.jac[..., 1, 0]
        d = self.jac[..., 1, 1]
        dd = self.det
        shp = self.shape4
        g00 = ((d * d + b * b) / dd).reshape(shp)
        g01 = (-(c * d + a * b) / dd).reshape(shp)
        g11 = ((c * c + a * a) / dd).reshape(shp)
        return {(0, 0): g00, (0, 1): g01, (1, 0): g01, (1, 1): g11}

    def block_tables(self, block):
        t, first, nloc = [], [], []
        for j in range(2):
            if j in block.dirs:
                t.append(self.M[j])
                nloc.append(self.nodal_bases[j].degree)
            else:
                t.append(self.N[j])
                nloc.append(self.nodal_bases[j].degree + 1)
            first.append(self.first[j])
        return t, first, nloc

    def reconstruct(self, form: DiscreteForm, comp: int) -> np.ndarray:
        """One component of the reconstruction at every quadrature point (m1, m2)."""
        block = form.space.blocks[comp]
        (t1, t2), (f1, f2), (l1, l2) = self.block_tables(block)
        coeffs = form.block_coeffs(comp)
        i1 = f1[:, None] + np.arange(l1)[None, :]
        i2 = f2[:, None] + np.arange(l2)[None, :]
        win = coeffs[i1[:, :, None, None], i2[None, None, :, :]]
        vals = np.einsum("aqi,aibk,brk->aqbr", t1, win, t2)
        m1 = t1.shape[0] * t1.shape[1]
        m2 = t2.shape[0] * t2.shape[1]
        return vals.reshape(m1, m2)


@dataclass(frozen=True)
class MassMatrix:
    """Symmetric positive-definite L2 Gram matrix of a discrete form space."""

    k: int
    matrix: sp.csc_matrix
    space: DiscreteFormSpace


def _assemble_mass_on_grid(space: DiscreteFormSpace, grid: _PatchGrid) -> sp.csc_matrix:
    weights = grid.metric_weight(space.k)
    w1 = grid.w[0]
    w2 = grid.w[1]
    rows, cols, vals = [], [], []
    for ia, A in enumerate(space.blocks):
        for ib, B in enumerate(space.blocks):
            if (ia, ib) not in weights:
                continue
            (ta1, ta2), (fa1, fa2), (la1, la2) = grid.block_tables(A)
            (tb1, tb2), (fb1, fb2), (lb1, lb2) = grid.block_tables(B)
            W = weights[(ia, ib)] * w1[:, :, None, None] * w2[None, None, :, :]
            X = np.einsum("aqi,aqj->aqij", ta1, tb1)
            Y = np.einsum("brk,brl->brkl", ta2, tb2)
            local = np.einsum("aqij,aqbr,brkl->abikjl", X, W, Y, optimize=True)
            ra = (fa1[:, None] + np.arange(la1)[None, :])[:, None, :, None]
            rb = (fa2[:, None] + np.arange(la2)[None, :])[None, :, None, :]
            rowidx = A.offset + ra + A.shape[0] * rb  # (a, b, i, k)
            ca = (fb1[:, None] + np.arange(lb1)[None, :])[:, None, :, None]
            cb = (fb2[:, None] + np.arange(lb2)[None, :])[None, :, None, :]
            colidx = B.offset + ca + B.shape[0] * cb  # (a, b, j, l)
            shape = local.shape  # (a, b, i, k, j, l)
            rows.append(np.broadcast_to(rowidx[:, :, :, :, None, None], shape).ravel())
            cols.append(np.broadcast_to(colidx[:, :, None, None, :, :], shape).ravel())
            vals.append(local.ravel())
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    )
    return mat.tocsc()


def assemble_mass(space: DiscreteFormSpace, patch: NurbsPatch, n_quad=None) -> MassMatrix:
    """L2 mass matrix of a 2D form space over a mapped patch."""
    if space.d != 2:
        raise ConstructionError("mass assembly is implemented for 2D spaces")
    grid = _PatchGrid(space.nodal_bases, patch, n_quad=n_quad)
    return MassMatrix(space.k, _assemble_mass_on_grid(space, grid), space)


def _forcing_vector(space: DiscreteFormSpace, grid: _PatchGrid, forcing) -> np.ndarray:
    """(test, f) for a 1-form forcing given by physical (dx, dy) components."""
    fx, fy = forcing
    xq = grid.phys[..., 0]
    yq = grid.phys[..., 1]
    f0 = np.asarray(fx(xq, yq), dtype=float)
    f1 = np.asarray(fy(xq, yq), dtype=float)
    a = grid.jac[..., 0, 0]
    b = grid.jac[..., 0, 1]
    c = grid.jac[..., 1, 0]
    d = grid.jac[..., 1, 1]
    pulled = (d * f0 - b * f1, -c * f0 + a * f1)  # det J * J^{-1} f
    out = np.zeros(space.dim)
    w1 = grid.w[0]
    w2 = grid.w[1]
    for comp, block in enumerate(space.blocks):
        (t1, t2), (f1_, f2_), (l1, l2) = grid.block_tables(block)
        V = pulled[comp].reshape(grid.shape4) * w1[:, :, None, None] * w2[None, None, :, :]
        local = np.einsum("aqi,aqbr,brk->abik", t1, V, t2, optimize=True)
        i1 = (f1_[:, None] + np.arange(l1)[None, :])[:, None, :, None]
        i2 = (f2_[:, None] + np.arange(l2)[None, :])[None, :, None, :]
        idx = block.offset + i1 + block.shape[0] * i2
        np.add.at(out, np.broadcast_to(idx, local.shape).ravel(), local.ravel())
    return out


# -- side bookkeeping ---------------------------------------------------------


def _side_nodal_ids(space0: DiscreteFormSpace, side: str) -> np.ndarray:
    """Flat ids of the 0-form coefficients on one side, ordered along it."""
    axis, end = SIDES[side]
    s0, s1 = space0.blocks[0].shape
    if axis == 0:
        i0 = 0 if end == 0 else s0 - 1
        return i0 + s0 * np.arange(s1)
    i1 = 0 if end == 0 else s1 - 1
    return np.arange(s0) + s0 * i1


def _side_cell_ids(space1: DiscreteFormSpace, side: str) -> np.ndarray:
    """Flat ids of the 1-form cells lying on one side (normal-flux carriers)."""
    axis, end = SIDES[side]
    if axis == 0:
        block = space1.blocks[1]  # cells running along direction 2
        s0 = block.shape[0]
        i0 = 0 if end == 0 else s0 - 1
        return block.offset + i0 + s0 * np.arange(block.shape[1])
    block = space1.blocks[0]
    i1 = 0 if end == 0 else block.shape[1] - 1
    return block.offset + np.arange(block.shape[0]) + block.shape[0] * i1


def _glued_numbering(sizes, pairs):
    """Global numbering after identifying the given (flat) index pairs.

    Each connected component of the identification graph gets one global
    index, in order of its smallest member.
    """
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = int(offsets[-1])
    none = [np.zeros(0, dtype=int)]
    rows = np.concatenate([offsets[pa] + ids for (pa, ids), _ in pairs] + none)
    cols = np.concatenate([offsets[pb] + ids for _, (pb, ids) in pairs] + none)
    graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    n_global, labels = connected_components(graph, directed=False)
    maps = [labels[offsets[p] : offsets[p + 1]] for p in range(len(sizes))]
    return maps, n_global


@dataclass
class BCSpec:
    """Which sides carry strongly prescribed normal velocity.

    Tangential pressure data would enter through a boundary operator on
    the velocity row; only the homogeneous case is supported, so
    requesting pressure sides raises.
    """

    normal_sides: tuple = ()
    pressure_sides: tuple = ()

    def __post_init__(self):
        if self.pressure_sides:
            raise NotImplementedError(
                "tangential-pressure boundary data is not supported; "
                "only homogeneous pressure boundary terms are assembled"
            )


@dataclass
class Solution:
    """Solved cochains (global numbering) plus the solve residual.

    ``stats`` describes the solve: ``dofs`` (size of the mixed system),
    ``unknowns`` (size of the factored system), ``lu_nnz`` (nonzeros of
    its LU factors) and ``refine_steps`` (iterative-refinement steps).
    """

    system: "SaddleSystem"
    omega: np.ndarray
    u: np.ndarray
    p: np.ndarray
    multiplier: float
    residual: float
    stats: dict = field(default_factory=dict)

    def forms(self, patch_index: int = 0):
        """Per-patch (vorticity, velocity, pressure) discrete forms."""
        sysm = self.system
        s0, s1, s2 = sysm.spaces[patch_index]
        return (
            DiscreteForm(s0, self.omega[sysm.map0[patch_index]]),
            DiscreteForm(s1, self.u[sysm.map1[patch_index]]),
            DiscreteForm(s2, self.p[sysm.map2[patch_index]]),
        )

    def divergence_cochain(self, patch_index: int = 0) -> np.ndarray:
        _, s1, _ = self.system.spaces[patch_index]
        return s1.coboundary_matrix() @ self.u[self.system.map1[patch_index]]


class SaddleSystem:
    """Assembled symmetric block system with boundary-condition bookkeeping."""

    def __init__(self, spaces, patches, glue, nu, bc, n_quad=None, forcing=None):
        self.spaces = spaces  # list of (L0, L1, L2) per patch
        self.patches = patches
        self.glue = glue
        self.nu = float(nu)
        self.bc = bc
        self.n_quad = n_quad

        n_patches = len(patches)
        sizes0 = [s[0].dim for s in spaces]
        sizes1 = [s[1].dim for s in spaces]
        pairs0, pairs1 = [], []
        for a, side_a, b, side_b, _sign in glue:
            pairs0.append(((a, _side_nodal_ids(spaces[a][0], side_a)),
                           (b, _side_nodal_ids(spaces[b][0], side_b))))
            pairs1.append(((a, _side_cell_ids(spaces[a][1], side_a)),
                           (b, _side_cell_ids(spaces[b][1], side_b))))
        self.map0, self.n0 = _glued_numbering(sizes0, pairs0)
        self.map1, self.n1 = _glued_numbering(sizes1, pairs1)
        offs2 = np.concatenate(([0], np.cumsum([s[2].dim for s in spaces])))
        self.map2 = [offs2[p] + np.arange(spaces[p][2].dim) for p in range(n_patches)]
        self.n2 = int(offs2[-1])

        boundary = self._boundary_sides()
        self.gauge = set(bc.normal_sides) >= set(boundary)
        self.size = self.n0 + self.n1 + self.n2 + (1 if self.gauge else 0)

        self.grids = [
            _PatchGrid(spaces[p][0].nodal_bases, patches[p], n_quad=n_quad)
            for p in range(n_patches)
        ]
        rows, cols, vals = [], [], []

        def add(r, c, m, sym=True):
            m = m.tocoo()
            rows.append(r[m.row])
            cols.append(c[m.col])
            vals.append(m.data)
            if sym:
                rows.append(c[m.col])
                cols.append(r[m.row])
                vals.append(m.data)

        self.rhs = np.zeros(self.size)
        self.mass = []
        for p in range(n_patches):
            s0, s1, s2 = spaces[p]
            grid = self.grids[p]
            M0 = _assemble_mass_on_grid(s0, grid)
            M1 = _assemble_mass_on_grid(s1, grid)
            M2 = _assemble_mass_on_grid(s2, grid)
            self.mass.append((M0, M1, M2))
            D10 = s0.coboundary_matrix().tocsc()
            D21 = s1.coboundary_matrix().tocsc()
            g0 = self.map0[p]
            g1 = self.n0 + self.map1[p]
            g2 = self.n0 + self.n1 + self.map2[p]
            add(g0, g0, -self.nu * M0, sym=False)
            add(g1, g0, self.nu * (M1 @ D10))
            add(g2, g1, M2 @ D21)
            if forcing is not None:
                fvec = _forcing_vector(s1, grid, forcing)
                np.add.at(self.rhs, g1, fvec)
        if self.gauge:
            last = self.size - 1
            pr = self.n0 + self.n1 + np.arange(self.n2)
            rows.append(np.full(self.n2, last))
            cols.append(pr)
            vals.append(np.ones(self.n2))
            rows.append(pr)
            cols.append(np.full(self.n2, last))
            vals.append(np.ones(self.n2))
        self.matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.size, self.size),
        ).tocsr()
        self.fixed: dict[int, float] = {}
        self.b1 = np.zeros(self.n0)

    def _boundary_sides(self):
        if self.glue:
            used = {(g[0], g[1]) for g in self.glue} | {(g[2], g[3]) for g in self.glue}
        else:
            used = set()
        return [
            (p, side)
            for p in range(len(self.patches))
            for side in ("left", "right", "bottom", "top")
            if (p, side) not in used
        ]

    def asymmetry(self) -> float:
        diff = (self.matrix - self.matrix.T).tocoo()
        scale = np.abs(self.matrix.tocoo().data).max()
        return (np.abs(diff.data).max() / scale) if diff.nnz else 0.0


def _normalize_side_data(system: SaddleSystem, velocity, sides):
    """Resolve per-side velocity callables; None means zero data."""
    if velocity is None or callable(velocity):
        return {key: velocity for key in sides}
    missing = [k for k in velocity if k not in sides]
    if missing:
        raise ConstructionError(f"data given for non-applicable sides {missing}")
    return {key: velocity.get(key) for key in sides}


def _side_velocity(patch: NurbsPatch, side: str, t, vfun):
    """Velocity data and physical side tangent at side coordinates t, each (m, 2)."""
    tan = patch.side_tangent(side, t)
    v = np.asarray(vfun(*patch.map_point(patch.side_points(side, t)).T), dtype=float).T
    return np.broadcast_to(v, tan.shape), tan


def _side_basis(system, patch_index, side):
    """(nodal basis along the side, Gauss points per piece) for side integrals."""
    t_dir = 1 - SIDES[side][0]
    basis = system.spaces[patch_index][0].nodal_bases[t_dir]
    return basis, basis.degree + system.patches[patch_index].bases[t_dir].degree + 3


def _side_flux_integrals(system, patch_index, side, vfun) -> np.ndarray:
    """Line integrals of the velocity flux form over a side's boundary cells."""
    basis, n_g = _side_basis(system, patch_index, side)
    edges = greville_edges(basis)
    if vfun is None:
        return np.zeros(edges.shape[0])
    t, wts, owner = interval_rule(edges, basis.breakpoints, n_g)
    v, tan = _side_velocity(system.patches[patch_index], side, t, vfun)
    flux = v[:, 0] * tan[:, 1] - v[:, 1] * tan[:, 0]
    return np.bincount(owner, weights=flux * wts, minlength=edges.shape[0])


def apply_strong_normal_velocity(system: SaddleSystem, velocity=None) -> SaddleSystem:
    """Fix boundary normal-flux coefficients from prescribed velocity data.

    The trace of the flux form on each constrained side is projected onto
    the side's edge functions (histopolation of the cell line integrals),
    and the matching velocity coefficients are pinned.  Raises when the
    net prescribed flux of an enclosed flow is nonzero.
    """
    data = _normalize_side_data(system, velocity, list(system.bc.normal_sides))
    net = 0.0
    scale = 0.0
    for (p, side), vfun in data.items():
        integrals = _side_flux_integrals(system, p, side, vfun)
        net += _OUTWARD_SIGN[side] * integrals.sum()
        scale += np.abs(integrals).sum()
        if vfun is None:
            values = integrals
        else:
            basis, _ = _side_basis(system, p, side)
            values = build_histopolation(EdgeBasis1D(basis)).solve(integrals)
        gids = system.map1[p][_side_cell_ids(system.spaces[p][1], side)]
        for g, val in zip(gids, values):
            system.fixed[int(g)] = float(val)
    if system.gauge and abs(net) > 1e-9 * max(1.0, scale):
        raise FluxCompatibilityError(net)
    return system


def apply_weak_tangential_velocity(system: SaddleSystem, velocity=None) -> np.ndarray:
    """Boundary term of the vorticity equation from tangential velocity data.

    Returns the global contribution vector and adds nu * B1 to the
    right-hand side.  Only sides listed (or all boundary sides for a
    plain callable) contribute; missing sides mean zero data.
    """
    sides = system._boundary_sides()
    if isinstance(velocity, dict):
        entries = {k: velocity.get(k) for k in sides}
    else:
        entries = {k: velocity for k in sides}
    b1 = np.zeros(system.n0)
    for (p, side), vfun in entries.items():
        if vfun is None:
            continue
        basis, n_g = _side_basis(system, p, side)
        pts, wts = panel_rule(basis.breakpoints, n_g)
        t = pts.ravel()
        v, tan = _side_velocity(system.patches[p], side, t, vfun)
        work = np.einsum("mc,mc->m", v, tan) * wts.ravel()
        local = -_TRAVERSAL_SIGN[side] * (basis.eval_nodal_many(t).T @ work)
        gids = system.map0[p][_side_nodal_ids(system.spaces[p][0], side)]
        np.add.at(b1, gids, local)
    system.rhs[: system.n0] += system.nu * b1
    system.b1 = system.b1 + b1
    return b1


def assemble_vvp(spaces, geometry, nu: float = 1.0, bc=None, forcing=None, n_quad=None) -> SaddleSystem:
    """Assemble the mixed Stokes saddle system on one patch or a multipatch.

    Parameters
    ----------
    spaces : (L0, L1, L2) triple, or list of triples (one per patch)
    geometry : NurbsPatch or MultiPatch
    nu : float
        Viscosity; scales the vorticity equation (both its blocks and its
        boundary term), keeping the operator symmetric.
    bc : BCSpec, optional
        Defaults to strong normal velocity on every boundary side, the
        enclosed-flow setup (this activates the pressure gauge).
    forcing : (fx, fy), optional
        Physical 1-form components of the momentum source.
    """
    if isinstance(geometry, MultiPatch):
        patches = geometry.patches
        glue = geometry.glue
        space_list = list(spaces)
        if len(space_list) != len(patches):
            raise ConstructionError("need one space triple per patch")
    else:
        patches = [geometry]
        glue = []
        space_list = [tuple(spaces)]
    for triple in space_list:
        if tuple(s.k for s in triple) != (0, 1, 2):
            raise ConstructionError("spaces must be the (0, 1, 2)-form triple")
    if not (np.isfinite(nu) and nu > 0):
        raise ConstructionError(f"nu must be finite and > 0, got {nu}")
    if bc is None:
        used = {(g[0], g[1]) for g in glue} | {(g[2], g[3]) for g in glue}
        all_sides = tuple(
            (p, side)
            for p in range(len(patches))
            for side in ("left", "right", "bottom", "top")
            if (p, side) not in used
        )
        bc = BCSpec(normal_sides=all_sides)
    return SaddleSystem(space_list, patches, glue, nu, bc, n_quad=n_quad, forcing=forcing)


def _global_coboundaries(system: SaddleSystem):
    """Global integer D10 (n1 x n0) and D21 (n2 x n1) through the dof maps.

    A glued 1-cell is shared by two patches; its D10 row is taken from
    the first patch that owns it, so it counts once.
    """
    r10, c10, v10, r21, c21, v21 = [], [], [], [], [], []
    seen = np.zeros(system.n1, dtype=bool)
    for p, (s0, s1, _) in enumerate(system.spaces):
        g1 = system.map1[p]
        d10 = s0.coboundary_matrix().tocoo()
        first = ~seen[g1][d10.row]
        seen[g1] = True
        r10.append(g1[d10.row[first]])
        c10.append(system.map0[p][d10.col[first]])
        v10.append(d10.data[first])
        d21 = s1.coboundary_matrix().tocoo()
        r21.append(system.map2[p][d21.row])
        c21.append(g1[d21.col])
        v21.append(d21.data)
    D10 = sp.csr_matrix(
        (np.concatenate(v10), (np.concatenate(r10), np.concatenate(c10))),
        shape=(system.n1, system.n0),
    )
    D21 = sp.csr_matrix(
        (np.concatenate(v21), (np.concatenate(r21), np.concatenate(c21))),
        shape=(system.n2, system.n1),
    )
    return D10, D21


def _factor(matrix, what: str, permc_spec: str):
    """Sparse LU with symmetric pivoting preferred; failures become SingularSystemError."""
    try:
        return spla.splu(
            matrix.tocsc(), permc_spec=permc_spec, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization of the {what} failed: {exc}",
            nullspace_hint="system may be rank deficient",
        ) from exc


def solve(system: SaddleSystem) -> Solution:
    """Direct solve in the discretely divergence-free subspace, residual-checked.

    ``ker D21 = im D10`` holds in integers, so every velocity with the
    prescribed boundary flux and zero divergence cochain is
    ``u = u0 + D10 C y``: ``u0`` is a divergence-free lift of the fixed
    fluxes through the integer 2-cell Laplacian ``L = D21_f D21_f^T``
    (``D21_f`` the columns of the free 1-cells), and ``C`` maps one
    constant per group of nodes joined by fixed cells onto the nodes
    (the annulus gets its inner-circle constant this way), minus one
    constant for the stream gauge.  Pressure leaves the factored system:
    with ``Z = D10 C`` the symmetric ``(omega, y)`` system
    ``[[A_ww, A_wu Z], [Z^T A_uw, 0]]`` is factored, its blocks sliced
    from ``system.matrix``.  Pressure is recovered afterwards from the
    free momentum rows ``D21_f^T (M2 p) = r`` through the same ``L``,
    shifted to zero sum when the gauge is set, and the multiplier from
    the pressure rows.

    ``nu`` is a pure rescaling: the vorticity and momentum rows are
    divided by ``nu``, which is the ``nu = 1`` problem with forcing
    ``f / nu``, and the pressure is scaled back by ``nu``.  The relative
    residual of the full reduced mixed system, in those rows, must stay
    below 1e-10; at ``nu = 1`` it is the residual of the system as
    assembled.
    """
    n0, n1, n2, nu = system.n0, system.n1, system.n2, system.nu
    u_rows = slice(n0, n0 + n1)
    p_rows = slice(n0 + n1, n0 + n1 + n2)
    A = system.matrix
    D10, D21 = _global_coboundaries(system)
    fixed = np.array(sorted(system.fixed), dtype=int)
    free = np.setdiff1d(np.arange(n1), fixed)
    e_fixed = np.zeros(n1)
    e_fixed[fixed] = [system.fixed[i] for i in fixed]

    # divergence-free lift of the fixed fluxes; pin one 2-cell under the gauge
    D21_free = D21[:, free]
    L = (D21_free @ D21_free.T).astype(float)
    keep2 = slice(1, None) if system.gauge else slice(None)
    lu_L = _factor(L[keep2, keep2], "2-cell Laplacian", "MMD_AT_PLUS_A")
    phi = np.zeros(n2)
    phi[keep2] = lu_L.solve(-(D21 @ e_fixed)[keep2])
    u0 = e_fixed.copy()
    u0[free] += D21_free.T @ phi

    # stream unknowns: one constant per node group joined by fixed cells
    links = abs(D10[fixed])
    n_groups, group = connected_components(links.T @ links, directed=False)
    gauged = np.flatnonzero(np.arange(n_groups) != group[0])  # psi = 0 on node 0's group
    C = sp.csr_matrix(
        (np.ones(n0, dtype=np.int64), (np.arange(n0), group)), shape=(n0, n_groups)
    )[:, gauged]
    Z = D10 @ C

    # the nu = 1 problem: vorticity and momentum rows divided by nu
    A_ww = A[:n0, :n0] / nu
    A_wu = A[:n0, u_rows] / nu
    B = A_wu @ Z
    K = sp.bmat([[A_ww, B], [B.T, None]], format="csc")
    rhs = np.concatenate((system.rhs[:n0] / nu - A_wu @ u0, Z.T @ system.rhs[u_rows] / nu))
    lu = _factor(K, "vorticity-stream system", "MMD_ATA")
    x = lu.solve(rhs)
    x += lu.solve(rhs - K @ x)
    omega = x[:n0]
    u = u0 + Z @ x[n0:]

    # pressure from the free momentum rows: D21_f^T q = r with q = M2 p
    r = (system.rhs[u_rows] / nu - A_wu.T @ omega)[free]
    q = np.zeros(n2)
    q[keep2] = lu_L.solve((D21_free @ r)[keep2])
    M2 = sp.block_diag([mass[2] for mass in system.mass])
    lu_M2 = _factor(M2, "2-form mass matrix", "MMD_AT_PLUS_A")
    if system.gauge:  # shift along the constant physical pressure M2^{-1} 1
        p, constant = lu_M2.solve(np.column_stack((q, np.ones(n2)))).T
        p = p - (p.sum() / constant.sum()) * constant
    else:
        p = lu_M2.solve(q)
    p *= nu
    lam = -float(np.mean(A[p_rows, u_rows] @ u)) if system.gauge else 0.0

    # residual of the reduced mixed system, in the nu-scaled rows
    full = np.concatenate((omega, u, p, [lam] if system.gauge else []))
    lifted = np.zeros(system.size)
    lifted[u_rows] = e_fixed
    row_scale = np.ones(system.size)
    row_scale[: n0 + n1] = 1.0 / nu
    row_scale[n0 + n1 + n2 :] = 1.0 / nu
    keep = np.setdiff1d(np.arange(system.size), n0 + fixed)
    b_red = (row_scale * (system.rhs - A @ lifted))[keep]
    r_red = (row_scale * (A @ full - system.rhs))[keep]
    resid = np.abs(r_red).max() / max(np.abs(b_red).max(), 1e-300)
    if not np.isfinite(resid) or resid > 1e-10:
        raise SingularSystemError(
            f"solve residual {resid:.3e} exceeds 1e-10",
            nullspace_hint="system may be rank deficient",
        )
    return Solution(
        system=system,
        omega=omega,
        u=u,
        p=p,
        multiplier=lam,
        residual=float(resid),
        stats={
            "dofs": system.size,
            "unknowns": K.shape[0],
            "lu_nnz": lu.nnz,
            "refine_steps": 1,
        },
    )
