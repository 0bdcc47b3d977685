"""Mass matrices, the mixed vorticity-velocity-pressure system and its solve.

Mass matrices are integrated on the reference domain after pulling the
basis back through the patch map: 0-forms carry the det J weight, 1-forms
the metric J^{-1} J^{-T} det J, 2-form densities 1/det J.  The assembly is
sum-factorized.  Per direction, a sparse pair operator G[(I, J), q] =
B_I(q) B_J(q) lists the index pairs whose functions share an element;
a block of the Gram matrix is G1 W G2^T for the weighted metric W on the
tensor Gauss grid.  The pattern of a block is the Kronecker product of
the two pair sets, so each entry of G1 W G2^T is one nonzero, written
straight into its place in the final CSC arrays.  Forcing vectors
(B1 V B2^T) and reconstructions (B1^T C B2) use the per-direction
collocation matrices B the same way.

The mixed system is never needed as one matrix.  ``SaddleSystem`` holds
the glued global mass matrices M0, M1, M2 and the integer coboundaries
D10, D21; its operator [[-nu M0, nu (M1 D10)^T, 0], [nu M1 D10, 0,
(M2 D21)^T], [0, M2 D21, 0]] is symmetric, and with normal velocity
prescribed on the whole boundary the pressure is gauged by a zero-mean
multiplier row.  ``SaddleSystem.matrix`` assembles it only when read.

The solve does not factor the saddle system.  Because D21 D10 = 0 in
integers, the velocity is sought as u = u0 + D10 C y, divergence-free by
construction, and only the symmetric (vorticity, y) system is factored,
with diagonal pivots along a node-paired order; pressure and multiplier
are recovered afterwards from the momentum and pressure rows through the
integer 2-cell Laplacian.  The residual of the full mixed system, taken
block by block, gates the solve.
"""

from __future__ import annotations

import functools
import numbers
import time
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
from .geometry import SIDES, MultiPatch, NurbsPatch, adjugate_apply, boundary_sides, mass_metric
from .projection import build_histopolation, greville_edges
from .spaces import DiscreteForm, DiscreteFormSpace
from .splines import EdgeBasis1D, edge_window

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


def _check_n_quad(n_quad):
    """Reject a Gauss-point count that is neither None nor an integer >= 1."""
    if n_quad is None:
        return
    if isinstance(n_quad, bool) or not isinstance(n_quad, numbers.Integral) or n_quad < 1:
        raise ConstructionError(f"n_quad must be None or an integer >= 1, got {n_quad!r}")


def _collocation(first, vals, n: int) -> sp.csc_matrix:
    """Sparse (functions, points) collocation matrix of a window table.

    Point q carries functions first[q] .. first[q] + width - 1 with values vals[q].
    """
    m, width = vals.shape
    rows = (first[:, None] + np.arange(width)[None, :]).ravel()
    return sp.csc_matrix((vals.ravel(), rows, np.arange(0, m * width + 1, width)), shape=(n, m))


class _PairOperator:
    """Sparse 1D operator G[(I, J), q] = A_I(q) B_J(q) of two window tables.

    Its rows are the index pairs (I, J) whose functions share an element,
    sorted by J and then I: column J of the 1D Gram matrix holds
    ``per_col[J]`` consecutive pairs, and ``rank`` is the place of a pair
    within its column.
    """

    def __init__(self, table_a, table_b):
        (fa, va, na), (fb, vb, nb) = table_a, table_b
        m, wa = va.shape
        wb = vb.shape[1]
        rows = fa[:, None, None] + np.arange(wa)[None, :, None]
        cols = fb[:, None, None] + np.arange(wb)[None, None, :]
        keys, pair = np.unique((cols * na + rows).ravel(), return_inverse=True)
        point = np.broadcast_to(np.arange(m)[:, None, None], (m, wa, wb)).ravel()
        vals = (va[:, :, None] * vb[:, None, :]).ravel()
        self.matrix = sp.csr_matrix((vals, (pair.ravel(), point)), shape=(keys.size, m))
        self.rows = keys % na
        self.cols = keys // na
        self.per_col = np.bincount(self.cols, minlength=nb)
        start = np.cumsum(self.per_col) - self.per_col
        self.rank = np.arange(keys.size) - start[self.cols]


class _Axis:
    """Gauss rule of one direction with the tables of its nodal and edge bases.

    ``colloc[edge]`` is the collocation matrix of the nodal (edge False)
    or edge (edge True) family; ``pair(edge_a, edge_b)`` is the pair
    operator of two families, built on first use.
    """

    def __init__(self, basis, nq: int):
        self.nq = nq
        pts, wts = panel_rule(basis.breakpoints, nq)
        self.pts = pts.ravel()
        self.w = wts.ravel()
        spans, nvals, nders = basis.window(self.pts)
        first = spans - basis.degree
        self._tables = {
            False: (first, nvals, basis.num_basis),
            True: (first, edge_window(nders), basis.num_basis - 1),
        }
        self.colloc = {edge: _collocation(*table) for edge, table in self._tables.items()}
        self._pairs = {}

    def pair(self, edge_a: bool, edge_b: bool) -> _PairOperator:
        key = (edge_a, edge_b)
        if key not in self._pairs:
            self._pairs[key] = _PairOperator(self._tables[edge_a], self._tables[edge_b])
        return self._pairs[key]


class _PatchGrid:
    """Tensor Gauss grid of one patch: per-direction tables and the geometry at every point.

    Point arrays are shaped (Q1, Q2), the Gauss points of direction 1 by
    those of direction 2.  Two directions with the same nodal basis and
    rule share one ``_Axis``, and with it its pair operators.  ``jac`` and
    ``det`` are always there; ``phys``, the physical image of every Gauss
    point, only with ``need_phys`` (forcing and error evaluation), from the
    same geometry tables.
    """

    def __init__(self, nodal_bases, patch: NurbsPatch, n_quad=None, extra: int = 0,
                 need_phys: bool = False):
        _check_n_quad(n_quad)
        nodal_bases = tuple(nodal_bases)
        self.axes = []
        for j, b in enumerate(nodal_bases):
            if np.abs(np.subtract(b.domain, patch.bases[j].domain)).max() > 1e-12:
                raise ConstructionError(
                    f"field knot domain {b.domain} differs from the geometry knot "
                    f"domain {patch.bases[j].domain} in direction {j}"
                )
            breaks = b.breakpoints
            inner = patch.bases[j].breakpoints[1:-1]
            if inner.size and np.min(np.abs(inner[:, None] - breaks[None, :]), axis=1).max() > 1e-12:
                raise ConstructionError(
                    "field breakpoints must refine the geometry breakpoints"
                )
            nq = (n_quad if n_quad is not None else patch.bases[j].degree + b.degree + 1) + extra
            if j == 1 and b is nodal_bases[0] and nq == self.axes[0].nq:
                self.axes.append(self.axes[0])
            else:
                self.axes.append(_Axis(b, nq))
        x, y = self.axes[0].pts, self.axes[1].pts
        if need_phys:
            self.phys, self.jac, self.det = patch.frame_grid(x, y)
        else:
            self.jac, self.det = patch.jacobian_grid(x, y)
        self.w = np.outer(self.axes[0].w, self.axes[1].w)

    def collocation(self, block):
        """Collocation matrices of a form block's two factors."""
        return tuple(axis.colloc[j in block.dirs] for j, axis in enumerate(self.axes))

    def reconstruct(self, form: DiscreteForm, comp: int) -> np.ndarray:
        """One component of the reconstruction at every Gauss point, (Q1, Q2)."""
        b1, b2 = self.collocation(form.space.blocks[comp])
        return b1.T @ (b2.T @ form.block_coeffs(comp).T).T


@dataclass(frozen=True)
class MassMatrix:
    """Symmetric positive-definite L2 Gram matrix of a discrete form space."""

    k: int
    matrix: sp.csc_matrix
    space: DiscreteFormSpace


def _assemble_mass_on_grid(space: DiscreteFormSpace, grid: _PatchGrid) -> sp.csc_matrix:
    """Gram matrix written entry by entry into its final CSC pattern.

    Block pair (A, B) with weight W is ``V = G1 W G2^T`` for the pair
    operators G1, G2 of its two directions; entry ((I1, J1), (I2, J2)) of
    V is the one nonzero at row (I1, I2) of A and column (J1, J2) of B,
    because the pattern is the Kronecker product of the two pair sets.
    Within a column, rows come block by block and, inside a block, in
    flat (Fortran) order, which is the order of ``rank`` in direction 2
    and then in direction 1.
    """
    weights = mass_metric(space.k, grid.jac, grid.det, grid.w)
    per_col = np.zeros(space.dim, dtype=np.int64)
    parts = []
    for ib, B in enumerate(space.blocks):
        cols = B.offset + np.arange(B.size).reshape(B.shape, order="F")
        for ia, A in enumerate(space.blocks):
            if (ia, ib) not in weights:
                continue
            g1, g2 = (grid.axes[j].pair(j in A.dirs, j in B.dirs) for j in range(2))
            parts.append((A, g1, g2, weights[ia, ib], cols, per_col[cols]))
            per_col[cols] += np.outer(g1.per_col, g2.per_col)
    indptr = np.concatenate(([0], np.cumsum(per_col)))
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int64)
    for A, g1, g2, W, cols, before in parts:
        first = (indptr[cols] + before)[g1.cols][:, g2.cols]
        dest = first + g2.rank[None, :] * g1.per_col[g1.cols][:, None] + g1.rank[:, None]
        data[dest] = (g2.matrix @ (g1.matrix @ W).T).T
        indices[dest] = A.offset + g1.rows[:, None] + A.shape[0] * g2.rows[None, :]
    return sp.csc_matrix((data, indices, indptr), shape=(space.dim, space.dim))


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
    pulled = adjugate_apply(grid.jac, f0, f1)  # det J * J^{-1} f
    out = np.empty(space.dim)
    for comp, block in enumerate(space.blocks):
        b1, b2 = grid.collocation(block)
        local = b1 @ (b2 @ (pulled[comp] * grid.w).T).T
        out[block.offset : block.offset + block.size] = local.ravel(order="F")
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
    index, in order of its smallest member; without pairs the numbering
    is the identity.
    """
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = int(offsets[-1])
    if pairs:
        rows = np.concatenate([offsets[pa] + ids for (pa, ids), _ in pairs])
        cols = np.concatenate([offsets[pb] + ids for _, (pb, ids) in pairs])
        graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        n_global, labels = connected_components(graph, directed=False)
    else:  # int32 like csgraph's labels, which keeps the assembly triplets small
        n_global, labels = n, np.arange(n, dtype=np.int32)
    maps = [labels[offsets[p] : offsets[p + 1]] for p in range(len(sizes))]
    return maps, n_global


def _glued(parts, shape):
    """Sum of per-patch matrices placed through their (row map, column map) pairs.

    Without gluing (one part whose maps cover the whole shape, hence the
    identity) the part itself is returned.
    """
    if len(parts) == 1 and parts[0][1].size == shape[0] and parts[0][2].size == shape[1]:
        return parts[0][0]
    coo = [(m.tocoo(), rows, cols) for m, rows, cols in parts]
    return sp.csr_matrix(
        (
            np.concatenate([m.data for m, _, _ in coo]),
            (np.concatenate([rows[m.row] for m, rows, _ in coo]),
             np.concatenate([cols[m.col] for m, _, cols in coo])),
        ),
        shape=shape,
    )


def _check_glued_bases(spaces, glue):
    """Raise unless every glued side pair carries the same field basis along it."""
    for a, side_a, b, side_b, _ in glue:
        ba = spaces[a][0].nodal_bases[1 - SIDES[side_a][0]]
        bb = spaces[b][0].nodal_bases[1 - SIDES[side_b][0]]
        ka, kb = ba.knot_vector.knots, bb.knot_vector.knots
        if not (
            ba.degree == bb.degree
            and ka.shape == kb.shape
            and np.allclose(ka, kb, rtol=0.0, atol=1e-12)
            and np.allclose(ba.weights, bb.weights, rtol=1e-12, atol=0.0)
        ):
            raise ConstructionError(
                f"glued sides {side_a} of patch {a} and {side_b} of patch {b} carry "
                f"different field bases; their degree, knots and weights must coincide"
            )


@dataclass
class BCSpec:
    """Which sides carry strongly prescribed normal velocity."""

    normal_sides: tuple = ()


@dataclass
class Solution:
    """Solved cochains (global numbering) plus the solve residual.

    ``stats`` describes the solve: ``dofs`` (size of the mixed system),
    ``unknowns`` (size of the factored system), ``lu_nnz`` (nonzeros of
    its LU factors), ``refine_steps`` (iterative-refinement steps),
    ``factors`` (``nnz``, ``fill_ratio`` (LU nonzeros over matrix
    nonzeros) and ``seconds`` of each factorization: ``L``, the
    2-cell Laplacian; ``order``, the ordering-only LU of the vorticity
    mass matrix; ``K``, the vorticity-stream system; ``M2``, the 2-form
    mass matrix), ``residual`` (the gated solve residual) and
    ``histopolation_cond`` (the largest condition number of the side
    histopolations ``apply_strong_normal_velocity`` used, None if none).
    None of it goes into the output files.
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
    """Glued global blocks of the mixed Stokes system with boundary-condition bookkeeping.

    ``M0``, ``M1``, ``M2`` are the mass matrices and ``D10``, ``D21`` the
    integer coboundaries in the glued numbering, each built once; a
    glued 1-cell has one row in ``D10``.  Unknowns are ordered (omega, u,
    p) plus the multiplier when ``gauge`` is set.
    """

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

        self.boundary = boundary_sides(n_patches, glue)
        self.gauge = set(bc.normal_sides) >= set(self.boundary)
        self.size = self.n0 + self.n1 + self.n2 + (1 if self.gauge else 0)

        self.rhs = np.zeros(self.size)
        mass, d10, d21 = ([], [], []), [], []
        owned = np.zeros(self.n1, dtype=bool)
        for p, (s0, s1, s2) in enumerate(spaces):
            grid = _PatchGrid(s0.nodal_bases, patches[p], n_quad=n_quad,
                              need_phys=forcing is not None)
            maps = (self.map0[p], self.map1[p], self.map2[p])
            for k, space in enumerate((s0, s1, s2)):
                mass[k].append((_assemble_mass_on_grid(space, grid), maps[k], maps[k]))
            own = ~owned[maps[1]]  # a glued 1-cell keeps the D10 row of its first patch
            owned[maps[1]] = True
            d10.append((s0.coboundary_matrix()[own], maps[1][own], maps[0]))
            d21.append((s1.coboundary_matrix(), maps[2], maps[1]))
            if forcing is not None:
                np.add.at(self.rhs, self.n0 + maps[1], _forcing_vector(s1, grid, forcing))
        self.M0, self.M1, self.M2 = (
            _glued(parts, (n, n)) for parts, n in zip(mass, (self.n0, self.n1, self.n2))
        )
        self.D10 = _glued(d10, (self.n1, self.n0))
        self.D21 = _glued(d21, (self.n2, self.n1))
        self.fixed: dict[int, float] = {}
        self.histopolation_cond = None  # set by apply_strong_normal_velocity

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The mixed operator, assembled on first read; the solve never reads it."""
        nu = self.nu
        vort = nu * (self.M1 @ self.D10)
        div = self.M2 @ self.D21
        blocks = [[-nu * self.M0, vort.T, None], [vort, None, div.T], [None, div, None]]
        if self.gauge:
            ones = sp.csr_matrix(np.ones((1, self.n2)))
            blocks = [row + [col] for row, col in zip(blocks, (None, None, ones.T))]
            blocks.append([None, None, ones, None])
        return sp.bmat(blocks, format="csr")

    def asymmetry(self) -> float:
        diff = (self.matrix - self.matrix.T).tocoo()
        scale = np.abs(self.matrix.tocoo().data).max()
        return (np.abs(diff.data).max() / scale) if diff.nnz else 0.0


def _normalize_side_data(velocity, sides):
    """Resolve per-side velocity callables; None means zero data."""
    if velocity is None or callable(velocity):
        return {key: velocity for key in sides}
    missing = [k for k in velocity if k not in sides]
    if missing:
        raise ConstructionError(f"data given for non-applicable sides {missing}")
    return {key: velocity.get(key) for key in sides}


def _side_basis(system, patch_index, side):
    """(nodal basis along the side, Gauss points per piece) for side integrals."""
    t_dir = 1 - SIDES[side][0]
    basis = system.spaces[patch_index][0].nodal_bases[t_dir]
    return basis, basis.degree + system.patches[patch_index].bases[t_dir].degree + 3


class _SideRules:
    """Side quadrature and side geometry of one boundary-condition call.

    A side's rule depends only on its field basis along the side and its
    point count, so ``make_rule(basis, n)`` runs once per distinct pair;
    the first entry of a rule is its points.  The geometry of a side is
    its ``side_curve`` at those points, so one ``window`` call of the
    along-side geometry basis serves every side that shares it and the rule.
    """

    def __init__(self, system: "SaddleSystem", make_rule):
        self.system = system
        self.make_rule = make_rule
        self._rules = {}
        self._tables = {}

    def rule(self, p: int, side: str):
        key = _side_basis(self.system, p, side)
        if key not in self._rules:
            self._rules[key] = self.make_rule(*key)
        return self._rules[key]

    def velocity(self, p: int, side: str, vfun):
        """Velocity data and physical side tangents at the side's rule points, each (m, 2)."""
        curve = self.system.patches[p].side_curve(side)
        key = (curve.basis, *_side_basis(self.system, p, side))
        if key not in self._tables:
            self._tables[key] = curve.basis.window(self.rule(p, side)[0])
        points, tan = curve.frame(self._tables[key])
        v = np.asarray(vfun(*points.T), dtype=float).T
        return np.broadcast_to(v, tan.shape), tan


def _greville_side_rule(basis, n: int):
    """Points, weights and owning cell of the Greville intervals of a side basis."""
    return interval_rule(greville_edges(basis), basis.breakpoints, n)


def _panel_side_rule(basis, n: int):
    """Points, weights and the sparse nodal collocation matrix of a side's panel rule."""
    pts, wts = panel_rule(basis.breakpoints, n)
    t = pts.ravel()
    spans, vals, _ = basis.window(t)
    return t, wts.ravel(), _collocation(spans - basis.degree, vals, basis.num_basis)


def _side_flux_integrals(system, data) -> dict:
    """Line integrals of the velocity flux form over each side's boundary cells.

    ``data`` maps (patch, side) to a velocity callable or None (zero data).
    """
    sides = _SideRules(system, _greville_side_rule)
    out = {}
    for (p, side), vfun in data.items():
        if vfun is None:
            out[p, side] = np.zeros(_side_basis(system, p, side)[0].num_basis - 1)
            continue
        _, wts, owner = sides.rule(p, side)
        v, tan = sides.velocity(p, side, vfun)
        flux = v[:, 0] * tan[:, 1] - v[:, 1] * tan[:, 0]
        out[p, side] = np.bincount(owner, weights=flux * wts, minlength=owner[-1] + 1)
    return out


def apply_strong_normal_velocity(system: SaddleSystem, velocity=None) -> SaddleSystem:
    """Fix boundary normal-flux coefficients from prescribed velocity data.

    The trace of the flux form on each constrained side is projected onto
    the side's edge functions (histopolation of the cell line integrals),
    and the matching velocity coefficients are pinned.  Raises when the
    net prescribed flux of an enclosed flow is nonzero.  The largest
    condition number of the histopolations used is kept as
    ``system.histopolation_cond``.
    """
    data = _normalize_side_data(velocity, list(system.bc.normal_sides))
    net = 0.0
    scale = 0.0
    histopolation = {}  # one per distinct side basis
    for (p, side), integrals in _side_flux_integrals(system, data).items():
        net += _OUTWARD_SIGN[side] * integrals.sum()
        scale += np.abs(integrals).sum()
        if data[p, side] is None:
            values = integrals
        else:
            basis, _ = _side_basis(system, p, side)
            if basis not in histopolation:
                histopolation[basis] = build_histopolation(EdgeBasis1D(basis))
            values = histopolation[basis].solve(integrals)
        gids = system.map1[p][_side_cell_ids(system.spaces[p][1], side)]
        for g, val in zip(gids, values):
            system.fixed[int(g)] = float(val)
    if histopolation:
        system.histopolation_cond = max(h.cond for h in histopolation.values())
    if system.gauge and abs(net) > 1e-9 * max(1.0, scale):
        raise FluxCompatibilityError(net)
    return system


def apply_weak_tangential_velocity(system: SaddleSystem, velocity=None) -> np.ndarray:
    """Boundary term of the vorticity equation from tangential velocity data.

    Returns the global contribution vector and adds nu * B1 to the
    right-hand side.  Only sides listed (or all boundary sides for a
    plain callable) contribute; missing sides mean zero data, and data
    for a side that is not a boundary side raises ConstructionError.
    """
    entries = _normalize_side_data(velocity, system.boundary)
    rules = _SideRules(system, _panel_side_rule)
    b1 = np.zeros(system.n0)
    for (p, side), vfun in entries.items():
        if vfun is None:
            continue
        _, wts, colloc = rules.rule(p, side)
        v, tan = rules.velocity(p, side, vfun)
        local = -_TRAVERSAL_SIGN[side] * (colloc @ (np.einsum("mc,mc->m", v, tan) * wts))
        gids = system.map0[p][_side_nodal_ids(system.spaces[p][0], side)]
        np.add.at(b1, gids, local)
    system.rhs[: system.n0] += system.nu * b1
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
    _check_n_quad(n_quad)
    _check_glued_bases(space_list, glue)
    if bc is None:
        bc = BCSpec(normal_sides=tuple(boundary_sides(len(patches), glue)))
    return SaddleSystem(space_list, patches, glue, nu, bc, n_quad=n_quad, forcing=forcing)


def _factor(matrix, what: str, permc_spec: str, factors: dict, key: str):
    """Sparse LU with diagonal pivots; failures become SingularSystemError.

    ``diag_pivot_thresh=0`` keeps every nonzero diagonal entry as the
    pivot, so the elimination follows the given column order
    symmetrically.  An exactly singular factor raises; pivot growth
    shows in the solve residual.  The factor's nonzeros, their ratio to
    the nonzeros of the matrix and the seconds go into ``factors[key]``.
    """
    start = time.perf_counter()
    matrix = matrix.tocsc()
    try:
        lu = spla.splu(
            matrix,
            permc_spec=permc_spec,
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization of the {what} failed: {exc}",
            nullspace_hint="system may be rank deficient",
        ) from exc
    seconds = time.perf_counter() - start
    factors[key] = {"nnz": int(lu.nnz), "fill_ratio": lu.nnz / matrix.nnz, "seconds": seconds}
    return lu


def _node_paired_positions(A_ww, group, gauged, factors: dict) -> np.ndarray:
    """Position of each (omega, y) unknown in the node-paired elimination order.

    The nodes follow the minimum-degree order of the SPD block ``-A_ww``,
    whose pattern is the node graph of every block of the system; each
    stream unknown ``y_g`` comes right after the last node of its group
    ``g``, so it is eliminated only once a coupled vorticity pivot has
    made its diagonal nonzero.
    """
    n0 = A_ww.shape[0]
    node_pos = _factor(-A_ww, "vorticity mass matrix", "MMD_AT_PLUS_A", factors, "order").perm_c
    last = np.zeros(group.max() + 1, dtype=np.int64)
    np.maximum.at(last, group, node_pos)
    keys = np.concatenate((2 * node_pos, 2 * last[gauged] + 1))  # distinct, below 2 n0
    used = np.zeros(2 * n0, dtype=np.int64)
    used[keys] = 1
    return np.cumsum(used)[keys] - 1  # rank of each key


def _fixed_fluxes(system: SaddleSystem):
    """Sorted fixed 1-cell ids, the mask of the free ones, and the fixed values as an n1 vector."""
    fixed = np.array(sorted(system.fixed), dtype=int)
    free = np.ones(system.n1, dtype=bool)
    free[fixed] = False
    e_fixed = np.zeros(system.n1)
    e_fixed[fixed] = [system.fixed[i] for i in fixed]
    return fixed, free, e_fixed


def _flux_carriers(system: SaddleSystem, free, D21_free, lu_L, keep2) -> sp.csr_matrix:
    """Divergence-free velocities (n1, m) that carry flux between boundary loops.

    A stream function puts no net flux through a closed loop of boundary
    1-cells.  When two or more loops hold a free cell (both circles of the
    annulus, say), flux can pass from one to another, so the free
    divergence-free velocities are im D10 C plus one carrier for each of
    these loops past the first: the unit flux at the loop's first free
    cell, projected onto ker D21_f through the 2-cell Laplacian.  A
    carrier's net flux through its own loop exceeds the sum of its fluxes
    through the other carried loops, so the carriers are independent
    modulo im D10 C.
    """
    if system.gauge:  # every boundary cell is fixed: no flux passes a loop
        return sp.csr_matrix((system.n1, 0))
    cells = np.concatenate([
        system.map1[p][_side_cell_ids(system.spaces[p][1], side)] for p, side in system.boundary
    ])
    links = abs(system.D10[cells]).tocsr()
    _, loop = connected_components(links.T @ links, directed=False)
    free_cells = free[cells]
    loops = loop[links.indices[links.indptr[:-1]]][free_cells]
    _, first = np.unique(loops, return_index=True)
    carriers = cells[free_cells][np.sort(first)[1:]]
    H = np.zeros((system.n1, carriers.size))
    H[carriers, np.arange(carriers.size)] = 1.0
    psi = np.zeros((system.n2, carriers.size))
    psi[keep2] = lu_L.solve((D21_free @ H[free])[keep2])
    H[free] -= D21_free.T @ psi
    return sp.csr_matrix(H)


def _reduced_residual(system: SaddleSystem, omega, u, p, lam) -> float:
    """Relative residual of the mixed system at (omega, u, p, lam), block by block.

    The fixed-flux rows are dropped and the vorticity, momentum and gauge
    rows divided by ``nu``; the scale is the reduced right-hand side, with
    the fixed fluxes moved over.  This is the residual of ``system.matrix``,
    computed without assembling it.
    """
    n0, n1, n2, nu = system.n0, system.n1, system.n2, system.nu
    M0, M1, M2, D10, D21 = system.M0, system.M1, system.M2, system.D10, system.D21
    _, free, e_fixed = _fixed_fluxes(system)
    f_w, f_u, f_p, f_g = np.split(system.rhs, [n0, n0 + n1, n0 + n1 + n2])
    lam = lam if system.gauge else 0.0  # without the gauge, f_g is empty and lam unused
    r = np.concatenate((
        D10.T @ (M1 @ u) - M0 @ omega - f_w / nu,
        (M1 @ (D10 @ omega) + D21.T @ (M2 @ p) / nu - f_u / nu)[free],
        M2 @ (D21 @ u) + lam - f_p,
        (p.sum() - f_g) / nu,
    ))
    b = np.concatenate((
        f_w / nu - D10.T @ (M1 @ e_fixed),
        f_u[free] / nu,
        f_p - M2 @ (D21 @ e_fixed),
        f_g / nu,
    ))
    return np.abs(r).max() / max(np.abs(b).max(), 1e-300)


def solve(system: SaddleSystem) -> Solution:
    """Direct solve in the discretely divergence-free subspace, residual-checked.

    ``ker D21 = im D10`` holds in integers, so every velocity with the
    prescribed boundary flux and zero divergence cochain is
    ``u = u0 + Z y`` with ``Z = D10 C``: ``u0`` is a divergence-free lift
    of the fixed fluxes through the integer 2-cell Laplacian
    ``L = D21_f D21_f^T`` (``D21_f`` the columns of the free 1-cells), and
    ``C`` maps one constant per group of nodes joined by fixed cells onto
    the nodes (the annulus gets its inner-circle constant this way), minus
    one constant for the stream gauge.  On a domain with holes, flux that
    passes between two boundary loops through free cells is no such curl;
    one flux carrier per extra loop (``_flux_carriers``) joins the columns
    of ``Z`` and comes last in the elimination order.  Pressure leaves the
    factored system: with ``A_ww = -M0`` and ``A_wu = D10^T M1``, taken
    straight from the system's glued blocks, the symmetric ``(omega, y)``
    system ``[[A_ww, A_wu Z], [Z^T A_uw, 0]]`` is factored.  It is
    permuted once into a node-paired order (the minimum-degree order of
    the nodes, each stream unknown right after the last node of its
    group) and factored along that order with diagonal pivots: every
    zero diagonal of the stream block is filled by a coupled vorticity
    pivot before it is reached.  Pressure is recovered afterwards from
    the free momentum rows ``D21_f^T (M2 p) = r`` through the same ``L``
    and a factor of ``M2``, shifted to zero sum when the gauge is set,
    and the multiplier from the pressure rows ``M2 D21 u``.

    ``nu`` is a pure rescaling: the vorticity and momentum rows are
    divided by ``nu``, which is the ``nu = 1`` problem with forcing
    ``f / nu``, and the pressure is scaled back by ``nu``.  The relative
    residual of the full reduced mixed system, in those rows and computed
    block by block (``_reduced_residual``), must stay below 1e-10.
    """
    n0, n2, nu = system.n0, system.n2, system.nu
    D10, D21 = system.D10, system.D21
    f_u = system.rhs[n0 : n0 + system.n1]
    fixed, free, e_fixed = _fixed_fluxes(system)

    # divergence-free lift of the fixed fluxes; pin one 2-cell under the gauge
    D21_free = D21[:, free]
    L = (D21_free @ D21_free.T).astype(float)
    keep2 = slice(1, None) if system.gauge else slice(None)
    factors = {}
    lu_L = _factor(L[keep2, keep2], "2-cell Laplacian", "MMD_AT_PLUS_A", factors, "L")
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
    carriers = _flux_carriers(system, free, D21_free, lu_L, keep2)
    if carriers.shape[1]:
        Z = sp.hstack([Z, carriers], format="csr")

    # the nu = 1 problem: vorticity and momentum rows divided by nu
    A_ww = -system.M0.tocsr()  # CSR blocks keep the stacking of K on its fast path
    A_wu = (system.M1 @ D10).T
    B = A_wu @ Z
    pos = _node_paired_positions(A_ww, group, gauged, factors)
    pos = np.concatenate((pos, np.arange(pos.size, n0 + Z.shape[1])))  # flux carriers last
    # rows of K taken in the node-paired order and columns relabelled; the
    # transpose into CSC then leaves every column sorted, with no sort pass
    K = sp.vstack(
        [sp.hstack([A_ww, B], format="csr"),
         sp.hstack([B.T.tocsr(), sp.csr_matrix((Z.shape[1], Z.shape[1]))], format="csr")],
        format="csr",
    )[np.argsort(pos)]
    K = sp.csr_matrix((K.data, pos[K.indices], K.indptr), shape=K.shape).tocsc()
    rhs = np.empty(K.shape[0])
    rhs[pos] = np.concatenate((system.rhs[:n0] / nu - A_wu @ u0, Z.T @ f_u / nu))
    lu = _factor(K, "vorticity-stream system", "NATURAL", factors, "K")
    x = lu.solve(rhs)
    x += lu.solve(rhs - K @ x)
    x = x[pos]
    omega = x[:n0]
    u = u0 + Z @ x[n0:]

    # pressure from the free momentum rows: D21_f^T q = r with q = M2 p
    r = (f_u / nu - A_wu.T @ omega)[free]
    q = np.zeros(n2)
    q[keep2] = lu_L.solve((D21_free @ r)[keep2])
    lu_M2 = _factor(system.M2, "2-form mass matrix", "MMD_AT_PLUS_A", factors, "M2")
    if system.gauge:  # shift along the constant physical pressure M2^{-1} 1
        p, constant = lu_M2.solve(np.column_stack((q, np.ones(n2)))).T
        p = p - (p.sum() / constant.sum()) * constant
    else:
        p = lu_M2.solve(q)
    p *= nu
    lam = -float(np.mean(system.M2 @ (D21 @ u))) if system.gauge else 0.0

    resid = _reduced_residual(system, omega, u, p, lam)
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
            "factors": factors,
            "residual": float(resid),
            "histopolation_cond": system.histopolation_cond,
        },
    )
