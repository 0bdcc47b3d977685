"""Mass matrices, the mixed vorticity-velocity-pressure system and its solve.

Mass matrices are integrated on the reference domain after pulling the
basis back through the patch map: 0-forms carry the det J weight, 1-forms
the metric J^{-1} J^{-T} det J, 2-form densities 1/det J.  The assembly is
sum-factorized.  Per direction, a sparse pair operator G[(I, J), q] =
B_I(q) B_J(q) lists the index pairs whose functions share an element;
a block of the Gram matrix is G1 W G2^T for the weighted metric W on the
tensor Gauss grid.  The pattern of a block is the Kronecker product of
the two pair sets, so each entry of G1 W G2^T is one nonzero.  Every
block pair is multiplied in full, and the products of all block pairs of
all patches form one COO set, written in the glued numbering: one
patch's set compresses to CSC without sorting or summing, a glued set to
one CSR, whose entries where three or more patches meet are summed in
patch order first.  The products read only the block metrics
(``geometry.mass_metric``) and the two Gauss axes of a patch's grid: the
grid, with its Jacobian tables, is gone before the first product, and
each metric before its block's conversion to a sparse matrix.  A Gauss
axis is kept per nodal basis object and rule (``_axis``), with its pair
operators and geometry tables, while the basis lives.  Forcing vectors
(B1^T V B2) and reconstructions (B1 C B2^T) use the per-direction
(points, functions) collocation matrices B of ``splines.collocation``
the same way, and so do the side rules of the boundary conditions.

The mixed system is never needed as one matrix.  ``SaddleSystem`` holds
the glued global mass matrices M0, M1, M2 and the integer coboundaries
D10, D21; its operator [[-nu M0, nu (M1 D10)^T, 0], [nu M1 D10, 0,
(M2 D21)^T], [0, M2 D21, 0]] is symmetric when M0 is, and with normal
velocity prescribed on the whole boundary the pressure is gauged by a
zero-mean multiplier row.  ``SaddleSystem.matrix`` assembles it when read;
``asymmetry`` checks M0, M1 and M2, which the solve reads as symmetric.

The solve does not factor the saddle system.  Because D21 D10 = 0 in
integers, the velocity is sought as u = u0 + D10 C y, divergence-free by
construction, and only the symmetric (vorticity, y) system is factored,
on one of two paths, both reading B = (M1 D10)^T Z, formed once, and both
placing each stream unknown right after the last node of its group.  On
every layout within the band rule, one patch or glued, it is factored in
float32 as a LAPACK band LU in the breadth-first level order of the node
graph (one unglued patch's tensor order), written straight from M0 and
B, and refined against the float64 blocks; everywhere else, and where the
band fails, it is factored in float64 by SuperLU with diagonal pivots
along the minimum-degree order of the nodes.
Pressure and multiplier are recovered afterwards from the momentum and
pressure rows through the integer 2-cell Laplacian and a banded Cholesky
of each patch's block of the block-diagonal M2.  The residual of the
full mixed system, taken block by block, gates the solve.  Its
topological part is index arithmetic on the compressed arrays of the
coboundaries, whose rows have a fixed structure (two end nodes per
1-cell, four sides per 2-cell): the node groups of the stream constants,
the columns of ``C`` and the place of every entry of ``K``.
"""

from __future__ import annotations

import resource
import time
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, dijkstra

from ._quadrature import panel_rule
from .errors import (
    ConstructionError,
    FluxCompatibilityError,
    SingularSystemError,
    check_integer,
    check_real,
)
from .geometry import (
    SIDES,
    GridAxis,
    MultiPatch,
    NurbsPatch,
    adjugate_apply,
    boundary_sides,
    mass_metric,
)
from .projection import greville_reduction
from .spaces import DiscreteForm, DiscreteFormSpace
from .splines import collocation, edge_window, grid_values, per_basis, stored_window

__all__ = [
    "MassMatrix",
    "SaddleSystem",
    "Solution",
    "assemble_mass",
    "assemble_vvp",
    "apply_strong_normal_velocity",
    "apply_weak_tangential_velocity",
    "solve",
]

# +1 where a side's parameter runs with the counter-clockwise traversal of
# its patch's boundary.  A side cell's flux cochain pairs the velocity with
# the side tangent turned clockwise, which points outward exactly on those
# sides, so the same table gives the sign of a side cell's outward flux.
_SIDE_SIGN = {"bottom": 1.0, "right": 1.0, "top": -1.0, "left": -1.0}

# K, the vorticity-stream system of any layout, is factored as a float32
# band LU (``_solve_band``) and its solution refined against the float64
# blocks (``_refine``) where the nodal degree is a key of _BAND_MAX_WIDTH
# and the half-bandwidth at most its value: there the band beat the float64
# path on the unit square and took at most 6 refinement steps (README has
# the table).  Refinement takes at most _MAX_REFINE_STEPS steps; an entry below
# _NEGLIGIBLE * sqrt(max|col i| max|col j|) is set to 0 in the band.  Every
# other K is factored in float64 by SuperLU.
_MAX_REFINE_STEPS = 8
_NEGLIGIBLE = 1e-12
_BAND_MAX_WIDTH = {2: 330, 3: 790, 4: 610, 5: 490, 6: 340}


def _check_n_quad(n_quad):
    """Reject a Gauss-point count that is neither None nor an integer >= 1."""
    if n_quad is None:
        return
    check_integer("n_quad", n_quad)
    if n_quad < 1:
        raise ConstructionError(f"n_quad must be None or an integer >= 1, got {n_quad!r}")


class _PairOperator:
    """Sparse 1D operator G[(I, J), q] = A_I(q) B_J(q) of two collocation matrices.

    Its rows are the index pairs (I, J) whose functions share an element,
    sorted by J and then I (``rows`` holds I, ``cols`` J).
    """

    def __init__(self, a, b):
        m, na = a.shape
        (ia, va), (ib, vb) = stored_window(a), stored_window(b)
        # the points of one element share both windows: pair them once per run
        moved = (ia[1:, 0] != ia[:-1, 0]) | (ib[1:, 0] != ib[:-1, 0])
        start = np.flatnonzero(np.append(True, moved))
        keys = ib[start, None, :].astype(np.int64) * na + ia[start, :, None]
        width = keys[0].size
        order = np.argsort(keys, axis=None, kind="stable")
        keys = keys.ravel()[order]
        new = np.append(True, keys[1:] != keys[:-1])
        keys = keys[new]
        # row of a pair: the points of every run that holds it, in order
        run, slot = np.divmod(order, width)
        n_pts = (np.append(start[1:], m) - start)[run]
        end = np.cumsum(n_pts)
        point = np.repeat(start[run] + n_pts - end, n_pts) + np.arange(end[-1])
        vals = (va[:, :, None] * vb[:, None, :]).ravel()[point * width + np.repeat(slot, n_pts)]
        ptr = np.append((end - n_pts)[new], end[-1]).astype(np.int32)
        self.matrix = sp.csr_matrix((vals, point.astype(np.int32), ptr), shape=(keys.size, m))
        self.rows = (keys % na).astype(np.int32)
        self.cols = (keys // na).astype(np.int32)


class _Axis(GridAxis):
    """Gauss rule of one direction with the collocation matrices of its nodal and edge bases.

    ``colloc[edge]`` is the collocation matrix of the nodal (edge False)
    or edge (edge True) family, both from one ``window`` call;
    ``pair(edge_a, edge_b)`` is the pair operator of two families and
    ``geometry(basis)`` (from ``GridAxis``) the table of a geometry basis
    at the points, each built on first use.
    """

    def __init__(self, basis, nq: int):
        self.nq = nq
        pts, wts = panel_rule(basis.breakpoints, nq)
        super().__init__(pts.ravel())
        self.w = wts.ravel()
        spans, nvals, nders = basis.window(self.pts)
        first = spans - basis.degree
        self.colloc = {
            False: collocation(first, nvals, basis.num_basis),
            True: collocation(first, edge_window(nders), basis.num_basis - 1),
        }
        self._pairs = {}

    def pair(self, edge_a: bool, edge_b: bool) -> _PairOperator:
        key = (edge_a, edge_b)
        if key not in self._pairs:
            self._pairs[key] = _PairOperator(self.colloc[edge_a], self.colloc[edge_b])
        return self._pairs[key]


# immutable nodal basis (hashed by identity) -> {Gauss points per piece: _Axis}
_AXES = weakref.WeakKeyDictionary()


def _axis(basis, nq: int) -> _Axis:
    """The ``_Axis`` of (basis, nq), built on first request and kept while the basis lives."""
    return per_basis(_AXES, basis, nq, lambda: _Axis(basis, nq))


class _PatchGrid:
    """Tensor Gauss grid of one patch: per-direction tables and the geometry at every point.

    Point arrays are shaped (Q1, Q2), the Gauss points of direction 1 by
    those of direction 2.  Directions, patches and calls given the same
    basis object and rule share one ``_Axis`` (``_axis``), and with it its
    pair operators and its geometry tables.  ``jac`` and ``det`` are
    always there; ``phys``, the physical image of every Gauss point, only
    with ``need_phys`` (forcing and error evaluation), from the same
    geometry tables.
    """

    def __init__(self, nodal_bases, patch: NurbsPatch, n_quad=None, extra: int = 0,
                 need_phys: bool = False):
        _check_n_quad(n_quad)
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
            self.axes.append(_axis(b, nq))
        self.jac, self.det = patch.jacobian_grid(*self.axes)
        if need_phys:
            self.phys = patch.map_grid(*self.axes)
        self.w = np.outer(self.axes[0].w, self.axes[1].w)

    def collocation(self, block):
        """Collocation matrices of a form block's two factors."""
        return tuple(axis.colloc[j in block.dirs] for j, axis in enumerate(self.axes))

    def reconstruct(self, form: DiscreteForm, comp: int) -> np.ndarray:
        """One component of the reconstruction at every Gauss point, (Q1, Q2)."""
        return grid_values(form.block_coeffs(comp), self.collocation(form.space.blocks[comp]))


@dataclass(frozen=True)
class MassMatrix:
    """Symmetric positive-definite L2 Gram matrix of a discrete form space."""

    k: int
    matrix: sp.csc_matrix
    space: DiscreteFormSpace


def _assemble_mass_on_grid(space: DiscreteFormSpace, weights, axes, index_map=None):
    """Gram triplets ``(data, (rows, cols))`` of a space from its block metrics, one COO set of block-pair products.

    ``weights`` are the space's ``mass_metric`` on a patch's tensor Gauss
    grid and ``axes`` that grid's two ``_Axis``: the kernel reads nothing
    else of the patch, so callers drop the grid's Jacobian tables before
    the products.  Block pair (A, B) with weight W is ``V = G1 W G2^T``
    for the pair operators G1, G2 of its two directions; entry
    ((I1, J1), (I2, J2)) of V is the one nonzero at row (I1, I2) of A and
    column (J1, J2) of B, because the pattern is the Kronecker product of
    the two pair sets.  Pair operators are sorted by (J, I) and the blocks
    A of a column come in offset order, so within every column the
    triplets arrive with rows ascending and no duplicates: scipy's stable
    conversion to CSC then neither sorts nor sums.  Indices, int32 where
    they fit, are written through ``index_map``.
    """
    pairs = [(A, B, weights[ia, ib], *(axis.pair(j in A.dirs, j in B.dirs)
                                       for j, axis in enumerate(axes)))
             for ib, B in enumerate(space.blocks) for ia, A in enumerate(space.blocks)]
    ends = np.cumsum([0] + [g1.rows.size * g2.rows.size for *_, g1, g2 in pairs])
    index = np.int32 if max(ends[-1], space.dim) < 2**31 else np.int64
    data = np.empty(ends[-1])
    rows, cols = np.empty(ends[-1], dtype=index), np.empty(ends[-1], dtype=index)
    for (A, B, w, g1, g2), start, stop in zip(pairs, ends[:-1], ends[1:]):
        # V^T, shaped (direction-2 pairs, direction-1 pairs)
        data[start:stop] = (g2.matrix @ (g1.matrix @ w).T).ravel()
        r = index(A.offset) + g1.rows + index(A.shape[0]) * g2.rows[:, None]
        c = index(B.offset) + g1.cols + index(B.shape[0]) * g2.cols[:, None]
        if index_map is not None:
            r, c = index_map[r], index_map[c]
        rows[start:stop], cols[start:stop] = r.ravel(), c.ravel()
    return data, (rows, cols)


def assemble_mass(space: DiscreteFormSpace, patch: NurbsPatch, n_quad=None) -> MassMatrix:
    """L2 mass matrix of a 2D form space over a mapped patch."""
    if space.d != 2:
        raise ConstructionError("mass assembly is implemented for 2D spaces")
    grid = _PatchGrid(space.nodal_bases, patch, n_quad=n_quad)
    weights, axes = mass_metric(space.k, grid.jac, grid.det, grid.w), grid.axes
    del grid  # its Jacobian tables go before the products
    triplets = _assemble_mass_on_grid(space, weights, axes)
    del weights  # and the metric before the conversion
    return MassMatrix(space.k, sp.csc_matrix(triplets, shape=(space.dim, space.dim)), space)


def _forcing_vector(space: DiscreteFormSpace, grid: _PatchGrid, forcing) -> np.ndarray:
    """(test, f) for a 1-form forcing given by physical (dx, dy) components."""
    fx, fy = forcing
    xq = grid.phys[..., 0]
    yq = grid.phys[..., 1]
    f0 = np.asarray(fx(xq, yq), dtype=float)
    f1 = np.asarray(fy(xq, yq), dtype=float)
    if not (np.all(np.isfinite(f0)) and np.all(np.isfinite(f1))):
        raise FloatingPointError("non-finite forcing values")
    pulled = adjugate_apply(grid.jac, f0, f1)  # det J * J^{-1} f
    out = np.empty(space.dim)
    for comp, block in enumerate(space.blocks):
        b1, b2 = grid.collocation(block)
        local = grid_values(pulled[comp] * grid.w, (b1.T, b2.T))
        out[block.offset : block.offset + block.size] = local.ravel(order="F")
    return out


# -- side bookkeeping ---------------------------------------------------------


def _side_ids(space: DiscreteFormSpace, side: str) -> np.ndarray:
    """Flat ids of the coefficients lying on one side, ordered along it.

    They live in the block with no edge factor across the side: the
    nodes of a 0-form space, the normal-flux cells of a 1-form space.
    """
    axis, end = SIDES[side]
    block = next(b for b in space.blocks if axis not in b.dirs)
    ids = block.offset + np.arange(block.size).reshape(block.shape, order="F")
    return np.take(ids, -end, axis=axis)


def _along(bases, side: str):
    """The basis of a per-direction pair that runs along a side."""
    return bases[1 - SIDES[side][0]]


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


def _glued_mass(triplets, n: int, maps):
    """Gram matrix of the patches' ``(data, (rows, cols))`` triplets, one constructor call.

    With ``maps`` None (an identity numbering) it is the kernel's CSC; else one CSR summing
    what the patches' glued numberings ``maps`` put in one place.  scipy sums duplicates after
    an unstable sort of each row, which fixes no order for three or more addends, so entries
    whose row and column both have three or more copies (where three or more patches meet) are
    summed first, in patch order, by a stable sort and ``np.add.at``.  Entries of fewer copies
    sum at most two values, alike in either order, and pay nothing.
    """
    if maps is None:
        return sp.csc_matrix(triplets[0], shape=(n, n))
    data, rows, cols = (np.concatenate(a) for a in zip(*((d, *rc) for d, rc in triplets)))
    many = np.bincount(np.concatenate(maps), minlength=n) >= 3
    if many.any():
        shared = many[rows] & many[cols]
        picked = np.flatnonzero(shared)
        picked = picked[np.lexsort((cols[picked], rows[picked]))]  # stable: patch order kept
        r, c = rows[picked], cols[picked]
        first = np.append(True, (r[1:] != r[:-1]) | (c[1:] != c[:-1]))
        sums = np.zeros(np.count_nonzero(first))
        np.add.at(sums, np.cumsum(first) - 1, data[picked])
        rest = ~shared
        data = np.concatenate((data[rest], sums))
        rows, cols = np.concatenate((rows[rest], r[first])), np.concatenate((cols[rest], c[first]))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def _glued_coboundary(parts, shape) -> sp.csr_matrix:
    """CSR of a coboundary into which the patches' (matrix, row map, column map) parts write rows.

    Every row holds as many entries as the others (two end nodes per 1-cell, four sides per
    2-cell), its columns relabelled and sorted; both copies of a glued cell write alike.
    """
    width = parts[0][0].nnz // parts[0][0].shape[0]
    indices = np.empty((shape[0], width), dtype=parts[0][2].dtype)
    data = np.empty((shape[0], width), dtype=parts[0][0].dtype)
    for m, row_map, col_map in parts:
        cols = col_map[m.indices].reshape(-1, width)
        order = np.argsort(cols, axis=1)
        indices[row_map] = np.take_along_axis(cols, order, axis=1)
        data[row_map] = np.take_along_axis(m.data.reshape(-1, width), order, axis=1)
    return sp.csr_matrix((data.ravel(), indices.ravel(), np.arange(0, data.size + 1, width)),
                         shape=shape)


def _check_glued_bases(spaces, glue):
    """Raise unless every glued side pair carries the same field basis along it."""
    for a, side_a, b, side_b, _ in glue:
        ba = _along(spaces[a][0].nodal_bases, side_a)
        bb = _along(spaces[b][0].nodal_bases, side_b)
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
class Solution:
    """Solved cochains (global numbering) plus the solve residual.

    ``stats`` describes the solve: ``dofs`` (size of the mixed system),
    ``unknowns`` (size of the factored system), ``lu_nnz`` (the
    ``nnz`` of ``K``'s factor), ``precision``, ``zeroed``,
    ``refine_steps``, ``refine_error`` and after a failed band attempt
    ``float32_fallback_s`` (see ``_solve_vorticity_stream``), ``factors``
    (``nnz``, ``fill_ratio`` (LU nonzeros over matrix nonzeros) and
    ``seconds`` of the SuperLU factors ``L``, the 2-cell Laplacian, and
    ``K``, the vorticity-stream system; for a band factor of ``K`` the entries of its
    band array, their ratio to the entries of ``K``, ``half_bandwidth``
    and the seconds of the band build and factor; for ``M2``, the 2-form
    mass matrix, the entries of its per-patch band arrays, their ratio to
    the nonzeros of ``M2`` and the seconds of the banded Cholesky; and
    for ``order`` the ``seconds`` of the node order: on SuperLU's path the
    minimum-degree order of the vorticity mass matrix, read off an
    incomplete factorization, on the band the level order (``_band_order``)
    with its ``start`` ``(patch, side)`` and its count of ``levels``),
    ``residual`` (the gated solve residual) and
    ``histopolation_cond`` (the largest condition number of the side
    histopolations ``apply_strong_normal_velocity`` used, None if none)
    and ``rss_mb`` (the peak RSS of the process, ``ru_maxrss`` in MiB,
    ``before`` the solve, right before the last ``factor`` of ``K`` and
    ``after`` the solve: whether assembly, the build of ``K`` or its
    factor set the peak).  None of it goes into the output files.
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
    integer coboundaries in the glued numbering, each one constructor call
    on the triplets or rows of all patches: the patch's own CSC or CSR
    where the numbering is the identity (one patch, no glue), else a CSR.
    A glued 1-cell has one row in ``D10``, which its copies write alike.
    Unknowns are ordered (omega, u, p) plus the multiplier when ``gauge``
    is set.  ``normal_sides`` are the (patch, side) boundary sides whose
    normal fluxes ``apply_strong_normal_velocity`` pins: it clears their
    cells in the ``free`` mask and writes their values into ``e_fixed``
    (length n1).  Patches given the same basis objects share their Gauss
    axes and pair operators (``_axis``), and patches given the same space
    triple also share the coboundaries.
    """

    def __init__(self, spaces, patches, glue, nu, normal_sides=None, n_quad=None, forcing=None):
        n_patches = len(patches)
        self.boundary = boundary_sides(n_patches, glue)
        if normal_sides is None:
            normal_sides = self.boundary
        bad = [s for s in normal_sides if s not in self.boundary]
        if bad:
            raise ConstructionError(
                f"normal_sides {bad} are not boundary sides; pick from {self.boundary}"
            )
        self.normal_sides = tuple(normal_sides)
        self.gauge = set(self.normal_sides) >= set(self.boundary)
        self.spaces = spaces  # list of (L0, L1, L2) per patch
        self.patches = patches
        self.nu = float(nu)
        self.n_quad = n_quad

        (self.map0, self.n0), (self.map1, self.n1), (self.map2, self.n2) = (
            _glued_numbering(
                [s[k].dim for s in spaces],
                [((a, _side_ids(spaces[a][k], side_a)), (b, _side_ids(spaces[b][k], side_b)))
                 for a, side_a, b, side_b, _ in glue if k < 2],  # 2-cells are never glued
            )
            for k in (0, 1, 2)
        )
        self.size = self.n0 + self.n1 + self.n2 + (1 if self.gauge else 0)

        self.rhs = np.zeros(self.size)
        sizes = (self.n0, self.n1, self.n2)
        identity = [n_patches == 1 and n == spaces[0][k].dim for k, n in enumerate(sizes)]
        glued = (self.map0, self.map1, self.map2)
        maps = list(zip(*glued))
        # each patch's grid gives its forcing and its three block metrics, then goes
        metrics, axes = [[], [], []], []
        for s, patch, m in zip(spaces, patches, maps):
            grid = _PatchGrid(s[0].nodal_bases, patch, n_quad=n_quad, need_phys=forcing is not None)
            if forcing is not None:
                np.add.at(self.rhs, self.n0 + m[1], _forcing_vector(s[1], grid, forcing))
            for k in (0, 1, 2):
                metrics[k].append(mass_metric(k, grid.jac, grid.det, grid.w))
            axes.append(grid.axes)
            del grid
        # block by block, so that the triplets of one block at a time are alive; each
        # metric is popped into its products and dies before the conversion
        self.M0, self.M1, self.M2 = (_glued_mass(
            [_assemble_mass_on_grid(s[k], metrics[k].pop(0), a, None if identity[k] else m[k])
             for s, a, m in zip(spaces, axes, maps)], n, None if identity[k] else glued[k])
            for k, n in enumerate(sizes))
        self.D10, self.D21 = (spaces[0][k].coboundary_matrix() if identity[k] else _glued_coboundary(
            [(s[k].coboundary_matrix(), m[k + 1], m[k]) for s, m in zip(spaces, maps)],
            (sizes[k + 1], sizes[k])) for k in (0, 1))
        self.free = np.ones(self.n1, dtype=bool)
        self.e_fixed = np.zeros(self.n1)
        self.histopolation_cond = None  # set by apply_strong_normal_velocity

    @property
    def matrix(self) -> sp.csr_matrix:
        """The mixed operator, built from the current blocks on every read; unread in ``src/``."""
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
        """Largest ``max|M - M^T| / max|M|`` of the Gram matrices ``M0``, ``M1``, ``M2``."""
        return max(abs(M - M.T).max() / abs(M).max() for M in (self.M0, self.M1, self.M2))


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
    basis = _along(system.spaces[patch_index][0].nodal_bases, side)
    return basis, basis.degree + _along(system.patches[patch_index].bases, side).degree + 3


def _side_velocity(system, p: int, side: str, vfun, axis: GridAxis):
    """Velocity data and physical side tangents at the side parameters of ``axis``, each (m, 2).

    The along-side geometry table comes from ``axis``, which keeps it for
    every side, call and grid that shares the axis and the geometry basis.
    """
    curve = system.patches[p].side_curve(side)
    xy, tan = curve.frame(axis.geometry(curve.basis))
    v = np.asarray(vfun(*xy.T), dtype=float).T
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"non-finite velocity data on side {side!r} of patch {p}")
    return np.broadcast_to(v, tan.shape), tan


def apply_strong_normal_velocity(system: SaddleSystem, velocity=None) -> SaddleSystem:
    """Fix boundary normal-flux coefficients from prescribed velocity data.

    Each constrained side's flux form goes through the 1D commuting
    projection of its along-side basis (``greville_reduction``): line
    integrals over the side's cells, then histopolation; the matching
    velocity coefficients are pinned.  Raises when the net flux of an
    enclosed flow is nonzero relative to the integral of the speed over
    the boundary, which bounds every flux sum and scales like it.  The
    largest histopolation condition number goes to ``histopolation_cond``.
    """
    data = _normalize_side_data(velocity, system.normal_sides)
    net = size = 0.0
    conds = []
    for (p, side), vfun in data.items():
        basis, n = _side_basis(system, p, side)
        if vfun is None:
            integrals = values = np.zeros(basis.num_basis - 1)
        else:
            points, reduction, change = greville_reduction(basis, True, n)
            v, tan = _side_velocity(system, p, side, vfun, points)
            integrals = reduction @ (v[:, 0] * tan[:, 1] - v[:, 1] * tan[:, 0])
            size += np.sum(reduction @ (np.hypot(*v.T) * np.hypot(*tan.T)))
            values = change.solve(integrals)
            conds.append(change.cond)
        net += _SIDE_SIGN[side] * integrals.sum()
        gids = system.map1[p][_side_ids(system.spaces[p][1], side)]
        system.free[gids] = False
        system.e_fixed[gids] = values
    system.histopolation_cond = max(conds, default=system.histopolation_cond)
    if system.gauge and abs(net) > 1e-9 * size:
        raise FluxCompatibilityError(net)
    return system


def apply_weak_tangential_velocity(system: SaddleSystem, velocity=None) -> np.ndarray:
    """Boundary term of the vorticity equation from tangential velocity data.

    Returns the global contribution vector and adds nu * B1 to the
    right-hand side.  Only sides listed (or all boundary sides for a
    plain callable) contribute; missing sides mean zero data, and data
    for a side that is not a boundary side raises ConstructionError.
    Each side is integrated on the Gauss axis of its along-side basis
    (``_axis``): the stored window of its nodal table, weighted by the
    tangential data, summed per function with ``np.bincount``.
    """
    entries = _normalize_side_data(velocity, system.boundary)
    b1 = np.zeros(system.n0)
    for (p, side), vfun in entries.items():
        if vfun is None:
            continue
        axis = _axis(*_side_basis(system, p, side))
        v, tan = _side_velocity(system, p, side, vfun, axis)
        tangential = np.einsum("mc,mc->m", v, tan) * axis.w
        cols, vals = stored_window(axis.colloc[False])
        local = -_SIDE_SIGN[side] * np.bincount(
            cols.ravel(), (vals * tangential[:, None]).ravel(), axis.colloc[False].shape[1])
        gids = system.map0[p][_side_ids(system.spaces[p][0], side)]
        np.add.at(b1, gids, local)
    system.rhs[: system.n0] += system.nu * b1
    return b1


def assemble_vvp(spaces, geometry, nu: float = 1.0, normal_sides=None, forcing=None,
                 n_quad=None) -> SaddleSystem:
    """Assemble the mixed Stokes saddle system on one patch or a multipatch.

    Parameters
    ----------
    spaces : (L0, L1, L2) triple, or list of triples (one per patch)
        Patches given the same triple (or the same basis objects) share
        their per-basis work: Gauss axes, pair operators, coboundaries
        and side rules.
    geometry : NurbsPatch or MultiPatch
    nu : float
        Viscosity; scales the vorticity equation (both its blocks and its
        boundary term), keeping the operator symmetric.
    normal_sides : sequence of (patch, side), optional
        Boundary sides with strongly prescribed normal velocity; each
        must be a side no glue entry uses, or ConstructionError is
        raised.  Defaults to every boundary side, the enclosed-flow setup
        (this activates the pressure gauge).
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
    if not (np.isfinite(check_real("nu", nu)) and nu > 0):
        raise ConstructionError(f"nu must be finite and > 0, got {nu}")
    _check_n_quad(n_quad)
    _check_glued_bases(space_list, glue)
    return SaddleSystem(space_list, patches, glue, nu, normal_sides, n_quad=n_quad,
                        forcing=forcing)


def _factor(matrix, what: str, permc_spec: str, factors: dict, key: str):
    """SuperLU factor with diagonal pivots; failures become SingularSystemError.

    It serves ``L``, every solve's, and the float64 ``K`` of the
    node-paired path (``_solve_vorticity_stream``): ``L`` couples patches
    across glued sides, and a ``K`` outside the band rule or whose band
    failed has no band factor, while ``M2`` gets a banded Cholesky per
    patch (``_factor_banded``) and the float32 ``K`` a band LU
    (``_solve_band``).

    ``diag_pivot_thresh=0`` keeps every nonzero diagonal entry as the
    pivot, so the elimination follows the given column order
    symmetrically.  An exactly singular factor raises; pivot growth
    shows in the solve residual.  The factor's nonzeros, their ratio to
    the nonzeros of the matrix and the seconds go into ``factors[key]``.
    """
    start = time.perf_counter()
    matrix = matrix.tocsc()
    try:
        lu = spla.splu(matrix, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization of the {what} failed: {exc}") from exc
    seconds = time.perf_counter() - start
    factors[key] = {"nnz": int(lu.nnz), "fill_ratio": lu.nnz / matrix.nnz, "seconds": seconds}
    return lu


def _upper_band(M2, lo: int, hi: int) -> np.ndarray:
    """Upper band of the diagonal block ``lo:hi`` of the symmetric ``M2`` in LAPACK's storage.

    ``ab[u + i - j, j] = M2[lo + i, lo + j]`` for ``0 <= j - i <= u``, with ``u`` the largest
    ``j - i`` of the block's entries.  ``M2`` is symmetric, so its compressed arrays list its
    columns whatever its format; the block's columns hold no row outside ``lo:hi``.
    """
    ptr = M2.indptr[lo : hi + 1]
    entries = slice(ptr[0], ptr[-1])
    rows = M2.indices[entries] - lo
    cols = np.repeat(np.arange(hi - lo), np.diff(ptr))
    upper = rows <= cols
    rows, cols = rows[upper], cols[upper]
    offset = cols - rows
    width = int(offset.max())
    ab = np.zeros((width + 1, hi - lo))
    ab[width - offset, cols] = M2.data[entries][upper]
    return ab


def _factor_banded(M2, blocks, factors: dict):
    """Solver for the SPD ``M2`` through one banded Cholesky per diagonal block.

    Volumes are never glued, so the 2-form mass matrix is block diagonal
    with one contiguous block per patch (``blocks``, the rows of each
    patch), and each block is banded in its patch's tensor numbering,
    with half-bandwidth ``pe2 n1 + pe1``.  A block that is not positive
    definite raises SingularSystemError naming its patch.  ``factors["M2"]``
    gets the entries of the band arrays (``nnz``), their ratio to the
    nonzeros of ``M2`` and the seconds.  The returned function solves for
    one right-hand side or for the columns of a 2-D array.
    """
    start = time.perf_counter()
    bands = []
    for patch, ids in enumerate(blocks):
        lo, hi = int(ids[0]), int(ids[0]) + ids.size
        try:
            band = scipy.linalg.cholesky_banded(_upper_band(M2, lo, hi), check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"factorization of the 2-form mass matrix of patch {patch} failed: {exc}") from exc
        bands.append((slice(lo, hi), band))
    nnz = sum(band.size for _, band in bands)
    factors["M2"] = {"nnz": nnz, "fill_ratio": nnz / M2.nnz,
                     "seconds": time.perf_counter() - start}

    def solve_M2(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        for rows, band in bands:
            x[rows] = scipy.linalg.cho_solve_banded((band, False), b[rows], check_finite=False)
        return x

    return solve_M2


def _mmd_order(M0, factors: dict) -> np.ndarray:
    """Rank of each node in the minimum-degree order of the SPD vorticity mass matrix ``M0``.

    ``M0``'s pattern is the node graph of every block of the system.  The
    order is read off SuperLU's incomplete factorization with
    ``drop_tol=inf``: the same column order as the full one, which keeps
    almost no entries; its seconds go to ``factors``.  ``M0`` is
    symmetric, so a CSR's arrays serve as its CSC.
    """
    start = time.perf_counter()
    try:
        node_pos = spla.spilu(M0 if M0.format == "csc" else M0.T, drop_tol=np.inf,
                              fill_factor=1, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                              options={"SymmetricMode": True}).perm_c
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization of the vorticity mass matrix failed: {exc}") from exc
    factors["order"] = {"seconds": time.perf_counter() - start}
    return node_pos


def _level_order(D10, starts):
    """Breadth-first level order of the node graph: node ranks, the start taken, the level count.

    The node graph joins the two end nodes of every 1-cell, read off the
    CSR arrays of ``D10``.  A search from the nodes ``starts[k]`` (one
    ``dijkstra`` with unit weights from all of them at once) gives each
    node its level, its distance in 1-cells from them, and the nodes
    are ranked by level, ties by index (George and Liu, *Computer Solution
    of Large Sparse Positive Definite Systems*, 1981, ch. 4).  The start
    taken is the one whose widest level is smallest, the first of them on
    a tie.  The order needs no tensor structure: from one patch's bottom
    side it is that patch's tensor numbering.
    """
    n0 = D10.shape[1]
    ends = D10.indices.reshape(-1, 2)
    graph = sp.csr_matrix((np.ones(ends.size), (ends.ravel(), ends[:, ::-1].ravel())),
                          shape=(n0, n0))
    best = None
    for k, nodes in enumerate(starts):
        # nodes no 1-cell path reaches (patches glued to none of the start's) come last
        distance = dijkstra(graph, indices=nodes, unweighted=True, min_only=True)
        level = np.nan_to_num(distance, posinf=n0).astype(np.intp)
        sizes = np.bincount(level)
        if best is None or sizes.max() < best[0].max():
            best = sizes, k, level
    sizes, k, level = best
    node_pos = np.empty(n0, dtype=np.intp)
    node_pos[np.argsort(level, kind="stable")] = np.arange(n0)
    return node_pos, k, int(np.count_nonzero(sizes))


def _band_order(system, factors: dict) -> np.ndarray:
    """Rank of each node in the band order of ``K``: the level order from one side of patch 0.

    The start is the side of patch 0 (bottom, right, top, left) whose
    widest level is smallest (``_level_order``).  One unglued patch keeps
    its tensor numbering, the level order from its bottom side, with no
    search.  ``factors["order"]`` gets the seconds, the start
    ``(patch, side)`` and the level count.
    """
    start = time.perf_counter()
    s0, n0 = system.spaces[0][0], system.n0
    sides = ("bottom", "right", "top", "left")
    if len(system.spaces) == 1 and n0 == s0.dim:
        node_pos, k, levels = np.arange(n0), 0, s0.blocks[0].shape[1]
    else:
        node_pos, k, levels = _level_order(
            system.D10, [system.map0[0][_side_ids(s0, side)] for side in sides])
    factors["order"] = {"seconds": time.perf_counter() - start, "start": (0, sides[k]),
                        "levels": levels}
    return node_pos


def _positions(node_pos, group, n_streams: int) -> np.ndarray:
    """Position of each (omega, y) unknown of ``K``, the nodes ranked by ``node_pos``.

    The stream unknown ``y_g`` of each group ``g > 0`` comes right after
    the last node of its group, so it is eliminated only once a coupled
    vorticity pivot has made its diagonal nonzero; the flux carriers, the
    stream unknowns past ``group.max()``, come last.  SuperLU's path ranks
    the nodes by ``_mmd_order``, the band by ``_band_order``, after which
    ``_solve_band`` moves the stream unknowns of groups of several nodes to
    its border.
    """
    n0 = group.size
    index = np.int32 if 2 * n0 < 2**31 else np.int64
    last = np.zeros(group.max() + 1, dtype=index)
    np.maximum.at(last, group, node_pos)
    keys = np.concatenate((2 * node_pos, 2 * last[1:] + 1))  # distinct, below 2 n0
    used = np.zeros(2 * n0, dtype=index)
    used[keys] = 1
    pos = np.cumsum(used, dtype=index)[keys] - 1  # rank of each key
    return np.concatenate((pos, np.arange(pos.size, n0 + n_streams, dtype=index)))


def _node_paired_matrix(M0, B, pos) -> sp.csr_matrix:
    """CSR of ``[[-M0, B], [B^T, 0]]``, row and column i at ``pos[i]``.

    Every row is scattered straight into its place, each column index
    relabelled by ``pos``: row i of ``-M0`` and of ``B`` for a node, column
    c of ``B`` (read off its CSC) for a stream unknown.  ``M0`` is
    symmetric, so its compressed arrays list its rows whatever its format.
    The caller drops ``B`` before the CSR -> CSC transpose, which leaves
    every column sorted, with no sort pass.
    """
    n0, m = B.shape
    Br, Bc = B.tocsr(), B.tocsc()  # one of them is B itself
    m0_counts = np.diff(M0.indptr)
    counts = np.concatenate((m0_counts + np.diff(Br.indptr), np.diff(Bc.indptr)))
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, n0 + m) < 2**31 else np.int64
    indptr = np.zeros(n0 + m + 1, dtype=index)
    indptr[1:][pos] = counts
    np.cumsum(indptr, out=indptr)
    first = indptr[pos]  # start of each row of the unpermuted matrix
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    for ptr, cols, labels, vals, start in (
        (M0.indptr, M0.indices, pos[:n0], -M0.data, first[:n0]),
        (Br.indptr, Br.indices, pos[n0:], Br.data, first[:n0] + m0_counts),
        (Bc.indptr, Bc.indices, pos[:n0], Bc.data, first[n0:]),
    ):
        dest = np.repeat((start - ptr[:-1]).astype(index, copy=False), np.diff(ptr))
        dest += np.arange(ptr[-1], dtype=index)
        indices[dest] = labels[cols]
        data[dest] = vals
    return sp.csr_matrix((data, indices, indptr), shape=(n0 + m, n0 + m))


def _node_groups(D10, cells):
    """Groups of nodes joined by the given 1-cells: their count and the labels of nodes, then cells.

    One ``connected_components`` on the bipartite (node, cell) graph whose
    row n0 + i holds the nodes of ``cells[i]``, read straight off the CSR
    arrays of ``D10[cells]``.  Nodes come first, so the labels follow the
    smallest node of each group, as those of the node graph
    ``|D10_c|^T |D10_c|`` do, and a cell gets the label of its nodes.
    """
    n0 = D10.shape[1]
    links = D10[cells]
    indptr = np.concatenate((np.zeros(n0, dtype=links.indptr.dtype), links.indptr))
    graph = sp.csr_matrix((np.ones(links.nnz), links.indices, indptr),
                          shape=(n0 + cells.size, n0 + cells.size))
    return connected_components(graph, directed=False)


def _free_rows(D21, free, first: int) -> sp.csr_matrix:
    """Rows ``first:`` of ``D21`` as floats, with the entries of fixed 1-cells masked out.

    The columns keep the global 1-cell numbering, so the matrix acts on
    full-length velocity vectors and ignores their fixed entries.
    """
    lo = D21.indptr[first]
    keep = free[D21.indices[lo:]]
    before = np.zeros(keep.size + 1, dtype=D21.indptr.dtype)
    np.cumsum(keep, out=before[1:])
    return sp.csr_matrix(
        (D21.data[lo:][keep].astype(float), D21.indices[lo:][keep], before[D21.indptr[first:] - lo]),
        shape=(D21.shape[0] - first, D21.shape[1]),
    )


def _flux_carriers(system: SaddleSystem, D21f, D21fT, lu_L) -> np.ndarray:
    """Divergence-free velocities (n1, m) that carry flux between boundary loops.

    A stream function puts no net flux through a closed loop of boundary
    1-cells.  When two or more loops hold a free cell (both circles of the
    annulus, say), flux can pass from one to another, so the free
    divergence-free velocities are im D10 C plus one carrier for each of
    these loops past the first: the unit flux at the loop's first free
    cell, projected onto ker D21_f through the 2-cell Laplacian.  A
    carrier's net flux through its own loop exceeds the sum of its fluxes
    through the other carried loops, so the carriers are independent
    modulo im D10 C.  The loops are the groups of ``_node_groups`` on the
    boundary cells.
    """
    if system.gauge:  # every boundary cell is fixed: no flux passes a loop
        return np.zeros((system.n1, 0))
    free = system.free
    cells = np.concatenate([
        system.map1[p][_side_ids(system.spaces[p][1], side)] for p, side in system.boundary
    ])
    loop = _node_groups(system.D10, cells)[1][system.n0:]
    free_cells = free[cells]
    _, first = np.unique(loop[free_cells], return_index=True)
    carriers = cells[free_cells][np.sort(first)[1:]]
    H = np.zeros((system.n1, carriers.size))
    H[carriers, np.arange(carriers.size)] = 1.0
    H[free] -= (D21fT @ lu_L.solve(D21f @ H))[free]
    return H


def _reduced_residual(system: SaddleSystem, omega, u, p, lam) -> float:
    """Relative residual of the mixed system at (omega, u, p, lam), block by block.

    The fixed-flux rows are dropped and the vorticity, momentum and gauge
    rows divided by ``nu``; the scale is the reduced right-hand side, with
    the fixed fluxes moved over.  When ``M1`` is symmetric, this is the
    residual of ``system.matrix``, computed without assembling it.
    """
    n0, n1, n2, nu = system.n0, system.n1, system.n2, system.nu
    M0, M1, M2, D10, D21 = system.M0, system.M1, system.M2, system.D10, system.D21
    free, e_fixed = system.free, system.e_fixed
    f_w, f_u, f_p, f_g = np.split(system.rhs, [n0, n0 + n1, n0 + n1 + n2])
    lam = lam if system.gauge else 0.0  # without the gauge, f_g is empty and lam unused
    D10t, D21t = D10.T, D21.T
    r = np.concatenate((
        D10t @ (M1 @ u) - M0 @ omega - f_w / nu,
        (M1 @ (D10 @ omega) + D21t @ (M2 @ p) / nu - f_u / nu)[free],
        M2 @ (D21 @ u) + lam - f_p,
        (p.sum() - f_g) / nu,
    ))
    b = np.concatenate((
        f_w / nu - D10t @ (M1 @ e_fixed),
        f_u[free] / nu,
        f_p - M2 @ (D21 @ e_fixed),
        f_g / nu,
    ))
    return np.abs(r).max() / max(np.abs(b).max(), 1e-300)


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _backward_error(r, x, b, blocks, norms) -> float:
    """Block-wise backward error of ``x`` for ``K x = b``, whose residual is ``r``.

    For each row block R of ``K`` (``blocks``: the positions of the
    vorticity rows, then of the stream rows), ``max_R |r|`` over
    ``sum_C ||K_RC|| ||x_C|| + ||b_R||`` in infinity norms, with
    ``norms = (||M0||, ||B||, ||B^T||)`` and ``K_yy = 0``; the larger of the
    two.  On a scaled domain a normwise error is set by one block and stops
    refinement early.  0 where ``r`` is 0, not finite where ``x`` is not.
    """
    K_ww, K_wy, K_yw = norms
    x_w, x_y, r_w, r_y, b_w, b_y = (np.abs(v[rows]).max(initial=0.0)
                                    for v in (x, r, b) for rows in blocks)
    with np.errstate(all="ignore"):
        num = np.array([r_w, r_y])
        scale = np.array([K_ww * x_w + K_wy * x_y + b_w, K_yw * x_w + b_y])
        return float(np.where(num == 0.0, 0.0, num / scale).max())


def _refine(solve32, residual, rhs, blocks, norms):
    """``x`` refined from 0 against the exact ``K``, the refinement steps and the final error.

    Each step solves for the residual scaled to a largest entry of 1 (float32's range) with the
    float32 factor ``solve32`` and takes the float64 residual ``residual(x)``, until the
    block-wise backward error (``_backward_error``) is at most 2**-53, or a step cuts it by less
    than 4x, or after ``_MAX_REFINE_STEPS`` steps.  The caller accepts an error of at most 2**-52.
    """
    x = np.zeros_like(rhs)
    r, solves = rhs, 0
    eta = _backward_error(r, x, rhs, blocks, norms)  # 1, or 0 when rhs = 0
    while eta > 2.0**-53 and solves <= _MAX_REFINE_STEPS:
        scale = np.abs(r).max()
        x += solve32((r / scale).astype(np.float32)) * scale
        r = residual(x)
        solves += 1
        last, eta = eta, _backward_error(r, x, rhs, blocks, norms)
        if not eta <= last / 4:  # stalled, or not finite
            break
    return x, max(solves - 1, 0), eta


def _row_chunks(A):
    """``(rows, cols, values)`` of the stored entries of a compressed matrix, about 2**14 at a time.

    ``rows`` indexes ``indptr`` (the rows of a CSR, the columns of a CSC).
    """
    ptr, n = A.indptr, A.shape[0]
    step = max(1, (n << 14) // max(A.nnz, 1))
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        lo, hi = ptr[r0], ptr[r1]
        rows = np.repeat(np.arange(r0, r1), np.diff(ptr[r0 : r1 + 1]))
        yield rows, A.indices[lo:hi], A.data[lo:hi]


def _band_scan(M0, B, pos, n_band: int, max_width: int):
    """Roots of the zeroing rule per column of ``K``, its block norms and its band's half-bandwidth.

    ``K = [[-M0, B], [B^T, 0]]`` in the (omega, y) order, read from ``M0``
    and the CSR of ``B`` in chunks (``_row_chunks``): ``root`` is
    ``sqrt(_NEGLIGIBLE max|col|)`` per column, the norms are
    ``(||M0||, ||B||, ||B^T||)`` (row sums of ``|K|``), and the
    half-bandwidth is the largest ``|pos_i - pos_j|`` of an entry in the
    band part.  None as soon as a chunk shows it above ``max_width``: a
    band too wide in ``M0`` is rejected before ``B`` is read.
    """
    n0, m = B.shape
    node, stream = pos[:n0], pos[n0:]
    colmax = np.zeros(n0 + m)
    m0_sums, b_rows, b_cols = np.zeros(n0), np.zeros(n0), np.zeros(m)
    width = 0
    for rows, cols, vals in _row_chunks(M0):
        width = max(width, int(np.abs(node[rows] - node[cols]).max()))
        if width > max_width:
            return None
        size = np.abs(vals)
        np.maximum.at(colmax, rows, size)  # M0 is symmetric: row maxima are column maxima
        m0_sums += np.bincount(rows, size, n0)
    for rows, cols, vals in _row_chunks(B):
        j = stream[cols]
        band = j < n_band
        width = max(width, int(np.abs(node[rows[band]] - j[band]).max(initial=0)))
        if width > max_width:
            return None
        size = np.abs(vals)
        np.maximum.at(colmax, rows, size)
        np.maximum.at(colmax, n0 + cols, size)
        b_rows += np.bincount(rows, size, n0)
        b_cols += np.bincount(cols, size, m)
    norms = (m0_sums.max(), b_rows.max(), b_cols.max(initial=0.0))
    return np.sqrt(_NEGLIGIBLE * colmax), norms, width


def _band_storage(M0, B, pos, n_band: int, kl: int, root):
    """Float32 LAPACK band storage of ``K``'s band part, its border columns and the zeroed count.

    ``ab`` is Fortran-ordered with ``3 kl + 1`` rows, ``K[i, j]`` at
    ``ab[2 kl + i - j, j]`` in band positions, so ``sgbtrf`` factors it in
    place; the border columns are dense.  Each entry of ``-M0`` and each
    entry of ``B`` with its mirror ``B^T`` is written straight from the
    compressed arrays, chunk by chunk, set to 0 where ``_NEGLIGIBLE``'s
    rule calls it negligible (``root`` from ``_band_scan``).
    """
    n0 = M0.shape[0]
    node, stream = np.split(pos.astype(np.intp, copy=False), [n0])  # ldab * j wraps in int32
    ldab = 3 * kl + 1
    ab = np.zeros((n_band, ldab), dtype=np.float32).T
    flat = ab.T.reshape(-1)  # a view: column j of ab at ldab * j
    border = np.zeros((n_band, pos.size - n_band), dtype=np.float32)
    zeroed = 0
    with np.errstate(over="ignore"):  # beyond float32's range: inf, and the refinement fails
        for rows, cols, vals in _row_chunks(M0):
            i, j = node[rows], node[cols]
            small = np.abs(vals) < root[rows] * root[cols]
            flat[ldab * j + 2 * kl + i - j] = np.where(small, 0.0, -vals)
            zeroed += int(np.count_nonzero(small))
        for rows, cols, vals in _row_chunks(B):
            i, j = node[rows], stream[cols]
            small = np.abs(vals) < root[rows] * root[n0 + cols]
            v = np.where(small, 0.0, vals).astype(np.float32)
            band = j < n_band
            i_band, j_band = i[band], j[band]
            flat[ldab * j_band + 2 * kl + i_band - j_band] = v[band]
            flat[ldab * i_band + 2 * kl + j_band - i_band] = v[band]
            border[i[~band], j[~band] - n_band] = v[~band]
            zeroed += 2 * int(np.count_nonzero(small))
    return ab, border, zeroed


def _solve_band(M0, B, node_pos, group, rhs, degree: int, factors: dict, rss: dict):
    """``x`` with ``K x = rhs`` through a float32 band LU of ``K``.

    ``K = [[-M0, B], [B^T, 0]]`` in the (omega, y) order, never built, is
    placed by ``_positions`` with the nodes ranked by ``node_pos``
    (``_band_order``), and then the border, the stream unknowns of groups
    of several nodes and the flux carriers, is moved past every other
    unknown, each part keeping its order (on one unglued patch the border
    is there already).  The band part ``A`` (the nodes and the stream
    unknowns of one-node groups) goes to LAPACK band storage
    (``_band_storage``) and ``sgbtrf``; the border columns ``E`` are
    eliminated through the dense Schur complement ``E^T A^{-1} E``.  ``x``
    is refined against the float64 blocks ``M0`` and ``B`` (``_refine``).
    Returns None where the half-bandwidth is above
    ``_BAND_MAX_WIDTH[degree]`` (``_band_scan``).  Else ``(x, stats,
    norms)``, with ``x`` None where the factor is singular (``info > 0``)
    or refinement does not reach 2**-52.  ``factors["K"]`` gets the band's
    entries (``nnz``), their ratio to the entries of ``K``, the
    half-bandwidth and the seconds.
    """
    n0, m = B.shape
    pos = _positions(node_pos, group, m)
    sizes = np.bincount(group)
    at = np.zeros(pos.size, dtype=bool)  # the border, by position
    at[pos[n0:]] = np.append(sizes[1:] > 1, np.ones(m + 1 - sizes.size, dtype=bool))
    n_band = pos.size - int(np.count_nonzero(at))
    pos = np.where(at, n_band + np.cumsum(at) - 1, np.cumsum(~at) - 1)[pos]
    scan = _band_scan(M0, B, pos, n_band, _BAND_MAX_WIDTH[degree])
    if scan is None:
        return None
    root, norms, kl = scan
    start = time.perf_counter()
    ab, border, zeroed = _band_storage(M0, B, pos, n_band, kl, root)
    rss["factor"] = _peak_rss_mb()
    lu, ipiv, info = scipy.linalg.lapack.sgbtrf(ab, kl, kl, overwrite_ab=1)
    factors["K"] = {"nnz": ab.size, "fill_ratio": ab.size / (M0.nnz + 2 * B.nnz),
                    "half_bandwidth": kl, "seconds": time.perf_counter() - start}
    if info > 0:
        return None, None, norms
    if border.size:  # E^T A^{-1} E, inverted
        F = scipy.linalg.lapack.sgbtrs(lu, kl, kl, border, ipiv)[0]
        try:
            S_inv = np.linalg.inv(border.T.astype(float) @ F)
        except np.linalg.LinAlgError:
            return None, None, norms

    def solve32(v):
        b = np.empty_like(v)
        b[pos] = v
        z = scipy.linalg.lapack.sgbtrs(lu, kl, kl, b[:n_band], ipiv)[0]
        if border.size:
            y = S_inv @ (border.T @ z - b[n_band:])
            z = np.concatenate((z - F @ y, y))
        return z[pos]

    def residual(x):
        x_w, x_y = x[:n0], x[n0:]
        return np.concatenate((rhs[:n0] + M0 @ x_w - B @ x_y, rhs[n0:] - B.T @ x_w))

    x, steps, eta = _refine(solve32, residual, rhs, (slice(0, n0), slice(n0, None)), norms)
    if not eta <= 2.0**-52:
        return None, None, norms
    return x, {"precision": "float32", "zeroed": zeroed, "refine_steps": steps,
               "refine_error": eta}, norms


def _solve_vorticity_stream(system, Wt, Z, group, rhs, degree: int, factors: dict, rss: dict):
    """``(omega, y)`` solving ``K``, SuperLU's factor of ``K`` (None for a band) and the stats.

    ``K = [[-M0, B], [B^T, 0]]`` with ``B = Wt Z``, formed once here for
    whichever factor runs.  Where the nodal degree and the half-bandwidth
    are within ``_BAND_MAX_WIDTH``, one patch or glued, a float32 band LU
    in the level order of the nodes (``_band_order``, ``_solve_band``) is
    tried first, reading ``B`` as a CSR.  Everywhere else, and after a
    failed band attempt, ``K`` is built
    in the node-paired order (``_positions`` of the nodes' ``_mmd_order``,
    ``_node_paired_matrix``), ``B`` is dropped before the CSR -> CSC
    transpose, and ``K`` is factored by SuperLU in float64: one solve and
    one refinement step.  The stats are ``precision``, ``zeroed``
    (entries set to 0 in the band), ``refine_steps``, ``refine_error`` (the
    final block-wise backward error; None on the float64 path without a
    band attempt, which runs no stopping test) and, after a failed band
    attempt, ``float32_fallback_s`` (its seconds).  ``rss["factor"]`` is
    the peak RSS right before the last factor of ``K``.
    """
    M0, n0 = system.M0, system.n0
    B = Wt @ Z
    fallback = None
    if degree in _BAND_MAX_WIDTH:
        start = time.perf_counter()
        B = B.tocsr()  # the band reads B's rows; one unglued patch's B is a CSR already
        band = _solve_band(M0, B, _band_order(system, factors), group, rhs, degree, factors, rss)
        if band is not None:
            x, stats, norms = band
            if x is not None:
                return x, None, stats
            fallback = norms, time.perf_counter() - start
    pos = _positions(_mmd_order(M0, factors), group, B.shape[1])
    K = _node_paired_matrix(M0, B, pos)
    del B  # its arrays go before the transpose allocates
    K = K.tocsc()
    paired_rhs = np.empty_like(rhs)
    paired_rhs[pos] = rhs
    rss["factor"] = _peak_rss_mb()
    lu = _factor(K, "vorticity-stream system", "NATURAL", factors, "K")
    x = lu.solve(paired_rhs)
    x += lu.solve(paired_rhs - K @ x)
    stats = {"precision": "float64", "zeroed": 0, "refine_steps": 1, "refine_error": None}
    if fallback is not None:
        norms, stats["float32_fallback_s"] = fallback
        stats["refine_error"] = _backward_error(paired_rhs - K @ x, x, paired_rhs,
                                                (pos[:n0], pos[n0:]), norms)
    del K  # freed before pressure recovery, which then reuses its memory
    return x[pos], lu, stats


def solve(system: SaddleSystem) -> Solution:
    """Direct solve in the discretely divergence-free subspace, residual-checked.

    ``ker D21 = im D10`` holds in integers, so every velocity with the
    prescribed boundary flux and zero divergence cochain is
    ``u = u0 + Z y`` with ``Z = D10 C``: ``u0`` is a divergence-free lift
    of the fixed fluxes through the integer 2-cell Laplacian
    ``L = D21_f D21_f^T`` (``D21_f`` the rows of ``D21`` with the entries
    of fixed 1-cells masked out, ``_free_rows``), and ``C`` maps one
    constant per group of nodes joined by fixed cells onto the nodes (the
    annulus gets its inner-circle constant this way), minus one constant
    for the stream gauge.  The groups are the components of the graph of
    nodes and fixed cells read off the rows of ``D10``, two nodes each
    (``_node_groups``); ``C`` holds one entry per node outside the group
    of node 0, so ``Z`` is one product.  On a domain with holes, flux that
    passes between two boundary loops through free cells is no such curl;
    one flux carrier per extra loop (``_flux_carriers``) joins the columns
    of ``Z`` and comes last in the elimination order.  Pressure leaves the
    factored system: with ``A_ww = -M0`` and ``A_wu = D10^T M1``, taken
    straight from the system's glued blocks, the symmetric ``(omega, y)``
    system ``[[A_ww, A_wu Z], [Z^T A_uw, 0]]`` is factored
    (``_solve_vorticity_stream``).  Within the band rule, on one patch or
    glued ones, its band part, the nodes in the breadth-first level order
    of the node graph from one side of patch 0 (``_band_order``; one
    unglued patch's tensor order) with the stream unknowns of one-node
    groups, is written straight from ``M0`` and ``B = A_wu Z`` into float32
    LAPACK band storage and factored by ``sgbtrf`` (``_solve_band``); the
    other stream unknowns and the flux carriers form a dense border.
    Otherwise (a nodal degree or half-bandwidth outside that rule), and
    where the band fails, it is permuted once into a node-paired order (the
    minimum-degree order of the nodes, each stream unknown right after the
    last node of its group: the rule of ``_positions``, which also places
    the band's unknowns) and factored in float64 by SuperLU along that
    order with diagonal pivots: every zero
    diagonal of the stream block is filled by a coupled vorticity pivot
    before it is reached.  Its compressed arrays are written in that order
    straight from ``M0``, ``B`` and the columns of ``B``
    (``_node_paired_matrix``; ``B`` is dropped before ``K`` is transposed);
    ``M0`` is read as it is, no copy.
    Pressure is recovered afterwards from the free momentum rows
    ``D21_f^T (M2 p) = r`` through the same ``L`` and one banded Cholesky
    per patch block of ``M2`` (``_factor_banded``), shifted to zero sum
    when the gauge is set, and the multiplier from the
    pressure rows ``M2 D21 u``.

    ``nu`` is a pure rescaling: the vorticity and momentum rows are
    divided by ``nu``, which is the ``nu = 1`` problem with forcing
    ``f / nu``, and the pressure is scaled back by ``nu``.  The relative
    residual of the full reduced mixed system, in those rows and computed
    block by block (``_reduced_residual``), must stay below 1e-10.
    Every side of ``system.normal_sides`` must have been pinned by
    ``apply_strong_normal_velocity``, or ConstructionError names those
    that were not.
    """
    rss_before = _peak_rss_mb()
    n0, n2, nu = system.n0, system.n2, system.nu
    D10, D21 = system.D10, system.D21
    f_u = system.rhs[n0 : n0 + system.n1]
    free, e_fixed = system.free, system.e_fixed
    unpinned = [(p, side) for p, side in system.normal_sides
                if free[system.map1[p][_side_ids(system.spaces[p][1], side)]].any()]
    if unpinned:
        raise ConstructionError(f"normal_sides {unpinned} still have free flux cells; "
                                "apply_strong_normal_velocity pins them")

    # divergence-free lift of the fixed fluxes; pin one 2-cell under the gauge
    first = 1 if system.gauge else 0
    D21f = _free_rows(D21, free, first)
    D21fT = D21f.T
    factors = {}
    lu_L = _factor(D21f @ D21fT, "2-cell Laplacian", "MMD_AT_PLUS_A", factors, "L")
    phi = lu_L.solve(-(D21 @ e_fixed)[first:])
    u0 = e_fixed.copy()
    u0[free] += (D21fT @ phi)[free]

    # stream unknowns: one constant per node group joined by fixed cells; node
    # 0's group has label 0 and carries the gauge psi = 0
    n_groups, labels = _node_groups(D10, np.flatnonzero(~free))
    group = labels[:n0]
    stream = group > 0
    indptr = np.zeros(n0 + 1, dtype=group.dtype)
    np.cumsum(stream, out=indptr[1:])
    C = sp.csr_matrix((np.ones(indptr[-1], dtype=D10.dtype), group[stream] - 1, indptr),
                      shape=(n0, n_groups - 1))
    Z = D10 @ C
    H = _flux_carriers(system, D21f, D21fT, lu_L)
    if H.shape[1]:
        Z = sp.hstack([Z, sp.csr_matrix(H)], format="csr")

    # the nu = 1 problem: vorticity and momentum rows divided by nu
    W = system.M1 @ D10  # A_wu = W^T
    Wt = W.T
    rhs = np.concatenate((system.rhs[:n0] / nu - Wt @ u0, Z.T @ f_u / nu))
    degree = max(b.degree for triple in system.spaces for b in triple[0].nodal_bases)
    rss = {"before": rss_before}
    # SuperLU's factor of K (outside the band rule or after a failed band),
    # if any, lives to the end: freed on return, it once raised the peak RSS
    # of a float64 Couette run by 0.7%
    x, lu_K, solve_stats = _solve_vorticity_stream(system, Wt, Z, group, rhs, degree, factors, rss)
    omega = x[:n0]
    u = u0 + Z @ x[n0:]

    # pressure from the free momentum rows: D21_f^T q = r with q = M2 p
    q = np.zeros(n2)
    q[first:] = lu_L.solve(D21f @ (f_u / nu - W @ omega))
    solve_M2 = _factor_banded(system.M2, system.map2, factors)
    if system.gauge:  # shift along the constant physical pressure M2^{-1} 1
        p, constant = solve_M2(np.column_stack((q, np.ones(n2)))).T
        p = p - (p.sum() / constant.sum()) * constant
    else:
        p = solve_M2(q)
    p *= nu
    lam = -float(np.mean(system.M2 @ (D21 @ u))) if system.gauge else 0.0

    resid = _reduced_residual(system, omega, u, p, lam)
    if not np.isfinite(resid) or resid > 1e-10:
        raise SingularSystemError(f"solve residual {resid:.3e} exceeds 1e-10")
    return Solution(
        system=system,
        omega=omega,
        u=u,
        p=p,
        multiplier=lam,
        residual=float(resid),
        stats={
            "dofs": system.size,
            "unknowns": rhs.size,
            "lu_nnz": factors["K"]["nnz"],
            **solve_stats,
            "factors": factors,
            "residual": float(resid),
            "histopolation_cond": system.histopolation_cond,
            "rss_mb": {**rss, "after": _peak_rss_mb()},
        },
    )
