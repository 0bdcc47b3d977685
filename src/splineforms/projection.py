"""Commuting projection onto discrete form spaces.

The projector factors as reconstruction o change-of-basis o reduction:
point samples / cell integrals are taken on the Greville grid of the
space, converted to basis coefficients by interpolation (nodal factors)
or histopolation (edge factors), one direction at a time.  Built this
way, projecting and then differentiating gives the same coefficients as
differentiating and then projecting.  The reductions are sparse (cells,
points) matrices contracted by ``splines.grid_values``; the changes of
basis are dense views of the collocation matrices of ``splines``.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from ._quadrature import interval_rule
from .errors import ConstructionError, IllPosedNodesError
from .geometry import GridAxis
from .spaces import DiscreteForm, DiscreteFormSpace
from .splines import Basis1D, EdgeBasis1D, grid_values

__all__ = [
    "ChangeOfBasis",
    "reduce_0form",
    "reduce_1form",
    "build_interpolation",
    "build_histopolation",
    "greville_edges",
    "greville_reduction",
    "greville_rule",
    "project_form",
]

_COND_LIMIT = 1e12

class ChangeOfBasis:
    """Invertible square map between measurement cochains and coefficients.

    Wraps the interpolation matrix N_ij = N_j(x_i) or histopolation matrix
    M_ij = integral of M_j over edge i, with a cached LU factorization.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConstructionError("change of basis must be square")
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise IllPosedNodesError(
                f"change-of-basis matrix is ill conditioned (cond ~ {cond:.2e})"
            )
        self.matrix = matrix
        self.cond = float(cond)
        self._lu = scipy.linalg.lu_factor(matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs (rhs may carry extra trailing dimensions)."""
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise FloatingPointError("non-finite values in a change-of-basis right-hand side")
        flat = rhs.reshape(rhs.shape[0], -1)
        out = scipy.linalg.lu_solve(self._lu, flat, check_finite=False)
        return out.reshape(rhs.shape)

    def solve_along(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        """Solve along one axis of a coefficient tensor."""
        moved = np.moveaxis(tensor, axis, 0)
        return np.moveaxis(self.solve(moved), 0, axis)


def reduce_0form(f, nodes) -> np.ndarray:
    """Cochain of node values of a scalar function (1D de Rham map)."""
    nodes = np.asarray(nodes, dtype=float)
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        vals = np.broadcast_to(vals, nodes.shape).copy()
    return vals


def reduce_1form(f, edges, n_gauss: int = 5, breakpoints=None) -> np.ndarray:
    """Cochain of integrals of a 1-form component over parametric intervals.

    Parameters
    ----------
    f : callable
        Vectorized density; the cochain entries are integrals f dx.  It
        is called once, on the quadrature points of all intervals.
    edges : array_like, shape (m, 2)
        Interval endpoints.
    n_gauss : int
        Gauss points per smooth piece.
    breakpoints : array_like, optional
        Knot breakpoints; edges are split there so piecewise-smooth
        integrands are integrated exactly per piece.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ConstructionError("edges must be an (m, 2) array of intervals")
    breaks = () if breakpoints is None else breakpoints
    pts, wts, owner = interval_rule(edges, breaks, n_gauss)
    fx = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    if not np.all(np.isfinite(fx)):
        raise FloatingPointError("non-finite 1-form values during reduction")
    vals = np.bincount(owner, weights=fx * wts, minlength=edges.shape[0])
    return vals


def greville_edges(basis: Basis1D) -> np.ndarray:
    """Histopolation intervals: consecutive Greville nodes, shape (n, 2)."""
    nodes = basis.greville_points()
    return np.column_stack((nodes[:-1], nodes[1:]))


def greville_rule(basis: Basis1D, n_gauss=None):
    """Points, weights and owning interval of a Gauss rule over the Greville intervals.

    Each interval is split at the basis breakpoints and every piece gets
    ``n_gauss`` points (default max(degree + 1, 5)); see ``interval_rule``.
    """
    n = n_gauss or max(basis.degree + 1, 5)
    return interval_rule(greville_edges(basis), basis.breakpoints, n)


def build_interpolation(basis: Basis1D, nodes=None) -> ChangeOfBasis:
    """Square interpolation matrix of a nodal basis at given nodes (default Greville)."""
    if nodes is None:
        nodes = basis.greville_points()
    nodes = np.asarray(nodes, dtype=float)
    if nodes.shape != (basis.num_basis,):
        raise ConstructionError("need exactly one node per basis function")
    return ChangeOfBasis(basis.collocation(nodes)[0].toarray())


def build_histopolation(edge_basis: EdgeBasis1D) -> ChangeOfBasis:
    """Square matrix of edge-function integrals over the Greville intervals, exact.

    The integral of M_i = -sum_{j<i} N_j' over [g_r, g_{r+1}] telescopes to
    -sum_{j<i} (N_j(g_{r+1}) - N_j(g_r)), so the matrix follows from the
    nodal collocation at the Greville points with no quadrature, for
    rational bases too.
    """
    parent = edge_basis.parent
    values = parent.collocation(parent.greville_points())[0].toarray()
    return ChangeOfBasis(-np.diff(np.cumsum(values, axis=1)[:, :-1], axis=0))


# immutable basis (hashed by identity) -> {(edge, n_gauss): (points, reduction, change)}
_REDUCTIONS = weakref.WeakKeyDictionary()


def greville_reduction(basis: Basis1D, edge: bool, n_gauss=None):
    """Points, sparse (cells, points) reduction matrix and change of basis of one direction.

    A nodal factor samples the Greville nodes (the reduction is the
    identity) and interpolates.  An edge factor integrates over the
    Greville intervals: row i holds the ``greville_rule`` weights of the
    points interval i owns; it histopolates.  Built once per basis and
    rule, kept while the basis lives.  The points come as a
    ``geometry.GridAxis``, whose ``pts`` are read-only and which keeps
    the geometry tables at them (the side data of the strong boundary
    conditions) with the rest of the entry.
    """
    cache = _REDUCTIONS.setdefault(basis, {})
    key = (edge, n_gauss if edge else None)
    if key not in cache:
        if edge:
            pts, wts, owner = greville_rule(basis, n_gauss)
            reduction = sp.csr_matrix((wts, (owner, np.arange(pts.size))),
                                      shape=(basis.n, pts.size))
            change = build_histopolation(EdgeBasis1D(basis))
        else:
            pts = basis.greville_points()
            reduction = sp.identity(pts.size, format="csr")
            change = build_interpolation(basis)
        pts.flags.writeable = False
        cache[key] = GridAxis(pts), reduction, change
    return cache[key]


def project_form(space: DiscreteFormSpace, components, n_gauss=None) -> DiscreteForm:
    """Commuting projection of a k-form onto a discrete space.

    Parameters
    ----------
    space : DiscreteFormSpace
    components : callable, sequence of callables, or DiscreteForm
        One vectorized component function per block, ordered like
        ``space.blocks`` (a single callable is allowed for one-block
        spaces).  A DiscreteForm of the same d and k re-projects its own
        reconstruction.
    n_gauss : int, optional
        Gauss points per smooth piece in the reductions
        (default max(degree + 1, 5)).
    """
    blocks = space.blocks
    if isinstance(components, DiscreteForm):
        source = [components] * len(blocks)
    elif callable(components):
        source = [components]
    else:
        source = list(components)
    if len(source) != len(blocks):
        raise ConstructionError(f"expected {len(blocks)} component callables, got {len(source)}")
    flat = np.empty(space.dim)
    for i, (block, comp) in enumerate(zip(blocks, source)):
        axes, reductions, changes = zip(*(greville_reduction(b, j in block.dirs, n_gauss)
                                          for j, b in enumerate(space.nodal_bases)))
        pts = [axis.pts for axis in axes]
        if isinstance(comp, DiscreteForm):
            src = comp.space
            if (src.d, src.k) != (space.d, space.k):
                raise ConstructionError(f"cannot project a {src.d}D {src.k}-form onto "
                                        f"{space.d}D {space.k}-forms")
            samples = comp.eval_grid(pts, comp=i)[0]
        else:
            samples = np.asarray(comp(*np.meshgrid(*pts, indexing="ij")), dtype=float)
            samples = np.broadcast_to(samples, tuple(p.size for p in pts))
        coeffs = grid_values(samples, reductions)
        for j, change in enumerate(changes):
            coeffs = change.solve_along(coeffs, j)
        flat[block.offset : block.offset + block.size] = coeffs.ravel(order="F")
    return DiscreteForm(space, flat)
