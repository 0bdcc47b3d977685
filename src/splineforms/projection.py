"""Commuting projection onto discrete form spaces.

The projector factors as reconstruction o change-of-basis o reduction:
point samples / cell integrals are taken on the Greville grid of the
space, converted to basis coefficients by interpolation (nodal factors)
or histopolation (edge factors), one direction at a time.  Built this
way, projecting and then differentiating gives the same coefficients as
differentiating and then projecting.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ._quadrature import interval_rule
from .errors import ConstructionError, IllPosedNodesError
from .spaces import DiscreteForm, DiscreteFormSpace
from .splines import Basis1D, EdgeBasis1D

__all__ = [
    "ChangeOfBasis",
    "reduce_0form",
    "reduce_1form",
    "build_interpolation",
    "build_histopolation",
    "greville_edges",
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

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs (rhs may carry extra trailing dimensions)."""
        rhs = np.asarray(rhs, dtype=float)
        flat = rhs.reshape(rhs.shape[0], -1)
        out = scipy.linalg.lu_solve(self._lu, flat)
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


def build_interpolation(basis: Basis1D, nodes=None) -> ChangeOfBasis:
    """Square interpolation matrix of a nodal basis at given nodes (default Greville)."""
    if nodes is None:
        nodes = basis.greville_points()
    nodes = np.asarray(nodes, dtype=float)
    if nodes.shape != (basis.num_basis,):
        raise ConstructionError("need exactly one node per basis function")
    return ChangeOfBasis(basis.eval_nodal_many(nodes))


def build_histopolation(edge_basis: EdgeBasis1D, edges=None, n_gauss=None) -> ChangeOfBasis:
    """Square matrix of edge-function integrals over histopolation intervals."""
    if edges is None:
        edges = greville_edges(edge_basis.parent)
    edges = np.asarray(edges, dtype=float)
    if edges.shape != (edge_basis.num_basis, 2):
        raise ConstructionError("need exactly one interval per edge function")
    n = n_gauss or max(edge_basis.parent.degree + 1, 5)
    pts, wts, owner = interval_rule(edges, edge_basis.breakpoints, n)
    spans, vals = edge_basis.window(pts)
    # row owner, column spans - p + r: segmented sum of weighted window values
    nb = edge_basis.num_basis
    p = edge_basis.parent.degree
    cells = owner[:, None] * nb + spans[:, None] + np.arange(-p, 0)[None, :]
    mat = np.bincount(cells.ravel(), weights=(vals * wts[:, None]).ravel(), minlength=nb * nb)
    return ChangeOfBasis(mat.reshape(nb, nb))


class _Projector:
    """Cached per-direction reduction grids and change-of-basis solves."""

    def __init__(self, space: DiscreteFormSpace, n_gauss=None):
        self.space = space
        self.n_gauss = n_gauss
        self._interp = {}
        self._histo = {}

    def _interpolation(self, j: int) -> ChangeOfBasis:
        if j not in self._interp:
            self._interp[j] = build_interpolation(self.space.nodal_bases[j])
        return self._interp[j]

    def _histopolation(self, j: int) -> ChangeOfBasis:
        if j not in self._histo:
            edge = EdgeBasis1D(self.space.nodal_bases[j])
            n = self.n_gauss or max(edge.parent.degree + 1, 5)
            self._histo[j] = build_histopolation(edge, n_gauss=n)
        return self._histo[j]

    def _direction_rule(self, j: int, is_edge: bool):
        """(points, weights, starts) for one direction of the reduction grid.

        For a nodal direction the points are the Greville nodes and there
        is nothing to sum (weights and starts are None).  For an edge
        direction the weighted values at points ``starts[i]`` up to
        ``starts[i + 1]`` sum to the integral over Greville interval i.
        """
        basis = self.space.nodal_bases[j]
        if not is_edge:
            return basis.greville_points(), None, None
        n = self.n_gauss or max(basis.degree + 1, 5)
        pts, wts, owner = interval_rule(greville_edges(basis), basis.breakpoints, n)
        return pts, wts, np.searchsorted(owner, np.arange(basis.n))

    def reduce_block(self, block, component) -> np.ndarray:
        """Reduction tensor of one component over the block's cells."""
        rules = [self._direction_rule(j, j in block.dirs) for j in range(self.space.d)]
        pts = [r[0] for r in rules]
        if isinstance(component, DiscreteForm):
            comp_index = component.space.blocks.index(
                next(b for b in component.space.blocks if b.dirs == block.dirs)
            )
            vals = component.eval_grid(pts, comp=comp_index)[0]
        else:
            grids = np.meshgrid(*pts, indexing="ij")
            vals = np.asarray(component(*grids), dtype=float)
            vals = np.broadcast_to(vals, tuple(p.size for p in pts))
        out = vals
        for j, (_, wts, starts) in enumerate(rules):
            if wts is not None:
                shape = [1] * self.space.d
                shape[j] = -1
                out = np.add.reduceat(out * wts.reshape(shape), starts, axis=j)
        return out

    def solve_block(self, block, reduction: np.ndarray) -> np.ndarray:
        coeffs = reduction
        for j in range(self.space.d):
            cob = self._histopolation(j) if j in block.dirs else self._interpolation(j)
            coeffs = cob.solve_along(coeffs, j)
        return coeffs

    def project(self, components) -> DiscreteForm:
        blocks = self.space.blocks
        if isinstance(components, DiscreteForm):
            source = [components] * len(blocks)
        elif callable(components):
            source = [components]
        else:
            source = list(components)
        if len(source) != len(blocks):
            raise ConstructionError(
                f"expected {len(blocks)} component callables, got {len(source)}"
            )
        flat = np.empty(self.space.dim)
        for block, comp in zip(blocks, source):
            red = self.reduce_block(block, comp)
            coeffs = self.solve_block(block, red)
            flat[block.offset : block.offset + block.size] = coeffs.ravel(order="F")
        return DiscreteForm(self.space, flat)


def project_form(space: DiscreteFormSpace, components, n_gauss=None) -> DiscreteForm:
    """Commuting projection of a k-form onto a discrete space.

    Parameters
    ----------
    space : DiscreteFormSpace
    components : callable, sequence of callables, or DiscreteForm
        One vectorized component function per block, ordered like
        ``space.blocks`` (a single callable is allowed for one-block
        spaces).  A DiscreteForm re-projects its own reconstruction.
    n_gauss : int, optional
        Gauss points per smooth piece in the reductions
        (default max(degree + 1, 5)).
    """
    return _Projector(space, n_gauss=n_gauss).project(components)
