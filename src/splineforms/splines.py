"""Univariate B-spline/NURBS nodal bases and their derived edge bases.

The nodal family ``{N_i}`` is a (possibly rational) B-spline basis on an
open knot vector; it is nonnegative, locally supported and sums to one.
The edge family ``{M_i}`` collects the negated partial sums of the nodal
derivatives, ``M_i = -sum_{j<i} N_j'``, so that differentiating a nodal
expansion reduces to differencing its coefficients.  Each ``M_i`` has unit
integral over the parametric domain.

A basis is evaluated one way only: ``window`` gives the values (and
derivatives) of the functions that are nonzero at each point, and
``collocation`` stores such a window table as a sparse (points,
functions) matrix.  Every table the package needs is one of these matrices;
``grid_values`` contracts a coefficient tensor with one per direction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._quadrature import panel_rule
from .errors import ConstructionError, DomainError, check_integer

__all__ = ["KnotVector", "Basis1D", "EdgeBasis1D", "uniform_open_knots", "collocation",
           "stored_window", "grid_values", "per_basis"]


def uniform_open_knots(degree: int, n_spans: int, start: float = 0.0, end: float = 1.0):
    """Open (clamped) knot vector with ``n_spans`` uniform nonempty spans."""
    if n_spans < 1:
        raise ConstructionError("need at least one span")
    interior = np.linspace(start, end, n_spans + 1)[1:-1]
    return np.concatenate(
        (np.full(degree + 1, float(start)), interior, np.full(degree + 1, float(end)))
    )


class KnotVector:
    """Nondecreasing open knot sequence together with a polynomial degree.

    Parameters
    ----------
    knots : array_like
        Nondecreasing knots; first and last value each repeated exactly
        ``degree + 1`` times.
    degree : int
        Nonnegative polynomial degree.
    """

    def __init__(self, knots, degree: int):
        degree = check_integer("degree", degree)
        if degree < 0:
            raise ConstructionError("degree must be nonnegative")
        knots = np.ascontiguousarray(knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2 * (degree + 1):
            raise ConstructionError(
                f"need at least {2 * (degree + 1)} knots for degree {degree}"
            )
        if not np.all(np.isfinite(knots)):
            raise ConstructionError("knots must be finite")
        if np.any(np.diff(knots) < 0.0):
            raise ConstructionError("knots must be nondecreasing")
        p = degree
        if not (np.all(knots[: p + 1] == knots[0]) and np.all(knots[-p - 1 :] == knots[-1])):
            raise ConstructionError("open knot vector: end knots must repeat degree+1 times")
        if knots[p + 1] == knots[0] or knots[-p - 2] == knots[-1]:
            raise ConstructionError("end knots must repeat exactly degree+1 times")
        uniq, counts = np.unique(knots[p + 1 : -p - 1], return_counts=True)
        if np.any(counts > p + 1):
            raise ConstructionError("interior knot multiplicity exceeds degree+1")
        self.knots = knots
        self.knots.flags.writeable = False
        self.breakpoints = np.unique(knots)  # distinct knot values (span boundaries)
        self.breakpoints.flags.writeable = False
        self.degree = p

    @property
    def num_basis(self) -> int:
        return self.knots.size - self.degree - 1

    @property
    def domain(self):
        return float(self.knots[0]), float(self.knots[-1])

    def find_spans(self, x) -> np.ndarray:
        """Per point, i with knots[i] <= x < knots[i+1] (the last nonempty span at the right end).

        Raises DomainError for points outside the knots (or NaN).
        """
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        if not np.all((lo <= x) & (x <= hi)):
            raise DomainError(f"point outside parametric domain [{lo}, {hi}]")
        spans = np.searchsorted(self.knots, x, side="right") - 1
        # span num_basis - 1 is nonempty: the constructor checks knots[-p-2] < knots[-1]
        return np.clip(spans, self.degree, self.num_basis - 1)

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, knots={self.knots.tolist()})"


def collocation(first, vals, n: int) -> sp.csr_matrix:
    """Sparse (points, functions) collocation matrix of a window table.

    Point q carries functions first[q] .. first[q] + width - 1 with values
    vals[q]; row q stores exactly those ``width`` entries, in column order,
    explicit zeros included (``stored_window`` reads them back).
    """
    m, width = vals.shape
    # scipy's index type; handing it over ready saves scipy a checked copy per matrix
    index = np.int32 if max(n, m * width) < 2**31 else np.int64
    cols = (first[:, None] + np.arange(width)[None, :]).astype(index).ravel()
    return sp.csr_matrix((vals.ravel(), cols, width * np.arange(m + 1, dtype=index)), shape=(m, n))


def stored_window(matrix):
    """Columns and values, each (points, width), that a ``collocation`` matrix stores per row.

    A matrix of no points stores nothing, so its windows are (0, 0).
    """
    points = matrix.shape[0]
    shape = (points, matrix.nnz // points if points else 0)
    return matrix.indices.reshape(shape), matrix.data.reshape(shape)


def grid_values(coeffs, matrices) -> np.ndarray:
    """Tensor-grid values ``sum_i coeffs[i_1, .., i_d, ...] prod_j B_j[q_j, i_j]``.

    One sparse product per direction, the last direction first, with
    ``matrices[j]`` the collocation matrix of direction j; trailing axes
    of ``coeffs`` (vector components) ride along.  The result is shaped
    (q_1, .., q_d, ...).
    """
    out = np.asarray(coeffs)
    for j in reversed(range(len(matrices))):
        front = np.moveaxis(out, j, 0)
        flat = matrices[j] @ front.reshape(front.shape[0], -1)
        out = np.moveaxis(flat.reshape((matrices[j].shape[0],) + front.shape[1:]), 0, j)
    return out


def per_basis(table, basis, key, build):
    """``build()`` for (basis, key), kept in ``table`` for as long as ``basis`` lives.

    ``table`` is a ``weakref.WeakKeyDictionary``; a basis is immutable and
    hashed by identity, so its entry never goes stale and dies with it.
    What ``build`` returns must not hold the basis, or the entry never dies.
    """
    entry = table.setdefault(basis, {})
    if key not in entry:
        entry[key] = build()
    return entry[key]


def _bspline_window(knots, p, spans, x):
    """Values and first derivatives of the p+1 B-splines that are nonzero at each x.

    Triangular recurrence; the derivatives come from the degree p-1
    stage it passes through, ``N'_r = p (N_{r-1,p-1} / den_{r-1} - N_{r,p-1} / den_r)``.
    """
    m = x.shape[0]
    vals = np.zeros((m, p + 1))
    vals[:, 0] = 1.0
    ders = np.zeros((m, p + 1))
    left = np.empty((m, p))
    right = np.empty((m, p))
    for j in range(1, p + 1):
        left[:, j - 1] = x - knots[spans + 1 - j]
        right[:, j - 1] = knots[spans + j] - x
        saved = np.zeros(m)
        for r in range(j):
            tmp = vals[:, r] / (right[:, r] + left[:, j - r - 1])
            if j == p:
                ders[:, r] -= p * tmp
                ders[:, r + 1] += p * tmp
            vals[:, r] = saved + right[:, r] * tmp
            saved = left[:, j - r - 1] * tmp
        vals[:, j] = saved
    return vals, ders


class Basis1D:
    """Weighted (rational) nodal basis on an open knot vector.

    With all weights equal to one the basis reduces to plain B-splines.
    Instances are immutable; evaluation is pure and thread-safe.

    Parameters
    ----------
    knot_vector : KnotVector
    weights : array_like, optional
        One strictly positive weight per basis function (default all ones).
    """

    def __init__(self, knot_vector: KnotVector, weights=None):
        if not isinstance(knot_vector, KnotVector):
            raise ConstructionError("knot_vector must be a KnotVector")
        self.knot_vector = knot_vector
        nb = knot_vector.num_basis
        if weights is None:
            weights = np.ones(nb)
        else:
            weights = np.ascontiguousarray(weights, dtype=float)
            if weights.shape != (nb,):
                raise ConstructionError(f"expected {nb} weights, got {weights.shape}")
            if not np.all(np.isfinite(weights) & (weights > 0.0)):
                raise ConstructionError("weights must be finite and strictly positive")
        self.weights = weights
        self.weights.flags.writeable = False
        self.is_bspline = bool(np.all(weights == 1.0))

    @property
    def degree(self) -> int:
        return self.knot_vector.degree

    @property
    def num_basis(self) -> int:
        return self.knot_vector.num_basis

    @property
    def n(self) -> int:
        """Largest basis index; the basis functions are indexed 0..n."""
        return self.num_basis - 1

    @property
    def domain(self):
        return self.knot_vector.domain

    @property
    def breakpoints(self) -> np.ndarray:
        return self.knot_vector.breakpoints

    def window(self, x):
        """Nonzero-window evaluation at an array of points.

        Returns
        -------
        spans : ndarray, shape (m,)
            Knot-span index per point; nonzero functions are spans-degree .. spans.
        values, derivs : ndarray, shape (m, degree+1)
            Values and first derivatives of those functions.
        """
        x = np.asarray(x, dtype=float)
        kv = self.knot_vector
        spans = kv.find_spans(x)
        p = kv.degree
        b, db = _bspline_window(kv.knots, p, spans, x)
        if not self.is_bspline:
            idx = spans[:, None] + np.arange(-p, 1)[None, :]
            wloc = self.weights[idx]
            wsum = np.sum(wloc * b, axis=1, keepdims=True)
            dwsum = np.sum(wloc * db, axis=1, keepdims=True)
            vals = wloc * b / wsum
            ders = wloc * (db * wsum - b * dwsum) / wsum**2
            return spans, vals, ders
        return spans, b, db

    def collocation(self, x):
        """Sparse (m, n+1) collocation matrices of the values and of the derivatives."""
        spans, vals, ders = self.window(x)
        first = spans - self.degree
        return collocation(first, vals, self.num_basis), collocation(first, ders, self.num_basis)

    def eval_nodal_many(self, x) -> np.ndarray:
        """Dense (m, n+1) table of nodal values at an array of points."""
        return self.collocation(x)[0].toarray()

    def eval_nodal_deriv_many(self, x) -> np.ndarray:
        """Dense (m, n+1) table of nodal derivatives at an array of points."""
        return self.collocation(x)[1].toarray()

    def greville_points(self) -> np.ndarray:
        """Knot-average interpolation nodes, one per basis function."""
        p = self.degree
        if p < 1:
            raise ConstructionError("Greville points require degree >= 1")
        knots = self.knot_vector.knots
        nodes = np.lib.stride_tricks.sliding_window_view(knots[1:-1], p).mean(axis=1)
        if np.any(np.diff(nodes) <= 0.0):
            raise ConstructionError(
                "repeated Greville nodes (interior knot multiplicity degree+1)"
            )
        return nodes

    def __repr__(self):
        tag = "bspline" if self.is_bspline else "nurbs"
        return f"Basis1D({tag}, degree={self.degree}, n+1={self.num_basis})"


def edge_window(ders) -> np.ndarray:
    """Edge-function window (m, p) from the nodal derivative window (m, p+1).

    Suffix sums of the derivative window, dropping the full (zero) sum.
    """
    return np.cumsum(ders[:, ::-1], axis=1)[:, ::-1][:, 1:]


class EdgeBasis1D:
    """Edge functions M_i = -sum_{j<i} N_j' derived from a nodal basis.

    There are n functions, indexed 1..n in formulas; tables store
    M_{e+1} at position e.  Each function integrates to one over the
    parametric domain.
    """

    def __init__(self, parent: Basis1D):
        self.parent = parent

    @property
    def num_basis(self) -> int:
        return self.parent.num_basis - 1

    @property
    def degree(self) -> int:
        """Polynomial degree of the edge functions (one below the nodal degree)."""
        return self.parent.degree - 1

    @property
    def domain(self):
        return self.parent.domain

    @property
    def breakpoints(self) -> np.ndarray:
        return self.parent.breakpoints

    def window(self, x):
        """Nonzero-window evaluation: (spans, values) with values shaped (m, p).

        The nonzero edge functions at x occupy positions
        spans - p .. spans - 1, where p is the parent nodal degree.
        """
        spans, _, ders = self.parent.window(x)
        return spans, edge_window(ders)

    def collocation(self, x) -> sp.csr_matrix:
        """Sparse (m, n) collocation matrix; column e holds M_{e+1}."""
        spans, vals = self.window(x)
        return collocation(spans - self.parent.degree, vals, self.num_basis)

    def eval_edge_many(self, x) -> np.ndarray:
        """Dense (m, n) table of edge values at an array of points."""
        return self.collocation(x).toarray()

    def integrals(self, n_gauss: int | None = None) -> np.ndarray:
        """Integral of each edge function over the full domain (all should be 1)."""
        n = n_gauss or max(self.parent.degree + 1, 5)
        pts, wts = panel_rule(self.breakpoints, n)
        return self.collocation(pts.ravel()).T @ wts.ravel()

    def __repr__(self):
        return f"EdgeBasis1D(n={self.num_basis}, parent={self.parent!r})"
