"""Univariate B-spline/NURBS nodal bases and their derived edge bases.

The nodal family ``{N_i}`` is a (possibly rational) B-spline basis on an
open knot vector; it is nonnegative, locally supported and sums to one.
The edge family ``{M_i}`` collects the negated partial sums of the nodal
derivatives, ``M_i = -sum_{j<i} N_j'``, so that differentiating a nodal
expansion reduces to differencing its coefficients.  Each ``M_i`` has unit
integral over the parametric domain.
"""

from __future__ import annotations

import numpy as np

from ._quadrature import panel_rule
from .errors import ConstructionError, DomainError

__all__ = ["KnotVector", "Basis1D", "EdgeBasis1D", "uniform_open_knots"]


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
        degree = int(degree)
        if degree < 0:
            raise ConstructionError("degree must be nonnegative")
        knots = np.ascontiguousarray(knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2 * (degree + 1):
            raise ConstructionError(
                f"need at least {2 * (degree + 1)} knots for degree {degree}"
            )
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
        # last span index whose interval is nonempty
        i = self.num_basis - 1
        while knots[i] == knots[i + 1]:
            i -= 1
        self._last_span = i

    @property
    def num_basis(self) -> int:
        return self.knots.size - self.degree - 1

    @property
    def domain(self):
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def num_spans(self) -> int:
        return self.breakpoints.size - 1

    def find_span(self, x: float) -> int:
        """Index i with knots[i] <= x < knots[i+1] (last nonempty span at the right end)."""
        return int(self.find_spans(np.asarray([x]))[0])

    def find_spans(self, x) -> np.ndarray:
        """Vectorized span lookup; raises DomainError for points outside the knots."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        if np.any(x < lo) or np.any(x > hi):
            raise DomainError(f"point outside parametric domain [{lo}, {hi}]")
        spans = np.searchsorted(self.knots, x, side="right") - 1
        return np.clip(spans, self.degree, self._last_span)

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, knots={self.knots.tolist()})"


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
            if np.any(weights <= 0.0):
                raise ConstructionError("weights must be strictly positive")
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

    def eval_nodal(self, x: float) -> np.ndarray:
        """Dense vector of N_i(x), i = 0..n."""
        return self.eval_nodal_many([x])[0]

    def eval_nodal_deriv(self, x: float) -> np.ndarray:
        """Dense vector of dN_i/dx(x), i = 0..n."""
        return self.eval_nodal_deriv_many([x])[0]

    def eval_nodal_many(self, x) -> np.ndarray:
        """Dense (m, n+1) table of nodal values at an array of points."""
        spans, vals, _ = self.window(x)
        return self._scatter(spans, vals)

    def eval_nodal_deriv_many(self, x) -> np.ndarray:
        """Dense (m, n+1) table of nodal derivatives at an array of points."""
        spans, _, ders = self.window(x)
        return self._scatter(spans, ders)

    def _scatter(self, spans, window_vals) -> np.ndarray:
        m = spans.shape[0]
        p = self.degree
        out = np.zeros((m, self.num_basis))
        cols = spans[:, None] + np.arange(-p, 1)[None, :]
        out[np.arange(m)[:, None], cols] = window_vals
        return out

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

    There are n functions, indexed 1..n in formulas; dense vectors store
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

        The nonzero edge functions at x occupy dense positions
        spans - p .. spans - 1, where p is the parent nodal degree.
        """
        spans, _, ders = self.parent.window(x)
        return spans, edge_window(ders)

    def eval_edge(self, x: float) -> np.ndarray:
        """Dense vector of M_i(x), i = 1..n (position i-1)."""
        return self.eval_edge_many([x])[0]

    def eval_edge_many(self, x) -> np.ndarray:
        """Dense (m, n) table of edge values at an array of points."""
        spans, vals = self.window(x)
        m = spans.shape[0]
        p = self.parent.degree
        out = np.zeros((m, self.num_basis))
        if p == 0:
            return out
        cols = spans[:, None] + np.arange(-p, 0)[None, :]
        out[np.arange(m)[:, None], cols] = vals
        return out

    def integrals(self, n_gauss: int | None = None) -> np.ndarray:
        """Integral of each edge function over the full domain (all should be 1)."""
        n = n_gauss or max(self.parent.degree + 1, 5)
        pts, wts = panel_rule(self.breakpoints, n)
        table = self.eval_edge_many(pts.ravel())
        return table.T @ wts.ravel()

    def __repr__(self):
        return f"EdgeBasis1D(n={self.num_basis}, parent={self.parent!r})"
