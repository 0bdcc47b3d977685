"""Gauss-Legendre rules on intervals and breakpoint panels."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def gauss_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    pts, wts = np.polynomial.legendre.leggauss(int(n))
    return pts, wts


def panel_rule(breaks, n: int):
    """Tensor of mapped Gauss points/weights, one row per panel.

    Parameters
    ----------
    breaks : array_like
        Strictly increasing panel boundaries, length n_panels + 1.
    n : int
        Points per panel.

    Returns
    -------
    points, weights : ndarray, shape (n_panels, n)
    """
    breaks = np.asarray(breaks, dtype=float)
    pts, wts = gauss_rule(n)
    lo = breaks[:-1, None]
    hi = breaks[1:, None]
    half = 0.5 * (hi - lo)
    return lo + half * (pts[None, :] + 1.0), half * wts[None, :]


def integrate_panels(func, breaks, n: int) -> float:
    """Integrate a vectorized scalar callable over [breaks[0], breaks[-1]]."""
    pts, wts = panel_rule(breaks, n)
    return float(np.sum(func(pts.ravel()) * wts.ravel()))


def split_interval(a: float, b: float, inner_breaks) -> np.ndarray:
    """Breakpoints of [a, b] refined by any inner_breaks lying strictly inside."""
    inner = np.asarray(inner_breaks, dtype=float)
    inner = inner[(inner > a) & (inner < b)]
    return np.concatenate(([a], np.unique(inner), [b]))


def interval_rule(intervals, inner_breaks, n: int):
    """Gauss points of many intervals at once, each split at its inner breakpoints.

    Every interval ``[a, b]`` is cut at the ``inner_breaks`` lying strictly
    inside it and each piece gets the n-point rule, exactly as
    ``panel_rule(split_interval(a, b, inner_breaks), n)`` would.

    Parameters
    ----------
    intervals : array_like, shape (m, 2)
        Interval endpoints.
    inner_breaks : array_like
        Candidate cut points (knot breakpoints); any order, repeats allowed.
    n : int
        Points per piece.

    Returns
    -------
    points, weights : ndarray, shape (k,)
        All points and weights, interval by interval, left to right.
    owner : ndarray of int, shape (k,)
        Index of the interval each point belongs to (nondecreasing).
    """
    intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
    a, b = intervals[:, 0], intervals[:, 1]
    inner = np.unique(np.asarray(inner_breaks, dtype=float))
    first = np.searchsorted(inner, a, side="right")  # first break > a
    cuts = np.maximum(np.searchsorted(inner, b, side="left") - first, 0)
    # interval i has pieces j = 0..cuts[i], from break first[i] + j - 1 to break
    # first[i] + j, with a in place of the first break and b of the last
    piece_owner = np.repeat(np.arange(a.size), cuts + 1)
    j = np.arange(piece_owner.size) - (np.cumsum(cuts + 1) - (cuts + 1))[piece_owner]
    k = first[piece_owner] + j
    padded = np.concatenate(([np.nan], inner, [np.nan]))  # padded[k] is break k - 1
    lo = np.where(j == 0, a[piece_owner], padded[k])
    hi = np.where(j == cuts[piece_owner], b[piece_owner], padded[k + 1])
    pts, wts = gauss_rule(n)
    half = 0.5 * (hi - lo)[:, None]
    points = lo[:, None] + half * (pts[None, :] + 1.0)
    weights = half * wts[None, :]
    return points.ravel(), weights.ravel(), np.repeat(piece_owner, int(n))
