"""Batched interval quadrature against the per-interval panel rules."""

import numpy as np
import numpy.testing as npt
import pytest

from splineforms._quadrature import interval_rule, panel_rule, split_interval
from splineforms.projection import greville_edges
from splineforms.splines import Basis1D, KnotVector

REPEATED_KNOTS = [0.0, 0.0, 0.0, 0.3, 0.3, 0.6, 1.0, 1.0, 1.0]


def looped_rule(intervals, inner_breaks, n):
    """One split_interval + panel_rule per interval, concatenated."""
    pts, wts, owner = [], [], []
    for i, (a, b) in enumerate(np.asarray(intervals, dtype=float)):
        p, w = panel_rule(split_interval(a, b, inner_breaks), n)
        pts.append(p.ravel())
        wts.append(w.ravel())
        owner.append(np.full(p.size, i))
    return np.concatenate(pts), np.concatenate(wts), np.concatenate(owner)


CASES = {
    "no inner break": ([[0.1, 0.2], [0.25, 0.3], [0.55, 0.7]], [0.0, 0.5, 1.0]),
    "several inner breaks": ([[0.05, 0.95], [0.1, 0.35], [0.3, 0.4]], np.linspace(0, 1, 9)),
    "endpoint on a breakpoint": (
        [[0.0, 0.25], [0.25, 0.5], [0.5, 0.8], [0.3, 1.0]],
        [1.0, 0.75, 0.5, 0.25, 0.0, 0.5],  # unsorted, with a repeat
    ),
    "repeated interior knot": (
        greville_edges(Basis1D(KnotVector(REPEATED_KNOTS, 2))),
        REPEATED_KNOTS,
    ),
}


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("case", list(CASES))
def test_matches_per_interval_loop(case, n):
    intervals, breaks = CASES[case]
    got = interval_rule(intervals, breaks, n)
    want = looped_rule(intervals, breaks, n)
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)


def test_repeated_knot_cuts_each_side_once():
    # Greville edges (0.15, 0.3) and (0.3, 0.45) end at the double knot 0.3
    intervals, breaks = CASES["repeated interior knot"]
    npt.assert_allclose(intervals[1:3], [[0.15, 0.3], [0.3, 0.45]])
    _, wts, owner = interval_rule(intervals, breaks, 4)
    assert np.bincount(owner).tolist() == [4, 4, 4, 8, 4]
    npt.assert_allclose(np.bincount(owner, weights=wts), np.diff(intervals, axis=1)[:, 0])


def test_owner_is_sorted_and_weights_integrate_lengths():
    intervals, breaks = CASES["several inner breaks"]
    pts, wts, owner = interval_rule(intervals, breaks, 3)
    assert np.all(np.diff(owner) >= 0)
    lengths = np.diff(np.asarray(intervals), axis=1)[:, 0]
    npt.assert_allclose(np.bincount(owner, weights=wts), lengths, rtol=1e-15)
    # a cubic integrated piece by piece is exact
    exact = (np.asarray(intervals)[:, 1] ** 4 - np.asarray(intervals)[:, 0] ** 4) / 4
    npt.assert_allclose(np.bincount(owner, weights=pts**3 * wts), exact, rtol=1e-14)
