"""Nodal/edge basis tests: worked examples, invariants, independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import BSpline

from splineforms.errors import ConstructionError, DomainError
from splineforms.splines import (
    Basis1D,
    EdgeBasis1D,
    KnotVector,
    collocation,
    stored_window,
    uniform_open_knots,
)


def bspline_basis(knots, degree, weights=None):
    return Basis1D(KnotVector(knots, degree), weights)


def fig8_bases():
    """Cubic basis on {0,0,0,0,1,2,3,4,4,4,4}: plain and with one halved weight."""
    knots = [0, 0, 0, 0, 1, 2, 3, 4, 4, 4, 4]
    plain = bspline_basis(knots, 3)
    w = np.ones(7)
    w[3] = 0.5
    rational = bspline_basis(knots, 3, w)
    return plain, rational


class TestFindSpan:
    def test_interior_point(self):
        kv = KnotVector([0, 0, 0, 1, 2, 3, 4, 4, 4], 2)
        npt.assert_array_equal(kv.find_spans([1.5]), [3])

    def test_clamped_ends(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        npt.assert_array_equal(kv.find_spans([0.0, 1.0]), [2, 2])

    def test_outside_domain_raises(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        with pytest.raises(DomainError):
            kv.find_spans([1.0 + 1e-12])
        with pytest.raises(DomainError):
            kv.find_spans([0.5, -0.1])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            interior = np.sort(rng.uniform(0, 4, rng.integers(1, 6)))
            knots = np.concatenate((np.zeros(p + 1), interior, np.full(p + 1, 4.0)))
            kv = KnotVector(knots, p)
            x = rng.uniform(0, 4, 30)
            # brute force: scan spans for knots[i] <= x < knots[i+1]
            hits = [
                max(i for i in range(len(knots) - 1) if knots[i] <= xi < knots[i + 1])
                for xi in x
            ]
            npt.assert_array_equal(kv.find_spans(x), hits)
            # right endpoint: last nonempty span
            last = max(i for i in range(len(knots) - 1) if knots[i] < knots[i + 1])
            npt.assert_array_equal(kv.find_spans([4.0]), [last])


def test_nan_points_rejected():
    basis = bspline_basis([0, 0, 0, 0.5, 1, 1, 1], 2)
    for x in ([np.nan], [0.25, np.nan, 1.0]):
        with pytest.raises(DomainError):
            basis.window(np.array(x))
        with pytest.raises(DomainError):
            EdgeBasis1D(basis).window(np.array(x))


def dense_scatter(spans, table, n, p):
    """Test-only oracle: a window table (functions spans - p ..) as a dense (points, n) array."""
    m, width = table.shape
    out = np.zeros((m, n))
    out[np.arange(m)[:, None], spans[:, None] - p + np.arange(width)[None, :]] = table
    return out


class TestCollocation:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", range(6))
    def test_matches_dense_scatter(self, p, weighted):
        rng = np.random.default_rng(60 + p)
        inner = np.sort(rng.uniform(0.1, 0.9, 4))
        inner = np.repeat(inner, rng.integers(1, p + 2, inner.size))  # repeated interior knots
        kv = KnotVector(np.concatenate(([0.0] * (p + 1), inner, [1.0] * (p + 1))), p)
        basis = Basis1D(kv, rng.uniform(0.3, 3.0, kv.num_basis) if weighted else None)
        # random points, every breakpoint and the right end
        xs = np.concatenate((rng.uniform(0.0, 1.0, 40), basis.breakpoints))
        n = basis.num_basis
        spans, vals, ders = basis.window(xs)
        b, db = basis.collocation(xs)
        edge = EdgeBasis1D(basis).collocation(xs)
        assert b.shape == db.shape == (xs.size, n) and edge.shape == (xs.size, n - 1)
        assert b.nnz == db.nnz == xs.size * (p + 1) and edge.nnz == xs.size * p
        npt.assert_array_equal(b.toarray(), dense_scatter(spans, vals, n, p))
        cols, stored = stored_window(db)
        npt.assert_array_equal(cols, spans[:, None] - p + np.arange(p + 1))
        npt.assert_array_equal(stored, ders)
        npt.assert_array_equal(db.toarray(), dense_scatter(spans, ders, n, p))
        # edge functions M_i = -sum_{j<i} N_j', from the dense derivative table
        dense_d = dense_scatter(spans, ders, n, p)
        want = -np.cumsum(dense_d, axis=1)[:, :-1]
        assert np.abs(edge.toarray() - want).max() <= 1e-13 * max(1.0, np.abs(dense_d).max())
        npt.assert_array_equal(basis.eval_nodal_many(xs), b.toarray())
        npt.assert_array_equal(basis.eval_nodal_deriv_many(xs), db.toarray())
        npt.assert_array_equal(EdgeBasis1D(basis).eval_edge_many(xs), edge.toarray())

    def test_empty_window(self):
        b, db = Basis1D(KnotVector(uniform_open_knots(2, 3), 2)).collocation(np.zeros(0))
        for matrix in (b, db, collocation(np.zeros(0, dtype=int), np.zeros((0, 3)), 5)):
            cols, vals = stored_window(matrix)
            assert cols.shape == vals.shape == (0, 0)

    def test_explicit_window(self):
        first = np.array([0, 2, 1])
        vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        want = np.array([[1.0, 2, 0, 0], [0, 0, 3, 4], [0, 5, 6, 0]])
        npt.assert_array_equal(collocation(first, vals, 4).toarray(), want)


class TestKnotVector:
    def test_rejects_non_open(self):
        with pytest.raises(ConstructionError):
            KnotVector([0, 0, 1, 2, 2, 2], 2)

    def test_rejects_decreasing(self):
        with pytest.raises(ConstructionError):
            KnotVector([0, 0, 0, 2, 1, 3, 3, 3], 2)

    def test_rejects_excess_multiplicity(self):
        with pytest.raises(ConstructionError):
            KnotVector([0, 0, 0, 1, 1, 1, 1, 2, 2, 2], 2)

    @pytest.mark.parametrize("knots", [[0, 0, np.nan, 1, 1], [0, 0, 1, np.inf, np.inf]])
    def test_rejects_nonfinite_knots(self, knots):
        with pytest.raises(ConstructionError, match="finite"):
            KnotVector(knots, 1)

    @pytest.mark.parametrize("degree", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_degree(self, degree):
        # 2.5 used to build degree 2
        with pytest.raises(ConstructionError, match="degree must be an integer"):
            KnotVector([0, 0, 0, 1, 1, 1], degree)

    def test_breakpoints_built_once_read_only(self):
        kv = KnotVector([0, 0, 0, 0.25, 0.25, 0.7, 1, 1, 1], 2)
        assert kv.breakpoints is kv.breakpoints
        npt.assert_array_equal(kv.breakpoints, [0.0, 0.25, 0.7, 1.0])
        assert not kv.breakpoints.flags.writeable


class TestNodalBasis:
    def test_bernstein_values(self):
        b = bspline_basis([0, 0, 0, 1, 1, 1], 2)
        npt.assert_allclose(b.eval_nodal_many([0.5])[0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_partition_of_unity(self):
        plain, rational = fig8_bases()
        xs = np.linspace(0, 4, 1000)
        for basis in (plain, rational):
            sums = basis.eval_nodal_many(xs).sum(axis=1)
            assert np.abs(sums - 1).max() < 1e-14

    def test_nonnegative_and_local_support(self):
        plain, _ = fig8_bases()
        xs = np.linspace(0, 4, 400)
        table = plain.eval_nodal_many(xs)
        assert table.min() >= -1e-15
        knots = plain.knot_vector.knots
        p = plain.degree
        for i in range(plain.num_basis):
            outside = (xs < knots[i]) | (xs > knots[i + p + 1])
            if outside.any():
                assert np.abs(table[outside, i]).max() < 1e-15

    def test_weight_reduces_center_function(self):
        plain, rational = fig8_bases()
        v_plain = plain.eval_nodal_many([2.0])[0]
        v_rational = rational.eval_nodal_many([2.0])[0]
        assert abs(v_rational.sum() - 1) < 1e-14
        assert v_rational[3] < v_plain[3]

    def test_scipy_oracle_for_bsplines(self):
        # random coefficients: our evaluation must match scipy's BSpline
        plain, _ = fig8_bases()
        rng = np.random.default_rng(11)
        c = rng.standard_normal(plain.num_basis)
        spl = BSpline(plain.knot_vector.knots, c, plain.degree)
        xs = np.linspace(0, 4, 223)
        ours = plain.eval_nodal_many(xs) @ c
        npt.assert_allclose(ours, spl(xs), atol=1e-13)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConstructionError):
            bspline_basis([0, 0, 0, 1, 1, 1], 2, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        kv = KnotVector([0, 0, 0.5, 1, 1], 1)
        with pytest.raises(ConstructionError, match="finite"):
            Basis1D(kv, [1.0, bad, 1.0])


class TestNodalDerivative:
    def test_sum_is_zero(self):
        _, rational = fig8_bases()
        xs = np.linspace(0, 4, 500)
        sums = rational.eval_nodal_deriv_many(xs).sum(axis=1)
        assert np.abs(sums).max() < 1e-12

    def test_linear_hats(self):
        b = bspline_basis([0, 0, 1, 1], 1)
        npt.assert_allclose(b.eval_nodal_deriv_many([0.3])[0], [-1.0, 1.0], atol=1e-14)

    def test_finite_difference_oracle(self):
        _, rational = fig8_bases()
        h = 1e-6
        for x in (0.37, 1.91, 2.5, 3.2):
            fd = (rational.eval_nodal_many([x + h])[0]
                  - rational.eval_nodal_many([x - h])[0]) / (2 * h)
            an = rational.eval_nodal_deriv_many([x])[0]
            scale = np.abs(an).max()
            assert np.abs(fd - an).max() < 1e-6 * scale


class TestEdgeBasis:
    def test_piecewise_constant_for_hats(self):
        edge = EdgeBasis1D(bspline_basis([0, 0, 0.5, 1, 1], 1))
        npt.assert_allclose(edge.eval_edge_many([0.2])[0], [2.0, 0.0], atol=1e-14)
        npt.assert_allclose(edge.eval_edge_many([0.7])[0], [0.0, 2.0], atol=1e-14)
        npt.assert_allclose(edge.integrals(), [1.0, 1.0], atol=1e-14)

    def test_summation_identity(self):
        plain, rational = fig8_bases()
        xs = np.linspace(0, 4, 200)
        for basis in (plain, rational):
            edge = EdgeBasis1D(basis)
            M = edge.eval_edge_many(xs)
            dN = basis.eval_nodal_deriv_many(xs)
            for i in range(1, basis.num_basis):
                target = -dN[:, :i].sum(axis=1)
                assert np.abs(M[:, i - 1] - target).max() < 1e-13

    def test_unit_integrals(self):
        plain, rational = fig8_bases()
        assert np.abs(EdgeBasis1D(plain).integrals() - 1).max() < 1e-12
        assert np.abs(EdgeBasis1D(rational).integrals(n_gauss=32) - 1).max() < 1e-12

    def test_constant_cochain_has_zero_derivative(self):
        _, rational = fig8_bases()
        edge = EdgeBasis1D(rational)
        coeffs = np.full(rational.num_basis, 3.7)
        diffs = np.diff(coeffs)  # edge cochain of the discrete derivative
        xs = np.linspace(0, 4, 150)
        vals = edge.eval_edge_many(xs) @ diffs
        assert np.abs(vals).max() < 1e-14

    def test_curry_schoenberg_scaling(self):
        # with unit weights, the edge functions are scaled lower-degree B-splines
        p, spans = 3, 5
        knots = uniform_open_knots(p, spans)
        basis = bspline_basis(knots, p)
        lower = bspline_basis(knots[1:-1], p - 1)
        edge = EdgeBasis1D(basis)
        xs = np.linspace(0, 1, 300)
        M = edge.eval_edge_many(xs)
        B = lower.eval_nodal_many(xs)
        for i in range(1, basis.num_basis):
            c_i = p / (knots[i + p] - knots[i])
            assert np.abs(M[:, i - 1] - c_i * B[:, i - 1]).max() < 1e-12


class TestGreville:
    def test_single_span(self):
        npt.assert_allclose(
            bspline_basis([0, 0, 0, 1, 1, 1], 2).greville_points(), [0, 0.5, 1]
        )

    def test_linear(self):
        npt.assert_allclose(
            bspline_basis([0, 0, 0.5, 1, 1], 1).greville_points(), [0, 0.5, 1]
        )

    def test_cubic_knot_averages(self):
        plain, _ = fig8_bases()
        npt.assert_allclose(
            plain.greville_points(), [0, 1 / 3, 1, 2, 3, 11 / 3, 4], atol=1e-15
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_loop(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(20):
            inner = np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 12)))
            mult = rng.integers(1, p + 1, inner.size)  # up to degree: distinct nodes
            knots = np.concatenate(([0.0] * (p + 1), np.repeat(inner, mult), [1.0] * (p + 1)))
            basis = bspline_basis(knots, p)
            loop = np.array([knots[i + 1 : i + p + 1].mean() for i in range(basis.num_basis)])
            assert np.array_equal(basis.greville_points(), loop)

    def test_repeated_nodes_rejected(self):
        basis = bspline_basis([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], 2)
        with pytest.raises(ConstructionError):
            basis.greville_points()
