"""Nodal/edge basis tests: worked examples, invariants, independent oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import BSpline

from splineforms.errors import ConstructionError, DomainError
from splineforms.splines import Basis1D, EdgeBasis1D, KnotVector, uniform_open_knots


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
        assert kv.find_span(1.5) == 3

    def test_clamped_ends(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        assert kv.find_span(0.0) == 2
        assert kv.find_span(1.0) == 2

    def test_outside_domain_raises(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        with pytest.raises(DomainError):
            kv.find_span(1.0 + 1e-12)
        with pytest.raises(DomainError):
            kv.find_span(-0.1)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            interior = np.sort(rng.uniform(0, 4, rng.integers(1, 6)))
            knots = np.concatenate((np.zeros(p + 1), interior, np.full(p + 1, 4.0)))
            kv = KnotVector(knots, p)
            for x in rng.uniform(0, 4, 30):
                span = kv.find_span(x)
                # brute force: scan spans for knots[i] <= x < knots[i+1]
                hits = [
                    i
                    for i in range(len(knots) - 1)
                    if knots[i] <= x < knots[i + 1]
                ]
                assert span == hits[-1]
            # right endpoint: last nonempty span
            last = max(i for i in range(len(knots) - 1) if knots[i] < knots[i + 1])
            assert kv.find_span(4.0) == last


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


    def test_breakpoints_built_once_read_only(self):
        kv = KnotVector([0, 0, 0, 0.25, 0.25, 0.7, 1, 1, 1], 2)
        assert kv.breakpoints is kv.breakpoints
        npt.assert_array_equal(kv.breakpoints, [0.0, 0.25, 0.7, 1.0])
        assert not kv.breakpoints.flags.writeable
        assert kv.num_spans == 3


class TestNodalBasis:
    def test_bernstein_values(self):
        b = bspline_basis([0, 0, 0, 1, 1, 1], 2)
        npt.assert_allclose(b.eval_nodal(0.5), [0.25, 0.5, 0.25], atol=1e-15)

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
        v_plain = plain.eval_nodal(2.0)
        v_rational = rational.eval_nodal(2.0)
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


class TestNodalDerivative:
    def test_sum_is_zero(self):
        _, rational = fig8_bases()
        xs = np.linspace(0, 4, 500)
        sums = rational.eval_nodal_deriv_many(xs).sum(axis=1)
        assert np.abs(sums).max() < 1e-12

    def test_linear_hats(self):
        b = bspline_basis([0, 0, 1, 1], 1)
        npt.assert_allclose(b.eval_nodal_deriv(0.3), [-1.0, 1.0], atol=1e-14)

    def test_finite_difference_oracle(self):
        _, rational = fig8_bases()
        h = 1e-6
        for x in (0.37, 1.91, 2.5, 3.2):
            fd = (rational.eval_nodal(x + h) - rational.eval_nodal(x - h)) / (2 * h)
            an = rational.eval_nodal_deriv(x)
            scale = np.abs(an).max()
            assert np.abs(fd - an).max() < 1e-6 * scale


class TestEdgeBasis:
    def test_piecewise_constant_for_hats(self):
        edge = EdgeBasis1D(bspline_basis([0, 0, 0.5, 1, 1], 1))
        npt.assert_allclose(edge.eval_edge(0.2), [2.0, 0.0], atol=1e-14)
        npt.assert_allclose(edge.eval_edge(0.7), [0.0, 2.0], atol=1e-14)
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
