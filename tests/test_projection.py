"""Projection tests: reductions, change of basis, commuting diagrams."""

import gc

import numpy as np
import numpy.testing as npt
import pytest

from splineforms import projection
from splineforms.errors import ConstructionError, IllPosedNodesError
from splineforms.geometry import curved_square_patch
from splineforms.projection import (
    build_histopolation,
    build_interpolation,
    greville_edges,
    greville_reduction,
    project_form,
    reduce_0form,
    reduce_1form,
)
from splineforms.spaces import DiscreteForm, DiscreteFormSpace
from splineforms.splines import Basis1D, EdgeBasis1D, KnotVector, grid_values, uniform_open_knots
from splineforms._quadrature import gauss_rule, panel_rule, split_interval


def make_basis(p, spans, weights=None):
    return Basis1D(KnotVector(uniform_open_knots(p, spans), p), weights)


class TestReductions:
    def test_constant_gives_ones(self):
        nodes = make_basis(2, 5).greville_points()
        red = reduce_0form(lambda x: np.ones_like(x), nodes)
        npt.assert_allclose(red, 1.0)

    def test_linear_on_hats(self):
        basis = Basis1D(KnotVector([0, 0, 0.5, 1, 1], 1))
        red = reduce_0form(lambda x: x, basis.greville_points())
        npt.assert_allclose(red, [0, 0.5, 1])

    def test_sine_samples(self):
        nodes = np.linspace(0, 1, 8)
        red = reduce_0form(lambda x: np.sin(2 * np.pi * x), nodes)
        npt.assert_allclose(red, np.sin(2 * np.pi * nodes))

    def test_gradient_integrals(self):
        # f = dT for T = x^2, edges split at 0.5: exact differences of T
        red = reduce_1form(lambda x: 2 * x, np.array([[0, 0.5], [0.5, 1]]))
        npt.assert_allclose(red, [0.25, 0.75], atol=1e-15)

    def test_zero_form(self):
        red = reduce_1form(lambda x: 0.0 * x, np.array([[0, 0.3], [0.3, 1]]))
        npt.assert_allclose(red, 0.0)

    def test_trig_against_antiderivative(self):
        edges = np.column_stack((np.arange(4) / 4, np.arange(1, 5) / 4))
        red = reduce_1form(lambda x: np.cos(2 * np.pi * x), edges, n_gauss=10)
        exact = np.diff(np.sin(2 * np.pi * np.append(edges[:, 0], 1.0))) / (2 * np.pi)
        npt.assert_allclose(red, exact, atol=1e-12)

    def test_nonfinite_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                reduce_1form(lambda x: 1.0 / (x - x), np.array([[0.0, 1.0]]))


class TestChangeOfBasis:
    def test_hats_interpolation_is_identity(self):
        basis = Basis1D(KnotVector([0, 0, 0.5, 1, 1], 1))
        cob = build_interpolation(basis)
        npt.assert_allclose(cob.matrix, np.eye(3), atol=1e-15)

    def test_quadratic_rows(self):
        cob = build_interpolation(make_basis(2, 1))
        npt.assert_allclose(
            cob.matrix, [[1, 0, 0], [0.25, 0.5, 0.25], [0, 0, 1]], atol=1e-15
        )

    def test_rows_sum_to_one(self):
        _, rational = make_basis(3, 4), make_basis(3, 4, np.linspace(0.5, 2, 7))
        cob = build_interpolation(rational)
        npt.assert_allclose(cob.matrix.sum(axis=1), 1.0, atol=1e-14)

    def test_hats_histopolation_is_identity(self):
        basis = Basis1D(KnotVector([0, 0, 0.5, 1, 1], 1))
        cob = build_histopolation(EdgeBasis1D(basis))
        npt.assert_allclose(cob.matrix, np.eye(2), atol=1e-14)

    def test_column_sums_are_one(self):
        for weights in (None, np.linspace(0.5, 2.0, 8)):
            basis = make_basis(3, 5, weights)
            cob = build_histopolation(EdgeBasis1D(basis))
            npt.assert_allclose(cob.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_histopolation_reintegration(self):
        # solving then re-integrating reproduces the prescribed edge integrals
        basis = make_basis(3, 6)
        edge = EdgeBasis1D(basis)
        cob = build_histopolation(edge)
        f = lambda x: np.cos(2 * np.pi * x) + 0.3
        edges = greville_edges(basis)
        target = reduce_1form(f, edges, n_gauss=8, breakpoints=basis.breakpoints)
        coeffs = cob.solve(target)
        for i, (a, b) in enumerate(edges):
            pts, wts = panel_rule(split_interval(a, b, basis.breakpoints), 8)
            got = np.dot(edge.eval_edge_many(pts.ravel()) @ coeffs, wts.ravel())
            assert abs(got - target[i]) < 1e-13

    def test_ill_posed_nodes_raise(self):
        basis = make_basis(2, 1)
        with pytest.raises(IllPosedNodesError):
            build_interpolation(basis, nodes=[1.0 - 1e-8, 1.0 - 5e-9, 1.0])


def looped_rule(edges, breaks, n):
    """Per-interval (points, weights) as split_interval + panel_rule give them."""
    out = []
    for a, b in edges:
        pts, wts = panel_rule(split_interval(a, b, breaks), n)
        out.append((pts.ravel(), wts.ravel()))
    return out


BATCH_BASES = {
    "uniform cubic": make_basis(3, 7),
    "repeated interior knot": Basis1D(KnotVector([0, 0, 0, 0, 0.2, 0.5, 0.5, 0.8, 1, 1, 1, 1], 3)),
    "rational quadratic": make_basis(2, 5, np.linspace(0.5, 2.0, 7)),
}


def rel_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestBatchedIntervals:
    """Batched interval quadrature against the per-interval loops it replaced."""

    @pytest.mark.parametrize("name", list(BATCH_BASES))
    def test_histopolation_matches_loop(self, name):
        basis = BATCH_BASES[name]
        edge = EdgeBasis1D(basis)
        n = 48  # enough points per piece to integrate the rational functions to rounding
        want = np.array([
            edge.eval_edge_many(pts).T @ wts
            for pts, wts in looped_rule(greville_edges(basis), basis.breakpoints, n)
        ])
        assert rel_gap(build_histopolation(edge).matrix, want) <= 1e-14

    @pytest.mark.parametrize("name", list(BATCH_BASES))
    def test_reduce_1form_matches_loop(self, name):
        basis = BATCH_BASES[name]
        f = lambda x: np.cos(3.0 * x) + x**2 * np.abs(x - 0.4)
        edges = greville_edges(basis)
        want = np.array([
            np.dot(f(pts), wts) for pts, wts in looped_rule(edges, basis.breakpoints, 6)
        ])
        got = reduce_1form(f, edges, n_gauss=6, breakpoints=basis.breakpoints)
        assert rel_gap(got, want) <= 1e-14

    def test_reduce_1form_calls_f_once(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.sin(x)

        basis = BATCH_BASES["repeated interior knot"]
        reduce_1form(f, greville_edges(basis), n_gauss=4, breakpoints=basis.breakpoints)
        assert len(calls) == 1

    def test_reduction_tensor_matches_loop(self):
        b0, b1 = BATCH_BASES["repeated interior knot"], BATCH_BASES["rational quadratic"]
        space = DiscreteFormSpace((b0, b1), 1)
        g = lambda x, y: np.sin(2 * x + y) + x * y**2
        rule = looped_rule(greville_edges(b0), b0.breakpoints, 5)
        nodes = b1.greville_points()
        want = np.array([[np.dot(g(pts, y), wts) for y in nodes] for pts, wts in rule])
        axes, reductions, _ = zip(*(greville_reduction(b, j in space.blocks[0].dirs)
                                    for j, b in enumerate(space.nodal_bases)))
        got = grid_values(g(*np.meshgrid(*(a.pts for a in axes), indexing="ij")), reductions)
        assert rel_gap(got, want) <= 1e-14


def jittered_basis(rng, degree=3, spans=8):
    inner = (np.arange(1, spans) + rng.uniform(-0.3, 0.3, spans - 1)) / spans
    return Basis1D(KnotVector(np.r_[[0.0] * (degree + 1), inner, [1.0] * (degree + 1)], degree))


class TestReductionCache:
    def test_forms_sequence_builds_each_change_of_basis_once(self, monkeypatch):
        # a 0-, 1- and 2-form and the analytic dF and dW on two jittered bases:
        # 14 blocks' directions, but only a nodal and an edge matrix per basis
        rng = np.random.default_rng(11)
        bases = (jittered_basis(rng), jittered_basis(rng))
        s0, s1, s2 = (DiscreteFormSpace(bases, k) for k in (0, 1, 2))
        builds = []
        original = projection.ChangeOfBasis.__init__

        def counted(self, matrix):
            builds.append(matrix.shape)
            original(self, matrix)

        monkeypatch.setattr(projection.ChangeOfBasis, "__init__", counted)
        project_form(s0, lambda x, y: np.sin(x + 2 * y))
        project_form(s1, [lambda x, y: np.cos(x) * y, lambda x, y: x * y**2])
        project_form(s2, lambda x, y: np.exp(x - y))
        project_form(s1, [lambda x, y: np.cos(x + 2 * y), lambda x, y: 2 * np.cos(x + 2 * y)])
        project_form(s2, lambda x, y: 2 * x * y - np.cos(x))
        assert len(builds) == 4

    @pytest.mark.parametrize("edge", [False, True])
    def test_points_are_read_only(self, edge):
        points = greville_reduction(make_basis(2, 4), edge)[0].pts
        with pytest.raises(ValueError):
            points[0] = 0.5

    def test_entry_dies_with_its_basis(self):
        gc.collect()
        before = len(projection._REDUCTIONS)
        basis = make_basis(3, 5)
        greville_reduction(basis, True)
        greville_reduction(basis, False)
        assert len(projection._REDUCTIONS) == before + 1
        del basis
        gc.collect()
        assert len(projection._REDUCTIONS) == before


class TestProjection:
    def test_constant_projects_to_ones(self):
        space = DiscreteFormSpace((make_basis(3, 4), make_basis(2, 3)), 0)
        form = project_form(space, lambda x, y: np.ones_like(x))
        npt.assert_allclose(form.coeffs, 1.0, atol=1e-13)

    def test_commutes_with_derivative_1d(self):
        for p in range(1, 5):
            b = make_basis(p, 8)
            s0 = DiscreteFormSpace((b,), 0)
            s1 = DiscreteFormSpace((b,), 1)
            T = lambda x: np.sin(2 * np.pi * x) + x**p
            dT = lambda x: 2 * np.pi * np.cos(2 * np.pi * x) + p * x ** (p - 1)
            lhs = project_form(s0, T).exterior_derivative().coeffs
            rhs = project_form(s1, dT).coeffs
            assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_commutes_with_derivative_2d(self):
        bx, by = make_basis(3, 6), make_basis(3, 5)
        s0 = DiscreteFormSpace((bx, by), 0)
        s1 = DiscreteFormSpace((bx, by), 1)
        s2 = DiscreteFormSpace((bx, by), 2)
        T = lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y)
        Tx = lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
        Ty = lambda x, y: -np.pi * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        lhs = project_form(s0, T).exterior_derivative().coeffs
        rhs = project_form(s1, [Tx, Ty]).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()
        ux = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y)
        uy = lambda x, y: x * y**2
        rot = lambda x, y: y**2 - np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
        lhs = project_form(s1, [ux, uy]).exterior_derivative().coeffs
        rhs = project_form(s2, rot).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_commutes_with_derivative_3d(self):
        b = make_basis(2, 3)
        s0 = DiscreteFormSpace((b, b, b), 0)
        s1 = DiscreteFormSpace((b, b, b), 1)
        T = lambda x, y, z: x**2 * y + np.sin(np.pi * z) * y
        grad = [
            lambda x, y, z: 2 * x * y,
            lambda x, y, z: x**2 + np.sin(np.pi * z),
            lambda x, y, z: np.pi * np.cos(np.pi * z) * y,
        ]
        lhs = project_form(s0, T).exterior_derivative().coeffs
        rhs = project_form(s1, grad).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    @pytest.mark.parametrize("d", [1, 2])
    def test_commutes_on_a_rational_basis(self, d):
        # the histopolation must integrate the rational edge functions exactly
        kv = KnotVector([0, 0, 0, 0, 0.2, 0.5, 0.7, 1, 1, 1, 1], 3)
        b = Basis1D(kv, np.random.default_rng(0).uniform(0.3, 3.0, kv.num_basis))
        f = lambda x: np.sin(3 * x) + x**2
        df = lambda x: 3 * np.cos(3 * x) + 2 * x
        if d == 1:
            T, grad = f, df
        else:
            T = lambda x, y: f(x) * f(y)
            grad = [lambda x, y: df(x) * f(y), lambda x, y: f(x) * df(y)]
        s0, s1 = DiscreteFormSpace((b,) * d, 0), DiscreteFormSpace((b,) * d, 1)
        lhs = project_form(s0, T).exterior_derivative().coeffs
        rhs = project_form(s1, grad).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_reduction_commutes_with_coboundary(self):
        # R(dT) computed by quadrature equals the differences of R(T)
        basis = make_basis(3, 7)
        T = lambda x: np.exp(np.sin(2 * np.pi * x))
        dT = lambda x: 2 * np.pi * np.cos(2 * np.pi * x) * T(x)
        nodes = basis.greville_points()
        samples = reduce_0form(T, nodes)
        integrals = reduce_1form(
            dT, greville_edges(basis), n_gauss=12, breakpoints=basis.breakpoints
        )
        npt.assert_allclose(integrals, np.diff(samples), atol=1e-11)

    def test_projection_is_idempotent(self):
        space = DiscreteFormSpace((make_basis(2, 4), make_basis(3, 3)), 1)
        rng = np.random.default_rng(2)
        form = DiscreteForm(space, rng.standard_normal(space.dim))
        again = project_form(space, form)
        npt.assert_allclose(again.coeffs, form.coeffs, atol=1e-11)

    def test_member_roundtrip(self):
        for k in (0, 1, 2):
            space = DiscreteFormSpace((make_basis(3, 4), make_basis(2, 5)), k)
            rng = np.random.default_rng(4 + k)
            form = DiscreteForm(space, rng.standard_normal(space.dim))
            npt.assert_allclose(
                project_form(space, form).coeffs, form.coeffs, atol=1e-11
            )

    @pytest.mark.parametrize("source, target", [((2, 0), (2, 1)), ((2, 0), (2, 2)),
                                                ((1, 0), (2, 0)), ((2, 1), (1, 1))])
    def test_form_of_another_dimension_or_degree_raises(self, source, target):
        b = make_basis(2, 3)
        form = DiscreteFormSpace((b,) * source[0], source[1]).zero()
        space = DiscreteFormSpace((b,) * target[0], target[1])
        for components in (form, [form] * len(space.blocks)):
            with pytest.raises(ConstructionError, match="cannot project"):
                project_form(space, components)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_raises(self, k, bad):
        space = DiscreteFormSpace((make_basis(2, 3), make_basis(2, 4)), k)
        g = lambda x, y: np.where(x + y > 1.5, bad, x * y)
        with pytest.raises(FloatingPointError):
            project_form(space, [g] * len(space.blocks))

    def test_commutes_with_pullback(self):
        # projecting the pulled-back form vs reducing over mapped cells
        # (the physical route uses finite-difference tangents only)
        from splineforms.verification import fd_tangent

        patch = curved_square_patch()
        b = make_basis(2, 3)
        space = DiscreteFormSpace((b, b), 1)
        a_fun = lambda x, y: np.stack((np.sin(x + y), x * y), axis=-1)

        def pulled_dx(x, y):
            uv = np.stack((x, y), axis=-1)
            vals = patch.pullback_components(1, uv, a_fun(*patch.map_point(uv).reshape(-1, 2).T).reshape(uv.shape))
            return vals[..., 0]

        def pulled_dy(x, y):
            uv = np.stack((x, y), axis=-1)
            vals = patch.pullback_components(1, uv, a_fun(*patch.map_point(uv).reshape(-1, 2).T).reshape(uv.shape))
            return vals[..., 1]

        reference = project_form(space, [pulled_dx, pulled_dy], n_gauss=10)

        # physical-route reduction of the same form over the mapped cells
        pts, wts = gauss_rule(10)
        t = 0.5 * (pts + 1)
        w = 0.5 * wts
        nodes = b.greville_points()
        edges = greville_edges(b)
        red = np.empty(space.dim)
        pos = 0
        for block in space.blocks:
            shape = block.shape
            vals = np.empty(shape)
            for i in range(shape[0]):
                for j in range(shape[1]):
                    if block.dirs == (0,):
                        seg0 = edges[i][0] + (edges[i][1] - edges[i][0]) * t
                        uv = np.column_stack((seg0, np.full_like(t, nodes[j])))
                        direction = np.array([edges[i][1] - edges[i][0], 0.0])
                    else:
                        seg1 = edges[j][0] + (edges[j][1] - edges[j][0]) * t
                        uv = np.column_stack((np.full_like(t, nodes[i]), seg1))
                        direction = np.array([0.0, edges[j][1] - edges[j][0]])
                    tangent = fd_tangent(patch, uv, direction)
                    avals = a_fun(*patch.map_point(uv).T)
                    vals[i, j] = np.einsum("mc,mc,m->", avals, tangent, w)
            red[pos : pos + block.size] = vals.ravel(order="F")
            pos += block.size
        physical = np.empty(space.dim)
        for block in space.blocks:
            tensor = red[block.offset : block.offset + block.size].reshape(
                block.shape, order="F"
            )
            for j, basis in enumerate(space.nodal_bases):
                tensor = greville_reduction(basis, j in block.dirs, 10)[2].solve_along(tensor, j)
            physical[block.offset : block.offset + block.size] = tensor.ravel(order="F")
        assert np.abs(physical - reference.coeffs).max() < 1e-10 * max(
            1.0, np.abs(reference.coeffs).max()
        )
