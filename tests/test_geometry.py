"""Geometry tests: mappings, Jacobians, pullbacks, benchmark patches."""

import numpy as np
import numpy.testing as npt
import pytest

from splineforms.errors import ConstructionError, DegenerateGeometryError
from splineforms.geometry import (
    MultiPatch,
    NurbsPatch,
    QuadratureRule,
    build_taylor_couette,
    curved_square_patch,
    quarter_annulus_patch,
    unit_square_patch,
)
from splineforms.verification import fd_jacobian
from splineforms._quadrature import gauss_rule


def scaled_patch(sx, sy):
    base = unit_square_patch()
    ctrl = base.control.copy()
    ctrl[..., 0] *= sx
    ctrl[..., 1] *= sy
    return NurbsPatch(base.bases, ctrl)


class TestMapping:
    def test_identity_patch(self):
        patch = unit_square_patch()
        pts = np.array([[0.3, 0.7], [0.0, 0.0], [1.0, 1.0], [0.25, 0.5]])
        npt.assert_allclose(patch.map_point(pts), pts, atol=1e-15)
        npt.assert_allclose(
            patch.jacobian(pts), np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-15
        )

    def test_affine_jacobian(self):
        patch = scaled_patch(2.0, 3.0)
        jac = patch.jacobian(np.array([0.4, 0.6]))
        npt.assert_allclose(jac, np.diag([2.0, 3.0]), atol=1e-15)

    def test_curved_jacobian_fd(self):
        patch = curved_square_patch()
        rng = np.random.default_rng(3)
        uv = rng.uniform(0.05, 0.95, size=(40, 2))
        npt.assert_allclose(patch.jacobian(uv), fd_jacobian(patch, uv), atol=1e-9)

    def test_degenerate_geometry_rejected(self):
        base = unit_square_patch()
        ctrl = base.control.copy()
        ctrl[0, 0] = [1.0, 1.0]  # fold the corner over the far one
        with pytest.raises(DegenerateGeometryError):
            NurbsPatch(base.bases, ctrl)


GRID_PATCHES = {
    "rational annulus": lambda: quarter_annulus_patch(1),
    "curved square": curved_square_patch,
    "curved square, three cubic spans": lambda: curved_square_patch(spans=3, degree=3),
}


class TestGridEvaluation:
    """Sum-factorized grid evaluation against scattered-point evaluation."""

    @pytest.mark.parametrize("name", list(GRID_PATCHES))
    def test_grid_matches_points(self, name):
        patch = GRID_PATCHES[name]()
        x = np.concatenate(([0.0, 1.0 / 3.0, 1.0], np.linspace(0.01, 0.99, 17)))
        y = np.concatenate(([1.0, 2.0 / 3.0, 0.0], np.linspace(0.02, 0.97, 11)))
        uv = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)
        phys = patch.map_grid(x, y)
        jac, det = patch.jacobian_grid(x, y)
        assert phys.shape == (x.size, y.size, 2) and jac.shape == (x.size, y.size, 2, 2)
        npt.assert_allclose(phys, patch.map_point(uv), rtol=0, atol=1e-14)
        npt.assert_allclose(jac, patch.jacobian(uv), rtol=0, atol=1e-13)
        npt.assert_allclose(det, np.linalg.det(jac), rtol=1e-13)


class TestAnnulus:
    def test_inner_corner(self):
        patch = quarter_annulus_patch(0)
        npt.assert_allclose(patch.map_point(np.array([0.0, 0.0])), [1.0, 0.0], atol=1e-15)

    def test_circles_exact(self):
        patch = quarter_annulus_patch(0)
        t = np.linspace(0, 1, 100)
        inner = patch.map_point(patch.side_points("left", t))
        outer = patch.map_point(patch.side_points("right", t))
        assert np.abs(np.linalg.norm(inner, axis=1) - 1.0).max() < 1e-13
        assert np.abs(np.linalg.norm(outer, axis=1) - 2.0).max() < 1e-13

    def test_corner_weight_pattern(self):
        patch = quarter_annulus_patch(1)
        npt.assert_allclose(
            patch.bases[1].weights, [1.0, np.sqrt(2) / 2, 1.0], atol=1e-15
        )
        npt.assert_allclose(patch.bases[0].weights, [1.0, 1.0], atol=1e-15)

    def test_multipatch_interfaces_coincide(self):
        mp = build_taylor_couette()
        t = np.linspace(0, 1, 50)
        for a, side_a, b, side_b, _ in mp.glue:
            pa = mp.patches[a].map_point(mp.patches[a].side_points(side_a, t))
            pb = mp.patches[b].map_point(mp.patches[b].side_points(side_b, t))
            assert np.abs(pa - pb).max() < 1e-13

    def test_boundary_sides_are_circles(self):
        mp = build_taylor_couette()
        assert set(mp.boundary_sides()) == {
            (p, side) for p in range(4) for side in ("left", "right")
        }

    def test_mismatched_glue_rejected(self):
        mp = build_taylor_couette()
        with pytest.raises(ConstructionError):
            MultiPatch(mp.patches, [(0, "top", 2, "bottom", 1)])


class TestPullback:
    def test_0form_composition(self):
        patch = curved_square_patch()
        uv = np.array([[0.2, 0.9], [0.5, 0.5]])
        vals = np.array([3.5, -1.25])
        npt.assert_array_equal(patch.pullback_components(0, uv, vals), vals)

    def test_2form_scaling(self):
        patch = scaled_patch(2.0, 3.0)
        out = patch.pullback_components(2, np.array([0.5, 0.5]), np.array(1.0))
        npt.assert_allclose(out, 6.0, atol=1e-14)

    def test_1form_line_integral_preserved(self):
        patch = curved_square_patch()
        a_fun = lambda x, y: np.stack((y**2 + np.sin(x), x * y), axis=-1)
        pts, wts = gauss_rule(20)
        t = 0.5 * (pts + 1)
        w = 0.5 * wts
        c0, c1 = np.array([0.1, 0.2]), np.array([0.8, 0.55])
        seg = c0 + np.outer(t, c1 - c0)
        phys_pts = patch.map_point(seg)
        tangents = np.einsum("mcd,d->mc", fd_jacobian(patch, seg), c1 - c0)
        phys = np.einsum("mc,mc,m->", a_fun(phys_pts[:, 0], phys_pts[:, 1]), tangents, w)
        pulled = patch.pullback_components(1, seg, a_fun(phys_pts[:, 0], phys_pts[:, 1]))
        ref = np.einsum("md,d,m->", pulled, c1 - c0, w)
        assert abs(phys - ref) < 1e-11 * max(1.0, abs(ref))

    def test_pullback_commutes_with_gradient(self):
        # d(T o Phi) against J^T grad T, composed side by finite differences
        patch = curved_square_patch()
        T = lambda p: np.sin(p[..., 0]) * p[..., 1] ** 2
        gradT = lambda p: np.stack(
            (np.cos(p[..., 0]) * p[..., 1] ** 2, 2 * np.sin(p[..., 0]) * p[..., 1]),
            axis=-1,
        )
        rng = np.random.default_rng(12)
        uv = rng.uniform(0.1, 0.9, size=(30, 2))
        h = 1e-3
        fd = np.empty((30, 2))
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            coarse = (T(patch.map_point(uv + e)) - T(patch.map_point(uv - e))) / (2 * h)
            fine = (
                T(patch.map_point(uv + e / 2)) - T(patch.map_point(uv - e / 2))
            ) / h
            fd[:, d] = (4 * fine - coarse) / 3
        pulled = patch.pullback_components(1, uv, gradT(patch.map_point(uv)))
        assert np.abs(fd - pulled).max() < 1e-10


class TestQuadratureRule:
    def test_weights_positive_and_sum(self):
        rule = QuadratureRule([np.array([0.0, 0.25, 1.0]), np.array([0.0, 1.0])], (4, 3))
        for j, total in ((0, 1.0), (1, 1.0)):
            w = rule.axis_weights(j)
            assert np.all(w > 0)
            assert abs(w.sum() - total) < 1e-15
        npt.assert_allclose(rule.weights[0].sum(axis=1), [0.25, 0.75], atol=1e-15)
