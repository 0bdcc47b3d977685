"""Geometry tests: mappings, Jacobians, pullbacks, benchmark patches."""

import numpy as np
import numpy.testing as npt
import pytest

from splineforms.errors import ConstructionError, DegenerateGeometryError, DomainError
from splineforms.geometry import (
    SIDES,
    MultiPatch,
    NurbsPatch,
    adjugate_apply,
    adjugate_transpose_apply,
    boundary_sides,
    build_self_glued_annulus,
    build_taylor_couette,
    curved_square_patch,
    jacobian_det,
    mass_metric,
    pullback,
    pushforward_1form,
    quarter_annulus_patch,
    unit_square_patch,
)
from splineforms.splines import Basis1D, KnotVector
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

    def test_nan_points_rejected(self):
        patch = unit_square_patch()
        for uv in ([np.nan, 0.2], [0.2, np.nan]):
            with pytest.raises(DomainError):
                patch.map_point(uv)
            with pytest.raises(DomainError):
                patch.jacobian(uv)

    def test_empty_point_arrays(self):
        patch = curved_square_patch()
        assert patch.map_point(np.zeros((0, 2))).shape == (0, 2)
        assert patch.jacobian(np.zeros((0, 2))).shape == (0, 2, 2)
        assert patch.map_point(np.zeros((3, 0, 2))).shape == (3, 0, 2)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_control_rejected(self, bad):
        base = unit_square_patch()
        ctrl = base.control.copy()
        ctrl[1, 0, 1] = bad
        with pytest.raises(ConstructionError, match="control points must be finite"):
            NurbsPatch(base.bases, ctrl)

    def test_not_a_number_determinant_rejected(self):
        # finite control whose Jacobian products overflow: det J = inf - inf
        base = unit_square_patch()
        ctrl = np.array([[[0, 0], [1e200, 2e200]], [[1e200, 1e200], [2e200, 3e200]]])
        with pytest.raises(DegenerateGeometryError, match="overflows"):
            NurbsPatch(base.bases, ctrl)
        with np.errstate(over="ignore", invalid="ignore"):
            patch = NurbsPatch(base.bases, ctrl, check=False)
            assert np.isnan(jacobian_det(patch.jacobian_grid([0.5], [0.5])[0])).all()
            with pytest.raises(DegenerateGeometryError):
                patch.jacobian([0.5, 0.5])
            curve = patch.side_curve("bottom")
            with pytest.raises(DegenerateGeometryError):
                curve.frame(curve.basis.collocation([0.5]))


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
        assert set(boundary_sides(mp.n_patches, mp.glue)) == {
            (p, side) for p in range(4) for side in ("left", "right")
        }

    def test_mismatched_glue_rejected(self):
        mp = build_taylor_couette()
        with pytest.raises(ConstructionError):
            MultiPatch(mp.patches, [(0, "top", 2, "bottom", 1)])

    @pytest.mark.parametrize("r_in", [1e4, 1e6])
    def test_glue_check_accepts_rounding_at_large_radii(self, r_in):
        # the sides agree to rounding: 4.9e-12 apart at radius 1e4, 4.9e-10 at 1e6
        assert build_taylor_couette(r_in, 2.0 * r_in).n_patches == 4

    def test_glue_check_rejects_a_small_gap_at_small_radii(self):
        patches = build_taylor_couette(1e-6, 2e-6).patches
        moved = NurbsPatch(patches[0].bases, patches[0].control + 5e-13)  # 2.5e-7 relative
        with pytest.raises(ConstructionError, match="disagree"):
            MultiPatch([moved] + patches[1:], build_taylor_couette().glue)

    @pytest.mark.parametrize("shift, accepted", [(1e-10, True), (5e-7, False), (5e-6, False)])
    def test_glue_check_far_from_the_origin(self, shift, accepted):
        # the tolerance follows the sides' extent, plus the rounding of
        # coordinates near 1e6 (one ulp is 1.2e-10), not their magnitude
        mp = build_taylor_couette()
        far = [NurbsPatch(p.bases, p.control + [1e6, 0.0]) for p in mp.patches]
        assert MultiPatch(far, mp.glue).n_patches == 4
        moved = NurbsPatch(far[0].bases, far[0].control + shift)
        if accepted:
            assert MultiPatch([moved] + far[1:], mp.glue).n_patches == 4
        else:
            with pytest.raises(ConstructionError, match="disagree"):
                MultiPatch([moved] + far[1:], mp.glue)

    @pytest.mark.parametrize("gap", [1e-9, 1e-7])
    def test_glue_check_rejects_a_small_gap_far_from_the_origin(self, gap):
        # rejected at the origin, so also at x = y = 1e6
        base = unit_square_patch()
        left = NurbsPatch(base.bases, base.control + 1e6)
        right = NurbsPatch(base.bases, base.control + [1e6 + 1.0 + gap, 1e6])
        with pytest.raises(ConstructionError, match="disagree"):
            MultiPatch([left, right], [(0, "right", 1, "left", 1)])

    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e8])
    def test_glue_check_accepts_the_annulus_far_from_the_origin(self, offset):
        # its glued sides agree to 4.9e-16 wherever it sits
        mp = build_taylor_couette()
        far = [NurbsPatch(p.bases, p.control + [offset, 0.0]) for p in mp.patches]
        assert MultiPatch(far, mp.glue).n_patches == 4

    def test_self_glued_annulus(self):
        mp = build_self_glued_annulus()
        patch = mp.patches[0]
        t = np.linspace(0, 1, 50)
        radius = np.linalg.norm(patch.map_point(patch.side_points("left", t)), axis=1)
        assert np.abs(radius - 1.0).max() < 1e-13
        assert boundary_sides(mp.n_patches, mp.glue) == [(0, "left"), (0, "right")]


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


class TestPullbackAlgebra:
    """The 2x2 helpers against dense linear algebra on random Jacobians."""

    @pytest.fixture
    def jac(self):
        rng = np.random.default_rng(4)
        jac = rng.uniform(-2.0, 2.0, size=(5, 3, 2, 2))
        jac[..., 0, 0] += 5.0  # keep det J away from zero
        jac[..., 1, 1] += 5.0
        return jac

    def test_det_and_adjugates(self, jac):
        rng = np.random.default_rng(5)
        v = rng.normal(size=jac.shape[:-1])
        det = jacobian_det(jac)
        npt.assert_allclose(det, np.linalg.det(jac), rtol=1e-13)
        inv = np.linalg.inv(jac)
        want = det[..., None] * np.einsum("...ij,...j->...i", inv, v)
        npt.assert_allclose(np.stack(adjugate_apply(jac, v[..., 0], v[..., 1]), -1), want, rtol=1e-12)
        want_t = det[..., None] * np.einsum("...ji,...j->...i", inv, v)
        got_t = np.stack(adjugate_transpose_apply(jac, v[..., 0], v[..., 1]), -1)
        npt.assert_allclose(got_t, want_t, rtol=1e-12)

    def test_pushforward_inverts_pullback(self, jac):
        rng = np.random.default_rng(6)
        phys = rng.normal(size=jac.shape[:-1])
        ref = pullback(1, jac, phys)
        back = pushforward_1form(jac, jacobian_det(jac), ref[..., 0], ref[..., 1])
        npt.assert_allclose(np.stack(back, -1), phys, rtol=1e-12, atol=1e-13)
        npt.assert_allclose(pullback(2, jac, np.ones(jac.shape[:-2])), jacobian_det(jac))

    def test_mass_metric(self, jac):
        w = np.linspace(0.5, 1.5, jac.shape[0] * jac.shape[1]).reshape(jac.shape[:-2])
        det = jacobian_det(jac)
        inv = np.linalg.inv(jac)
        metric = np.einsum("...ik,...jk->...ij", inv, inv) * (det * w)[..., None, None]
        got = mass_metric(1, jac, det, w)
        for (i, j), weight in got.items():
            npt.assert_allclose(weight, metric[..., i, j], rtol=1e-12)
        npt.assert_allclose(mass_metric(0, jac, det, w)[0, 0], det * w)
        npt.assert_allclose(mass_metric(2, jac, det, w)[0, 0], w / det)

    @pytest.mark.parametrize("k", [3, -1, 1.5])
    def test_mass_metric_rejects_a_form_degree_outside_0_1_2(self, jac, k):
        # like pullback; a bad k used to get the 1-form metric
        with pytest.raises(ConstructionError, match="mass metric"):
            mass_metric(k, jac, jacobian_det(jac), np.ones(jac.shape[:-2]))


def _bilinear_on_0_2(x0=0.0, y0=0.0, end=2.0):
    """Unit square offset by (x0, y0) as a bilinear patch over the knot domain [0, end]^2."""
    b = Basis1D(KnotVector([0.0, 0.0, end, end], 1))
    grid = np.array([0.0, 1.0])
    control = np.stack(np.meshgrid(grid + x0, grid + y0, indexing="ij"), axis=-1)
    return NurbsPatch((b, b), control)


class TestNonUnitKnotDomain:
    """Sides sit at the ends of the knot domain, here [0, 2], not at 0 and 1."""

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_side_points_and_tangent(self, side):
        patch = _bilinear_on_0_2()
        t = np.array([0.0, 1.0, 2.0])
        axis, end = SIDES[side]
        points = patch.map_point(patch.side_points(side, t))
        npt.assert_allclose(points[:, axis], float(end), atol=1e-15)
        npt.assert_allclose(points[:, 1 - axis], t / 2.0, atol=1e-15)
        tangent = patch.side_tangent(side, t)
        want = np.zeros((3, 2))
        want[:, 1 - axis] = 0.5
        npt.assert_allclose(tangent, want, atol=1e-15)
        curve = patch.side_curve(side)
        c_points, c_tangent = curve.frame(curve.basis.collocation(t))
        npt.assert_allclose(c_points, points, atol=1e-15)
        npt.assert_allclose(c_tangent, tangent, atol=1e-15)

    def test_glue_check(self):
        left = _bilinear_on_0_2()
        glue = [(0, "right", 1, "left", 1)]
        MultiPatch([left, _bilinear_on_0_2(x0=1.0)], glue)
        # each side is sampled over its own knot domain, here [0, 2] against [0, 1]
        MultiPatch([left, _bilinear_on_0_2(x0=1.0, end=1.0)], glue)
        with pytest.raises(ConstructionError, match="disagree"):
            MultiPatch([left, _bilinear_on_0_2(x0=1.0, y0=0.25)], glue)


SIDE_CURVE_PATCHES = {
    "curved-square": curved_square_patch,
    "curved-square-3-spans": lambda: curved_square_patch(spans=3),
    **{f"annulus-{q}": (lambda q=q: build_taylor_couette().patches[q]) for q in range(4)},
}


class TestSideCurve:
    @pytest.mark.parametrize("name", sorted(SIDE_CURVE_PATCHES))
    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_matches_tensor_product_map(self, name, side):
        patch = SIDE_CURVE_PATCHES[name]()
        curve = patch.side_curve(side)
        assert patch.side_curve(side) is curve
        t = np.linspace(0.0, 1.0, 29)
        points, tangent = curve.frame(curve.basis.collocation(t))
        want_points = patch.map_point(patch.side_points(side, t))
        want_tangent = patch.side_tangent(side, t)
        assert np.abs(points - want_points).max() <= 1e-14 * np.abs(want_points).max()
        assert np.abs(tangent - want_tangent).max() <= 1e-14 * np.abs(want_tangent).max()

