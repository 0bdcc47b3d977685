"""NURBS patch mappings, pullbacks, quadrature and benchmark geometries.

A patch maps the reference square onto a planar region through a
tensor-product rational basis with separable weights, so the map is a
product of univariate rational bases.  Pullbacks move 0/1/2-form
components between the physical and reference pictures; integrals over
mapped cells are then plain reference-domain quadratures.
"""

from __future__ import annotations

import numpy as np

from ._quadrature import panel_rule
from .errors import ConstructionError, DegenerateGeometryError
from .splines import Basis1D, KnotVector, uniform_open_knots

__all__ = [
    "QuadratureRule",
    "NurbsPatch",
    "MultiPatch",
    "unit_square_patch",
    "curved_square_patch",
    "quarter_annulus_patch",
    "build_taylor_couette",
    "SIDES",
]

# side name -> (axis, end): 'left' is u1=0, 'right' u1=1, 'bottom' u2=0, 'top' u2=1
SIDES = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}


class QuadratureRule:
    """Tensor Gauss-Legendre rule over the spans of per-direction breakpoints."""

    def __init__(self, breaks_per_dir, n_points_per_dir):
        self.breaks = tuple(np.asarray(b, dtype=float) for b in breaks_per_dir)
        self.n_points = tuple(int(n) for n in n_points_per_dir)
        self.points = []
        self.weights = []
        for b, n in zip(self.breaks, self.n_points):
            pts, wts = panel_rule(b, n)
            if np.any(wts <= 0):
                raise ConstructionError("quadrature weights must be positive")
            self.points.append(pts)
            self.weights.append(wts)

    def axis_points(self, j: int) -> np.ndarray:
        """All quadrature points along direction j, flattened over elements."""
        return self.points[j].ravel()

    def axis_weights(self, j: int) -> np.ndarray:
        return self.weights[j].ravel()

    @property
    def element_counts(self):
        return tuple(p.shape[0] for p in self.points)


class NurbsPatch:
    """Rational tensor-product map from [0,1]^2 with separable weights.

    Parameters
    ----------
    bases : (Basis1D, Basis1D)
        Geometry bases per direction (weights included).
    control : ndarray, shape (nb1, nb2, 2)
        Control point grid.

    The Jacobian determinant is required to be strictly positive; this is
    checked on a dense sample grid at construction.
    """

    def __init__(self, bases, control, check: bool = True):
        bases = tuple(bases)
        if len(bases) != 2 or not all(isinstance(b, Basis1D) for b in bases):
            raise ConstructionError("bases must be two Basis1D instances")
        control = np.ascontiguousarray(control, dtype=float)
        expected = (bases[0].num_basis, bases[1].num_basis, 2)
        if control.shape != expected:
            raise ConstructionError(f"control grid must have shape {expected}")
        self.bases = bases
        self.control = control
        self.control.flags.writeable = False
        self.orientation_sign = 1
        if check:
            self._check_regularity()

    def _check_regularity(self):
        axes = []
        for b in self.bases:
            brk = b.breakpoints
            fine = np.concatenate([np.linspace(a, c, 9)[:-1] for a, c in zip(brk, brk[1:])])
            axes.append(np.append(fine, brk[-1]))
        det = self.jacobian_grid(axes[0], axes[1])[1]
        if np.any(det <= 0.0):
            raise DegenerateGeometryError(
                f"nonpositive Jacobian determinant (min {det.min():.3e})"
            )

    # -- evaluation ---------------------------------------------------------

    def _tables(self, axes):
        """Dense (values, derivatives) tables per direction, one window call each."""
        out = []
        for b, x in zip(self.bases, axes):
            spans, vals, ders = b.window(np.asarray(x, dtype=float))
            out.append((b._scatter(spans, vals), b._scatter(spans, ders)))
        return out

    def _on_grid(self, t1, t2) -> np.ndarray:
        """sum_ij t1[x, i] t2[y, j] control[i, j], contracted one direction at a time."""
        partial = np.tensordot(t1, self.control, axes=(1, 0))  # (m1, nb2, 2)
        return np.einsum("yj,xjc->xyc", t2, partial, optimize=True)

    def _at_points(self, t1, t2) -> np.ndarray:
        """sum_ij t1[x, i] t2[x, j] control[i, j] at scattered points."""
        return np.einsum("xj,xjc->xc", t2, np.tensordot(t1, self.control, axes=(1, 0)))

    def map_grid(self, x_axis, y_axis) -> np.ndarray:
        """Physical points over a tensor grid, shape (m1, m2, 2)."""
        (v1, _), (v2, _) = self._tables((x_axis, y_axis))
        return self._on_grid(v1, v2)

    def jacobian_grid(self, x_axis, y_axis):
        """Jacobian (m1, m2, 2, 2) and its determinant (m1, m2) on a tensor grid."""
        (v1, d1), (v2, d2) = self._tables((x_axis, y_axis))
        col1 = self._on_grid(d1, v2)
        col2 = self._on_grid(v1, d2)
        jac = np.stack((col1, col2), axis=-1)  # [..., component, direction]
        det = col1[..., 0] * col2[..., 1] - col1[..., 1] * col2[..., 0]
        return jac, det

    def map_point(self, u) -> np.ndarray:
        """Physical image of scattered parametric points (..., 2)."""
        u = np.asarray(u, dtype=float)
        pts = u.reshape(-1, 2)
        (v1, _), (v2, _) = self._tables((pts[:, 0], pts[:, 1]))
        return self._at_points(v1, v2).reshape(u.shape)

    def jacobian(self, u) -> np.ndarray:
        """Jacobian at scattered parametric points (..., 2, 2); det must stay positive."""
        u = np.asarray(u, dtype=float)
        pts = u.reshape(-1, 2)
        (v1, d1), (v2, d2) = self._tables((pts[:, 0], pts[:, 1]))
        col1 = self._at_points(d1, v2)
        col2 = self._at_points(v1, d2)
        jac = np.stack((col1, col2), axis=-1)
        det = col1[:, 0] * col2[:, 1] - col1[:, 1] * col2[:, 0]
        if np.any(det <= 0.0):
            raise DegenerateGeometryError("nonpositive Jacobian determinant")
        return jac.reshape(u.shape + (2,))

    def pullback_components(self, k: int, u, components) -> np.ndarray:
        """Reference components of a physical k-form at parametric points.

        0-forms compose; 1-form components transform by J^T; 2-form
        densities pick up the factor det J, so integrals over mapped
        cells equal reference integrals of the pulled-back form.
        """
        u = np.asarray(u, dtype=float)
        components = np.asarray(components, dtype=float)
        if k == 0:
            return components
        jac = self.jacobian(u)
        if k == 1:
            return np.einsum("...cd,...c->...d", jac, components)
        if k == 2:
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            return components * det
        raise ConstructionError("pullback implemented for k in {0, 1, 2}")

    # -- sides --------------------------------------------------------------

    def side_points(self, side: str, t) -> np.ndarray:
        """Parametric points of a side at 1D coordinates t (along the side axis)."""
        axis, end = SIDES[side]
        t = np.asarray(t, dtype=float)
        uv = np.empty(t.shape + (2,))
        uv[..., 1 - axis] = t
        uv[..., axis] = float(end)
        return uv

    def side_tangent(self, side: str, t) -> np.ndarray:
        """d(Phi o side)/dt, the physical tangent along the side parametrization."""
        axis, _ = SIDES[side]
        jac = self.jacobian(self.side_points(side, t))
        return jac[..., :, 1 - axis]

    def quadrature(self, field_breaks, n_points) -> QuadratureRule:
        return QuadratureRule(field_breaks, n_points)

    def __repr__(self):
        degs = tuple(b.degree for b in self.bases)
        return f"NurbsPatch(degrees={degs}, control={self.control.shape[:2]})"


class MultiPatch:
    """Patches glued C0 along matching sides.

    glue entries are (patch_a, side_a, patch_b, side_b, sign); the index
    map along every interface is the identity in the shared side
    coordinate (knot vectors of glued sides must coincide), and sign
    records the relative orientation (+1 throughout for the geometries
    built here).
    """

    def __init__(self, patches, glue, check: bool = True):
        self.patches = list(patches)
        self.glue = [tuple(g) for g in glue]
        for g in self.glue:
            if len(g) != 5 or g[1] not in SIDES or g[3] not in SIDES:
                raise ConstructionError("glue entries are (a, side_a, b, side_b, sign)")
            if g[4] != 1:
                raise ConstructionError("only identity-orientation gluing is supported")
        if check:
            self._check_interfaces()

    def _check_interfaces(self, tol: float = 1e-12):
        t = np.linspace(0.0, 1.0, 33)
        for a, side_a, b, side_b, _ in self.glue:
            pa = self.patches[a].map_point(self.patches[a].side_points(side_a, t))
            pb = self.patches[b].map_point(self.patches[b].side_points(side_b, t))
            gap = np.abs(pa - pb).max()
            if gap > tol:
                raise ConstructionError(
                    f"glued sides of patches {a} and {b} disagree by {gap:.3e}"
                )

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    def boundary_sides(self):
        """(patch index, side) pairs not consumed by any interface."""
        used = {(g[0], g[1]) for g in self.glue} | {(g[2], g[3]) for g in self.glue}
        return [
            (i, side)
            for i in range(self.n_patches)
            for side in ("left", "right", "bottom", "top")
            if (i, side) not in used
        ]


def _linear_basis(n_spans: int = 1) -> Basis1D:
    return Basis1D(KnotVector(uniform_open_knots(1, n_spans), 1))


def unit_square_patch() -> NurbsPatch:
    """Identity map on the unit square (bilinear, one element)."""
    b = _linear_basis()
    grid = np.array([0.0, 1.0])
    control = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    return NurbsPatch((b, b), control)


def curved_square_patch(amplitude: float = 0.1, spans: int = 1, degree: int = 4) -> NurbsPatch:
    """Fixed smooth non-affine bijection of the unit square onto itself.

    Control points sit on the Greville grid, displaced in both coordinates
    by amplitude * sin(2 pi u) * sin(2 pi v) sampled at the grid.  The
    default is a single polynomial (quartic) element, so the map is
    analytic inside the square and super-parametric for every field
    degree; the rank-one displacement keeps det J positive.  The boundary
    is reproduced identically.
    """
    b = Basis1D(KnotVector(uniform_open_knots(degree, spans), degree))
    g = b.greville_points()
    gx, gy = np.meshgrid(g, g, indexing="ij")
    bump = amplitude * np.sin(2.0 * np.pi * gx) * np.sin(2.0 * np.pi * gy)
    control = np.stack((gx + bump, gy + bump), axis=-1)
    return NurbsPatch((b, b), control)


def quarter_annulus_patch(quadrant: int, r_in: float = 1.0, r_out: float = 2.0) -> NurbsPatch:
    """Exact quarter annulus: radial direction first (degree 1), angular second (degree 2).

    The angular direction is a rational quadratic arc with middle weight
    sqrt(2)/2, which traces the circle exactly.  Direction ordering keeps
    det J positive.
    """
    theta0 = quadrant * 0.5 * np.pi
    angles = theta0 + np.array([0.0, 0.25, 0.5]) * np.pi
    # arc control points: ends on the circle, middle at the tangent intersection
    arc = np.column_stack((np.cos(angles), np.sin(angles)))
    arc[1] /= np.cos(0.25 * np.pi)
    radial = _linear_basis()
    angular = Basis1D(
        KnotVector([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2),
        np.array([1.0, np.sqrt(2.0) / 2.0, 1.0]),
    )
    radii = np.array([r_in, r_out])
    control = radii[:, None, None] * arc[None, :, :]
    return NurbsPatch((radial, angular), control)


def build_taylor_couette(r_in: float = 1.0, r_out: float = 2.0) -> MultiPatch:
    """Annulus between two cylinders as four C0 quarter patches.

    Sides: 'left' is the inner circle, 'right' the outer circle, and the
    angular ends ('bottom'/'top') are glued to the neighbouring quadrant.
    """
    patches = [quarter_annulus_patch(q, r_in, r_out) for q in range(4)]
    glue = [(q, "top", (q + 1) % 4, "bottom", 1) for q in range(4)]
    return MultiPatch(patches, glue)
