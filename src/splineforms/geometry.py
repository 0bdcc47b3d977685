"""NURBS patch mappings, pullbacks and benchmark geometries.

A patch maps the reference square onto a planar region through a
tensor-product rational basis with separable weights, so the map is a
product of univariate rational bases.  Pullbacks move 0/1/2-form
components between the physical and reference pictures; integrals over
mapped cells are then plain reference-domain quadratures.  The map and
its derivatives are contractions of the control net with the sparse
collocation matrices of the two bases (``splines.grid_values``), on a
tensor grid, at scattered points or along a side curve.  All of the
2x2 algebra (determinant, adjugate, pullback, pushforward and the mass
metric) lives in the functions below that act on an evaluated Jacobian
``jac[..., component, direction]``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError, DegenerateGeometryError
from .splines import Basis1D, KnotVector, grid_values, stored_window, uniform_open_knots

__all__ = [
    "GridAxis",
    "NurbsPatch",
    "SideCurve",
    "MultiPatch",
    "unit_square_patch",
    "curved_square_patch",
    "quarter_annulus_patch",
    "build_taylor_couette",
    "build_self_glued_annulus",
    "SIDES",
    "boundary_sides",
    "jacobian_det",
    "adjugate_apply",
    "adjugate_transpose_apply",
    "pullback",
    "pushforward_1form",
    "mass_metric",
]

# side name -> (axis, end): 'left' is u1=0, 'right' u1=1, 'bottom' u2=0, 'top' u2=1
SIDES = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}


def boundary_sides(n_patches: int, glue):
    """(patch index, side) pairs that no glue entry uses, by patch and then side."""
    used = {(g[0], g[1]) for g in glue} | {(g[2], g[3]) for g in glue}
    return [
        (p, side)
        for p in range(n_patches)
        for side in SIDES
        if (p, side) not in used
    ]


# -- 2x2 pullback algebra on an evaluated Jacobian jac[..., component, direction]


def jacobian_det(jac):
    """det J."""
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 1, 0] * jac[..., 0, 1]


def adjugate_apply(jac, v0, v1):
    """Components of adj(J) v = det J * J^{-1} v."""
    a, b, c, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]
    return d * v0 - b * v1, -c * v0 + a * v1


def adjugate_transpose_apply(jac, v0, v1):
    """Components of adj(J)^T v = det J * J^{-T} v."""
    a, b, c, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]
    return d * v0 - c * v1, -b * v0 + a * v1


def pullback(k: int, jac, components):
    """Reference components of a physical k-form, given J at the same points.

    0-forms compose; 1-form components transform by J^T; 2-form
    densities pick up the factor det J, so integrals over mapped cells
    equal reference integrals of the pulled-back form.
    """
    if k == 0:
        return components
    if k == 1:
        return np.einsum("...cd,...c->...d", jac, components)
    if k == 2:
        return components * jacobian_det(jac)
    raise ConstructionError("pullback implemented for k in {0, 1, 2}")


def pushforward_1form(jac, det, v0, v1):
    """Physical components J^{-T} v of a 1-form with reference components (v0, v1)."""
    x, y = adjugate_transpose_apply(jac, v0, v1)
    return x / det, y / det


def mass_metric(k: int, jac, det, w):
    """Weight w times the k-form inner-product metric, per component pair.

    0-forms carry det J, 2-form densities 1/det J and 1-forms
    J^{-1} J^{-T} det J = adj(J) adj(J)^T / det J, computed in place.
    """
    if k not in (0, 1, 2):
        raise ConstructionError(f"mass metric implemented for k in {{0, 1, 2}}, got {k!r}")
    if k == 0:
        return {(0, 0): det * w}
    scaled = w / det
    if k == 2:
        return {(0, 0): scaled}
    a, b, c, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]
    g00, g01, g11 = d * d, c * d, c * c
    g00 += b * b
    g01 += a * b
    g11 += a * a
    np.negative(g01, out=g01)
    for g in (g00, g01, g11):
        g *= scaled
    return {(0, 0): g00, (0, 1): g01, (1, 0): g01, (1, 1): g11}


@dataclass(frozen=True)
class SideCurve:
    """One side of a patch as a 1D NURBS curve along the side coordinate.

    ``control`` (n, 2) is the side's row of control points in ``basis``;
    ``transverse`` (n, 2) is the row whose combination in ``basis`` is the
    derivative of the map across the side, in parametric direction ``axis``.
    """

    axis: int
    basis: Basis1D
    control: np.ndarray
    transverse: np.ndarray

    def frame(self, colloc):
        """Physical points and tangents (m, 2) from ``basis.collocation`` of the side coordinates.

        Raises DegenerateGeometryError where the Jacobian determinant of
        the patch is not positive (or not a number).
        """
        vals, ders = colloc
        points = vals @ self.control
        tangent = ders @ self.control
        across = vals @ self.transverse
        cols = (across, tangent) if self.axis == 0 else (tangent, across)
        det = jacobian_det(np.stack(cols, axis=-1))
        if not np.all(det > 0.0):
            raise DegenerateGeometryError(
                f"nonpositive Jacobian determinant on a side (min {det.min():.3e})"
            )
        return points, tangent


class GridAxis:
    """Parametric points of one grid direction with the geometry tables at them.

    ``geometry(basis)`` is the (values, derivatives) collocation of a
    geometry basis at ``pts``, built on first request.  Patches and
    directions handed one ``GridAxis`` share its tables, for as long as
    its owner keeps it: a per-basis cache entry, or one call.  The tables
    hold their bases weakly: an entry kept for a field basis that is also
    the geometry basis would otherwise keep that basis, and so itself, alive.
    """

    def __init__(self, pts):
        self.pts = pts
        self._tables = weakref.WeakKeyDictionary()

    def geometry(self, basis):
        if basis not in self._tables:
            self._tables[basis] = basis.collocation(self.pts)
        return self._tables[basis]


# det J and the mass metrics multiply Jacobian entries in pairs: entries up
# to 1e150 keep those products below 1e300, with room for the points
# between the samples of the regularity check
_JACOBIAN_LIMIT = 1e150


class NurbsPatch:
    """Rational tensor-product map from [0,1]^2 with separable weights.

    Parameters
    ----------
    bases : (Basis1D, Basis1D)
        Geometry bases per direction (weights included).
    control : ndarray, shape (nb1, nb2, 2)
        Control point grid.

    Control points must be finite, and the Jacobian determinant strictly
    positive and its products finite; this is checked on a dense sample
    grid at construction.
    """

    def __init__(self, bases, control, check: bool = True):
        bases = tuple(bases)
        if len(bases) != 2 or not all(isinstance(b, Basis1D) for b in bases):
            raise ConstructionError("bases must be two Basis1D instances")
        control = np.ascontiguousarray(control, dtype=float)
        expected = (bases[0].num_basis, bases[1].num_basis, 2)
        if control.shape != expected:
            raise ConstructionError(f"control grid must have shape {expected}")
        if not np.all(np.isfinite(control)):
            raise ConstructionError("control points must be finite")
        self.bases = bases
        self.control = control
        self.control.flags.writeable = False
        self._side_curves = {}
        if check:
            self._check_regularity()

    def _check_regularity(self):
        axes = []
        for b in self.bases:
            brk = b.breakpoints
            fine = np.concatenate([np.linspace(a, c, 9)[:-1] for a, c in zip(brk, brk[1:])])
            axes.append(np.append(fine, brk[-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            jac, det = self.jacobian_grid(axes[0], axes[1])
        largest = np.abs(jac).max()
        if not largest < _JACOBIAN_LIMIT:
            raise DegenerateGeometryError(
                f"Jacobian entries reach {largest:.3e}, above {_JACOBIAN_LIMIT:.0e}, "
                f"where det J overflows"
            )
        if not np.all(det > 0.0):
            raise DegenerateGeometryError(
                f"nonpositive Jacobian determinant (min {det.min():.3e})"
            )

    # -- evaluation ---------------------------------------------------------

    def _collocation(self, axes):
        """(values, derivatives) collocation matrices of ``bases``, one per direction.

        An axis is an array of parametric coordinates (one window call) or
        a ``GridAxis``, whose table other patches and directions may share.
        """
        return [(a if isinstance(a, GridAxis) else GridAxis(a)).geometry(b)
                for b, a in zip(self.bases, axes)]

    def _at_points(self, b1, b2) -> np.ndarray:
        """sum_ij b1[x, i] b2[x, j] control[i, j] at scattered points x."""
        partial = grid_values(self.control, (b1,))  # (m, nb2, 2)
        cols, vals = stored_window(b2)
        return np.einsum("xk,xkc->xc", vals, partial[np.arange(cols.shape[0])[:, None], cols])

    def map_grid(self, x_axis, y_axis) -> np.ndarray:
        """Physical points over a tensor grid, shape (m1, m2, 2)."""
        (v1, _), (v2, _) = self._collocation((x_axis, y_axis))
        return grid_values(self.control, (v1, v2))

    def jacobian_grid(self, x_axis, y_axis):
        """Jacobian (m1, m2, 2, 2) and its determinant (m1, m2) on a tensor grid.

        The Jacobian views a component-major (2, 2, m1, m2) buffer, filled
        by one product with the block-diagonal direction-1 tables after
        direction 2 is contracted (the order of ``grid_values``).
        """
        (v1, d1), (v2, d2) = self._collocation((x_axis, y_axis))
        nb1, nb2, _ = self.control.shape
        front = self.control.transpose(1, 0, 2).reshape(nb2, 2 * nb1)
        half = [(b2 @ front).reshape(-1, nb1, 2) for b2 in (v2, d2)]
        ops = (d1, v1) * 2
        ends = np.cumsum([0] + [op.nnz for op in ops])
        blocks = sp.csr_matrix(
            (np.concatenate([op.data for op in ops]),
             np.concatenate([op.indices + i * nb1 for i, op in enumerate(ops)]),
             np.concatenate([op.indptr[:-1] + end for op, end in zip(ops, ends)] + [ends[-1:]])),
            shape=(4 * v1.shape[0], 4 * nb1))
        buf = blocks @ np.concatenate([half[d][..., c].T for c in range(2) for d in range(2)])
        jac = buf.reshape(2, 2, v1.shape[0], v2.shape[0]).transpose(2, 3, 0, 1)
        return jac, jacobian_det(jac)

    def map_point(self, u) -> np.ndarray:
        """Physical image of scattered parametric points (..., 2)."""
        u = np.asarray(u, dtype=float)
        (v1, _), (v2, _) = self._collocation(u.reshape(-1, 2).T)
        return self._at_points(v1, v2).reshape(u.shape)

    def jacobian(self, u) -> np.ndarray:
        """Jacobian at scattered parametric points (..., 2, 2); det must stay positive."""
        u = np.asarray(u, dtype=float)
        (v1, d1), (v2, d2) = self._collocation(u.reshape(-1, 2).T)
        jac = np.stack((self._at_points(d1, v2), self._at_points(v1, d2)), axis=-1)
        if not np.all(jacobian_det(jac) > 0.0):
            raise DegenerateGeometryError("nonpositive Jacobian determinant")
        return jac.reshape(u.shape + (2,))

    def pullback_components(self, k: int, u, components) -> np.ndarray:
        """Reference components of a physical k-form at parametric points (see ``pullback``)."""
        return pullback(k, self.jacobian(u), np.asarray(components, dtype=float))

    # -- sides --------------------------------------------------------------

    def side_points(self, side: str, t) -> np.ndarray:
        """Parametric points of a side at 1D coordinates t (along the side axis).

        The side sits at the start or end of the knot domain across it.
        """
        axis, end = SIDES[side]
        t = np.asarray(t, dtype=float)
        uv = np.empty(t.shape + (2,))
        uv[..., 1 - axis] = t
        uv[..., axis] = self.bases[axis].domain[end]
        return uv

    def side_tangent(self, side: str, t) -> np.ndarray:
        """d(Phi o side)/dt, the physical tangent along the side parametrization."""
        axis, _ = SIDES[side]
        jac = self.jacobian(self.side_points(side, t))
        return jac[..., :, 1 - axis]

    def side_curve(self, side: str) -> "SideCurve":
        """The side as a 1D NURBS curve, built once per side (the patch is immutable).

        With open knots the transverse basis at a side is a unit vector,
        so the side is its row of control points in the along-side basis;
        the row of transverse derivatives goes with it for the Jacobian
        determinant.
        """
        if side not in self._side_curves:
            axis, end = SIDES[side]
            across = self.bases[axis]
            control = np.moveaxis(self.control, axis, 0)  # (across, along, 2)
            _, d_across = across.collocation([across.domain[end]])
            self._side_curves[side] = SideCurve(
                axis=axis,
                basis=self.bases[1 - axis],
                control=control[-end],
                transverse=grid_values(control, (d_across,))[0],
            )
        return self._side_curves[side]

    def __repr__(self):
        degs = tuple(b.degree for b in self.bases)
        return f"NurbsPatch(degrees={degs}, control={self.control.shape[:2]})"


class MultiPatch:
    """Patches glued C0 along matching sides.

    glue entries are (patch_a, side_a, patch_b, side_b, sign); the index
    map along every interface is the identity in the shared side
    coordinate (the field bases of glued sides must coincide, which
    ``assemble_vvp`` checks), and sign records the relative orientation,
    which must be +1.
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
        """Compare glued side curves at 33 points spread over each side's own knot domain.

        The gap may be ``tol`` times the extent of the two sides' samples
        (their bounding-box diagonal) plus a few ulps of their largest
        coordinate, the rounding floor of coordinates that large.  So the
        check reads the same for a domain scaled about any point or moved
        anywhere.  Sides with the same along-side basis share one
        collocation table.
        """
        tables = {}  # along-side basis -> its collocation at the 33 samples

        def side_samples(patch, side):
            curve = patch.side_curve(side)
            if curve.basis not in tables:
                tables[curve.basis] = curve.basis.collocation(np.linspace(*curve.basis.domain, 33))
            return curve.frame(tables[curve.basis])[0]

        for a, side_a, b, side_b, _ in self.glue:
            pa = side_samples(self.patches[a], side_a)
            pb = side_samples(self.patches[b], side_b)
            both = np.concatenate((pa, pb))
            extent = np.hypot(*np.ptp(both, axis=0))
            allowed = tol * extent + 4 * np.spacing(np.abs(both).max())
            gap = np.abs(pa - pb).max()
            if gap > allowed:
                raise ConstructionError(
                    f"glued sides of patches {a} and {b} disagree by {gap:.3e}, more than "
                    f"{tol:.0e} times their extent {extent:.3e} plus coordinate rounding"
                )

    @property
    def n_patches(self) -> int:
        return len(self.patches)


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


# the geometry bases of every quarter annulus: one object each, so the
# four patches of the annulus share their per-basis work
_RADIAL = _linear_basis()
_ARC = Basis1D(KnotVector([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2),
               np.array([1.0, np.sqrt(2.0) / 2.0, 1.0]))


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
    radii = np.array([r_in, r_out])
    control = radii[:, None, None] * arc[None, :, :]
    return NurbsPatch((_RADIAL, _ARC), control)


def build_taylor_couette(r_in: float = 1.0, r_out: float = 2.0) -> MultiPatch:
    """Annulus between two cylinders as four C0 quarter patches.

    Sides: 'left' is the inner circle, 'right' the outer circle, and the
    angular ends ('bottom'/'top') are glued to the neighbouring quadrant.
    """
    patches = [quarter_annulus_patch(q, r_in, r_out) for q in range(4)]
    glue = [(q, "top", (q + 1) % 4, "bottom", 1) for q in range(4)]
    return MultiPatch(patches, glue)


def build_self_glued_annulus() -> MultiPatch:
    """The annulus between radii 1 and 2 as one patch whose two angular ends are glued.

    Radial direction linear, angular direction the closed rational
    quadratic circle of four quarter arcs (double knots at the quarter
    points).  Sides are named as in ``build_taylor_couette``; the seam at
    angle 0 is the glue ``(0, 'top', 0, 'bottom', 1)``.
    """
    middle = np.sqrt(2.0) / 2.0
    circle = Basis1D(KnotVector([0.0] * 3 + [0.25, 0.25, 0.5, 0.5, 0.75, 0.75] + [1.0] * 3, 2),
                     np.array([1.0, middle] * 4 + [1.0]))
    angles = np.arange(9) * 0.25 * np.pi
    ring = np.column_stack((np.cos(angles), np.sin(angles)))
    ring[1::2] /= middle  # tangent intersections of neighbouring quarter points
    control = np.array([1.0, 2.0])[:, None, None] * ring[None, :, :]
    return MultiPatch([NurbsPatch((_RADIAL, circle), control)], [(0, "top", 0, "bottom", 1)])
