"""Mass matrices, the mixed saddle system, boundary conditions and the solve."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg as spla

from splineforms.assembly import (
    BCSpec,
    _glued_numbering,
    _side_flux_integrals,
    apply_strong_normal_velocity,
    apply_weak_tangential_velocity,
    assemble_mass,
    assemble_vvp,
    solve,
)
from splineforms.errors import ConstructionError, FluxCompatibilityError
from splineforms.geometry import (
    SIDES,
    NurbsPatch,
    build_taylor_couette,
    curved_square_patch,
    unit_square_patch,
)
from splineforms.harness import manufactured_fields
from splineforms.spaces import DiscreteForm, DiscreteFormSpace, vvp_spaces
from splineforms.splines import Basis1D, KnotVector, uniform_open_knots
from splineforms.projection import greville_edges
from splineforms._quadrature import panel_rule, split_interval


def make_basis(p, spans):
    return Basis1D(KnotVector(uniform_open_knots(p, spans), p))


def make_spaces(p_nodal, spans):
    return vvp_spaces((make_basis(p_nodal, spans), make_basis(p_nodal, spans)))


def scaled_patch(s):
    base = unit_square_patch()
    return NurbsPatch(base.bases, base.control * s)


EXACT = manufactured_fields()


def manufactured_system(p_vel=2, spans=8, nu=1.0, patch=None, n_quad=None):
    spaces = make_spaces(p_vel + 1, spans)
    system = assemble_vvp(
        spaces, patch or unit_square_patch(), nu=nu, forcing=EXACT["forcing"], n_quad=n_quad
    )
    return system, spaces


class TestMassMatrices:
    def test_hat_gram_tensor(self):
        b = Basis1D(KnotVector([0, 0, 1, 1], 1))
        M = assemble_mass(DiscreteFormSpace((b, b), 0), unit_square_patch()).matrix.toarray()
        one_d = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        npt.assert_allclose(M, np.kron(one_d, one_d), atol=1e-15)

    def test_area_form_mass_against_dense_quadrature(self):
        space = DiscreteFormSpace((make_basis(3, 3), make_basis(2, 2)), 2)
        M = assemble_mass(space, unit_square_patch()).matrix.toarray()
        # independent route: dense edge tables on a global panel rule
        ex, ey = space.blocks[0].factors
        px, wx = panel_rule(ex.breakpoints, 12)
        py, wy = panel_rule(ey.breakpoints, 12)
        tx = ex.eval_edge_many(px.ravel())
        ty = ey.eval_edge_many(py.ravel())
        gram_x = np.einsum("qi,qj,q->ij", tx, tx, wx.ravel())
        gram_y = np.einsum("qi,qj,q->ij", ty, ty, wy.ravel())
        npt.assert_allclose(M, np.kron(gram_y, gram_x), atol=1e-13)

    def test_scaling_map_weights(self):
        b = make_basis(2, 2)
        s0 = DiscreteFormSpace((b, b), 0)
        s2 = DiscreteFormSpace((b, b), 2)
        M0 = assemble_mass(s0, unit_square_patch()).matrix.toarray()
        M2 = assemble_mass(s2, unit_square_patch()).matrix.toarray()
        M0s = assemble_mass(s0, scaled_patch(2.0)).matrix.toarray()
        M2s = assemble_mass(s2, scaled_patch(2.0)).matrix.toarray()
        npt.assert_allclose(M0s, 4.0 * M0, atol=1e-14)
        npt.assert_allclose(M2s, 0.25 * M2, atol=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_spd_on_curved_patch(self, k):
        space = DiscreteFormSpace((make_basis(3, 4), make_basis(3, 4)), k)
        M = assemble_mass(space, curved_square_patch()).matrix.toarray()
        asym = np.abs(M - M.T).max() / np.abs(M).max()
        assert asym < 1e-13
        np.linalg.cholesky(M)  # raises if not positive definite


class TestSystemAssembly:
    def test_symmetry_on_all_meshes(self):
        for patch in (unit_square_patch(), curved_square_patch()):
            system = assemble_vvp(make_spaces(4, 4), patch)
            assert system.asymmetry() < 1e-12
        mp = build_taylor_couette()
        triples = [make_spaces(3, 3) for _ in range(4)]
        assert assemble_vvp(triples, mp).asymmetry() < 1e-12

    def test_zero_data_zero_solution(self):
        system, _ = manufactured_system(p_vel=1, spans=4)
        system.rhs[:] = 0.0  # strip the forcing; homogeneous BC
        apply_strong_normal_velocity(system)
        sol = solve(system)
        assert np.abs(sol.omega).max() < 1e-12
        assert np.abs(sol.u).max() < 1e-12
        assert np.abs(sol.p).max() < 1e-12

    def test_forcing_vector_against_quadrature_oracle(self):
        # pin the assembly rule high enough to resolve the trigonometric
        # forcing; the oracle then has to agree to near machine precision
        system, spaces = manufactured_system(p_vel=2, spans=4, n_quad=10)
        s1 = spaces[1]
        rhs_u = system.rhs[system.n0 : system.n0 + system.n1]
        fx, fy = EXACT["forcing"]
        # independent route: dense reconstruction of each basis function
        pts, wts = panel_rule(s1.nodal_bases[0].breakpoints, 14)
        flat, w = pts.ravel(), wts.ravel()
        rng = np.random.default_rng(0)
        for j in rng.choice(s1.dim, size=6, replace=False):
            e = np.zeros(s1.dim)
            e[j] = 1.0
            comps = DiscreteForm(s1, e).eval_grid((flat, flat))
            X, Y = np.meshgrid(flat, flat, indexing="ij")
            oracle = np.einsum(
                "xy,x,y->", comps[0] * fx(X, Y) + comps[1] * fy(X, Y), w, w
            )
            assert abs(rhs_u[j] - oracle) < 1e-11 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("nu", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_or_nonfinite_viscosity_rejected(self, nu):
        with pytest.raises(ConstructionError):
            assemble_vvp(make_spaces(2, 2), unit_square_patch(), nu=nu)

    def test_pressure_bc_hook_not_implemented(self):
        with pytest.raises(NotImplementedError):
            BCSpec(normal_sides=(), pressure_sides=((0, "top"),))


class TestBoundaryConditions:
    def test_manufactured_normal_dofs_are_exact_integrals(self):
        system, _ = manufactured_system(p_vel=2, spans=6)
        apply_strong_normal_velocity(system, EXACT["velocity"])
        # the sinusoidal field has zero normal trace on the whole boundary;
        # each side carries one coefficient per edge function (spans + degree)
        vals = np.array(list(system.fixed.values()))
        assert vals.size == 4 * (6 + 2)
        assert np.abs(vals).max() < 1e-13

    def test_cavity_compatibility_sum(self):
        system, _ = manufactured_system(p_vel=1, spans=5)
        apply_strong_normal_velocity(system)  # zero data everywhere
        assert np.abs(np.array(list(system.fixed.values()))).max() == 0.0

    def test_incompatible_data_raises(self):
        system, _ = manufactured_system(p_vel=1, spans=4)
        expanding = lambda x, y: (x, y)  # net outward flux 2|domain|
        with pytest.raises(FluxCompatibilityError):
            apply_strong_normal_velocity(system, expanding)

    def test_lid_term_supported_on_top_row_only(self):
        system, spaces = manufactured_system(p_vel=2, spans=5)
        b1 = apply_weak_tangential_velocity(
            system, {(0, "top"): lambda x, y: (np.ones_like(x), np.zeros_like(y))}
        )
        s = spaces[0].blocks[0].shape
        grid = b1.reshape(s, order="F")
        assert np.abs(grid[:, :-1]).max() == 0.0
        assert np.abs(grid[:, -1]).max() > 0.0

    def test_zero_tangential_data_gives_zero(self):
        system, _ = manufactured_system(p_vel=1, spans=4)
        b1 = apply_weak_tangential_velocity(system, None)
        assert np.abs(b1).max() == 0.0


def looped_side_flux(system, p, side, vfun):
    """Side flux integrals one Greville interval at a time."""
    patch = system.patches[p]
    t_dir = 1 - SIDES[side][0]
    basis = system.spaces[p][0].nodal_bases[t_dir]
    n_g = basis.degree + patch.bases[t_dir].degree + 3
    out = []
    for a, b in greville_edges(basis):
        pts, wts = panel_rule(split_interval(a, b, basis.breakpoints), n_g)
        t = pts.ravel()
        tan = patch.side_tangent(side, t)
        v = np.asarray(vfun(*patch.map_point(patch.side_points(side, t)).T)).T
        out.append(np.dot(v[:, 0] * tan[:, 1] - v[:, 1] * tan[:, 0], wts.ravel()))
    return np.array(out)


class TestBatchedSideIntegrals:
    @pytest.mark.parametrize("geometry", ["curved-square", "annulus"])
    def test_flux_integrals_match_loop(self, geometry):
        vfun = lambda x, y: (x + y**2, np.sin(x) * y - 0.5)
        if geometry == "annulus":
            system = assemble_vvp([make_spaces(3, 5) for _ in range(4)], build_taylor_couette())
        else:
            system, _ = manufactured_system(p_vel=2, spans=5, patch=curved_square_patch())
        for p, side in system._boundary_sides():
            want = looped_side_flux(system, p, side, vfun)
            got = _side_flux_integrals(system, p, side, vfun)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_glued_numbering_of_a_ring():
    # three two-dof patches glued end to start: components in order of
    # their smallest member, {0, 5}, {1, 2}, {3, 4}
    pairs = [((0, np.array([1])), (1, np.array([0]))),
             ((1, np.array([1])), (2, np.array([0]))),
             ((2, np.array([1])), (0, np.array([0])))]
    maps, n = _glued_numbering([2, 2, 2], pairs)
    assert n == 3
    assert [m.tolist() for m in maps] == [[0, 1], [1, 2], [2, 0]]
    maps, n = _glued_numbering([3, 2], [])
    assert n == 5 and [m.tolist() for m in maps] == [[0, 1, 2], [3, 4]]


class TestSolve:
    def test_residual_and_exact_divergence(self):
        system, _ = manufactured_system(p_vel=2, spans=8)
        apply_strong_normal_velocity(system, EXACT["velocity"])
        apply_weak_tangential_velocity(system, EXACT["velocity"])
        sol = solve(system)
        assert sol.residual < 1e-10
        assert np.abs(sol.divergence_cochain(0)).max() < 1e-12

    def test_taylor_couette_constant_pressure(self):
        mp = build_taylor_couette()
        triples = [make_spaces(3, 4) for _ in range(4)]
        system = assemble_vvp(triples, mp)
        data = {(p, "left"): (lambda x, y: (-y, x)) for p in range(4)}
        apply_strong_normal_velocity(system)
        apply_weak_tangential_velocity(system, data)
        sol = solve(system)
        assert np.abs(sol.p - sol.p.mean()).max() < 1e-10
        assert np.abs(sol.omega - (-2.0 / 3.0)).max() < 1e-9

    def test_gauge_invariance(self):
        # shifting the pressure along the constant physical mode changes the
        # residual only in the gauge row (boundary velocity rows are fixed)
        system, _ = manufactured_system(p_vel=1, spans=5)
        apply_strong_normal_velocity(system, EXACT["velocity"])
        apply_weak_tangential_velocity(system, EXACT["velocity"])
        sol = solve(system)
        M2 = system.mass[0][2]
        shift = spla.spsolve(M2.tocsc(), np.ones(system.n2))
        x = np.concatenate((sol.omega, sol.u, sol.p, [sol.multiplier]))
        x_shift = x.copy()
        x_shift[system.n0 + system.n1 : system.n0 + system.n1 + system.n2] += shift
        delta = system.matrix @ (x_shift - x)
        fixed = system.n0 + np.array(sorted(system.fixed))
        free = np.setdiff1d(np.arange(system.size - 1), fixed)
        assert np.abs(delta[free]).max() < 1e-11
        assert abs(delta[-1]) > 0.1  # the gauge row sees the shift

    def test_viscosity_rescaling(self):
        data = EXACT["velocity"]
        system1, _ = manufactured_system(p_vel=2, spans=6, nu=1.0)
        apply_strong_normal_velocity(system1, data)
        apply_weak_tangential_velocity(system1, data)
        sol1 = solve(system1)
        scaled = lambda x, y: tuple(c / 10.0 for c in data(x, y))
        system10, _ = manufactured_system(p_vel=2, spans=6, nu=10.0)
        apply_strong_normal_velocity(system10, scaled)
        apply_weak_tangential_velocity(system10, scaled)
        sol10 = solve(system10)
        npt.assert_allclose(sol10.omega, sol1.omega / 10.0, atol=1e-10)
        npt.assert_allclose(sol10.u, sol1.u / 10.0, atol=1e-10)
        npt.assert_allclose(sol10.p, sol1.p, atol=1e-9)


def mixed_reference(system):
    """Test-only reference: spsolve of the reduced mixed (omega, u, p, lambda) system."""
    n0, n1, n2 = system.n0, system.n1, system.n2
    fixed = n0 + np.array(sorted(system.fixed), dtype=int)
    values = np.array([system.fixed[i - n0] for i in fixed])
    keep = np.setdiff1d(np.arange(system.size), fixed)
    A = system.matrix.tocsc()
    b = system.rhs - A[:, fixed] @ values
    x = np.empty(system.size)
    x[fixed] = values
    x[keep] = spla.spsolve(A[keep][:, keep], b[keep])
    return x[:n0], x[n0 : n0 + n1], x[n0 + n1 : n0 + n1 + n2]


def _manufactured_case(patch, bc=None):
    system = assemble_vvp(make_spaces(3, 6), patch, bc=bc, forcing=EXACT["forcing"])
    apply_strong_normal_velocity(system, EXACT["velocity"])
    apply_weak_tangential_velocity(system, EXACT["velocity"])
    return system


def _annulus_case(normal=None, tangential=None):
    system = assemble_vvp([make_spaces(3, 4) for _ in range(4)], build_taylor_couette())
    apply_strong_normal_velocity(system, normal)
    apply_weak_tangential_velocity(system, tangential)
    return system


def _source_flow(x, y):
    r2 = x * x + y * y
    return x / r2, y / r2


SOLVE_CASES = {
    "unit-square": lambda: _manufactured_case(unit_square_patch()),
    "curved-square": lambda: _manufactured_case(curved_square_patch()),
    "taylor-couette": lambda: _annulus_case(
        tangential={(p, "left"): (lambda x, y: (-y, x)) for p in range(4)}
    ),
    "top-side-free": lambda: _manufactured_case(
        unit_square_patch(), BCSpec(normal_sides=((0, "left"), (0, "right"), (0, "bottom")))
    ),
    "annulus-source-flow": lambda: _annulus_case(_source_flow, _source_flow),
}


class TestSubspaceSolve:
    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_matches_mixed_reference(self, case):
        system = SOLVE_CASES[case]()
        assert system.gauge == (case != "top-side-free")
        sol = solve(system)
        for got, ref in zip((sol.omega, sol.u, sol.p), mixed_reference(system)):
            assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_tiny_viscosity_is_a_rescaling(self):
        # the cavity of `run cavity --nu 1e-8 --spans 12`: Stokes velocity and
        # vorticity do not depend on nu, pressure scales with it
        def cavity(nu):
            system = assemble_vvp(make_spaces(3, 12), unit_square_patch(), nu=nu)
            apply_strong_normal_velocity(system)
            lid = {(0, "top"): lambda x, y: (np.ones_like(x), np.zeros_like(y))}
            apply_weak_tangential_velocity(system, lid)
            return solve(system)

        unit, tiny = cavity(1.0), cavity(1e-8)
        assert tiny.residual < 1e-10
        for a, b in ((tiny.omega, unit.omega), (tiny.u, unit.u), (tiny.p / 1e-8, unit.p)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_stats(self):
        system = _annulus_case(tangential={(p, "left"): (lambda x, y: (-y, x)) for p in range(4)})
        stats = solve(system).stats
        assert stats["dofs"] == system.size
        # one vorticity per node; one stream unknown per interior node, plus
        # the inner-circle constant (each circle has 4 x 6 nodes)
        interior = system.n0 - 2 * 4 * 6
        assert stats["unknowns"] == system.n0 + interior + 1
        assert stats["lu_nnz"] > stats["unknowns"]
        assert stats["refine_steps"] == 1


class TestPointwiseDivergence:
    def test_divergence_free_reconstruction(self):
        system, spaces = manufactured_system(p_vel=2, spans=8, patch=curved_square_patch())
        apply_strong_normal_velocity(system, EXACT["velocity"])
        apply_weak_tangential_velocity(system, EXACT["velocity"])
        sol = solve(system)
        _, fu, _ = sol.forms(0)
        rng = np.random.default_rng(77)
        ax = np.sort(rng.uniform(0.01, 0.99, 25))
        ay = np.sort(rng.uniform(0.01, 0.99, 20))
        dvals = fu.exterior_derivative().eval_grid((ax, ay))[0]
        _, det = curved_square_patch().jacobian_grid(ax, ay)
        assert np.abs(dvals / det).max() < 1e-9
