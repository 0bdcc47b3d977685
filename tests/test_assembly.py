"""Mass matrices, the mixed saddle system, boundary conditions and the solve."""

import gc
import itertools
import weakref
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._compressed import _cs_matrix
from scipy.sparse.csgraph import connected_components

from splineforms import assembly, projection
from splineforms.assembly import (
    _PatchGrid,
    _glued_numbering,
    _side_basis,
    _side_ids,
    _side_velocity,
    apply_strong_normal_velocity,
    apply_weak_tangential_velocity,
    assemble_mass,
    assemble_vvp,
    solve,
)
from splineforms.errors import (
    ConstructionError,
    DegenerateGeometryError,
    FluxCompatibilityError,
    SingularSystemError,
)
from splineforms.geometry import (
    SIDES,
    MultiPatch,
    NurbsPatch,
    boundary_sides,
    build_self_glued_annulus,
    build_taylor_couette,
    curved_square_patch,
    mass_metric,
    unit_square_patch,
)
from splineforms.harness import CaseConfig, _bases, _geometry, _solve_level, manufactured_fields
from splineforms.spaces import DiscreteForm, DiscreteFormSpace, vvp_spaces
from splineforms.splines import Basis1D, EdgeBasis1D, KnotVector, stored_window, uniform_open_knots
from splineforms.projection import build_histopolation, greville_edges, greville_reduction
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


def element_loop_mass(space, patch, n_quad=None):
    """Test-only oracle: per-element einsum of the local Gram blocks, summed through COO."""
    tables = []
    for j, b in enumerate(space.nodal_bases):
        nq = n_quad or patch.bases[j].degree + b.degree + 1
        pts, wts = panel_rule(b.breakpoints, nq)
        spans, nvals, _ = b.window(pts.ravel())
        _, evals = EdgeBasis1D(b).window(pts.ravel())
        n_el = pts.shape[0]
        tables.append({
            False: nvals.reshape(n_el, nq, -1),
            True: evals.reshape(n_el, nq, -1),
            "first": spans.reshape(n_el, nq)[:, 0] - b.degree,
            "w": wts,
            "pts": pts.ravel(),
        })
    jac, det = patch.jacobian_grid(tables[0]["pts"], tables[1]["pts"])
    shape4 = tables[0]["w"].shape + tables[1]["w"].shape
    a, b, c, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]
    metric = {
        0: {(0, 0): det},
        1: {(0, 0): (d * d + b * b) / det, (0, 1): -(c * d + a * b) / det,
            (1, 0): -(c * d + a * b) / det, (1, 1): (c * c + a * a) / det},
        2: {(0, 0): 1.0 / det},
    }[space.k]
    quad_w = tables[0]["w"][:, :, None, None] * tables[1]["w"][None, None, :, :]

    def windows(block):
        # per direction: (table (e, q, local), global index of each local function (e, local))
        out = []
        for j in range(2):
            t = tables[j][j in block.dirs]
            out.append((t, tables[j]["first"][:, None] + np.arange(t.shape[2])[None, :]))
        return out

    rows, cols, vals = [], [], []
    for (ia, ib), g in metric.items():
        A, B = space.blocks[ia], space.blocks[ib]
        (ta1, ia1), (ta2, ia2) = windows(A)
        (tb1, ib1), (tb2, ib2) = windows(B)
        W = g.reshape(shape4) * quad_w
        local = np.einsum("aqi,aqj,aqbr,brk,brl->abikjl", ta1, tb1, W, ta2, tb2, optimize=True)
        r = A.offset + ia1[:, None, :, None] + A.shape[0] * ia2[None, :, None, :]
        col = B.offset + ib1[:, None, :, None] + B.shape[0] * ib2[None, :, None, :]
        rows.append(np.broadcast_to(r[:, :, :, :, None, None], local.shape).ravel())
        cols.append(np.broadcast_to(col[:, :, None, None, :, :], local.shape).ravel())
        vals.append(local.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    ).tocsc()


def jittered_basis(p, spans, rng):
    h = 1.0 / spans
    inner = h * (np.arange(1, spans) + rng.uniform(-0.3, 0.3, spans - 1))
    return Basis1D(KnotVector(np.concatenate(([0.0] * (p + 1), inner, [1.0] * (p + 1))), p))


def oracle_case(name):
    rng = np.random.default_rng(41)
    if name == "curved-jittered":
        return (jittered_basis(3, 7, rng), jittered_basis(3, 5, rng)), curved_square_patch()
    if name == "annulus-rational":
        return (jittered_basis(2, 4, rng), jittered_basis(3, 6, rng)), build_taylor_couette().patches[1]
    repeated = Basis1D(KnotVector([0, 0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1, 1], 3))
    return (repeated, jittered_basis(2, 3, rng)), curved_square_patch()


ORACLE_CASES = ["curved-jittered", "annulus-rational", "repeated-knot"]


def full_pair_operator(a, b):
    """Test-only oracle: the pair operator of two collocation matrices, every point through COO."""
    (m, na), nb = a.shape, b.shape[1]
    (ia, va), (ib, vb) = stored_window(a), stored_window(b)
    keys, pair = np.unique((ib[:, None, :] * na + ia[:, :, None]).ravel(), return_inverse=True)
    point = np.broadcast_to(np.arange(m)[:, None, None], (m, va.shape[1], vb.shape[1])).ravel()
    vals = (va[:, :, None] * vb[:, None, :]).ravel()
    per_col = np.bincount(keys // na, minlength=nb)
    return SimpleNamespace(
        matrix=sp.csr_matrix((vals, (pair.ravel(), point)), shape=(keys.size, m)),
        rows=keys % na, cols=keys // na, per_col=per_col,
        rank=np.arange(keys.size) - (np.cumsum(per_col) - per_col)[keys // na],
    )


def full_product_mass(space, axes, weights):
    """Test-only oracle: every entry of every block pair G1 W G2^T, on int64 patterns.

    Pair operators built point by point through COO (rows sorted by J and
    then I) and the same products, written straight into the CSC arrays.
    """
    per_col = np.zeros(space.dim, dtype=np.int64)
    parts = []
    for ib, B in enumerate(space.blocks):
        cols = B.offset + np.arange(B.size).reshape(B.shape, order="F")
        for ia, A in enumerate(space.blocks):
            g1, g2 = (full_pair_operator(axes[j].colloc[j in A.dirs], axes[j].colloc[j in B.dirs])
                      for j in range(2))
            parts.append(((ia, ib), A, g1, g2, cols, per_col[cols]))
            per_col[cols] += np.outer(g1.per_col, g2.per_col)
    indptr = np.concatenate(([0], np.cumsum(per_col)))
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    for key, A, g1, g2, cols, before in parts:
        first = (indptr[cols] + before)[g1.cols][:, g2.cols]
        dest = first + g2.rank[None, :] * g1.per_col[g1.cols][:, None] + g1.rank[:, None]
        indices[dest] = A.offset + g1.rows[:, None] + A.shape[0] * g2.rows[None, :]
        data[dest] = (g2.matrix @ (g1.matrix @ weights[key]).T).T
    return sp.csc_matrix((data, indices, indptr), shape=(space.dim, space.dim))


def full_product_on_grid(space, grid):
    """The CSC of ``_assemble_mass_on_grid``'s triplets, from the full-product oracle."""
    return full_product_mass(space, grid.axes, mass_metric(space.k, grid.jac, grid.det, grid.w))


def assert_bit_identical(got, want):
    for attr in ("indptr", "indices", "data"):
        npt.assert_array_equal(getattr(got, attr), getattr(want, attr))
    assert (got != got.T).nnz == 0  # exactly symmetric


def kept_axes(bases):
    """The ``_Axis`` objects kept for the distinct bases of ``bases``."""
    return [axis for basis in set(bases) for axis in assembly._AXES.get(basis, {}).values()]


class TestUpperHalfMass:
    """Each Gram matrix equals the full-product oracle, bit for bit.

    (The name is kept from an assembly that multiplied only the upper half
    and mirrored the rest; every block pair is now multiplied in full.)
    """

    @pytest.mark.parametrize("n_quad", [None, 7])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_bit_identical_to_full_product(self, case, n_quad):
        bases, patch = oracle_case(case)
        grid = _PatchGrid(bases, patch, n_quad=n_quad)
        for k in (0, 1, 2):
            space = DiscreteFormSpace(bases, k)
            got = assemble_mass(space, patch, n_quad=n_quad).matrix
            assert_bit_identical(got, full_product_on_grid(space, grid))

    @pytest.mark.parametrize("geometry", ["couette", "self-glued"])
    def test_glued_system_blocks_bit_identical(self, geometry):
        # each patch's full-product oracle, placed as the placement once was
        if geometry == "couette":
            system = assemble_vvp([vvp_spaces(_bases(3, 4))] * 4, build_taylor_couette())
        else:
            system = assemble_vvp([vvp_spaces(_bases(3, 8))], build_self_glued_annulus())
        maps, sizes = (system.map0, system.map1, system.map2), (system.n0, system.n1, system.n2)
        for k in (0, 1, 2):
            parts = [(full_product_on_grid(triple[k], _PatchGrid(triple[0].nodal_bases, patch)),
                      maps[k][p], maps[k][p])
                     for p, (triple, patch) in enumerate(zip(system.spaces, system.patches))]
            want = coo_placed((sizes[k],) * 2, parts)
            assert_bit_identical(getattr(system, f"M{k}"), want)

    def test_every_block_pair_is_multiplied_in_full(self):
        bases, patch = oracle_case("curved-jittered")
        axes = _PatchGrid(bases, patch).axes
        for k in (0, 1, 2):
            space = DiscreteFormSpace(bases, k)
            matrix = assemble_mass(space, patch).matrix
            # one nonzero per product of a direction-1 pair and a direction-2 pair:
            # nothing summed, nothing left out
            assert matrix.nnz == sum(
                np.prod([full_pair_operator(axes[j].colloc[j in A.dirs],
                                            axes[j].colloc[j in B.dirs]).matrix.shape[0]
                         for j in range(2)])
                for A in space.blocks for B in space.blocks)
            assert matrix.indices.dtype == np.int32
            # canonical: rows strictly ascending within every column
            col = np.repeat(np.arange(space.dim, dtype=np.int64), np.diff(matrix.indptr))
            assert np.all(np.diff(col * space.dim + matrix.indices) > 0)
            assert matrix.has_canonical_format

    def test_mass_matrices_share_the_axes_of_their_bases(self, monkeypatch):
        built = [count_calls(monkeypatch, owner, "__init__")
                 for owner in (assembly._Axis, assembly._PairOperator)]
        bases, patch = oracle_case("curved-jittered")
        for k in (0, 1, 2):
            assemble_mass(DiscreteFormSpace(bases, k), patch)
        # one axis per basis, with its four pair operators NN, NE, EN, EE
        assert [len(calls) for calls in built] == [2, 8]
        assert len(kept_axes(bases)) == 2
        for calls in built:
            calls.clear()  # they hold the bases
        gc.collect()
        before = len(assembly._AXES)
        del bases
        gc.collect()
        assert len(assembly._AXES) == before - 2


class TestSumFactorizedMass:
    @pytest.mark.parametrize("n_quad", [None, 7])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_element_loop(self, case, n_quad):
        bases, patch = oracle_case(case)
        for k in (0, 1, 2):
            space = DiscreteFormSpace(bases, k)
            got = assemble_mass(space, patch, n_quad=n_quad).matrix
            want = element_loop_mass(space, patch, n_quad)
            npt.assert_array_equal(got.indptr, want.indptr)
            npt.assert_array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_reconstruct_matches_eval_grid(self, case):
        bases, patch = oracle_case(case)
        grid = _PatchGrid(bases, patch)
        axes = (grid.axes[0].pts, grid.axes[1].pts)
        rng = np.random.default_rng(5)
        for k in (0, 1, 2):
            space = DiscreteFormSpace(bases, k)
            form = DiscreteForm(space, rng.standard_normal(space.dim))
            for comp in range(len(space.blocks)):
                want = form.eval_grid(axes, comp=comp)[0]
                got = grid.reconstruct(form, comp)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_reconstruction_on_the_curved_square(self, k):
        # eval_grid at the Gauss points is the Gauss-grid reconstruction, bit for bit,
        # and both match a product of dense tables
        bases = (make_basis(3, 4), jittered_basis(2, 5, np.random.default_rng(2)))
        grid = _PatchGrid(bases, curved_square_patch())
        axes = (grid.axes[0].pts, grid.axes[1].pts)
        space = DiscreteFormSpace(bases, k)
        form = DiscreteForm(space, np.random.default_rng(8 + k).standard_normal(space.dim))
        for comp, block in enumerate(space.blocks):
            got = grid.reconstruct(form, comp)
            npt.assert_array_equal(form.eval_grid(axes, comp=comp)[0], got)
            t1, t2 = (f.eval_edge_many(x) if isinstance(f, EdgeBasis1D) else f.eval_nodal_many(x)
                      for f, x in zip(block.factors, axes))
            want = t1 @ form.block_coeffs(comp) @ t2.T
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_pair_operators_built_once_per_grid(self, monkeypatch):
        built = []
        original = assembly._PairOperator.__init__
        monkeypatch.setattr(
            assembly._PairOperator, "__init__",
            lambda self, *args: (built.append(1), original(self, *args))[1],
        )
        # both directions share one basis and rule: one axis, its four pair
        # operators serve M0, M1 and M2
        assemble_vvp(vvp_spaces(_bases(3, 4)), unit_square_patch())
        assert len(built) == 4
        built.clear()
        assemble_vvp(make_spaces(3, 4), unit_square_patch())  # two basis objects
        assert len(built) == 8

    @pytest.mark.parametrize("entry", ["assemble_mass", "assemble_vvp", "_PatchGrid"])
    @pytest.mark.parametrize("n_quad", [0, -1, 2.5, 3.0, True, "4"])
    def test_invalid_n_quad_rejected(self, entry, n_quad):
        spaces = make_spaces(2, 2)
        patch = unit_square_patch()
        calls = {
            "assemble_mass": lambda: assemble_mass(spaces[0], patch, n_quad=n_quad),
            "assemble_vvp": lambda: assemble_vvp(spaces, patch, n_quad=n_quad),
            "_PatchGrid": lambda: _PatchGrid(spaces[0].nodal_bases, patch, n_quad=n_quad),
        }
        with pytest.raises(ConstructionError, match="n_quad"):
            calls[entry]()

    def test_integer_n_quad_accepted(self):
        space = make_spaces(2, 2)[0]
        want = assemble_mass(space, unit_square_patch(), n_quad=4).matrix
        got = assemble_mass(space, unit_square_patch(), n_quad=np.int64(4)).matrix
        assert (got != want).nnz == 0


class TestSystemAssembly:
    def test_symmetry_on_all_meshes(self):
        for patch in (unit_square_patch(), curved_square_patch()):
            system = assemble_vvp(make_spaces(4, 4), patch)
            assert system.asymmetry() < 1e-12
        mp = build_taylor_couette()
        triples = [make_spaces(3, 3) for _ in range(4)]
        assert assemble_vvp(triples, mp).asymmetry() < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("geometry", ["unit-square", "curved-square", "annulus"])
    def test_asymmetry_sees_each_gram_matrix(self, geometry, k, matrix_reads):
        # the coupling blocks of the mixed operator are X and X^T whatever M1 and
        # M2 are, so a check through the assembled operator sees only M0
        if geometry == "annulus":
            system = assemble_vvp([make_spaces(3, 3) for _ in range(4)], build_taylor_couette())
        else:
            patch = unit_square_patch() if geometry == "unit-square" else curved_square_patch()
            system = assemble_vvp(make_spaces(4, 4), patch)
        M = getattr(system, f"M{k}")
        entries = M.tocoo()  # the compressed arrays' order
        off = np.flatnonzero(entries.row != entries.col)[0]
        M.data[off] += 1e-6 * abs(M.data).max()
        assert system.asymmetry() > 1e-12
        assert not matrix_reads

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

    @pytest.mark.parametrize("nu", ["1.0", True, None])
    def test_non_real_viscosity_rejected(self, nu):
        # "1.0" and None used to raise a bare TypeError, True to run with viscosity 1
        with pytest.raises(ConstructionError, match="nu must be a real number"):
            assemble_vvp(make_spaces(2, 2), unit_square_patch(), nu=nu)


class TestKnotDomains:
    """A field basis must span the geometry's knot domain, not part of it."""

    @staticmethod
    def stretched_knot_patch():
        # identity onto the unit square, parametrized over [0, 2] x [0, 2]
        b = Basis1D(KnotVector([0.0, 0.0, 2.0, 2.0], 1))
        control = np.stack(np.meshgrid([0.0, 1.0], [0.0, 1.0], indexing="ij"), axis=-1)
        return NurbsPatch((b, b), control)

    def test_mass_rejects_domain_mismatch(self):
        f = make_basis(2, 3)
        with pytest.raises(ConstructionError, match="knot domain"):
            assemble_mass(DiscreteFormSpace((f, f), 0), self.stretched_knot_patch())

    def test_vvp_rejects_domain_mismatch(self):
        with pytest.raises(ConstructionError, match="knot domain"):
            assemble_vvp(make_spaces(2, 3), self.stretched_knot_patch())

    def test_matching_domain_integrates_the_area(self):
        f = Basis1D(KnotVector(2.0 * uniform_open_knots(2, 3), 2))
        M0 = assemble_mass(DiscreteFormSpace((f, f), 0), self.stretched_knot_patch()).matrix
        ones = np.ones(M0.shape[0])
        assert abs(ones @ M0 @ ones - 1.0) < 1e-13


class TestBoundaryConditions:
    def test_manufactured_normal_dofs_are_exact_integrals(self):
        system, _ = manufactured_system(p_vel=2, spans=6)
        apply_strong_normal_velocity(system, EXACT["velocity"])
        # the sinusoidal field has zero normal trace on the whole boundary;
        # each side carries one coefficient per edge function (spans + degree)
        vals = system.e_fixed[~system.free]
        assert vals.size == 4 * (6 + 2)
        assert np.abs(vals).max() < 1e-13

    def test_cavity_compatibility_sum(self):
        system, _ = manufactured_system(p_vel=1, spans=5)
        apply_strong_normal_velocity(system)  # zero data everywhere
        assert np.abs(system.e_fixed[~system.free]).max() == 0.0

    def test_incompatible_data_raises(self):
        system, _ = manufactured_system(p_vel=1, spans=4)
        expanding = lambda x, y: (x, y)  # net outward flux 2|domain|
        with pytest.raises(FluxCompatibilityError):
            apply_strong_normal_velocity(system, expanding)

    @pytest.mark.parametrize("side", [1e-6, 1.0])
    def test_flux_check_is_relative(self, side):
        # nodal degree 2, 4 spans on a square of side L: the check scales with L
        system = assemble_vvp(make_spaces(2, 4), scaled_patch(side))
        with pytest.raises(FluxCompatibilityError):
            apply_strong_normal_velocity(system, lambda x, y: (x, 0.0 * y))
        system = assemble_vvp(make_spaces(2, 4), scaled_patch(side))
        apply_strong_normal_velocity(system, lambda x, y: (x, -y))

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

    @pytest.mark.parametrize("apply", [apply_strong_normal_velocity, apply_weak_tangential_velocity])
    def test_data_for_a_side_that_is_not_a_boundary_side_raises(self, apply):
        system, _ = manufactured_system(p_vel=1, spans=4)
        rhs = system.rhs.copy()
        lid = {(0, "tpo"): lambda x, y: (np.ones_like(x), np.zeros_like(y))}
        with pytest.raises(ConstructionError, match="non-applicable"):
            apply(system, lid)
        npt.assert_array_equal(system.rhs, rhs)
        assert system.free.all()

    @pytest.mark.parametrize(
        "geometry, side",
        [("annulus", (0, "top")), ("unit-square", (0, "tpo")), ("unit-square", (1, "top"))],
        ids=["glued-side", "misspelled-side", "patch-out-of-range"],
    )
    def test_normal_side_that_is_not_a_boundary_side_raises(self, geometry, side):
        if geometry == "annulus":
            geometry, spaces = build_taylor_couette(), [make_spaces(2, 3) for _ in range(4)]
            sides = boundary_sides(4, geometry.glue)
        else:
            geometry, spaces, sides = unit_square_patch(), make_spaces(2, 3), boundary_sides(1, [])
        with pytest.raises(ConstructionError, match="not boundary sides"):
            assemble_vvp(spaces, geometry, normal_sides=[*sides, side])


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


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSideEvaluationCounts:
    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_side_velocity_one_window_call_per_axis(self, monkeypatch, side):
        system = assemble_vvp([make_spaces(3, 4) for _ in range(4)], build_taylor_couette())
        patch = system.patches[2]
        patch.side_curve(side)  # built once per patch and side
        basis, n = _side_basis(system, 2, side)
        axis = greville_reduction(basis, True, n)[0]  # keeps the side tables at its points
        t = axis.pts
        vfun = lambda x, y: (x * y, x - y)
        want_points = patch.map_point(patch.side_points(side, t))
        want_tan = patch.side_tangent(side, t)
        windows = count_calls(monkeypatch, Basis1D, "window")
        v, tan = _side_velocity(system, 2, side, vfun, axis)
        assert len(windows) == 1  # the along-side geometry basis at the rule's points
        _side_velocity(system, 2, side, vfun, axis)
        assert len(windows) == 1
        assert np.abs(tan - want_tan).max() <= 1e-14 * np.abs(want_tan).max()
        want_v = np.column_stack(vfun(*want_points.T))
        assert np.abs(v - want_v).max() <= 1e-14 * np.abs(want_v).max()

    @pytest.mark.parametrize("geometry", ["unit-square", "annulus"])
    def test_one_histopolation_per_side_basis(self, monkeypatch, geometry):
        if geometry == "annulus":
            triples = [vvp_spaces(_bases(3, 4)) for _ in range(4)]
            system = assemble_vvp(triples, build_taylor_couette())
            distinct = 4
        else:
            system = assemble_vvp(vvp_spaces(_bases(3, 5)), unit_square_patch())
            distinct = 1
        builds = count_calls(monkeypatch, projection, "build_histopolation")
        apply_strong_normal_velocity(system, lambda x, y: (0.0 * x, 0.0 * y))
        assert len(builds) == distinct
        assert len({id(args[0].parent) for args in builds}) == distinct

    def test_window_calls_of_one_manufactured_level(self, monkeypatch):
        system = assemble_vvp(
            vvp_spaces(_bases(3, 4)), curved_square_patch(), forcing=EXACT["forcing"]
        )
        windows = count_calls(monkeypatch, Basis1D, "window")
        apply_strong_normal_velocity(system, EXACT["velocity"])
        # four side curves (one transverse derivative each), one geometry table
        # shared by the four sides, one histopolation
        assert len(windows) == 6
        windows.clear()
        apply_weak_tangential_velocity(system, EXACT["velocity"])
        # side curves are cached: one nodal collocation and one geometry table
        assert len(windows) == 2

    def test_harness_bases_share_one_object(self):
        first, second = _bases(3, 4)
        assert first is second


def degenerate_left_side_patch():
    """x = u1^2, y = u2: det J = 2 u1 vanishes on the left side only."""
    across = Basis1D(KnotVector([0, 0, 0, 1, 1, 1], 2))
    along = Basis1D(KnotVector([0, 0, 1, 1], 1))
    control = np.stack(np.meshgrid([0.0, 0.0, 1.0], [0.0, 1.0], indexing="ij"), axis=-1)
    return NurbsPatch((across, along), control, check=False)


@pytest.mark.parametrize(
    "apply", [apply_strong_normal_velocity, apply_weak_tangential_velocity]
)
def test_degenerate_side_raises_from_boundary_conditions(apply):
    system = assemble_vvp(make_spaces(3, 4), degenerate_left_side_patch())
    with pytest.raises(DegenerateGeometryError):
        apply(system, lambda x, y: (np.ones_like(x), np.zeros_like(y)))


@pytest.mark.parametrize(
    "apply", [apply_strong_normal_velocity, apply_weak_tangential_velocity]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_side_data_raises_naming_the_side(apply, bad):
    system, _ = manufactured_system(p_vel=1, spans=4)
    data = {(0, "left"): lambda x, y: (np.where(y > 0.5, bad, 0.0), 0.0 * y)}
    with pytest.raises(FloatingPointError, match="side 'left' of patch 0"):
        apply(system, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_forcing_raises(bad):
    forcing = (lambda x, y: np.where(x > 0.5, bad, x), lambda x, y: 0.0 * y)
    with pytest.raises(FloatingPointError, match="forcing"):
        assemble_vvp(make_spaces(2, 4), unit_square_patch(), forcing=forcing)


def test_axis_edge_table_from_one_window_call(monkeypatch):
    rng = np.random.default_rng(3)
    basis = jittered_basis(3, 5, rng)
    basis = Basis1D(basis.knot_vector, rng.uniform(0.5, 2.0, basis.num_basis))
    windows = count_calls(monkeypatch, Basis1D, "window")
    axis = assembly._Axis(basis, 6)
    assert len(windows) == 1
    spans, want = EdgeBasis1D(basis).window(axis.pts)
    cols, got = stored_window(axis.colloc[True])
    npt.assert_array_equal(got, want)
    npt.assert_array_equal(cols[:, 0], spans - basis.degree)
    assert axis.colloc[True].shape == (axis.pts.size, basis.num_basis - 1)


def test_isoparametric_basis_dies_with_its_cache_entries():
    # the field basis is also the geometry basis, so the tables its cached
    # side rule keeps are keyed by the basis the entry belongs to
    gc.collect()
    before = len(projection._REDUCTIONS)
    basis = make_basis(2, 3)
    g = basis.greville_points()
    patch = NurbsPatch((basis, basis), np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1))
    system = assemble_vvp(vvp_spaces((basis, basis)), patch)
    flow = lambda x, y: (np.ones_like(x), np.zeros_like(y))
    apply_strong_normal_velocity(system, flow)
    apply_weak_tangential_velocity(system, flow)
    assert len(projection._REDUCTIONS) == before + 1
    alive = weakref.ref(basis)
    del basis, patch, system
    gc.collect()
    assert alive() is None
    assert len(projection._REDUCTIONS) == before


class TestBatchedSideIntegrals:
    @pytest.mark.parametrize("geometry", ["curved-square", "annulus"])
    def test_flux_integrals_match_loop(self, geometry):
        vfun = lambda x, y: (x + y**2, np.sin(x) * y - 0.5)
        if geometry == "annulus":
            system = assemble_vvp([make_spaces(3, 5) for _ in range(4)], build_taylor_couette())
        else:
            system, _ = manufactured_system(p_vel=2, spans=5, patch=curved_square_patch())
        for p, side in system.boundary:
            want = looped_side_flux(system, p, side, vfun)
            basis, n = _side_basis(system, p, side)
            points, reduction, _ = greville_reduction(basis, True, n)
            v, tan = _side_velocity(system, p, side, vfun, points)
            got = reduction @ (v[:, 0] * tan[:, 1] - v[:, 1] * tan[:, 0])
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


def test_single_patch_numbering_is_identity_without_csgraph(monkeypatch):
    calls = count_calls(monkeypatch, assembly, "connected_components")
    system, _ = manufactured_system(p_vel=2, spans=4)
    assert calls == []
    for m, n in ((system.map0[0], system.n0), (system.map1[0], system.n1)):
        npt.assert_array_equal(m, np.arange(n))


def union_find_numbering(sizes, pairs):
    """Test-only oracle: per-dof union-find, components in order of their smallest member."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    parent = list(range(int(offsets[-1])))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for (pa, ia), (pb, ib) in pairs:
        for a, b in zip(offsets[pa] + ia, offsets[pb] + ib):
            ra, rb = root(int(a)), root(int(b))
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([root(i) for i in range(len(parent))])
    labels = np.unique(roots, return_inverse=True)[1]
    return [labels[offsets[p] : offsets[p + 1]] for p in range(len(sizes))], int(labels.max()) + 1


@pytest.mark.parametrize("spans", [4, 8])
def test_annulus_numbering_matches_union_find(spans):
    mp = build_taylor_couette()
    spaces = [make_spaces(3, spans) for _ in range(4)]
    for k in (0, 1):
        pairs = [((a, assembly._side_ids(spaces[a][k], sa)), (b, assembly._side_ids(spaces[b][k], sb)))
                 for a, sa, b, sb, _ in mp.glue]
        sizes = [s[k].dim for s in spaces]
        maps, n = _glued_numbering(sizes, pairs)
        want, n_want = union_find_numbering(sizes, pairs)
        assert n == n_want == sum(sizes) - 4 * len(pairs[0][0][1])
        for got, ref in zip(maps, want):
            npt.assert_array_equal(got, ref)


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
        M2 = system.M2
        shift = spla.spsolve(M2.tocsc(), np.ones(system.n2))
        x = np.concatenate((sol.omega, sol.u, sol.p, [sol.multiplier]))
        x_shift = x.copy()
        x_shift[system.n0 + system.n1 : system.n0 + system.n1 + system.n2] += shift
        delta = system.matrix @ (x_shift - x)
        fixed = system.n0 + np.flatnonzero(~system.free)
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
    fixed = n0 + np.flatnonzero(~system.free)
    values = system.e_fixed[fixed - n0]
    keep = np.setdiff1d(np.arange(system.size), fixed)
    A = system.matrix.tocsc()
    b = system.rhs - A[:, fixed] @ values
    x = np.empty(system.size)
    x[fixed] = values
    x[keep] = spla.spsolve(A[keep][:, keep], b[keep])
    return x[:n0], x[n0 : n0 + n1], x[n0 + n1 : n0 + n1 + n2]


def _manufactured_case(patch, normal_sides=None, nu=1.0, p_nodal=3, spans=6):
    system = assemble_vvp(make_spaces(p_nodal, spans), patch, nu=nu, normal_sides=normal_sides,
                          forcing=EXACT["forcing"])
    apply_strong_normal_velocity(system, EXACT["velocity"])
    apply_weak_tangential_velocity(system, EXACT["velocity"])
    return system


def _annulus_case(normal=None, tangential=None, nu=1.0, normal_sides=None, spans=4, p_nodal=3):
    system = assemble_vvp([make_spaces(p_nodal, spans) for _ in range(4)], build_taylor_couette(),
                          nu=nu, normal_sides=normal_sides)
    apply_strong_normal_velocity(system, normal)
    apply_weak_tangential_velocity(system, tangential)
    return system


def _source_flow(x, y):
    r2 = x * x + y * y
    return x / r2, y / r2


# the inner cylinder turning at unit angular velocity
SPIN = {(p, "left"): (lambda x, y: (-y, x)) for p in range(4)}


def _flux_between_circles(**size):
    # a free side on each circle: flux passes between the circles, which
    # needs one flux carrier besides the stream function
    return _annulus_case(_source_flow, _source_flow, normal_sides=((0, "left"), (2, "right")),
                         **size)


SOLVE_CASES = {
    "unit-square": lambda: _manufactured_case(unit_square_patch()),
    "curved-square": lambda: _manufactured_case(curved_square_patch()),
    "taylor-couette": lambda: _annulus_case(tangential=SPIN),
    "top-side-free": lambda: _manufactured_case(
        unit_square_patch(), ((0, "left"), (0, "right"), (0, "bottom"))
    ),
    "annulus-source-flow": lambda: _annulus_case(_source_flow, _source_flow),
    "annulus-flux-between-circles": _flux_between_circles,
}


def _self_glued_case(p_nodal=3, spans=8):
    system = assemble_vvp([vvp_spaces(_bases(p_nodal, spans))], build_self_glued_annulus())
    apply_strong_normal_velocity(system)
    apply_weak_tangential_velocity(system, {(0, "left"): lambda x, y: (-y, x)})
    return system


ORACLE_CASES = {**SOLVE_CASES, "self-glued-annulus": _self_glued_case}
# every case at nodal degree 8, where the band does not apply, so that K takes
# SuperLU's node-paired path
SUPERLU_CASES = {
    "unit-square": lambda: _manufactured_case(unit_square_patch(), p_nodal=8, spans=2),
    "curved-square": lambda: _manufactured_case(curved_square_patch(), p_nodal=8, spans=2),
    "taylor-couette": lambda: _annulus_case(tangential=SPIN, p_nodal=8, spans=2),
    "top-side-free": lambda: _manufactured_case(
        unit_square_patch(), ((0, "left"), (0, "right"), (0, "bottom")), p_nodal=8, spans=2),
    "annulus-source-flow": lambda: _annulus_case(_source_flow, _source_flow, p_nodal=8, spans=2),
    "annulus-flux-between-circles": lambda: _flux_between_circles(p_nodal=8, spans=2),
    "self-glued-annulus": lambda: _self_glued_case(p_nodal=8, spans=4),
}


def node_graph_groups(D10, cells):
    """Test-only oracle: components of the node graph |D10_c|^T |D10_c|, as once built."""
    links = abs(D10[cells])
    return connected_components(links.T @ links, directed=False)


def stacked_paired_matrix(M0, B, pos):
    """Test-only oracle: K stacked, its rows permuted and its columns relabelled, as once built."""
    m = B.shape[1]
    K = sp.vstack(
        [sp.hstack([-M0.tocsr(), B], format="csr"),
         sp.hstack([B.T.tocsr(), sp.csr_matrix((m, m))], format="csr")],
        format="csr",
    )[np.argsort(pos)]
    return sp.csr_matrix((K.data, pos[K.indices], K.indptr), shape=K.shape).tocsc()


class TestIndexArithmeticOracles:
    """The node groups and the node-paired K against the sparse products they replace."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_node_groups_match_the_node_graph(self, case):
        system = ORACLE_CASES[case]()
        n0 = system.n0
        boundary = np.concatenate([system.map1[p][_side_ids(system.spaces[p][1], side)]
                                   for p, side in system.boundary])
        for cells in (np.flatnonzero(~system.free), boundary):
            n_want, want = node_graph_groups(system.D10, cells)
            n_got, got = assembly._node_groups(system.D10, cells)
            assert n_got == n_want
            npt.assert_array_equal(got[:n0], want)
            # a cell carries the group of its nodes
            npt.assert_array_equal(got[n0:], want[system.D10[cells].indices[::2]])

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_paired_matrix_matches_the_stacked_construction(self, case, monkeypatch):
        system = SUPERLU_CASES[case]()
        built = []
        original = assembly._node_paired_matrix

        def recorded(M0, B, pos):
            K = original(M0, B, pos)
            built.append((M0, B, pos, K))
            return K

        monkeypatch.setattr(assembly, "_node_paired_matrix", recorded)
        solve(system)
        (M0, B, pos, got), = built
        assert M0 is system.M0  # taken as it is, no copy
        want = stacked_paired_matrix(M0, B, pos)
        assert got.format == "csr"
        got = got.tocsc()  # the caller's transpose
        assert got.has_sorted_indices
        for attr in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(got, attr), getattr(want, attr))

    @pytest.mark.parametrize("case", ["unit-square", "taylor-couette", "self-glued-annulus"])
    def test_B_is_freed_before_K_is_transposed(self, case, monkeypatch):
        # B = Wt Z and its other format, with their arrays, are dead when the
        # CSR -> CSC transposition of K starts
        system = SUPERLU_CASES[case]()
        original = assembly._node_paired_matrix
        shapes, refs, alive_at_transpose = {}, [], []  # shapes of B and K until K's transposition

        def recorded(M0, B, pos):
            n0, m = B.shape
            shapes.update(B=(n0, m), K=(n0 + m, n0 + m))
            return original(M0, B, pos)

        def watched(cls, name):
            convert = getattr(cls, name)

            def wrapped(self, *args, **kwargs):
                if shapes and self.shape == shapes["K"]:  # K's transposition
                    alive = sum(ref() is not None for ref in refs)
                    alive_at_transpose.append((cls.__name__, name, alive))
                    shapes.clear()
                out = convert(self, *args, **kwargs)
                if shapes and self.shape == shapes["B"]:  # B, read in both formats
                    refs.extend(weakref.ref(obj) for matrix in (self, out)
                                for obj in (matrix, matrix.indptr, matrix.indices, matrix.data))
                return out

            monkeypatch.setattr(cls, name, wrapped)

        for cls in (sp.csr_matrix, sp.csc_matrix):
            for name in ("tocsr", "tocsc"):
                watched(cls, name)
        monkeypatch.setattr(assembly, "_node_paired_matrix", recorded)
        solve(system)
        assert len(refs) == 16  # B and its copy, each with three arrays, once per format read
        assert alive_at_transpose == [("csr_matrix", "tocsc", 0)]


def test_solve_builds_at_most_30_compressed_matrices(monkeypatch):
    # nodal degree 3, 8 spans on the curved square; the scipy.sparse round
    # trips of the node groups, Z and K once built 52
    system = assemble_vvp(make_spaces(3, 8), curved_square_patch(), forcing=EXACT["forcing"])
    apply_strong_normal_velocity(system, EXACT["velocity"])
    apply_weak_tangential_velocity(system, EXACT["velocity"])
    builds = count_calls(monkeypatch, _cs_matrix, "__init__")
    solve(system)
    assert len(builds) <= 30


class TestSubspaceSolve:
    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_matches_mixed_reference(self, case):
        system = SOLVE_CASES[case]()
        assert system.gauge == (case not in ("top-side-free", "annulus-flux-between-circles"))
        sol = solve(system)
        for got, ref in zip((sol.omega, sol.u, sol.p), mixed_reference(system)):
            assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_every_pivot_on_the_diagonal(self, case, monkeypatch):
        factors, superlu = [], []
        original, original_ilu, original_lu = assembly._factor, spla.spilu, spla.splu

        def recorded(matrix, what, permc_spec, *record):
            lu = original(matrix, what, permc_spec, *record)
            factors.append((what, lu))
            return lu

        def recorded_ilu(*args, **kwargs):  # the order of the vorticity mass matrix
            lu = original_ilu(*args, **kwargs)
            factors.append(("vorticity mass matrix", lu))
            return lu

        def recorded_lu(*args, **kwargs):
            superlu.append(args[0].shape)
            return original_lu(*args, **kwargs)

        monkeypatch.setattr(assembly, "_factor", recorded)
        monkeypatch.setattr(spla, "spilu", recorded_ilu)
        monkeypatch.setattr(spla, "splu", recorded_lu)
        solve(SUPERLU_CASES[case]())
        # M2 goes to its banded Cholesky, not to SuperLU
        assert [what for what, _ in factors] == [
            "2-cell Laplacian", "vorticity mass matrix", "vorticity-stream system"]
        assert len(superlu) == 2
        for _, lu in factors:
            npt.assert_array_equal(lu.perm_r, lu.perm_c)
        # the vorticity-stream system is eliminated in the node-paired order itself
        lu = factors[2][1]
        npt.assert_array_equal(lu.perm_c, np.arange(lu.shape[0]))

    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_pressure_matches_a_superlu_oracle_of_M2(self, case, monkeypatch):
        system = SOLVE_CASES[case]()
        got = solve(system).p
        monkeypatch.setattr(assembly, "_factor_banded",
                            lambda M2, blocks, factors: spla.splu(M2.tocsc()).solve)
        want = solve(system).p
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_M2_has_no_entry_outside_its_patch_blocks(self):
        system = SOLVE_CASES["taylor-couette"]()
        owner = np.full(system.n2, -1)
        for patch, ids in enumerate(system.map2):
            npt.assert_array_equal(ids, np.arange(ids[0], ids[0] + ids.size))  # contiguous
            owner[ids] = patch
        assert (owner >= 0).all()
        M2 = system.M2.tocoo()
        assert M2.nnz > 0
        npt.assert_array_equal(owner[M2.row], owner[M2.col])

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES) + ["mixed-degrees"])
    def test_each_block_is_banded_with_half_width_pe2_n1_plus_pe1(self, case):
        if case == "mixed-degrees":  # edge degrees 1 and 3, 6 and 9 functions
            system = assemble_vvp(vvp_spaces((make_basis(2, 5), make_basis(4, 6))),
                                  unit_square_patch())
        else:
            system = ORACLE_CASES[case]()
        factors = {}
        assembly._factor_banded(system.M2, system.map2, factors)
        stored = 0
        for (_, _, s2), ids in zip(system.spaces, system.map2):
            (n1, _), (e1, e2) = s2.blocks[0].shape, s2.blocks[0].factors
            width = e2.degree * n1 + e1.degree
            lo, hi = ids[0], ids[0] + ids.size
            ab = assembly._upper_band(system.M2, lo, hi)
            assert ab.shape == (width + 1, ids.size)
            block = system.M2[lo:hi, lo:hi].toarray()
            i, j = np.indices(block.shape)
            assert block[j - i > width].size and not block[j - i > width].any()
            band = (j >= i) & (j - i <= width)
            npt.assert_array_equal(ab[width + i[band] - j[band], j[band]], block[band])
            stored += ab.size
        assert factors["M2"]["nnz"] == stored

    def test_node_paired_order(self):
        rng = np.random.default_rng(5)
        n0 = 12
        R = sp.random(n0, n0, density=0.3, random_state=rng) + sp.identity(n0)
        A_ww = -(R @ R.T).tocsc()
        group = rng.integers(0, 4, n0)
        group[0] = 0
        gauged = np.array([g for g in range(1, 4) if np.any(group == g)])
        pos = assembly._positions(assembly._mmd_order(-A_ww, {}), group, gauged.size)
        npt.assert_array_equal(np.sort(pos), np.arange(n0 + gauged.size))
        perm_c = spla.splu(-A_ww, permc_spec="MMD_AT_PLUS_A").perm_c
        npt.assert_array_equal(np.argsort(pos[:n0]), np.argsort(perm_c))
        for i, g in enumerate(gauged):
            assert pos[n0 + i] == pos[:n0][group == g].max() + 1

    def test_exactly_singular_factor_raises(self):
        with pytest.raises(SingularSystemError):
            assembly._factor(sp.csc_matrix(np.ones((3, 3))), "test matrix", "NATURAL", {}, "T")

    def test_exactly_singular_order_raises(self):
        with pytest.raises(SingularSystemError):
            assembly._mmd_order(sp.csc_matrix(np.ones((3, 3))), {})

    @pytest.mark.parametrize("case", ["cavity", "couette", "curved-square"])
    def test_order_matches_the_full_factorization(self, case):
        spaces = {"cavity": lambda: vvp_spaces(_bases(4, 24)),
                  "couette": lambda: [vvp_spaces(_bases(3, 16))] * 4,
                  "curved-square": lambda: make_spaces(4, 6)}[case]()
        geometry = {"cavity": unit_square_patch, "couette": build_taylor_couette,
                    "curved-square": curved_square_patch}[case]()
        A = assemble_vvp(spaces, geometry).M0.tocsc()
        want = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).perm_c
        factors = {}
        # with no stream unknowns the node-paired positions are the order itself
        got = assembly._positions(assembly._mmd_order(A, factors), np.zeros(A.shape[0], int), 0)
        npt.assert_array_equal(got, want)
        assert set(factors["order"]) == {"seconds"}

    def test_unpinned_normal_sides_raise(self):
        # a lid with no wall data: the walls that normal_sides constrains are open
        system = assemble_vvp(make_spaces(3, 6), unit_square_patch())
        apply_weak_tangential_velocity(
            system, {(0, "top"): lambda x, y: (np.ones_like(x), np.zeros_like(y))})
        with pytest.raises(ConstructionError, match="apply_strong_normal_velocity") as info:
            solve(system)
        for key in system.normal_sides:
            assert str(key) in str(info.value)
        apply_strong_normal_velocity(system)
        left = system.map1[0][assembly._side_ids(system.spaces[0][1], "left")]
        system.free[left[1:2]] = True
        with pytest.raises(ConstructionError, match=r"\[\(0, 'left'\)\]"):
            solve(system)
        system.free[left] = False
        assert solve(system).residual < 1e-10

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
        # Couette at nodal degree 8, outside the band rule
        system = _annulus_case(tangential=SPIN, p_nodal=8, spans=2)
        stats = solve(system).stats
        assert stats["dofs"] == system.size
        # one vorticity per node; one stream unknown per interior node, plus
        # the inner-circle constant (each circle has 4 x 9 nodes)
        interior = system.n0 - 2 * 4 * 9
        assert stats["unknowns"] == system.n0 + interior + 1
        assert stats["lu_nnz"] > stats["unknowns"]
        # a small K: factored in float64, solved once and refined once, no stopping test
        assert stats["precision"] == "float64" and stats["zeroed"] == 0
        assert stats["refine_steps"] == 1 and stats["refine_error"] is None
        assert "float32_fallback_s" not in stats
        # the process's peak RSS at solve entry, before K's factor and at exit:
        # it never falls
        rss = stats["rss_mb"]
        assert set(rss) == {"before", "factor", "after"}
        assert 0.0 < rss["before"] <= rss["factor"] <= rss["after"]

    def test_stats_of_factors_residual_and_conditioning(self, monkeypatch):
        zero_normal = solve(_annulus_case()).stats
        assert zero_normal["histopolation_cond"] is None  # zero data needs no histopolation
        system = _manufactured_case(curved_square_patch())
        sol = float64_solve(system, monkeypatch)  # the band path reads no order
        stats = sol.stats
        assert set(stats["factors"]) == {"L", "order", "K", "M2"}
        # the order is read off an incomplete factorization: only its time is kept
        order = stats["factors"].pop("order")
        assert set(order) == {"seconds"} and order["seconds"] >= 0.0
        for entry in stats["factors"].values():
            assert entry["nnz"] > 0 and entry["seconds"] >= 0.0
            assert 1.0 <= entry["fill_ratio"] < 100.0
        # M2 reports the entries of its band: one patch, nodal degree 3 on 6 spans, so 8 x 8
        # edge functions of degree 2 and a half-bandwidth of 2 * 8 + 2
        assert stats["factors"]["M2"]["nnz"] == (2 * 8 + 2 + 1) * system.n2
        assert stats["factors"]["M2"]["fill_ratio"] == stats["factors"]["M2"]["nnz"] / system.M2.nnz
        assert stats["factors"]["K"]["nnz"] == stats["lu_nnz"]
        assert stats["residual"] == sol.residual
        basis = system.spaces[0][0].nodal_bases[0]
        want = build_histopolation(EdgeBasis1D(basis)).cond
        assert stats["histopolation_cond"] == want


def _lid_cavity(p_nodal=4, spans=24, length=1.0):
    """The lid-driven cavity on the unit square scaled by ``length``; by default the benchmark's."""
    system = assemble_vvp(make_spaces(p_nodal, spans), scaled_patch(length))
    apply_strong_normal_velocity(system)
    apply_weak_tangential_velocity(
        system, {(0, "top"): lambda x, y: (np.ones_like(x), np.zeros_like(y))})
    return system


def _couette(spans=16, p_nodal=3):
    """Taylor-Couette on the four glued quarter patches; by default on the band path."""
    return _annulus_case(tangential=SPIN, spans=spans, p_nodal=p_nodal)


def float64_solve(system, monkeypatch):
    """``solve`` on the float64 path: no nodal degree is inside the band rule."""
    with monkeypatch.context() as patched:
        patched.setattr(assembly, "_BAND_MAX_WIDTH", {})
        return solve(system)


def recorded_splu(monkeypatch):
    """The shape and dtype of every matrix ``assembly`` factors through ``spla.splu``."""
    calls, original_splu = [], spla.splu

    def splu(matrix, *args, **kwargs):
        calls.append((matrix.shape, matrix.dtype))
        return original_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=splu, spilu=spla.spilu))
    return calls


class TestSingleFactor:
    """K factored in float32 as a band and refined against the float64 blocks, or in float64."""

    @pytest.mark.parametrize("case", ["cavity"])
    def test_float32_path_matches_the_float64_path(self, case, monkeypatch):
        # the benchmark cavity
        system = _lid_cavity()
        sol = solve(system)
        stats = sol.stats
        assert stats["precision"] == "float32" and stats["refine_error"] <= 2.0**-52
        assert 1 <= stats["refine_steps"] <= assembly._MAX_REFINE_STEPS
        want = float64_solve(system, monkeypatch)
        assert want.stats["precision"] == "float64"
        for name in ("omega", "u", "p"):
            got, ref = getattr(sol, name), getattr(want, name)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name
        DD = system.D21 @ system.D10
        assert DD.dtype.kind == "i" and DD.count_nonzero() == 0
        assert np.abs(sol.divergence_cochain()).max() <= 1e-15

    @pytest.mark.parametrize("case", ["ladders-size", "degree-above-ceiling", "glued"])
    def test_float64_path_where_float32_cannot_pay(self, case, monkeypatch):
        # the self-glued one-patch annulus at the largest ladder level's spans
        # (16), the cavity at nodal degree 11 (CLI degree 10) and Couette at 8
        # spans, all at a nodal degree where band refinement stalls (8 or 11):
        # each K is factored once, in float64, with no float32 attempt
        system = {
            "ladders-size": lambda: _self_glued_case(p_nodal=8, spans=16),
            "degree-above-ceiling": lambda: _lid_cavity(p_nodal=11, spans=16),
            "glued": lambda: _couette(spans=8, p_nodal=8),
        }[case]()
        _, band_factors = recorded_band(monkeypatch)
        calls = recorded_splu(monkeypatch)
        sol = solve(system)
        assert band_factors == []
        assert [dtype for _, dtype in calls] == [np.float64, np.float64]  # L, then K
        assert {key: sol.stats[key] for key in ("precision", "zeroed", "refine_steps")} == {
            "precision": "float64", "zeroed": 0, "refine_steps": 1}
        assert "float32_fallback_s" not in sol.stats
        monkeypatch.undo()
        want = float64_solve(system, monkeypatch)
        for got, ref in ((sol.omega, want.omega), (sol.u, want.u), (sol.p, want.p)):
            npt.assert_array_equal(got, ref)

    @pytest.mark.parametrize("length", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_length_scaling_passes_where_the_float64_path_passes(self, length, monkeypatch):
        # the benchmark cavity on a square of side `length`; a normwise stop
        # accepts a float32 result at L = 1e-3 that the gate then rejects
        # with another residual than the float64 path's
        system = _lid_cavity(length=length)
        try:
            float64_solve(system, monkeypatch)
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError) as info:
                solve(system)
            assert str(info.value) == str(exc)
        else:
            assert solve(system).residual <= 1e-10


def _manufactured_band_case(patch, normal_sides=None):
    """The manufactured flow at nodal degree 4 and 24 spans, large enough for a float32 ``K``."""
    system = assemble_vvp(make_spaces(4, 24), patch, normal_sides=normal_sides,
                          forcing=EXACT["forcing"])
    apply_strong_normal_velocity(system, EXACT["velocity"])
    apply_weak_tangential_velocity(system, EXACT["velocity"])
    return system


def _unglued_quarters():
    """Two opposite quarters of the annulus glued to nothing: two components of the node graph."""
    quarters = build_taylor_couette().patches
    system = assemble_vvp([make_spaces(3, 4)] * 2, MultiPatch([quarters[0], quarters[2]], []))
    apply_strong_normal_velocity(system)
    apply_weak_tangential_velocity(system, {(0, "left"): lambda x, y: (-y, x)})
    return system


BAND_CASES = {
    "cavity": _lid_cavity,
    "curved-square": lambda: _manufactured_band_case(curved_square_patch()),
    # the walls' nodes form two groups: the bottom one carries the gauge, the
    # top one the border's single stream unknown
    "channel": lambda: _manufactured_band_case(unit_square_patch(), ((0, "bottom"), (0, "top"))),
    # glued: the inner circle carries the gauge, the outer circle's stream
    # constant is the border's one column
    "couette": lambda: _couette(spans=4),
    "self-glued-annulus": _self_glued_case,
    # a stream constant and a flux carrier in the border
    "flux-carrier-annulus": _flux_between_circles,
    # the level order reaches only patch 0's nodes and ranks the others last;
    # patch 1's walls are the border's stream constant
    "unglued-quarters": _unglued_quarters,
}
# the columns of each case's border
BAND_BORDERS = {"cavity": 0, "curved-square": 0, "channel": 1, "couette": 1,
                "self-glued-annulus": 1, "flux-carrier-annulus": 2, "unglued-quarters": 1}


def recorded_band(monkeypatch):
    """Every band built (a copy taken before ``sgbtrf`` factors it in place) with its arguments,
    and every ``sgbtrf`` call's arguments and outputs."""
    bands, factors = [], []
    original_storage, original_sgbtrf = assembly._band_storage, scipy.linalg.lapack.sgbtrf

    def storage(M0, B, pos, n_band, kl, root):
        ab, border, zeroed = original_storage(M0, B, pos, n_band, kl, root)
        bands.append(dict(M0=M0, B=B, pos=pos, n_band=n_band, kl=kl, ab=ab.copy(order="F"),
                          ab_ref=weakref.ref(ab), border=border.copy(), zeroed=zeroed))
        return ab, border, zeroed

    def sgbtrf(ab, kl, ku, **kwargs):
        lu, ipiv, info = original_sgbtrf(ab, kl, ku, **kwargs)
        factors.append(dict(ab=weakref.ref(ab), lu=weakref.ref(lu), ipiv=weakref.ref(ipiv),
                            info=info, in_place=np.shares_memory(lu, ab)))
        return lu, ipiv, info

    monkeypatch.setattr(assembly, "_band_storage", storage)
    monkeypatch.setattr(scipy.linalg.lapack, "sgbtrf", sgbtrf)
    return bands, factors


def band_alive_at_the_float64_factor(monkeypatch):
    """``recorded_band``'s lists, and per float64 factor of ``K`` the count of the first band,
    its factor and its pivots still alive when that factor starts."""
    bands, factors = recorded_band(monkeypatch)
    original_splu = spla.splu
    alive = []

    def splu(matrix, *args, **kwargs):
        if bands and matrix.shape[0] == bands[0]["pos"].size:  # the float64 factor of K
            refs = [bands[0]["ab_ref"]] + [factors[0][k] for k in ("ab", "lu", "ipiv")]
            alive.append(sum(ref() is not None for ref in refs))
        return original_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=splu, spilu=spla.spilu))
    return bands, factors, alive


def band_order_oracle(group, n_streams: int):
    """Test-only oracle: one unglued patch's band positions and band size, as once built.

    The nodes keep the tensor numbering; the stream unknown of a group of
    one node comes right after that node, the other stream unknowns last.
    """
    n0 = group.size
    own = (group > 0) & (np.bincount(group)[group] == 1)
    node_pos = np.arange(n0) + np.cumsum(own) - own
    stream_pos = np.full(n_streams, -1)
    stream_pos[group[own] - 1] = node_pos[own] + 1
    n_band = n0 + np.count_nonzero(own)
    border = stream_pos < 0
    stream_pos[border] = n_band + np.arange(np.count_nonzero(border))
    return np.concatenate((node_pos, stream_pos)), n_band


def recorded_work(monkeypatch):
    """The operand shapes of every product of two sparse matrices, the shape of every CSR <-> CSC
    conversion and every matrix ``_row_chunks`` reads, in call order."""
    products, conversions, chunked = [], [], []

    def watched(cls, name, log):
        method = getattr(cls, name)

        def wrapped(self, *args, **kwargs):
            if name != "__matmul__":
                log.append(self.shape)
            elif sp.issparse(args[0]):
                log.append((self.shape, args[0].shape))
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)

    for cls, other_format in ((sp.csr_matrix, "tocsc"), (sp.csc_matrix, "tocsr")):
        watched(cls, "__matmul__", products)
        watched(cls, other_format, conversions)
    original_chunks = assembly._row_chunks

    def row_chunks(A):
        chunked.append(A)
        return original_chunks(A)

    monkeypatch.setattr(assembly, "_row_chunks", row_chunks)
    return products, conversions, chunked


class TestBandFactor:
    """The float32 K as a LAPACK band LU in the level order of its nodes."""

    @pytest.mark.parametrize("p_nodal", [3, 4])
    @pytest.mark.parametrize("geometry", ["unit-square", "curved-square"])
    def test_band_positions_match_the_tensor_order_oracle(self, geometry, p_nodal, monkeypatch):
        # _positions in the tensor numbering places K's unknowns as the band's
        # own order did, on every set of normal sides: a group of several
        # nodes cannot hold node 0, so it holds the last node, and its stream
        # unknown comes after every node, in the border; and the level order
        # of the nodes, searched from the four sides, is the tensor numbering
        # from the bottom side, the order one unglued patch takes unsearched
        patch = {"unit-square": unit_square_patch, "curved-square": curved_square_patch}[geometry]
        original_solve_band, original_scan = assembly._solve_band, assembly._band_scan
        calls = []

        def solve_band(M0, B, node_pos, group, *args):
            calls.append({"group": group, "m": B.shape[1]})
            npt.assert_array_equal(node_pos, np.arange(M0.shape[0]))
            return original_solve_band(M0, B, node_pos, group, *args)

        def band_scan(M0, B, pos, n_band, max_width):
            calls[-1].update(pos=pos, n_band=n_band)
            return original_scan(M0, B, pos, n_band, max_width)

        monkeypatch.setattr(assembly, "_solve_band", solve_band)
        monkeypatch.setattr(assembly, "_band_scan", band_scan)
        borders = set()
        for size in range(1, 5):
            for sides in itertools.combinations(("bottom", "right", "top", "left"), size):
                system = _manufactured_case(patch(), [(0, side) for side in sides],
                                            p_nodal=p_nodal, spans=4)
                order = solve(system).stats["factors"]["order"]
                call = calls.pop()
                want_pos, want_n_band = band_order_oracle(call["group"], call["m"])
                npt.assert_array_equal(call["pos"], want_pos, err_msg=str(sides))
                assert call["n_band"] == want_n_band, sides
                borders.add(call["pos"].size - call["n_band"])
                rows = system.spaces[0][0].blocks[0].shape[1]  # the node rows along direction 2
                assert order["start"] == (0, "bottom") and order["levels"] == rows
                starts = [_side_ids(system.spaces[0][0], side)
                          for side in ("bottom", "right", "top", "left")]
                node_pos, k, levels = assembly._level_order(system.D10, starts)
                npt.assert_array_equal(node_pos, np.arange(system.n0), err_msg=str(sides))
                assert (k, levels) == (0, rows)
        assert borders == {0, 1}  # some sets leave a stream group of several nodes, some none

    @pytest.mark.parametrize("case", ["band", "float64", "fallback", "rejected", "glued",
                                      "glued-band", "glued-rejected"])
    def test_each_path_forms_B_once(self, case, monkeypatch):
        # B = Wt Z is one product per solve, handed to whichever factor runs;
        # SuperLU reads B in its other format through one conversion, and so
        # does the band on a glued system, whose B is a CSC; a band too wide
        # in M0 (nodal degree 6, 28 spans: half-bandwidth 409 > 340; Couette
        # at nodal degree 6 and 12 spans) is rejected after reading M0 alone
        system = {
            "band": lambda: _lid_cavity(p_nodal=3, spans=8),
            "float64": SUPERLU_CASES["curved-square"],
            "fallback": _lid_cavity,
            "rejected": lambda: _lid_cavity(p_nodal=6, spans=28),
            "glued": lambda: _couette(spans=2, p_nodal=8),
            "glued-band": lambda: _couette(spans=8),
            "glued-rejected": lambda: _couette(spans=12, p_nodal=6),
        }[case]()
        if case == "fallback":  # no refinement step allowed
            monkeypatch.setattr(assembly, "_MAX_REFINE_STEPS", 0)
        products, conversions, chunked = recorded_work(monkeypatch)
        sol = solve(system)
        monkeypatch.undo()
        n0, n1 = system.n0, system.n1
        m = sol.stats["unknowns"] - n0
        assert products.count(((n0, n1), (n1, m))) == 1
        band = case in ("band", "glued-band")
        assert sol.stats["precision"] == ("float32" if band else "float64")
        assert ("float32_fallback_s" in sol.stats) == (case == "fallback")
        if band:
            assert [A is system.M0 for A in chunked] == [True, False, True, False]  # scan, storage
        elif case in ("rejected", "glued-rejected"):
            assert len(chunked) == 1 and chunked[0] is system.M0
        elif case in ("float64", "glued"):
            assert chunked == []
        # SuperLU's K reads B's rows and its columns, one of them B itself; a
        # glued B is a CSC, which the band reads as a CSR
        want = {"band": 0, "glued-band": 1, "glued-rejected": 2}.get(case, 1)
        assert conversions.count((n0, m)) == want

    @pytest.mark.parametrize("case", ["cavity", "channel", "couette", "self-glued-annulus",
                                      "flux-carrier-annulus"])
    def test_band_storage_against_a_dense_oracle(self, case, monkeypatch):
        # K stacked from M0 and B, permuted into the band order, zeroed where
        # negligible and cut into LAPACK's band storage and the border; no
        # entry of B is negligible here, and on the annuli no entry of M0
        # either, so the rule is also checked on a copy of B with every
        # seventh entry scaled by 1e-13
        bands, factors = recorded_band(monkeypatch)
        sol = solve(BAND_CASES[case]())
        (band,), (factor,) = bands, factors
        assert factor["info"] == 0 and factor["in_place"]
        M0, B, pos, n_band, kl = (band[k] for k in ("M0", "B", "pos", "n_band", "kl"))
        n0, m = B.shape
        npt.assert_array_equal(np.sort(pos), np.arange(n0 + m))
        assert m - (n_band - n0) == BAND_BORDERS[case]  # the border's columns
        shrunk = B.copy()
        shrunk.data[::7] *= 1e-13
        for matrix in (B, shrunk):
            K = sp.bmat([[-M0, matrix], [matrix.T, None]], format="csr")
            colmax = abs(K).max(axis=0).toarray().ravel()
            dense = K.toarray()
            small = np.abs(dense) < 1e-12 * np.sqrt(colmax[:, None] * colmax[None, :])
            want = np.zeros_like(dense)
            want[np.ix_(pos, pos)] = np.where(small, 0.0, dense)
            if matrix is B:
                ab, border, zeroed = band["ab"], band["border"], band["zeroed"]
            else:
                root, _, width = assembly._band_scan(M0, matrix, pos, n_band, kl)
                assert width == kl
                ab, border, zeroed = assembly._band_storage(M0, matrix, pos, n_band, kl, root)
                assert zeroed > band["zeroed"]
            assert zeroed == np.count_nonzero(small & (dense != 0))
            assert (zeroed > 0) == (matrix is not B or case in ("cavity", "channel"))
            i, j = np.nonzero(want[:n_band, :n_band])
            assert np.abs(i - j).max() == kl  # the half-bandwidth of the band part
            assert ab.flags.f_contiguous and ab.dtype == np.float32
            assert ab.shape == (3 * kl + 1, n_band)
            rows, cols = np.indices(ab.shape)
            oracle = np.zeros(ab.shape, dtype=np.float32)
            inside = (rows >= kl) & (0 <= cols + rows - 2 * kl) & (cols + rows - 2 * kl < n_band)
            oracle[inside] = want[(cols + rows - 2 * kl)[inside], cols[inside]]
            npt.assert_array_equal(ab, oracle)
            npt.assert_array_equal(border, want[:n_band, n_band:].astype(np.float32))
            assert not want[n_band:, n_band:].any()
        # the factor's stats: the band's entries, their ratio to K's and the half-bandwidth
        stats = sol.stats["factors"]["K"]
        assert stats["nnz"] == band["ab"].size == sol.stats["lu_nnz"]
        assert stats["half_bandwidth"] == kl and stats["fill_ratio"] == band["ab"].size / K.nnz
        # and the block norms of the stopping rule
        _, norms, _ = assembly._band_scan(M0, B, pos, n_band, kl)
        npt.assert_allclose(norms, [abs(A).sum(axis=1).max() for A in (M0, B, B.T)], rtol=1e-13)

    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_band_matches_superlu(self, case, monkeypatch):
        system = BAND_CASES[case]()
        bands, _ = recorded_band(monkeypatch)
        sol = solve(system)
        (band,) = bands
        assert sol.stats["precision"] == "float32" and sol.stats["refine_error"] <= 2.0**-52
        assert sol.stats["factors"]["K"]["half_bandwidth"] == band["kl"]
        # the level order, not the node-paired one; the self-glued annulus has
        # fewer nodes around than across, so its levels are the circles
        order = sol.stats["factors"]["order"]
        assert set(order) == {"seconds", "start", "levels"}
        assert order["start"] == (0, "right" if case == "self-glued-annulus" else "bottom")
        border = band["pos"].size - band["n_band"]
        assert border == BAND_BORDERS[case]
        assert band["border"].shape[1] == border
        want = float64_solve(system, monkeypatch)
        assert want.stats["precision"] == "float64" and "order" in want.stats["factors"]
        scales = {name: np.abs(getattr(want, name)).max() for name in ("omega", "u", "p")}
        if case not in ("cavity", "curved-square", "channel"):
            # the annuli: Couette's pressure is zero up to rounding and the
            # source flow's vorticity small, so each field against the
            # solution's largest value
            scales = dict.fromkeys(scales, max(scales.values()))
        for name, scale in scales.items():
            got, ref = getattr(sol, name), getattr(want, name)
            assert np.abs(got - ref).max() <= 1e-12 * scale, name
        # Z's stream columns are integer curls, a flux carrier a floating-point
        # projection (the float64 path's divergence there is 1.9e-15)
        bound = 4e-15 if case == "flux-carrier-annulus" else 1e-15
        assert max(np.abs(sol.divergence_cochain(p)).max()
                   for p in range(len(system.spaces))) <= bound

    @pytest.mark.parametrize("spans", [4, 8, 16])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("geometry", ["unit-square", "curved-square"])
    def test_every_ladder_level_takes_the_band(self, geometry, degree, spans, monkeypatch):
        # the levels of the ladders benchmark, as its runner builds them (nodal
        # degree 2-4, half-bandwidth 25-161): the band, within the 6 refinement
        # steps the rule was measured at, and the float64 path's fields
        config = CaseConfig(case="manufactured", degree=degree, geometry=geometry)
        _, system, sol, _ = _solve_level(config, _geometry(config), spans, EXACT["velocity"],
                                         EXACT["velocity"], EXACT["forcing"])
        stats = sol.stats
        assert stats["precision"] == "float32" and "float32_fallback_s" not in stats
        assert 1 <= stats["refine_steps"] <= 6 and stats["refine_error"] <= 2.0**-52
        assert stats["factors"]["K"]["half_bandwidth"] <= assembly._BAND_MAX_WIDTH[degree + 1]
        want = float64_solve(system, monkeypatch)
        assert want.stats["precision"] == "float64"
        for name in ("omega", "u", "p"):
            got, ref = getattr(sol, name), getattr(want, name)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize("spans", [4, 8, 16])
    def test_every_couette_level_takes_the_band(self, spans, monkeypatch):
        # the levels of the couette benchmark (`run taylor-couette --degree 2
        # --levels 3`), as its runner builds them: glued, rational and with a
        # hole, they take the band in the level order from patch 0's bottom
        # side, and land on the float64 path's fields within 1e-11 of the
        # solution's largest value (its vorticity; the pressure is zero up to
        # rounding).  At 16 spans the vorticity moves by 4.9e-12 of it, while
        # both paths lie 6e-11 of it from the saddle system's own solve
        config = CaseConfig(case="taylor-couette", degree=2)
        tangential = {**SPIN, **{(p, "right"): lambda x, y: (0.0 * x, 0.0 * y) for p in range(4)}}
        _, system, sol, _ = _solve_level(config, _geometry(config), spans, None, tangential)
        stats = sol.stats
        assert stats["precision"] == "float32" and "float32_fallback_s" not in stats
        assert stats["refine_error"] <= 2.0**-52
        assert stats["factors"]["order"]["start"] == (0, "bottom")
        want = float64_solve(system, monkeypatch)
        assert want.stats["precision"] == "float64"
        scale = max(np.abs(getattr(want, name)).max() for name in ("omega", "u", "p"))
        for name in ("omega", "u", "p"):
            got, ref = getattr(sol, name), getattr(want, name)
            assert np.abs(got - ref).max() <= 1e-11 * scale, name
        assert max(np.abs(sol.divergence_cochain(p)).max() for p in range(4)) <= 1e-15

    def test_singular_band_factor_falls_back_to_the_float64_path(self, monkeypatch):
        # on the cavity scaled by 1e-6 the zeroing rule empties the M0 block:
        # sgbtrf reports a zero pivot, and K is factored once more, by the
        # float64 SuperLU path, which runs to its own error
        system = _lid_cavity(length=1e-6)
        with pytest.raises(SingularSystemError) as want:
            float64_solve(system, monkeypatch)
        bands, factors = recorded_band(monkeypatch)
        calls = recorded_splu(monkeypatch)
        with pytest.raises(SingularSystemError) as got:
            solve(system)
        assert len(bands) == 1 and [f["info"] > 0 for f in factors] == [True]
        n = bands[0]["pos"].size
        assert [dtype for shape, dtype in calls if shape == (n, n)] == [np.float64]
        assert str(got.value) == str(want.value)

    def test_fallback_frees_the_band_before_the_float64_factor(self, monkeypatch):
        # the cavity with no refinement step allowed: the band factor, its
        # pivots and the band are dead when the float64 factor of K starts
        system = _lid_cavity()
        bands, factors, alive_at_float64 = band_alive_at_the_float64_factor(monkeypatch)
        monkeypatch.setattr(assembly, "_MAX_REFINE_STEPS", 0)
        sol = solve(system)
        assert len(bands) == len(factors) == 1
        assert alive_at_float64 == [0]
        assert sol.stats["precision"] == "float64" and sol.stats["float32_fallback_s"] > 0.0
        assert 0.0 < sol.stats["refine_error"] <= 2.0**-52  # of the float64 path
        monkeypatch.undo()
        want = float64_solve(system, monkeypatch)
        for got, ref in ((sol.omega, want.omega), (sol.u, want.u), (sol.p, want.p)):
            npt.assert_array_equal(got, ref)

    def test_singular_schur_complement_falls_back_to_the_float64_path(self, monkeypatch):
        # the channel's border holds the top wall's stream unknown; with its
        # Schur complement reported singular, K goes to the float64 path once
        # the band, its factor and its pivots are dead
        system = BAND_CASES["channel"]()
        want = float64_solve(system, monkeypatch)
        bands, factors, alive_at_float64 = band_alive_at_the_float64_factor(monkeypatch)
        inverted = []

        def inv(a):
            inverted.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", inv)
        sol = solve(system)
        assert inverted == [(1, 1)]
        assert [f["info"] for f in factors] == [0] and len(bands) == 1
        assert alive_at_float64 == [0]
        assert sol.stats["precision"] == "float64" and sol.stats["float32_fallback_s"] > 0.0
        for got, ref in ((sol.omega, want.omega), (sol.u, want.u), (sol.p, want.p)):
            npt.assert_array_equal(got, ref)

    @pytest.mark.parametrize("case", ["glued", "float64-size", "degree-above-ceiling",
                                      "outside-the-band-rule"])
    def test_no_band_factor(self, case, monkeypatch):
        # Couette at nodal degree 8, a band wider than the rule's at its degree
        # (nodal degree 6 at 28 spans: half-bandwidth 409), a K at nodal
        # degree 11 and one at nodal degree 7, outside the band rule: all go
        # to float64
        system = {
            "glued": lambda: _couette(spans=4, p_nodal=8),
            "float64-size": lambda: _lid_cavity(p_nodal=6, spans=28),
            "degree-above-ceiling": lambda: _lid_cavity(p_nodal=11, spans=16),
            "outside-the-band-rule": lambda: _lid_cavity(p_nodal=7, spans=12),
        }[case]()
        _, factors = recorded_band(monkeypatch)
        sol = solve(system)
        assert factors == []
        assert "half_bandwidth" not in sol.stats["factors"]["K"]
        assert sol.stats["precision"] == "float64"

    @pytest.mark.parametrize("case", ["band", "float64"])
    def test_every_solve_factors_L_through_splu(self, case, monkeypatch):
        # the benchmark tracer times the factor and the solves of L through
        # spla.splu, whichever path K's solve takes
        system = {"band": _lid_cavity, "float64": SUPERLU_CASES["curved-square"]}[case]()
        original_splu = spla.splu
        calls = []

        class Counted:  # counts the solves of one factor
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, *args, **kwargs):
                self.solves += 1
                return self.lu.solve(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.lu, name)

        def splu(matrix, *args, **kwargs):
            calls.append((matrix.shape, Counted(original_splu(matrix, *args, **kwargs))))
            return calls[-1][1]

        monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=splu, spilu=spla.spilu))
        sol = solve(system)
        n_L = system.n2 - (1 if system.gauge else 0)
        assert calls[0][0] == (n_L, n_L)
        assert sol.stats["factors"]["L"]["nnz"] == calls[0][1].nnz
        assert calls[0][1].solves >= 2  # the lift and the pressure
        assert len(calls) == (1 if case == "band" else 2)


def scattered_matrix(system):
    """Test-only oracle: the mixed matrix scattered patch by patch into COO triplets."""
    n0, n1, nu = system.n0, system.n1, system.nu
    rows, cols, vals = [], [], []

    def add(r, c, m, sym=True):
        m = m.tocoo()
        rows.append(r[m.row])
        cols.append(c[m.col])
        vals.append(m.data)
        if sym:
            rows.append(c[m.col])
            cols.append(r[m.row])
            vals.append(m.data)

    for p, (s0, s1, s2) in enumerate(system.spaces):
        M0, M1, M2 = (assemble_mass(s, system.patches[p], n_quad=system.n_quad).matrix
                      for s in (s0, s1, s2))
        D10 = s0.coboundary_matrix().tocsc()
        D21 = s1.coboundary_matrix().tocsc()
        g0 = system.map0[p]
        g1 = n0 + system.map1[p]
        g2 = n0 + n1 + system.map2[p]
        add(g0, g0, -nu * M0, sym=False)
        add(g1, g0, nu * (M1 @ D10))
        add(g2, g1, M2 @ D21)
    if system.gauge:
        pr = n0 + n1 + np.arange(system.n2)
        last = np.full(system.n2, system.size - 1)
        rows += [last, pr]
        cols += [pr, last]
        vals += [np.ones(system.n2)] * 2
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(system.size, system.size),
    ).tocsr()


def matrix_residual(system, omega, u, p, lam):
    """Test-only oracle: the reduced, nu-scaled relative residual through ``system.matrix``."""
    n0, n1, n2, nu = system.n0, system.n1, system.n2, system.nu
    A = system.matrix
    fixed = np.flatnonzero(~system.free)
    lifted = np.zeros(system.size)
    lifted[n0 + fixed] = system.e_fixed[fixed]
    full = np.concatenate((omega, u, p, [lam] if system.gauge else []))
    row_scale = np.ones(system.size)
    row_scale[: n0 + n1] = 1.0 / nu
    row_scale[n0 + n1 + n2 :] = 1.0 / nu
    keep = np.setdiff1d(np.arange(system.size), n0 + fixed)
    b_red = (row_scale * (system.rhs - A @ lifted))[keep]
    r_red = (row_scale * (A @ full - system.rhs))[keep]
    return np.abs(r_red).max() / np.abs(b_red).max()


BLOCK_CASES = {
    "unit-square": lambda nu: _manufactured_case(unit_square_patch(), nu=nu),
    "curved-square": lambda nu: _manufactured_case(curved_square_patch(), nu=nu),
    "top-side-free": lambda nu: _manufactured_case(
        unit_square_patch(), ((0, "left"), (0, "right"), (0, "bottom")), nu=nu
    ),
    "annulus": lambda nu: _annulus_case(_source_flow, _source_flow, nu=nu),
}


@pytest.fixture
def matrix_reads(monkeypatch):
    """The systems whose ``SaddleSystem.matrix`` is read while the test runs, in order."""
    reads = []
    build = assembly.SaddleSystem.matrix.fget

    def counted(system):
        reads.append(system)
        return build(system)

    monkeypatch.setattr(assembly.SaddleSystem, "matrix", property(counted))
    return reads


class TestBlockSystem:
    @pytest.mark.parametrize("case", ["unit-square", "curved-square", "annulus"])
    def test_matrix_matches_scattered_oracle(self, case, matrix_reads):
        system = BLOCK_CASES[case](1.7)
        assert not matrix_reads  # assembly and boundary data never read it
        got, want = system.matrix, scattered_matrix(system)
        assert matrix_reads == [system]
        got.sort_indices()
        want.sort_indices()
        npt.assert_array_equal(got.indptr, want.indptr)
        npt.assert_array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()

    def test_coboundaries_count_a_glued_cell_once(self):
        system = BLOCK_CASES["annulus"](1.0)
        npt.assert_array_equal(abs(system.D10).sum(axis=1), 2)
        assert (system.D21 @ system.D10).nnz == 0

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("nu", [1.0, 0.03, 250.0])
    def test_block_residual_matches_matrix_formula(self, case, nu):
        system = BLOCK_CASES[case](nu)
        assert system.gauge == (case != "top-side-free")
        rng = np.random.default_rng(17)
        vectors = (rng.standard_normal(n) for n in (system.n0, system.n1, system.n2))
        omega, u, p = vectors
        lam = float(rng.standard_normal())
        got = assembly._reduced_residual(system, omega, u, p, lam)
        want = matrix_residual(system, omega, u, p, lam)
        assert abs(got - want) <= 1e-12 * want

    def test_solve_never_assembles_the_matrix(self, matrix_reads):
        system = BLOCK_CASES["annulus"](1.0)
        solve(system)
        assert not matrix_reads

    def test_matrix_follows_an_in_place_edit_of_a_block(self):
        system = BLOCK_CASES["unit-square"](1.0)
        before = system.matrix
        entries = system.M0.tocoo()  # the compressed arrays' order
        off = np.flatnonzero(entries.row != entries.col)[0]
        system.M0.data[off] += 1e-6 * abs(system.M0.data).max()
        change = (system.matrix - before).tocoo()
        change.eliminate_zeros()
        # the top-left block of the operator is -nu M0
        assert list(zip(change.row, change.col)) == [(entries.row[off], entries.col[off])]


class TestSelfGluedPatch:
    """The annulus as one patch glued to itself: both copies of a seam cell lie in that patch."""

    def test_seam_cell_keeps_one_integer_d10_row(self):
        # every 1-cell row holds its two end nodes once each; the solve on this
        # geometry is `splineforms verify`'s self-glued check
        system = assemble_vvp([vvp_spaces(_bases(3, 8))], build_self_glued_annulus())
        npt.assert_array_equal(abs(system.D10).sum(axis=1), 2)
        assert abs(system.D10).max() == 1


def unit_square_grid():
    """Four unit squares glued into a 2 x 2 grid; all four share the centre vertex."""
    base = unit_square_patch()
    patches = [NurbsPatch(base.bases, base.control + [i, j]) for j in (0, 1) for i in (0, 1)]
    glue = [(0, "right", 1, "left", 1), (2, "right", 3, "left", 1),
            (0, "top", 2, "bottom", 1), (1, "top", 3, "bottom", 1)]
    return MultiPatch(patches, glue)


GLUED_GEOMETRIES = {
    "couette": lambda: (4, build_taylor_couette()),
    "self-glued": lambda: (1, build_self_glued_annulus()),
    "grid": lambda: (4, unit_square_grid()),
}


def seeded_glued_systems(seed):
    """Every glued geometry with seeded nodal degree 1-3 and 4 or 8 spans per direction."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    bases = tuple(make_basis(p, int(rng.choice([4, 8]))) for _ in range(2))
    for name, build in GLUED_GEOMETRIES.items():
        n_patches, geometry = build()
        yield name, assemble_vvp([vvp_spaces(bases)] * n_patches, geometry)


def patch_blocks(system):
    """Each block's global shape and its patches' (matrix, row map, column map) parts.

    The patch matrices are ``assemble_mass`` of the patch's spaces and the
    coboundaries of its complex.
    """
    maps, sizes = (system.map0, system.map1, system.map2), (system.n0, system.n1, system.n2)
    blocks = {}
    for k in (0, 1, 2):
        blocks[f"M{k}"] = ((sizes[k],) * 2, [
            (assemble_mass(triple[k], patch, n_quad=system.n_quad).matrix, maps[k][p], maps[k][p])
            for p, (triple, patch) in enumerate(zip(system.spaces, system.patches))])
    for k, name in ((0, "D10"), (1, "D21")):
        blocks[name] = ((sizes[k + 1], sizes[k]), [
            (triple[k].coboundary_matrix(), maps[k + 1][p], maps[k][p])
            for p, triple in enumerate(system.spaces)])
    return blocks


def dense_sum(shape, parts, once=False):
    """Test-only oracle: every part's entries added at their glued places with ``np.add.at``.

    With ``once`` each row is divided by the number of its copies: a
    glued cell's coboundary row counts once.
    """
    want, copies = np.zeros(shape), np.zeros(shape[0])
    for m, rows, cols in parts:
        m = m.tocoo()
        np.add.at(want, (rows[m.row], cols[m.col]), m.data)
        np.add.at(copies, rows, 1)
    return want / copies[:, None] if once else want


def coo_placed(shape, parts, first_copies=False):
    """Test-only oracle: the placement as it once was, through COO triplets.

    One part numbered by the identity is returned as it is.  Otherwise
    every part's compressed arrays go, in their stored order, into one CSR
    that sums duplicates; with ``first_copies`` a row glued to an earlier
    one is left out, so only the first copy of a glued cell writes it.
    """
    if len(parts) == 1 and parts[0][1].size == shape[0] and parts[0][2].size == shape[1]:
        return parts[0][0]
    seen = np.zeros(shape[0], dtype=bool)
    data, rows, cols = [], [], []
    for m, row_map, col_map in parts:
        keep = np.ones(row_map.size, dtype=bool)
        if first_copies:
            keep[:] = False
            keep[np.unique(row_map, return_index=True)[1]] = True
            keep &= ~seen[row_map]
            seen[row_map] = True
        m = m.tocoo()
        kept = keep[m.row]
        data.append(m.data[kept])
        rows.append(row_map[m.row[kept]])
        cols.append(col_map[m.col[kept]])
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape)


def assert_same_arrays(got, want):
    assert got.format == want.format
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype
        npt.assert_array_equal(a, b)


def expected_format(system, name):
    """CSC for a mass block numbered by the identity (one patch, no glue), CSR otherwise."""
    k = int(name[1])
    identity = len(system.spaces) == 1 and system.spaces[0][k].dim == (
        system.n0, system.n1, system.n2)[k]
    return "csc" if name[0] == "M" and identity else "csr"


class TestGlued:
    """Each block of a glued system, built from the triplets or rows of all its patches."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_sum(self, seed):
        # couette and the self-glued annulus sum at most two contributions per
        # entry, in any order alike; the grid's centre vertex sums four, in
        # patch order as the oracle does
        for geometry, system in seeded_glued_systems(seed):
            for name, (shape, parts) in patch_blocks(system).items():
                got = getattr(system, name)
                assert got.format == expected_format(system, name), (geometry, name)
                npt.assert_array_equal(got.toarray(), dense_sum(shape, parts, once=name == "D10"),
                                       err_msg=f"{geometry} {name}")

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_coo_placement(self, seed):
        # the grid's entries where four patches meet are summed in patch order,
        # not in scipy's, so its values come from the np.add.at oracle
        for geometry, system in seeded_glued_systems(seed):
            for name, (shape, parts) in patch_blocks(system).items():
                want = coo_placed(shape, parts, first_copies=name == "D10")
                if geometry == "grid":
                    rows = np.repeat(np.arange(shape[0]), np.diff(want.indptr))
                    want.data[:] = dense_sum(shape, parts, once=name == "D10")[rows, want.indices]
                assert_same_arrays(getattr(system, name), want)

    @pytest.mark.parametrize("seed", range(2))
    def test_gram_matrices_exactly_symmetric(self, seed):
        # the grid's centre vertex sums four patches' entries, the annuli two
        for geometry, system in seeded_glued_systems(seed):
            for name in ("M0", "M1", "M2"):
                M = getattr(system, name)
                assert (M != M.T).nnz == 0, (geometry, name)

    def test_couette_blocks_bit_identical_to_coo_placement(self):
        # the three levels of `run taylor-couette --degree 2 --levels 3`
        for spans in (4, 8, 16):
            system = assemble_vvp([vvp_spaces(_bases(3, spans))] * 4, build_taylor_couette())
            for name, (shape, parts) in patch_blocks(system).items():
                got = getattr(system, name)
                assert got.format == "csr" and got.has_canonical_format
                assert_same_arrays(got, coo_placed(shape, parts, first_copies=name == "D10"))

    def test_identity_part_returned_as_is(self):
        # one patch without glue: the kernel's CSC and the complex's own coboundaries
        for patch in (unit_square_patch(), curved_square_patch()):
            spaces = vvp_spaces(_bases(3, 6))
            system = assemble_vvp(spaces, patch)
            for k, space in enumerate(spaces):
                assert_same_arrays(getattr(system, f"M{k}"), assemble_mass(space, patch).matrix)
            assert system.D10 is spaces[0].coboundary_matrix()
            assert system.D21 is spaces[1].coboundary_matrix()
        # the self-glued annulus glues nodes and 1-cells, not 2-cells
        triple = vvp_spaces(_bases(3, 8))
        annulus = build_self_glued_annulus()
        system = assemble_vvp([triple], annulus)
        assert_same_arrays(system.M2, assemble_mass(triple[2], annulus.patches[0]).matrix)
        assert [getattr(system, name).format for name in ("M0", "M1", "D10", "D21")] == ["csr"] * 4


class TestSharedGeometryTables:
    @pytest.mark.parametrize("geometry, tables", [("annulus", 2), ("curved-square", 1)])
    def test_grid_equals_direct_evaluation(self, geometry, tables):
        # the four quarter patches share one table per direction; the curved
        # square's two directions share one basis and one axis, hence one table
        patches = (build_taylor_couette().patches if geometry == "annulus"
                   else [curved_square_patch()])
        bases = _bases(3, 4)
        for patch in patches:
            grid = _PatchGrid(bases, patch, need_phys=True)
            x, y = grid.axes[0].pts, grid.axes[1].pts
            jac, det = patch.jacobian_grid(x, y)
            npt.assert_array_equal(grid.jac, jac)
            npt.assert_array_equal(grid.det, det)
            npt.assert_array_equal(grid.phys, patch.map_grid(x, y))
        assert sum(len(axis._tables) for axis in kept_axes(bases)) == tables

    def test_grid_geometry_goes_through_the_public_grid_methods(self, monkeypatch):
        # per-layer timing wraps map_grid/jacobian_grid; the grids must call them
        patch, called = curved_square_patch(), []
        for name in ("map_grid", "jacobian_grid"):
            original = getattr(NurbsPatch, name)

            def wrapped(patch, x, y, name=name, original=original):
                called.append((name, type(x).__name__, type(y).__name__))
                return original(patch, x, y)

            monkeypatch.setattr(NurbsPatch, name, wrapped)
        _PatchGrid(_bases(2, 3), patch, need_phys=True)
        assert sorted(called) == [("jacobian_grid", "_Axis", "_Axis"), ("map_grid", "_Axis", "_Axis")]


class TestGridLifetime:
    """The Gram kernel reads block metrics and Gauss axes: no patch grid is alive in its products."""

    @pytest.fixture
    def watch(self, monkeypatch):
        grids, kernel_calls = [], []

        class WatchedGrid(_PatchGrid):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                grids.append(weakref.ref(self))

        kernel = assembly._assemble_mass_on_grid

        def checked(*args, **kwargs):
            alive = [ref for ref in grids if ref() is not None]
            assert grids and not alive, f"{len(alive)} grid(s) alive in the Gram products"
            kernel_calls.append(len(grids))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(assembly, "_PatchGrid", WatchedGrid)
        monkeypatch.setattr(assembly, "_assemble_mass_on_grid", checked)
        return grids, kernel_calls

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_assemble_mass(self, watch, k):
        grids, kernel_calls = watch
        assemble_mass(DiscreteFormSpace(_bases(3, 6), k), curved_square_patch())
        assert (len(grids), kernel_calls) == (1, [1])

    @pytest.mark.parametrize("geometry", ["unit-square", "couette"])
    def test_assemble_vvp_with_forcing(self, watch, geometry):
        grids, kernel_calls = watch
        if geometry == "couette":
            n_patches, domain = 4, build_taylor_couette()
            spaces = [vvp_spaces(_bases(3, 4))] * n_patches
        else:
            n_patches, domain, spaces = 1, unit_square_patch(), vvp_spaces(_bases(3, 6))
        system = assemble_vvp(spaces, domain, forcing=EXACT["forcing"])
        # every grid was built (and dropped) before the first product
        assert kernel_calls == [n_patches] * 3 * n_patches
        assert np.abs(system.rhs).max() > 0.0


def _perturbed_annulus_spaces(direction, what="knot"):
    """Four quarter-patch triples; patch 0 has a perturbed field basis along one direction.

    ``what`` is "knot" (interior knot 0.5 moved to 0.55) or "weight" (one
    weight set to 1.2, a rational basis on the same knots).
    """
    knots = uniform_open_knots(3, 4)
    weights = None
    if what == "knot":
        knots[knots == 0.5] = 0.55
    else:
        weights = np.ones(knots.size - 4)
        weights[3] = 1.2
    bases = [make_basis(3, 4), make_basis(3, 4)]
    bases[direction] = Basis1D(KnotVector(knots, 3), weights)
    return [vvp_spaces(bases)] + [make_spaces(3, 4) for _ in range(3)]


class TestGluedInterfaces:
    @pytest.mark.parametrize("what", ["knot", "weight"])
    def test_perturbed_basis_along_glued_sides_rejected(self, what):
        with pytest.raises(ConstructionError, match="different field bases"):
            assemble_vvp(_perturbed_annulus_spaces(0, what), build_taylor_couette())

    def test_span_count_mismatch_rejected(self):
        triples = [make_spaces(3, 5)] + [make_spaces(3, 4) for _ in range(3)]
        with pytest.raises(ConstructionError, match="different field bases"):
            assemble_vvp(triples, build_taylor_couette())

    def test_moved_knot_across_glued_sides_accepted(self):
        # the glued sides run along direction 1 (radial); direction 2 may differ
        system = assemble_vvp(_perturbed_annulus_spaces(1), build_taylor_couette())
        apply_strong_normal_velocity(system, _source_flow)
        apply_weak_tangential_velocity(system, _source_flow)
        sol = solve(system)
        assert sol.residual <= 1e-10
        assert np.abs(sol.divergence_cochain(0)).max() <= 1e-9

    def test_one_shared_triple_equals_four_equal_triples(self):
        # sharing the per-basis work across patches changes no bit of the system
        shared = [vvp_spaces(_bases(3, 4))] * 4
        equal = [vvp_spaces(_bases(3, 4)) for _ in range(4)]
        systems, solutions = [], []
        for triples in (shared, equal):
            system = assemble_vvp(triples, build_taylor_couette())
            apply_strong_normal_velocity(system, _source_flow)
            apply_weak_tangential_velocity(system, _source_flow)
            systems.append(system)
            solutions.append(solve(system))
        for name in ("M0", "M1", "M2", "D10", "D21"):
            a, b = (getattr(s, name) for s in systems)
            for attr in ("data", "indices", "indptr"):
                npt.assert_array_equal(getattr(a, attr), getattr(b, attr))
        npt.assert_array_equal(systems[0].rhs, systems[1].rhs)
        for name in ("omega", "u", "p"):
            npt.assert_array_equal(*(getattr(s, name) for s in solutions))


def random_open_basis(p, rng, weighted):
    """Open knot vector with 1-7 random interior knots of multiplicity up to p - 1."""
    inner = np.sort(rng.uniform(0.05, 0.95, rng.integers(1, 8)))
    knots = np.repeat(inner, rng.integers(1, p, inner.size))
    kv = KnotVector(np.concatenate(([0.0] * (p + 1), knots, [1.0] * (p + 1))), p)
    return Basis1D(kv, rng.uniform(0.5, 2.0, kv.num_basis) if weighted else None)


def sweep_case(seed):
    """Manufactured Stokes system on seeded random (possibly rational) spline spaces."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 5))
    weighted = rng.permutation([True, False])  # one of the two bases is rational
    bases = tuple(random_open_basis(p, rng, w) for w in weighted)
    patch = curved_square_patch() if rng.integers(2) else unit_square_patch()
    system = assemble_vvp(vvp_spaces(bases), patch, forcing=EXACT["forcing"])
    apply_strong_normal_velocity(system, EXACT["velocity"])
    apply_weak_tangential_velocity(system, EXACT["velocity"])
    return system


@pytest.mark.parametrize("seed", range(30))
def test_seeded_sweep_matches_mixed_reference(seed):
    system = sweep_case(seed)
    sol = solve(system)
    assert sol.residual <= 1e-10
    assert np.abs(sol.divergence_cochain(0)).max() <= 1e-9
    # the tolerance is set by the spsolve reference: on seed 7 it is 9e-10
    # (relative) away from this solve and from a threshold-pivoting LU of
    # the same vorticity-stream system, which agree with each other to 4e-13
    for got, ref in zip((sol.omega, sol.u, sol.p), mixed_reference(system)):
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def annulus_sweep_case(seed, nu=None):
    """Source flow on the annulus with seeded random field bases, viscosity and normal sides.

    The radial field basis runs along every glued side, so the four
    patches share it; each patch draws its own angular basis.  Both carry
    jittered knots and random weights.  Normal velocity is prescribed on
    a random proper subset of the eight boundary sides, so no pressure
    gauge is set.  ``nu`` defaults to a log-uniform draw in [1e-8, 1e4].
    """
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    radial = random_open_basis(p, rng, True)
    triples = [vvp_spaces((radial, random_open_basis(p, rng, True))) for _ in range(4)]
    drawn_nu = 10.0 ** rng.uniform(-8.0, 4.0)
    sides = [(q, side) for q in range(4) for side in ("left", "right")]
    chosen = rng.permutation(len(sides))[: rng.integers(1, len(sides))]
    normal_sides = tuple(sides[i] for i in sorted(chosen))
    system = assemble_vvp(triples, build_taylor_couette(), nu=drawn_nu if nu is None else nu,
                          normal_sides=normal_sides)
    apply_strong_normal_velocity(system, _source_flow)
    apply_weak_tangential_velocity(system, _source_flow)
    return system


@pytest.mark.parametrize("seed", range(10))
def test_seeded_annulus_sweep(seed):
    system = annulus_sweep_case(seed)
    assert not system.gauge
    sol = solve(system)
    assert sol.residual <= 1e-10
    assert max(np.abs(sol.divergence_cochain(q)).max() for q in range(4)) <= 1e-9
    for got, ref in zip((sol.omega, sol.u, sol.p), mixed_reference(system)):
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())
    # Stokes flow: velocity and vorticity do not depend on nu, pressure scales with it
    unit = solve(annulus_sweep_case(seed, nu=1.0))
    for a, b in ((sol.omega, unit.omega), (sol.u, unit.u), (sol.p / system.nu, unit.p)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


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
