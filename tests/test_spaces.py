"""Discrete form spaces: dimensions, evaluation, exact exterior derivative."""

import numpy as np
import numpy.testing as npt
import pytest

from splineforms.errors import ConstructionError, DomainError
from splineforms.spaces import DiscreteForm, DiscreteFormSpace
from splineforms.splines import Basis1D, KnotVector, uniform_open_knots
from splineforms._quadrature import panel_rule


def make_basis(p, spans, weights=None, lo=0.0, hi=1.0):
    return Basis1D(KnotVector(uniform_open_knots(p, spans, lo, hi), p), weights)


@pytest.fixture
def mixed_bases():
    bx = Basis1D(KnotVector([0, 0, 0, 1, 1, 1], 2))
    by = Basis1D(KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2))
    return bx, by


def test_dimensions_2d(mixed_bases):
    bx, by = mixed_bases
    assert DiscreteFormSpace((bx, by), 0).dim == 12
    assert DiscreteFormSpace((bx, by), 1).dim == 17
    assert DiscreteFormSpace((bx, by), 2).dim == 6


def test_dimensions_3d():
    b = make_basis(2, 2)  # 4 nodal functions, 3 edge functions
    s1 = DiscreteFormSpace((b, b, b), 1)
    assert s1.dim == 3 * (3 * 4 * 4)
    s2 = DiscreteFormSpace((b, b, b), 2)
    assert s2.dim == 3 * (4 * 3 * 3)
    s3 = DiscreteFormSpace((b, b, b), 3)
    assert s3.dim == 27


def test_block_layout_matches_complex(mixed_bases):
    bx, by = mixed_bases
    s1 = DiscreteFormSpace((bx, by), 1)
    assert [blk.dirs for blk in s1.blocks] == [(0,), (1,)]
    assert [blk.shape for blk in s1.blocks] == [(2, 4), (3, 3)]


def test_eval_partition_of_unity(mixed_bases):
    space = DiscreteFormSpace(mixed_bases, 0)
    ones = DiscreteForm(space, np.ones(space.dim))
    xs = np.linspace(0, 1, 17)
    vals = ones.eval_grid((xs, xs))[0]
    npt.assert_allclose(vals, 1.0, atol=1e-14)
    npt.assert_allclose(ones.eval([0.3, 0.8]), [1.0], atol=1e-14)


def test_eval_zero_and_volume_integral(mixed_bases):
    space = DiscreteFormSpace(mixed_bases, 2)
    zero = space.zero()
    assert np.abs(zero.eval([0.4, 0.2])).max() == 0.0
    # all-ones area form integrates to the number of faces (unit integrals)
    ones = DiscreteForm(space, np.ones(space.dim))
    pts, wts = panel_rule(np.linspace(0, 1, 9), 8)
    vals = ones.eval_grid((pts.ravel(), pts.ravel()))[0]
    total = np.einsum("i,j,ij->", wts.ravel(), wts.ravel(), vals)
    assert abs(total - space.dim) < 1e-12


def test_gradient_coefficient_pattern():
    b = make_basis(2, 3)
    s0 = DiscreteFormSpace((b, b), 0)
    rng = np.random.default_rng(0)
    T = rng.standard_normal(s0.dim)
    grad = DiscreteForm(s0, T).exterior_derivative()
    s = b.num_basis
    Tg = T.reshape(s, s, order="F")
    block_x = grad.block_coeffs(0)
    npt.assert_allclose(block_x, Tg[1:, :] - Tg[:-1, :])
    block_y = grad.block_coeffs(1)
    npt.assert_allclose(block_y, Tg[:, 1:] - Tg[:, :-1])


def test_dd_is_zero_integer():
    b = make_basis(3, 3)
    s0 = DiscreteFormSpace((b, b), 0)
    rng = np.random.default_rng(1)
    T = rng.integers(-9, 10, size=s0.dim)
    dd = DiscreteForm(s0, T).exterior_derivative().exterior_derivative()
    assert dd.coeffs.dtype.kind == "i"
    assert not dd.coeffs.any()


def test_3d_divergence_pattern():
    b = make_basis(2, 2)
    s2 = DiscreteFormSpace((b, b, b), 2)
    rng = np.random.default_rng(2)
    q = rng.standard_normal(s2.dim)
    div = DiscreteForm(s2, q).exterior_derivative()
    f = DiscreteForm(s2, q)
    q1, q2, q3 = (f.block_coeffs(i) for i in range(3))
    oracle = (
        (q1[1:, :, :] - q1[:-1, :, :])
        + (q2[:, 1:, :] - q2[:, :-1, :])
        + (q3[:, :, 1:] - q3[:, :, :-1])
    )
    npt.assert_allclose(div.block_coeffs(0), oracle)


@pytest.mark.parametrize("weights", [None, "random"])
def test_derivative_matches_analytic_reconstruction(weights):
    rng = np.random.default_rng(5)
    w = None if weights is None else rng.uniform(0.5, 2.0, 7)
    bx = make_basis(3, 4, w)
    by = make_basis(2, 5)
    s0 = DiscreteFormSpace((bx, by), 0)
    s1 = DiscreteFormSpace((bx, by), 1)
    xs = np.sort(rng.uniform(0, 1, 20))
    ys = np.sort(rng.uniform(0, 1, 10))

    # gradient of a 0-form: compare D-coefficients against nodal derivatives
    T = DiscreteForm(s0, rng.standard_normal(s0.dim))
    grad = T.exterior_derivative()
    npt.assert_allclose(
        grad.eval_grid((xs, ys), comp=0)[0],
        T.eval_grid((xs, ys), deriv_dir=0)[0],
        atol=1e-11,
    )
    npt.assert_allclose(
        grad.eval_grid((xs, ys), comp=1)[0],
        T.eval_grid((xs, ys), deriv_dir=1)[0],
        atol=1e-11,
    )

    # rotation of a 1-form: d(u_dx dx + u_dy dy) = (dx u_dy - dy u_dx) dx^dy
    u = DiscreteForm(s1, rng.standard_normal(s1.dim))
    rot = u.exterior_derivative()
    analytic = (
        u.eval_grid((xs, ys), comp=1, deriv_dir=0)[0]
        - u.eval_grid((xs, ys), comp=0, deriv_dir=1)[0]
    )
    npt.assert_allclose(rot.eval_grid((xs, ys))[0], analytic, atol=1e-11)


def test_discrete_sequence_exactness():
    # on the square every discretely rotation-free 1-cochain is a gradient
    b = make_basis(2, 4)
    s0 = DiscreteFormSpace((b, b), 0)
    s1 = DiscreteFormSpace((b, b), 1)
    D10 = s0.coboundary_matrix().toarray().astype(float)
    D21 = s1.coboundary_matrix().toarray().astype(float)
    n_pts, n_edg, n_fac = D10.shape[1], D10.shape[0], D21.shape[0]
    assert np.linalg.matrix_rank(D10) == n_pts - 1
    assert np.linalg.matrix_rank(D21) == n_fac
    # build a rotation-free cochain from the nullspace of D21 and solve for psi
    _, s, vt = np.linalg.svd(D21)
    null = vt[n_fac:]
    rng = np.random.default_rng(8)
    u = null.T @ rng.standard_normal(null.shape[0])
    assert np.abs(D21 @ u).max() < 1e-12
    psi, *_ = np.linalg.lstsq(D10, u, rcond=None)
    assert np.abs(D10 @ psi - u).max() < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_degree_zero_nodal_basis_rejected(k):
    # the edge functions are derivatives of the nodal ones
    b0 = Basis1D(KnotVector([0.0, 0.5, 1.0], 0))
    with pytest.raises(ConstructionError, match="degree >= 1"):
        DiscreteFormSpace((b0, make_basis(2, 3)), k)


def test_derivative_of_top_form_raises(mixed_bases):
    space = DiscreteFormSpace(mixed_bases, 2)
    with pytest.raises(ConstructionError):
        space.zero().exterior_derivative()


def test_nan_eval_rejected(mixed_bases):
    space = DiscreteFormSpace(mixed_bases, 1)
    form = DiscreteForm(space, np.ones(space.dim))
    for x in ([np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(DomainError):
            form.eval(x)
        with pytest.raises(DomainError):
            form.eval_grid((np.array([x[0]]), np.array([x[1]])))


def test_out_of_domain_eval(mixed_bases):
    space = DiscreteFormSpace(mixed_bases, 0)
    form = DiscreteForm(space, np.ones(space.dim))
    from splineforms.errors import DomainError

    with pytest.raises(DomainError):
        form.eval([1.5, 0.2])
