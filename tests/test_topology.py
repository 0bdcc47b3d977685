"""Cell complex and incidence-matrix tests, all in exact integer arithmetic.

Chains and cochains are plain integer coefficient vectors: the boundary
of a chain c is E @ c and the coboundary of a cochain b is E.T @ b.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from splineforms.errors import ConstructionError
from splineforms.topology import CellComplex, block_orientation

GRIDS = [(3,), (4,), (2, 3), (4, 4), (1, 1, 1), (2, 2, 2), (4, 4, 4), (2, 3, 4)]


def test_interval_incidence():
    E = CellComplex((3,)).incidence(1).toarray()
    expected = np.array([[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1]])
    npt.assert_array_equal(E, expected)


def test_single_cube_volume_incidence():
    E = CellComplex((1, 1, 1)).incidence(3).toarray().ravel()
    npt.assert_array_equal(E, [-1, 1, -1, 1, -1, 1])


def test_boundary_of_boundary_is_empty():
    for dims in GRIDS:
        cx = CellComplex(dims)
        for k in range(2, len(dims) + 1):
            prod = cx.incidence(k - 1) @ cx.incidence(k)
            assert prod.dtype.kind == "i"
            assert prod.nnz == 0


def test_cell_counts():
    cx = CellComplex((3, 2))
    assert cx.num_cells(0) == 4 * 3
    assert cx.num_cells(1) == 3 * 3 + 4 * 2
    assert cx.num_cells(2) == 3 * 2
    cx3 = CellComplex((2, 3, 4))
    assert cx3.num_cells(0) == 3 * 4 * 5
    assert cx3.num_cells(1) == 2 * 4 * 5 + 3 * 3 * 5 + 3 * 4 * 4
    assert cx3.num_cells(3) == 2 * 3 * 4


def test_column_structure():
    # each k-cell boundary has 2k entries, paired with opposite signs
    for dims in [(4,), (3, 2), (2, 3, 2)]:
        cx = CellComplex(dims)
        for k in range(1, len(dims) + 1):
            E = cx.incidence(k)
            assert E.format == "csc" and E.dtype == np.int64
            for j in range(E.shape[1]):
                col = E.data[E.indptr[j] : E.indptr[j + 1]]
                assert len(col) == 2 * k
                assert sorted(col.tolist()) == [-1] * k + [1] * k


def test_boundary_of_single_volume():
    cx = CellComplex((1, 1, 1))
    out = cx.incidence(3) @ np.array([1])
    npt.assert_array_equal(out, [-1, 1, -1, 1, -1, 1])
    again = cx.incidence(2) @ out
    assert not again.any()


def test_adjacent_faces_cancel_shared_edge():
    # two faces side by side in x, same orientation: shared edge drops out
    cx = CellComplex((2, 1))
    out = cx.incidence(2) @ np.array([1, 1])
    # y-running edges come after the 2*(1+1)=4 x-running ones; middle one is shared
    y_edges = out[4:]
    assert y_edges[1] == 0
    assert y_edges[0] == -1 and y_edges[2] == 1


def test_boundary_of_boundary_random_chains():
    rng = np.random.default_rng(3)
    for dims in [(4, 4), (2, 3, 2)]:
        cx = CellComplex(dims)
        k = len(dims)
        for _ in range(25):
            chain = rng.integers(-1, 2, size=cx.num_cells(k))
            out = cx.incidence(k - 1) @ (cx.incidence(k) @ chain)
            assert out.dtype.kind == "i" and not out.any()


def test_coboundary_1d_differences():
    cx = CellComplex((4,))
    T = np.array([3.0, 5.0, 4.0, 0.0, 2.0])
    out = cx.incidence(1).T @ T
    npt.assert_array_equal(out, [2.0, -1.0, -4.0, 2.0])


def test_coboundary_squared_is_zero():
    rng = np.random.default_rng(5)
    for dims in [(3, 3), (2, 2, 3)]:
        cx = CellComplex(dims)
        for k in range(len(dims) - 1):
            b = rng.integers(-9, 10, size=cx.num_cells(k))
            dd = cx.incidence(k + 2).T @ (cx.incidence(k + 1).T @ b)
            assert not dd.any()


def test_3d_curl_component_formula():
    # face values from edge values, against the component-wise update rule
    rng = np.random.default_rng(9)
    n1, n2, n3 = 2, 2, 2
    cx = CellComplex((n1, n2, n3))
    s1, s2, s3 = n1 + 1, n2 + 1, n3 + 1
    u1 = rng.integers(-5, 6, size=(n1, s2, s3))
    u2 = rng.integers(-5, 6, size=(s1, n2, s3))
    u3 = rng.integers(-5, 6, size=(s1, s2, n3))
    u = np.concatenate([a.ravel(order="F") for a in (u1, u2, u3)])
    result = cx.incidence(2).T @ u
    w1 = (u3[:, 1:, :] - u3[:, :-1, :]) - (u2[:, :, 1:] - u2[:, :, :-1])
    w2 = (u1[:, :, 1:] - u1[:, :, :-1]) - (u3[1:, :, :] - u3[:-1, :, :])
    w3 = (u2[1:, :, :] - u2[:-1, :, :]) - (u1[:, 1:, :] - u1[:, :-1, :])
    oracle = np.concatenate([a.ravel(order="F") for a in (w1, w2, w3)])
    npt.assert_array_equal(result, oracle)


def test_3d_divergence_component_formula():
    rng = np.random.default_rng(10)
    n1, n2, n3 = 2, 3, 2
    cx = CellComplex((n1, n2, n3))
    q1 = rng.integers(-5, 6, size=(n1 + 1, n2, n3))
    q2 = rng.integers(-5, 6, size=(n1, n2 + 1, n3))
    q3 = rng.integers(-5, 6, size=(n1, n2, n3 + 1))
    q = np.concatenate([a.ravel(order="F") for a in (q1, q2, q3)])
    result = cx.incidence(3).T @ q
    oracle = (
        (q1[1:, :, :] - q1[:-1, :, :])
        + (q2[:, 1:, :] - q2[:, :-1, :])
        + (q3[:, :, 1:] - q3[:, :, :-1])
    ).ravel(order="F")
    npt.assert_array_equal(result, oracle)


def test_adjointness_random_pairs():
    rng = np.random.default_rng(12)
    cx = CellComplex((3, 3))
    for k in (1, 2):
        E = cx.incidence(k)
        for _ in range(100):
            b = rng.integers(-9, 10, size=cx.num_cells(k - 1))
            c = rng.integers(-1, 2, size=cx.num_cells(k))
            assert (E.T @ b) @ c == b @ (E @ c)


def test_incidence_depends_only_on_dims():
    from splineforms.spaces import DiscreteFormSpace
    from splineforms.splines import Basis1D, KnotVector

    a = Basis1D(KnotVector([0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], 2))
    b = Basis1D(KnotVector([0, 0, 0, 0.1, 0.15, 0.8, 1, 1, 1], 2), [1, 2, 0.5, 1, 3, 1])
    sa = DiscreteFormSpace((a, a), 0)
    sb = DiscreteFormSpace((b, b), 0)
    da = sa.coboundary_matrix()
    db = sb.coboundary_matrix()
    assert (da != db).nnz == 0


def kron_coboundary(cx: CellComplex, k: int) -> sp.csr_matrix:
    """Test-only oracle: D_{k+1,k} from Kronecker products of 1D differences."""

    def difference(n):
        rows = np.repeat(np.arange(n), 2)
        cols = rows + np.tile([0, 1], n)
        return sp.csr_matrix((np.tile([-1, 1], n), (rows, cols)), shape=(n, n + 1), dtype=np.int64)

    def axis_operator(shape, axis):
        out = None
        for j in range(cx.d):
            m = difference(cx.dims[j]) if j == axis else sp.identity(shape[j], dtype=np.int64, format="csr")
            out = m if out is None else sp.kron(m, out, format="csr")  # first direction fastest
        return out

    grid = []
    for target, _ in cx.block_shapes(k + 1):
        row = []
        for subset, shape in cx.block_shapes(k):
            if set(subset) <= set(target):
                (axis,) = set(target) - set(subset)
                sign = (block_orientation(cx.d, k + 1, target) * block_orientation(cx.d, k, subset)
                        * (-1) ** sum(1 for s in subset if s < axis))
                row.append(sign * axis_operator(shape, axis))
            else:
                row.append(None)
        grid.append(row)
    return sp.bmat(grid, format="csr", dtype=np.int64)


@pytest.mark.parametrize(
    "dims", [(1,), (5,), (1, 1), (1, 4), (3, 1), (4, 3), (1, 1, 1), (1, 3, 2), (2, 3, 4), (3, 2, 1)]
)
def test_closed_form_coboundary_matches_kron_build(dims):
    cx = CellComplex(dims)
    for k in range(len(dims)):
        got, want = cx.coboundary_matrix(k), kron_coboundary(cx, k)
        assert got.shape == want.shape and got.dtype == want.dtype == np.int64
        assert got.indices.dtype == want.indices.dtype and got.indptr.dtype == want.indptr.dtype
        for name in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        # 2(k+1) entries a row, columns ascending
        npt.assert_array_equal(np.diff(got.indptr), 2 * (k + 1))
        assert got.has_sorted_indices


def test_argument_errors():
    cx = CellComplex((2, 2))
    with pytest.raises(ConstructionError):
        cx.incidence(3)
    with pytest.raises(ConstructionError):
        cx.incidence(0)
    with pytest.raises(ConstructionError):
        cx.coboundary_matrix(2)
