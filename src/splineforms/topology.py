"""Tensor-product cell complexes and their integer incidence matrices.

All connectivity is purely combinatorial: a complex knows only its
per-direction cell counts.  Chains and cochains are plain coefficient
vectors; boundary and coboundary are products with sparse integer
incidence matrices, so identities like "boundary of boundary is empty"
hold in exact arithmetic.

Numbering convention: cells are ordered lexicographically with the first
direction fastest.  One-cells are grouped by the axis they run along
(axis 1 first), two-cells in 3D by their normal axis.  All cells are
oriented along increasing coordinates; faces and volumes follow the
right-handed orientation of the axes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError

__all__ = ["CellComplex"]


def direction_subsets(d: int, k: int):
    """Canonical ordering of the k-element direction subsets in d dimensions."""
    if k == 0:
        return [()]
    if d == 1:
        return [(0,)]
    if d == 2:
        return {1: [(0,), (1,)], 2: [(0, 1)]}[k]
    # 3D: 2-cells ordered by normal axis 1, 2, 3
    return {1: [(0,), (1,), (2,)], 2: [(1, 2), (0, 2), (0, 1)], 3: [(0, 1, 2)]}[k]


def block_orientation(d: int, k: int, subset) -> int:
    """Sign relating a block's stored wedge to the sorted one.

    Components follow the cyclic convention: in 3D the 2-cell block with
    normal axis 2 is attached to dx3^dx1 = -dx1^dx3, all other blocks to
    their sorted wedge.
    """
    if d == 3 and k == 2 and tuple(subset) == (0, 2):
        return -1
    return 1


class CellComplex:
    """Tensor-product complex with dims[j] cells along direction j (d in {1,2,3})."""

    def __init__(self, dims):
        dims = tuple(int(n) for n in dims)
        if not 1 <= len(dims) <= 3:
            raise ConstructionError("dimension must be 1, 2 or 3")
        if any(n < 1 for n in dims):
            raise ConstructionError("every direction needs at least one cell")
        self.dims = dims
        self.d = len(dims)
        self._coboundary_cache: dict[int, sp.csr_matrix] = {}

    def block_shapes(self, k: int):
        """Per-block (direction subset, shape) pairs for the k-cells."""
        self._check_k(k, allow_zero=True)
        out = []
        for subset in direction_subsets(self.d, k):
            shape = tuple(
                self.dims[j] if j in subset else self.dims[j] + 1 for j in range(self.d)
            )
            out.append((subset, shape))
        return out

    def num_cells(self, k: int) -> int:
        return sum(int(np.prod(shape)) for _, shape in self.block_shapes(k))

    def coboundary_matrix(self, k: int) -> sp.csr_matrix:
        """Discrete derivative D_{k+1,k} acting on k-cochain coefficient vectors."""
        self._check_k(k, allow_zero=True)
        if k >= self.d:
            raise ConstructionError(f"no coboundary beyond top dimension {self.d}")
        if k not in self._coboundary_cache:
            self._coboundary_cache[k] = self._build_coboundary(k)
        return self._coboundary_cache[k]

    def incidence(self, k: int) -> sp.csc_matrix:
        """Signed integer boundary incidence E_{k-1,k}; its transpose is D_{k,k-1}."""
        self._check_k(k)
        return self.coboundary_matrix(k - 1).T.tocsc()

    def _check_k(self, k: int, allow_zero: bool = False):
        lo = 0 if allow_zero else 1
        if not lo <= k <= self.d:
            raise ConstructionError(f"k={k} out of range for a {self.d}D complex")

    def _build_coboundary(self, k: int) -> sp.csr_matrix:
        """D_{k+1,k} written straight into CSR arrays.

        A (k+1)-cell at multi-index m of target block T meets, for each
        k-block S = T minus one axis a, the source cells m and m + e_a
        with entries -s and +s (s the orientation sign).  Source blocks
        come in column order, so a row holds its 2(k+1) columns sorted.
        """
        col_blocks = self.block_shapes(k)
        offsets = np.cumsum([0] + [int(np.prod(shape)) for _, shape in col_blocks])
        indices, data = [], []
        for target, tshape in self.block_shapes(k + 1):
            o_target = block_orientation(self.d, k + 1, target)
            cell = np.unravel_index(np.arange(int(np.prod(tshape))), tshape, order="F")
            cols, vals = [], []
            for (subset, shape), offset in zip(col_blocks, offsets):
                if not set(subset) <= set(target):
                    continue
                (axis,) = set(target) - set(subset)
                o_source = block_orientation(self.d, k, subset)
                sign = o_target * o_source * (-1) ** sum(1 for s in subset if s < axis)
                strides = np.cumprod((1,) + shape[:-1])
                first = offset + sum(i * st for i, st in zip(cell, strides))
                cols += [first, first + strides[axis]]
                vals += [-sign, sign]
            indices.append(np.column_stack(cols).ravel())
            data.append(np.tile(vals, cell[0].size))
        n_rows = self.num_cells(k + 1)
        indptr = np.arange(0, 2 * (k + 1) * n_rows + 1, 2 * (k + 1))
        return sp.csr_matrix(
            (np.concatenate(data).astype(np.int64), np.concatenate(indices), indptr),
            shape=(n_rows, int(offsets[-1])),
        )

    def __repr__(self):
        return f"CellComplex(dims={self.dims})"
