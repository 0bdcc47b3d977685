"""Tensor-product discrete differential-form spaces and their members.

A space of k-forms in d directions is assembled from one nodal basis per
direction: every component block replaces the nodal basis by the derived
edge basis in the k directions the component is attached to.  Coefficients
are stored flat in Fortran order (first direction fastest), matching the
cell numbering of the underlying complex, so the exterior derivative is a
single integer sparse multiply.  A component is reconstructed on a tensor
grid by contracting its coefficient block with one sparse collocation
matrix per direction (``splines.grid_values``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, DomainError
from .splines import Basis1D, EdgeBasis1D, grid_values
from .topology import CellComplex, direction_subsets

__all__ = ["DiscreteFormSpace", "DiscreteForm", "FormBlock", "vvp_spaces"]


class FormBlock:
    """One component block of a form space: per-direction factor bases."""

    def __init__(self, dirs, factors, offset):
        self.dirs = tuple(dirs)  # directions carrying an edge factor
        self.factors = tuple(factors)  # Basis1D or EdgeBasis1D per direction
        self.shape = tuple(f.num_basis for f in factors)
        self.size = int(np.prod(self.shape))
        self.offset = int(offset)

    def collocation(self, axes, deriv_dir=None):
        """Per-direction sparse collocation matrices at the given coordinate axes."""
        out = []
        for j, (f, x) in enumerate(zip(self.factors, axes)):
            if isinstance(f, EdgeBasis1D):
                if deriv_dir == j:
                    raise ConstructionError("derivatives of edge factors are not provided")
                out.append(f.collocation(x))
            else:
                vals, ders = f.collocation(x)
                out.append(ders if deriv_dir == j else vals)
        return out


class DiscreteFormSpace:
    """Space of discrete k-forms built from per-direction nodal bases.

    Parameters
    ----------
    nodal_bases : sequence of Basis1D
        One partition-of-unity basis of degree >= 1 per direction (d = 1,
        2 or 3).
    k : int
        Form degree, 0 <= k <= d.
    """

    def __init__(self, nodal_bases, k: int):
        nodal_bases = tuple(nodal_bases)
        d = len(nodal_bases)
        if not 1 <= d <= 3:
            raise ConstructionError("need 1, 2 or 3 directions")
        if not all(isinstance(b, Basis1D) for b in nodal_bases):
            raise ConstructionError("nodal_bases must be Basis1D instances")
        if any(b.degree < 1 for b in nodal_bases):  # edge functions are their derivatives
            raise ConstructionError("nodal_bases must have degree >= 1")
        if not 0 <= k <= d:
            raise ConstructionError(f"form degree {k} out of range for d={d}")
        self.nodal_bases = nodal_bases
        self.d = d
        self.k = k
        self.complex = CellComplex(tuple(b.n for b in nodal_bases))
        self._edge_bases = tuple(EdgeBasis1D(b) for b in nodal_bases)

        self.blocks: list[FormBlock] = []
        offset = 0
        for subset in direction_subsets(d, k):
            factors = [
                self._edge_bases[j] if j in subset else nodal_bases[j] for j in range(d)
            ]
            block = FormBlock(subset, factors, offset)
            self.blocks.append(block)
            offset += block.size
        self.dim = offset
        if self.dim != self.complex.num_cells(k):
            raise ConstructionError("space dimension does not match the cell count")

    def derivative_space(self) -> "DiscreteFormSpace":
        if self.k >= self.d:
            raise ConstructionError("top-degree forms have no exterior derivative")
        return DiscreteFormSpace(self.nodal_bases, self.k + 1)

    def coboundary_matrix(self):
        """Integer matrix D_{k+1,k} acting on this space's coefficient vectors."""
        return self.complex.coboundary_matrix(self.k)

    def zero(self) -> "DiscreteForm":
        return DiscreteForm(self, np.zeros(self.dim))

    def __repr__(self):
        return f"DiscreteFormSpace(d={self.d}, k={self.k}, dim={self.dim})"


def vvp_spaces(nodal_bases):
    """The 2D vorticity/velocity/pressure triple (k = 0, 1, 2) on shared bases."""
    nodal_bases = tuple(nodal_bases)
    if len(nodal_bases) != 2:
        raise ConstructionError("the mixed Stokes triple is two-dimensional")
    return tuple(DiscreteFormSpace(nodal_bases, k) for k in (0, 1, 2))


class DiscreteForm:
    """Coefficient vector attached to the cells of a DiscreteFormSpace."""

    def __init__(self, space: DiscreteFormSpace, coeffs):
        coeffs = np.ascontiguousarray(coeffs)
        if coeffs.shape != (space.dim,):
            raise ConstructionError(
                f"expected {space.dim} coefficients, got shape {coeffs.shape}"
            )
        self.space = space
        self.coeffs = coeffs

    def block_coeffs(self, i: int) -> np.ndarray:
        """Coefficients of block i as an F-ordered tensor view."""
        b = self.space.blocks[i]
        return self.coeffs[b.offset : b.offset + b.size].reshape(b.shape, order="F")

    def eval_grid(self, axes, comp: int | None = None, deriv_dir: int | None = None):
        """Evaluate component reconstructions on a tensor grid of coordinates.

        Parameters
        ----------
        axes : sequence of 1D arrays
            Coordinate values per direction.
        comp : int, optional
            Restrict to one component block (default: all components).
        deriv_dir : int, optional
            Differentiate the reconstruction along this direction; only
            valid when that direction carries a nodal factor.

        Returns
        -------
        list of ndarray with shape (len(axes[0]), ...), or a single-element
        list when comp is given.
        """
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if len(axes) != self.space.d:
            raise DomainError(f"expected {self.space.d} coordinate axes")
        which = range(len(self.space.blocks)) if comp is None else [comp]
        return [grid_values(self.block_coeffs(i), self.space.blocks[i].collocation(axes, deriv_dir))
                for i in which]

    def exterior_derivative(self) -> "DiscreteForm":
        """Coboundary of the coefficients, living in the (k+1)-form space."""
        target = self.space.derivative_space()
        return DiscreteForm(target, self.space.coboundary_matrix() @ self.coeffs)

    def __repr__(self):
        return f"DiscreteForm(k={self.space.k}, dim={self.space.dim})"
