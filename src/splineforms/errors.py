"""Exception types shared across the library, and its integer and real argument checks."""

import numbers


def check_integer(name: str, value) -> int:
    """``value`` as an int; ConstructionError unless it is an integer (a bool is not one here)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConstructionError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float; ConstructionError unless it is a real number (a bool is not one here)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConstructionError(f"{name} must be a real number, got {value!r}")
    return float(value)


class DomainError(ValueError):
    """Evaluation point lies outside the parametric domain."""


class ConstructionError(ValueError):
    """Invalid data for building a basis, complex, space or patch."""


class IllPosedNodesError(ValueError):
    """Interpolation/histopolation system is singular to working precision."""


class DegenerateGeometryError(ValueError):
    """Geometry mapping has a nonpositive or overflowing Jacobian determinant."""


class SingularSystemError(RuntimeError):
    """Factorization of the saddle-point system failed."""


class FluxCompatibilityError(ValueError):
    """Prescribed normal-velocity data has nonzero net boundary flux."""

    def __init__(self, imbalance):
        super().__init__(
            f"net boundary flux of prescribed normal velocity is {imbalance:.3e}, "
            "but the enclosed flow requires zero net flux"
        )
        self.imbalance = imbalance
