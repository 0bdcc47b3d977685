"""Structure-preserving spline discretization of differential forms.

Builds gradient-, curl- and divergence-conforming discrete form spaces
from any partition-of-unity spline/NURBS basis, realizes the discrete
derivatives as integer incidence matrices, and solves 2D Stokes flow in
mixed vorticity-velocity-pressure form with point-wise divergence-free
velocity.
"""

__version__ = "0.1.0"

from .errors import (
    ConstructionError,
    DegenerateGeometryError,
    DomainError,
    FluxCompatibilityError,
    IllPosedNodesError,
    SingularSystemError,
    SplineformsError,
)
from .splines import Basis1D, EdgeBasis1D, KnotVector, uniform_open_knots
from .topology import CellComplex
from .spaces import DiscreteForm, DiscreteFormSpace, vvp_spaces
from .projection import (
    ChangeOfBasis,
    build_histopolation,
    build_interpolation,
    greville_edges,
    project_form,
    reduce_0form,
    reduce_1form,
)
from .geometry import (
    MultiPatch,
    NurbsPatch,
    build_taylor_couette,
    curved_square_patch,
    quarter_annulus_patch,
    unit_square_patch,
)
from .assembly import (
    MassMatrix,
    SaddleSystem,
    Solution,
    apply_strong_normal_velocity,
    apply_weak_tangential_velocity,
    assemble_mass,
    assemble_vvp,
    solve,
)
from .harness import (
    CaseConfig,
    CavityResult,
    ConvergenceRecord,
    couette_speed,
    emit_outputs,
    manufactured_fields,
    run_cavity,
    run_manufactured,
    run_taylor_couette,
)
