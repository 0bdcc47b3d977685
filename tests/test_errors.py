"""Every reachable input check: the input, the exception it raises and a fragment of its message."""

import numpy as np
import pytest
import scipy.sparse as sp

from splineforms import cli
from splineforms.assembly import apply_strong_normal_velocity, assemble_mass, assemble_vvp, solve
from splineforms.errors import (
    ConstructionError,
    DegenerateGeometryError,
    DomainError,
    SingularSystemError,
)
from splineforms.geometry import (
    MultiPatch,
    NurbsPatch,
    build_taylor_couette,
    curved_square_patch,
    pullback,
    unit_square_patch,
)
from splineforms.harness import CaseConfig, emit_outputs
from splineforms.projection import ChangeOfBasis, build_interpolation, project_form, reduce_1form
from splineforms.spaces import DiscreteForm, DiscreteFormSpace, vvp_spaces
from splineforms.splines import Basis1D, KnotVector, uniform_open_knots
from splineforms.topology import CellComplex


def basis(p=2, spans=3):
    return Basis1D(KnotVector(uniform_open_knots(p, spans), p))


def space(k=1):
    b = basis()
    return DiscreteFormSpace((b, b), k)


def form(k=1):
    s = space(k)
    return DiscreteForm(s, np.ones(s.dim))


def unrefined_mass(tmp):
    # the geometry breaks at 1/2, the field at 1/3 and 2/3
    return assemble_mass(space(0), curved_square_patch(spans=2, degree=2))


def not_a_number_solve(tmp):
    system = apply_strong_normal_velocity(
        assemble_vvp(vvp_spaces((basis(), basis())), unit_square_patch()))
    system.rhs[0] = np.nan
    return solve(system)


def indefinite_pressure_mass_solve(tmp):
    # flip the sign of patch 2's block of the block-diagonal M2: symmetric, not positive definite
    system = apply_strong_normal_velocity(
        assemble_vvp([vvp_spaces((basis(), basis()))] * 4, build_taylor_couette()))
    sign = np.ones(system.n2)
    sign[system.map2[2]] = -1.0
    system.M2 = (sp.diags(sign) @ system.M2).tocsr()
    return solve(system)


def config_line_without_equals(tmp):
    path = tmp / "case.cfg"
    path.write_text("# settings\ndegree 3\n")
    return cli._read_config_file(str(path))


def folded_patch_jacobian(tmp):
    base = unit_square_patch()
    control = base.control.copy()
    control[0, 0] = [1.0, 1.0]  # fold the corner over the far one
    return NurbsPatch(base.bases, control, check=False).jacobian([0.0, 0.0])


def output_under_a_file(tmp):
    (tmp / "file").write_text("")
    return emit_outputs(CaseConfig(case="cavity", out_dir=str(tmp / "file" / "out")))


def wrong_glue(entry):
    return lambda tmp: MultiPatch(build_taylor_couette().patches, [entry])


CASES = {
    "assembly-field-breakpoints-do-not-refine-the-geometry": (
        unrefined_mass, ConstructionError, "refine the geometry breakpoints"),
    "assembly-mass-of-a-1d-space": (
        lambda tmp: assemble_mass(DiscreteFormSpace((basis(),), 0), unit_square_patch()),
        ConstructionError, "implemented for 2D spaces"),
    "assembly-one-triple-for-four-patches": (
        lambda tmp: assemble_vvp([vvp_spaces((basis(), basis()))], build_taylor_couette()),
        ConstructionError, "one space triple per patch"),
    "assembly-triple-out-of-order": (
        lambda tmp: assemble_vvp(vvp_spaces((basis(), basis()))[::-1], unit_square_patch()),
        ConstructionError, r"\(0, 1, 2\)-form triple"),
    "assembly-not-a-number-right-hand-side": (
        not_a_number_solve, SingularSystemError, "solve residual nan exceeds"),
    "assembly-pressure-mass-block-not-positive-definite": (
        indefinite_pressure_mass_solve, SingularSystemError,
        "factorization of the 2-form mass matrix of patch 2 failed"),
    "cli-config-line-without-equals": (
        config_line_without_equals, ConstructionError, "expected key=value"),
    "geometry-pullback-of-a-3-form": (
        lambda tmp: pullback(3, np.eye(2), np.ones(1)), ConstructionError, "k in {0, 1, 2}"),
    "geometry-one-basis": (
        lambda tmp: NurbsPatch((basis(),), np.zeros((5, 5, 2))),
        ConstructionError, "two Basis1D instances"),
    "geometry-control-grid-shape": (
        lambda tmp: NurbsPatch((basis(), basis()), np.zeros((5, 4, 2))),
        ConstructionError, r"control grid must have shape \(5, 5, 2\)"),
    "geometry-folded-patch-at-a-point": (
        folded_patch_jacobian, DegenerateGeometryError, "nonpositive Jacobian determinant"),
    "geometry-glue-entry-of-four-items": (
        wrong_glue((0, "top", 1, "bottom")), ConstructionError, "glue entries are"),
    "geometry-reversed-glue": (
        wrong_glue((0, "top", 1, "bottom", -1)), ConstructionError, "identity-orientation"),
    "harness-output-directory-under-a-file": (
        output_under_a_file, OSError, "cannot create output directory"),
    "projection-rectangular-change-of-basis": (
        lambda tmp: ChangeOfBasis(np.ones((2, 3))), ConstructionError, "must be square"),
    "projection-edges-not-m-by-2": (
        lambda tmp: reduce_1form(np.sin, np.zeros(3)), ConstructionError, r"\(m, 2\) array"),
    "projection-too-few-interpolation-nodes": (
        lambda tmp: build_interpolation(basis(), [0.5]),
        ConstructionError, "one node per basis function"),
    "projection-one-callable-for-two-blocks": (
        lambda tmp: project_form(space(1), [np.sin]),
        ConstructionError, "expected 2 component callables, got 1"),
    "spaces-derivative-of-an-edge-factor": (
        lambda tmp: form(1).eval_grid(([0.5], [0.5]), deriv_dir=0),
        ConstructionError, "derivatives of edge factors"),
    "spaces-no-direction": (
        lambda tmp: DiscreteFormSpace((), 0), ConstructionError, "need 1, 2 or 3 directions"),
    "spaces-not-a-basis": (
        lambda tmp: DiscreteFormSpace((basis(), "x"), 0),
        ConstructionError, "Basis1D instances"),
    "spaces-form-degree-above-d": (
        lambda tmp: DiscreteFormSpace((basis(), basis()), 3),
        ConstructionError, "form degree 3 out of range for d=2"),
    "spaces-three-dimensional-stokes-triple": (
        lambda tmp: vvp_spaces((basis(),) * 3), ConstructionError, "two-dimensional"),
    "spaces-coefficient-count": (
        lambda tmp: DiscreteForm(space(0), np.zeros(3)),
        ConstructionError, r"expected 25 coefficients, got shape \(3,\)"),
    "spaces-point-of-one-coordinate": (
        lambda tmp: form(0).eval([0.5]), DomainError, "point with 2 coordinates"),
    "spaces-one-coordinate-axis": (
        lambda tmp: form(0).eval_grid(([0.5],)), DomainError, "expected 2 coordinate axes"),
    "splines-no-span": (
        lambda tmp: uniform_open_knots(2, 0), ConstructionError, "at least one span"),
    "splines-negative-degree": (
        lambda tmp: KnotVector([0.0, 1.0], -1), ConstructionError, "degree must be nonnegative"),
    "splines-too-few-knots": (
        lambda tmp: KnotVector([0.0, 0.0, 1.0], 1),
        ConstructionError, "need at least 4 knots for degree 1"),
    "splines-end-knot-repeated-too-often": (
        lambda tmp: KnotVector([0.0, 0.0, 0.0, 1.0, 1.0], 1),
        ConstructionError, "repeat exactly degree\\+1 times"),
    "splines-knots-not-a-knotvector": (
        lambda tmp: Basis1D([0.0, 0.0, 1.0, 1.0]), ConstructionError, "must be a KnotVector"),
    "splines-weight-count": (
        lambda tmp: Basis1D(KnotVector([0.0, 0.0, 1.0, 1.0], 1), [1.0]),
        ConstructionError, r"expected 2 weights, got \(1,\)"),
    "splines-greville-points-of-degree-0": (
        lambda tmp: Basis1D(KnotVector([0.0, 1.0], 0)).greville_points(),
        ConstructionError, "require degree >= 1"),
    "topology-no-direction": (
        lambda tmp: CellComplex(()), ConstructionError, "dimension must be 1, 2 or 3"),
    "topology-empty-direction": (
        lambda tmp: CellComplex((2, 0)), ConstructionError, "at least one cell"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises(case, tmp_path):
    call, error, fragment = CASES[case]
    with pytest.raises(error, match=fragment):
        call(tmp_path)
