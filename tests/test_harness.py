"""Harness tests: analytic data, output files, determinism, CLI contract."""

import contextlib
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import splineforms
from splineforms import assembly, cli, geometry, harness, verification
from splineforms.harness import (
    CaseConfig,
    _h_max,
    _percent_table,
    _table,
    _version_stamp,
    couette_speed,
    emit_outputs,
    manufactured_fields,
    rates,
    run_cavity,
    run_manufactured,
    run_taylor_couette,
)
from splineforms.errors import ConstructionError
from splineforms.spaces import vvp_spaces
from splineforms.splines import Basis1D
from splineforms.topology import CellComplex


def test_analytic_spot_checks():
    exact = manufactured_fields()
    assert abs(exact["omega"](0.25, 0.25) + 4 * np.pi) < 1e-14
    vx, vy = exact["velocity"](0.25, 0.0)
    assert abs(vx + 1.0) < 1e-14 and abs(vy) < 1e-14
    assert abs(couette_speed(1.0) - 1.0) < 1e-15
    assert abs(couette_speed(2.0)) < 1e-15


def test_config_validation():
    with pytest.raises(ConstructionError):
        CaseConfig(case="unknown")
    with pytest.raises(ConstructionError):
        CaseConfig(case="manufactured", degree=0)
    with pytest.raises(ConstructionError):
        CaseConfig(case="manufactured", levels=0)
    with pytest.raises(ConstructionError):
        CaseConfig(case="taylor-couette", geometry="unit-square")
    with pytest.raises(ConstructionError, match="cavity runs on unit-square"):
        CaseConfig(case="cavity", geometry="annulus")
    cfg = CaseConfig(case="cavity")
    assert cfg.geometry == "unit-square"


@pytest.mark.parametrize("field, value", [
    ("degree", 2.5), ("degree", True), ("levels", True), ("levels", 2.0), ("quad", 5.0),
    ("base_spans", 4.5), ("spans", 2.5),
])
def test_config_rejects_non_integers(field, value):
    # degree and spans 2.5 used to fail later with a bare TypeError, and
    # levels=True to run one level
    case = "cavity" if field == "spans" else "manufactured"
    with pytest.raises(ConstructionError, match=f"{field} must be an integer"):
        CaseConfig(case=case, **{field: value})


@pytest.mark.parametrize("nu", ["1.0", True, None])
def test_config_rejects_non_real_nu(nu):
    # "1.0" and None used to raise a bare TypeError, True to run with viscosity 1
    with pytest.raises(ConstructionError, match="nu must be a real number"):
        CaseConfig(nu=nu)


def test_quad_bound_follows_degree():
    for degree in (1, 2, 3):
        with pytest.raises(ConstructionError, match=rf"quad must be >= degree \+ 2 = {degree + 2}"):
            CaseConfig(case="manufactured", degree=degree, quad=degree + 1)
        assert CaseConfig(case="manufactured", degree=degree, quad=degree + 2).quad == degree + 2


def test_quad_at_degree_plus_two_runs():
    # nodal degree + 1 points integrate the unit-square mass matrices exactly;
    # only the forcing and error quadratures move, far below the errors
    base = dict(case="manufactured", degree=3, levels=1)
    (smallest,), _ = run_manufactured(CaseConfig(quad=5, **base))
    (default,), _ = run_manufactured(CaseConfig(**base))
    for key in ("err_w", "err_u", "err_p"):
        assert abs(getattr(smallest, key) / getattr(default, key) - 1.0) < 1e-4


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mfg")
    config = CaseConfig(case="manufactured", degree=1, levels=2, out_dir=str(out))
    records, _ = run_manufactured(config)
    paths = emit_outputs(config, records=records)
    return config, records, paths


def test_record_count_and_monotone_errors(small_run):
    _, records, _ = small_run
    assert len(records) == 2
    assert records[1].h_max < records[0].h_max
    assert records[1].err_u < records[0].err_u
    assert records[1].err_w < records[0].err_w


def test_csv_contents_and_rate_definition(small_run):
    config, records, paths = small_run
    csv = Path(config.out_dir) / "convergence.csv"
    assert csv in paths
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "level,h_max,dof,err_w,err_u,err_p,div_max,rate_w,rate_u,rate_p"
    assert len(lines) == 1 + len(records)
    row = lines[2].split(",")
    expected = np.log(records[0].err_u / records[1].err_u) / np.log(
        records[0].h_max / records[1].h_max
    )
    assert abs(float(row[8]) - expected) < 1e-6
    assert rates(records)[1][1] == pytest.approx(expected)


def test_couette_writes_no_rate_for_noise_errors(tmp_path):
    # the exact vorticity and pressure lie in the discrete spaces: err_w and
    # err_p are rounding noise, so their rates are nan on every level
    config = CaseConfig(case="taylor-couette", degree=1, levels=3, out_dir=str(tmp_path))
    records, _ = run_taylor_couette(config)
    emit_outputs(config, records=records)
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["rate_w"] for row in rows] == ["nan"] * 3
    assert [row["rate_p"] for row in rows] == ["nan"] * 3
    assert rows[0]["rate_u"] == "nan"
    assert all(np.isfinite(float(row["rate_u"])) for row in rows[1:])
    assert all(np.isfinite(rates(records)[2]))  # other cases keep all three rates


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_couette_does_per_basis_work_once_per_system(monkeypatch):
    # the four patches share one space triple, hence one set of Gauss axes,
    # pair operators and coboundaries per level
    counted = [
        count_calls(monkeypatch, owner, name) for owner, name in (
            (assembly._Axis, "__init__"),
            (assembly._PairOperator, "__init__"),
            (CellComplex, "_build_coboundary"),
        )
    ]
    run_taylor_couette(CaseConfig(case="taylor-couette", degree=2, levels=3))
    assert [len(calls) for calls in counted] == [12, 24, 6]


def count_geometry_collocations(monkeypatch):
    """Record each collocation of a quarter-annulus geometry basis."""
    calls = []
    original = Basis1D.collocation

    def counted(basis, x):
        if basis is geometry._RADIAL or basis is geometry._ARC:
            calls.append(basis)
        return original(basis, x)

    monkeypatch.setattr(Basis1D, "collocation", counted)
    return calls


def test_couette_builds_each_geometry_table_once_per_system_and_axis(monkeypatch):
    calls = count_geometry_collocations(monkeypatch)
    multipatch = geometry.build_taylor_couette()
    assert len(calls) == 17  # regularity 8, side curves 8, one interface table
    calls.clear()
    monkeypatch.setattr(harness, "build_taylor_couette", lambda: multipatch)
    _, (solution, triples) = run_taylor_couette(
        CaseConfig(case="taylor-couette", degree=2, levels=3))
    assert len(calls) <= 41
    # per level: the assembly and the error grids each hold one table per
    # direction for all four patches, and _h_max makes one per direction
    field_bases = {b for s0, _, _ in solution.system.spaces for b in s0.nodal_bases}
    assert sum(len(axis._tables) for b in field_bases for axis in assembly._AXES[b].values()) == 4
    calls.clear()
    _h_max(multipatch.patches, triples)
    assert len(calls) == 2


def test_couette_collocations_per_run(monkeypatch):
    # once 70: the weak side data now read their table off the system's Gauss
    # axis, and each level evaluates both cylinders in one jacobian and one
    # eval_grid call
    calls = count_calls(monkeypatch, Basis1D, "collocation")
    run_taylor_couette(CaseConfig(case="taylor-couette", degree=2, levels=3))
    assert len(calls) <= 55


def test_records_carry_the_stats_of_every_level():
    records, (solution, _) = run_manufactured(CaseConfig(degree=1, levels=2))
    assert [rec.stats["dofs"] for rec in records] == [rec.dofs for rec in records]
    assert records[-1].stats is solution.stats
    assert all("factors" not in rec.extra and "lu_nnz" not in rec.extra for rec in records)



def test_drivers_call_the_harness_names_the_benchmark_replaces(monkeypatch):
    # the benchmark wraps harness.solve, harness._solution_errors and
    # harness._stream_function in place, so every driver must look them up
    # as harness globals at call time
    names = ("solve", "_solution_errors", "_stream_function")
    calls = {name: count_calls(monkeypatch, harness, name) for name in names}

    def counts():
        seen = [len(calls[name]) for name in names]
        for name in names:
            calls[name].clear()
        return seen

    run_manufactured(CaseConfig(degree=1, levels=2))
    assert counts() == [2, 2, 0]
    run_taylor_couette(CaseConfig(case="taylor-couette", degree=1, levels=2))
    assert counts() == [2, 2, 0]
    run_cavity(CaseConfig(case="cavity", degree=1, spans=4))
    assert counts() == [1, 0, 1]
    assert verification._check_self_glued(None)[0]
    assert counts()[0] == 1

def _run_and_emit(case, out):
    if case == "cavity":
        config = CaseConfig(case="cavity", degree=1, spans=5, out_dir=str(out))
        emit_outputs(config, cavity=run_cavity(config))
    else:
        config = CaseConfig(case="manufactured", degree=1, levels=2, out_dir=str(out))
        records, _ = run_manufactured(config)
        emit_outputs(config, records=records)


def test_rerun_is_bit_identical(tmp_path):
    for case in ("manufactured", "cavity"):
        dirs = [tmp_path / case / name for name in ("a", "b")]
        for out in dirs:
            _run_and_emit(case, out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files
        for name in files:
            if name == "run_metadata.txt":
                a = (dirs[0] / name).read_text().replace(str(dirs[0]), "OUT")
                b = (dirs[1] / name).read_text().replace(str(dirs[1]), "OUT")
                assert a == b
            else:
                assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)


def _per_value_table(grid):
    """The writer's oracle: one format call per value."""
    return "\n".join(" ".join(f"{v:.17e}" for v in row) for row in grid) + "\n"


def test_table_matches_per_value_format():
    config = CaseConfig(case="cavity", degree=1, spans=5)
    result = run_cavity(config)
    grids = list(result.fields.values()) + [
        np.column_stack((result.y_line, result.vx_centerline)),
        np.column_stack((result.x_line, result.vy_centerline)),
    ]
    special = np.array(
        [
            [-0.0, 0.0, np.nan, -np.nan],
            [np.inf, -np.inf, 5e-324, -5e-324],
            [1e-300, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308],
        ]
    )
    assert np.signbit(special[0, 0]) and np.signbit(special[0, 3])
    for grid in grids + [special, special.T, special[:1]]:
        assert _table(grid) == _per_value_table(grid)
    assert _table(special).splitlines()[0].split() == ["-0.00000000000000000e+00",
                                                       "0.00000000000000000e+00", "nan", "nan"]


def _fallback_rows(monkeypatch):
    """Record the rows, as tuples, that ``_table`` hands to the per-row ``%`` path."""
    rows = []
    real = harness._percent_table

    def counting(grid):
        rows.extend(map(tuple, np.asarray(grid).tolist()))
        return real(grid)

    monkeypatch.setattr(harness, "_percent_table", counting)
    return rows


def _outside_kernel(grid):
    """Row mask of values the kernel never writes: non-finite, or nonzero outside [1e-250, 1e250]."""
    a = np.abs(np.asarray(grid, dtype=float))
    inside = (a == 0.0) | ((a >= 1e-250) & (a <= 1e250))
    return ~inside.reshape(a.shape[0], -1).all(axis=1)


def _near_tie(x):
    """Whether |x| 10^(17-k), k = floor(log10|x|), lies within 1e-6 of a half, in exact arithmetic."""
    with localcontext(prec=1000):
        y = abs(Decimal(x))
        y = y.scaleb(17 - y.adjusted())
        return abs(y - y.to_integral_value(ROUND_FLOOR) - Decimal("0.5")) < Decimal("1e-6")


def test_table_matches_oracle_on_random_bit_patterns(monkeypatch):
    rng = np.random.default_rng(1801)
    grid = rng.integers(0, 2**64, size=(2**19, 2), dtype=np.uint64).view(np.float64)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308]
    grid.ravel()[rng.choice(grid.size, 700, replace=False)] = np.repeat(specials, 100)
    a = np.abs(grid)
    assert (a == 0).sum() >= 200 and np.isinf(a).sum() >= 200 and np.isnan(a).sum() >= 100
    assert ((a > 0) & (a < 2.2250738585072014e-308)).sum() >= 200  # subnormals
    rows = _fallback_rows(monkeypatch)
    assert _table(grid) == _per_value_table(grid.tolist())
    # the rows that went to ``%``: those the kernel never writes, and near ties
    keys = {np.array(row).tobytes() for row in rows}
    fallback = np.array([row.tobytes() in keys for row in grid])
    outside = _outside_kernel(grid)
    assert len(rows) == fallback.sum() and np.all(fallback[outside])
    assert 0.25 * len(grid) < outside.sum() < 0.45 * len(grid)
    ties = grid[fallback & ~outside]
    assert 0 < len(ties) < 1000
    assert all(any(_near_tie(x) for x in row) for row in ties.tolist())


def test_table_matches_oracle_on_powers_of_ten(monkeypatch):
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    grid = np.column_stack((np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)))
    grid = np.concatenate((grid, -grid))
    rows = _fallback_rows(monkeypatch)
    assert _table(grid) == _per_value_table(grid)
    # 1e-300 .. 1e-250 and 1e250 .. 1e300, and 1e15, whose upper neighbour
    # 1000000000000000.125 is an exact tie
    tie = np.abs(grid[:, 1]) == 1e15
    assert _outside_kernel(grid).sum() == 2 * (51 + 51)
    assert sorted(rows) == sorted(map(tuple, grid[_outside_kernel(grid) | tie].tolist()))


def test_table_matches_oracle_on_integers():
    rng = np.random.default_rng(1802)
    ints = np.concatenate((rng.integers(-(2**53), 2**53, 3999, endpoint=True),
                           [0, 1, 9, 10, 2**53 - 1, 2**53, -(2**53)], 10 ** np.arange(16),
                           2 ** np.arange(54))).reshape(-1, 4)
    assert _table(ints) == _per_value_table(ints)
    assert _table(ints.astype(float)) == _per_value_table(ints)


def test_table_takes_the_fallback_on_exact_ties(monkeypatch):
    # n 2^-e with n odd has e decimals, the last a 5; in [10^d, 10^(d+1)) with
    # e = 18 - d that makes 19 significant digits: a tie at the 18th
    rng = np.random.default_rng(1803)
    ties = []
    for d in range(-5, 14):
        e = 18 - d
        lo, hi = (math.ceil(Fraction(10) ** t * 2**e) for t in (d, d + 1))
        odd = rng.integers(lo // 2, hi // 2, 80) * 2 + 1
        ties.extend(float(n) * 2.0**-e for n in odd if lo <= n < hi)
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 19 and digits[-1] == 5
    grid = np.concatenate((ties, np.negative(ties)))[:, None]
    rows = _fallback_rows(monkeypatch)
    assert _table(grid) == _per_value_table(grid)
    assert len(rows) == len(grid) > 2000


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0), (1, 1), (7, 1)])
def test_table_shapes(shape):
    grid = np.random.default_rng(1804).standard_normal(shape)
    assert _table(grid) == _per_value_table(grid) == _percent_table(grid)


def test_table_reads_fortran_and_strided_input():
    grid = np.random.default_rng(1805).standard_normal((9, 5)) * 1e3
    for view in (np.asfortranarray(grid), grid.T, grid[::2, ::-2]):
        assert _table(view) == _per_value_table(view)


def test_table_fallback_rows(monkeypatch):
    """The kernel writes every cavity table; one nan sends exactly its row back to ``%``."""
    rows = _fallback_rows(monkeypatch)
    result = run_cavity(CaseConfig(case="cavity", degree=3, spans=9))
    for grid in list(result.fields.values()) + [np.column_stack((result.y_line, result.vx_centerline))]:
        assert _table(grid) == _per_value_table(grid)
    assert rows == []
    grid = result.fields["stream"].copy()
    grid[17, 40] = np.nan
    assert _table(grid) == _per_value_table(grid)
    assert len(rows) == 1 and np.isnan(rows[0][40])
    assert np.array_equal(rows[0], grid[17], equal_nan=True)


def test_version_stamp_forks_git_at_most_once(monkeypatch, tmp_path):
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    _version_stamp.cache_clear()
    config = CaseConfig(case="manufactured", degree=1, levels=1, out_dir=str(tmp_path))
    records, _ = run_manufactured(config)
    emit_outputs(config, records=records)
    emit_outputs(config, records=records)
    assert len(calls) <= 1


def test_error_quadrature_independence():
    from splineforms.harness import _solution_errors

    config = CaseConfig(case="manufactured", degree=2, levels=1, base_spans=8)
    records, (solution, _) = run_manufactured(config)
    exact = manufactured_fields()
    base = _solution_errors(solution, exact, extra_quad=2)
    finer = _solution_errors(solution, exact, extra_quad=4)
    for a, b in zip(base[:3], finer[:3]):
        assert abs(a - b) < 1e-3 * abs(b)


# errors of `run manufactured --degree 1 --levels 2` before sides were evaluated
# as curves: (err_w, err_u, err_p) per level
ERRORS_BEFORE_SIDE_CURVES = {
    "unit-square": [
        (0.41872577455272403, 0.08960222994507294, 0.017037409701352563),
        (0.035527235911165585, 0.01762031132989612, 0.0041263798620237106),
    ],
    "curved-square": [
        (0.41933544437671155, 0.09369093223528421, 0.07479981205612747),
        (0.041569401816268614, 0.018869248412227927, 0.014115965362114994),
    ],
}


@pytest.mark.parametrize("geometry", sorted(ERRORS_BEFORE_SIDE_CURVES))
def test_errors_unchanged_at_default_rule(geometry):
    records, _ = run_manufactured(CaseConfig(degree=1, levels=2, geometry=geometry))
    for rec, want in zip(records, ERRORS_BEFORE_SIDE_CURVES[geometry]):
        got = (rec.err_w, rec.err_u, rec.err_p)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), (got, want)


@pytest.mark.parametrize("base_spans", [1, 4])
def test_pointwise_divergence_on_at_least_500_points(monkeypatch, base_spans):
    from splineforms.assembly import _PatchGrid

    sizes = []
    original = _PatchGrid.reconstruct

    def recorded(grid, form, comp):
        if form.space.k == 2:
            sizes.append(grid.det.size)
        return original(grid, form, comp)

    monkeypatch.setattr(_PatchGrid, "reconstruct", recorded)
    config = CaseConfig(degree=1, levels=1, base_spans=base_spans, geometry="curved-square")
    records, _ = run_manufactured(config)
    divergence = sizes[1::2]  # pressure densities and divergences alternate
    assert len(divergence) == 1 and divergence[0] >= 500
    assert records[0].extra["div_pointwise"] < 1e-9


def test_cavity_profiles_and_stream():
    config = CaseConfig(case="cavity", degree=2, spans=9)
    result = run_cavity(config)
    assert result.div_max < 1e-12
    assert result.stream_residual < 1e-10
    assert result.vx_centerline.shape == (101,)
    # weak lid: endpoint approaches 1; no-slip bottom stays near 0
    assert abs(result.vx_centerline[-1] - 1.0) < 0.2
    assert abs(result.vx_centerline[0]) < 1e-2
    for grid in result.fields.values():
        assert grid.shape == (101, 101)


def test_cavity_files(tmp_path):
    config = CaseConfig(case="cavity", degree=1, spans=5, out_dir=str(tmp_path))
    result = run_cavity(config)
    emit_outputs(config, cavity=result)
    names = {p.name for p in tmp_path.iterdir()}
    assert {
        "profile_horizontal_velocity.dat",
        "profile_vertical_velocity.dat",
        "field_stream.dat",
        "field_vorticity.dat",
        "field_pressure.dat",
        "run_metadata.txt",
    } <= names
    grid = np.loadtxt(tmp_path / "field_vorticity.dat")
    assert grid.shape == (101, 101)
    # solve statistics stay out of the bit-exact metadata
    meta = (tmp_path / "run_metadata.txt").read_text()
    for key in ("lu_nnz", "factors", "seconds", "histopolation_cond"):
        assert key not in meta


class TestCli:
    def run_cli(self, *args):
        """``cli.main`` in this process, with its output captured and SystemExit as the code."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())

    def test_module_entry_point(self, tmp_path):
        # the child imports the same splineforms as this process, installed or not
        src = str(Path(splineforms.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "splineforms.cli", "run", "manufactured", "--degree", "1",
             "--levels", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        wrote = [line.split(maxsplit=1)[1] for line in proc.stdout.splitlines()
                 if line.startswith("wrote ")]
        assert {Path(w).name for w in wrote} >= {"convergence.csv", "run_metadata.txt",
                                                  "stats.json"}
        assert all(Path(w).is_file() for w in wrote)

    def test_list_cases(self):
        proc = self.run_cli("list-cases")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "manufactured: sinusoidal closed-form solution, convergence ladder "
            "(geometries: unit-square, curved-square)",
            "taylor-couette: flow between rotating inner / fixed outer cylinder "
            "on the exact NURBS annulus",
            "cavity: lid-driven cavity with centerline profiles and field samples",
        ]

    def summary_lines(self, *args):
        """The stdout lines of a successful run, without its ``wrote`` lines."""
        proc = self.run_cli("run", *args)
        assert proc.returncode == 0, proc.stderr
        return [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]

    @staticmethod
    def matches(pattern, line):
        """``re.fullmatch``, with ``En`` in the pattern standing for a ``.ne`` number."""
        for digits in (2, 3, 4):
            pattern = pattern.replace(f"E{digits}", rf"\d\.\d{{{digits}}}e[+-]\d\d")
        return re.fullmatch(pattern, line)

    @pytest.mark.parametrize(
        "case, errors",
        [("manufactured", "err_w=E3 err_u=E3 err_p=E3"), ("taylor-couette", "err_u=E3 p_dev=E2")],
    )
    def test_level_summary_lines(self, tmp_path, case, errors):
        lines = self.summary_lines(case, "--degree", "1", "--levels", "2", "--out", str(tmp_path))
        assert len(lines) == 2
        for level, line in enumerate(lines):
            assert self.matches(rf"level {level}: h=E4 dof=\d+ {errors} div=E2", line), line

    def test_cavity_records_its_default_spans(self, tmp_path):
        assert CaseConfig(case="cavity").spans == 9
        [line] = self.summary_lines("cavity", "--degree", "1", "--out", str(tmp_path))
        assert self.matches(r"cavity 9x9 degree 1: dof=\d+ div=E2 stream_residual=E2", line), line
        assert "spans=9" in (tmp_path / "run_metadata.txt").read_text().splitlines()

    def test_bad_arguments_exit_2(self):
        assert self.run_cli("run", "nonsense").returncode == 2
        assert self.run_cli("frobnicate").returncode == 2
        assert self.run_cli("run", "manufactured", "--degree", "0").returncode == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--nu", "-1"), "nu must be finite and > 0"),
            (("--nu", "0"), "nu must be finite and > 0"),
            (("--nu", "nan"), "nu must be finite and > 0"),
            (("--nu", "inf"), "nu must be finite and > 0"),
            (("--quad", "1"), "quad must be >= degree + 2 = 4"),
            (("--spans", "0"), "spans must be >= 1"),
            (("--base-spans", "0"), "base_spans must be >= 1"),
            (("--geometry", "annulus"), "cavity runs on unit-square"),
        ],
    )
    def test_out_of_range_arguments_exit_2(self, tmp_path, flags, message):
        proc = self.run_cli("run", "cavity", *flags, "--out", str(tmp_path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("quad", ["2", "4"])
    def test_quad_below_degree_plus_two_exit_2(self, tmp_path, quad):
        proc = self.run_cli(
            "run", "manufactured", "--degree", "3", "--quad", quad, "--out", str(tmp_path)
        )
        assert proc.returncode == 2
        assert "quad must be >= degree + 2 = 5" in proc.stderr
        assert not any(tmp_path.iterdir())

    def test_uncreatable_out_dir_exits_2_before_any_solve(self, tmp_path, monkeypatch):
        def never(config):
            raise AssertionError("the run started although its output directory is missing")

        monkeypatch.setattr(harness, "run_cavity", never)
        (tmp_path / "file").write_text("")
        proc = self.run_cli("run", "cavity", "--out", str(tmp_path / "file" / "sub"))
        assert proc.returncode == 2
        assert "cannot create output directory" in proc.stderr

    def test_verify_passes(self):
        proc = self.run_cli("verify")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()] == ["PASS"] * 6

    def test_tiny_viscosity_runs(self, tmp_path):
        proc = self.run_cli("run", "cavity", "--nu", "1e-8", "--spans", "12", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_run_and_config_file(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("degree=1\nlevels=1\nbase_spans=4\nout=IGNORED\n")
        out = tmp_path / "out"
        proc = self.run_cli(
            "run", "manufactured", "--config", str(cfg), "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "convergence.csv").exists()
        # flag overrode the config file's out dir
        assert not Path("IGNORED").exists()
        meta = (out / "run_metadata.txt").read_text()
        assert "degree=1" in meta and "levels=1" in meta

    def test_config_value_goes_through_the_flag_type(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("degree=abc\nlevels=1\n")
        out = tmp_path / "out"
        proc = self.run_cli("run", "manufactured", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert "degree" in proc.stderr and "'abc'" in proc.stderr
        assert not out.exists()

    def test_config_file_spellings_and_explicit_flags(self, tmp_path):
        out = tmp_path / "from-file"
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"degree=1\nlevels=3\nbase-spans=3\nout={out}\n")
        proc = self.run_cli("run", "manufactured", "--config", str(cfg), "--levels", "1")
        assert proc.returncode == 0, proc.stderr
        meta = (out / "run_metadata.txt").read_text().splitlines()
        assert {"degree=1", "levels=1", "base_spans=3", f"out_dir={out}"} <= set(meta)
        assert len((out / "convergence.csv").read_text().splitlines()) == 2

    def test_config_case_must_match_positional_case(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("case=cavity\nspans=2\n")
        out = tmp_path / "out"
        proc = self.run_cli("run", "manufactured", "--levels", "1", "--config", str(cfg),
                            "--out", str(out))
        assert proc.returncode == 2
        assert "case=cavity disagrees" in proc.stderr
        assert not out.exists()
        cfg.write_text("case=manufactured\ndegree=1\n")
        proc = self.run_cli("run", "manufactured", "--levels", "1", "--config", str(cfg),
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr

    def test_run_writes_stats_json(self, tmp_path):
        proc = self.run_cli("run", "cavity", "--degree", "1", "--spans", "4", "--out",
                            str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert {"case", "run_s", "output_s", "peak_rss_mb", "minor_faults", "levels"} <= stats.keys()
        assert "solve" not in stats and len(stats["levels"]) == 1
        assert stats["case"] == "cavity"
        assert stats["run_s"] > 0 and stats["output_s"] > 0 and stats["peak_rss_mb"] > 0
        assert isinstance(stats["minor_faults"], int) and stats["minor_faults"] >= 0
        assert {"dofs", "lu_nnz", "factors", "residual", "rss_mb", "precision", "zeroed",
                "refine_steps", "refine_error"} <= stats["levels"][-1].keys()
        assert stats["levels"][-1]["precision"] == "float64"  # a small K
        rss = stats["levels"][-1]["rss_mb"]
        assert 0 < rss["before"] <= rss["factor"] <= rss["after"] <= stats["peak_rss_mb"]
        meta = (tmp_path / "run_metadata.txt").read_text()
        for key in ("run_s", "output_s", "peak_rss", "minor_faults", "seconds", "lu_nnz", "rss_mb",
                    "precision", "refine_error"):
            assert key not in meta

    def test_stats_json_lists_every_level(self, tmp_path):
        proc = self.run_cli("run", "manufactured", "--degree", "1", "--levels", "2", "--out",
                            str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        stats = json.loads((tmp_path / "stats.json").read_text())
        dofs = [int(line.split(",")[2]) for line in
                (tmp_path / "convergence.csv").read_text().splitlines()[1:]]
        assert [level["dofs"] for level in stats["levels"]] == dofs
        assert all({"lu_nnz", "factors", "residual", "rss_mb"} <= level.keys()
                   for level in stats["levels"])
        afters = [level["rss_mb"]["after"] for level in stats["levels"]]
        assert afters == sorted(afters) and afters[-1] <= stats["peak_rss_mb"]
        meta = (tmp_path / "run_metadata.txt").read_text()
        for key in ("lu_nnz", "factors", "seconds", "unknowns"):
            assert key not in meta

    @pytest.mark.parametrize(
        "case, flags, setting",
        [
            ("manufactured", ("--spans", "12"), "spans"),
            ("taylor-couette", ("--spans", "12"), "spans"),
            ("cavity", ("--levels", "7"), "levels"),
            ("cavity", ("--levels", "7", "--base-spans", "3"), "base_spans, levels"),
        ],
    )
    def test_setting_the_case_does_not_read_exit_2(self, tmp_path, case, flags, setting):
        out = tmp_path / "out"
        proc = self.run_cli("run", case, *flags, "--out", str(out))
        assert proc.returncode == 2
        assert f"{case} does not read {setting}" in proc.stderr
        assert not out.exists()

    def test_config_key_the_case_does_not_read_exit_2(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("case=cavity\nbase_spans=3\n")
        out = tmp_path / "out"
        proc = self.run_cli("run", "cavity", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert "cavity does not read base_spans" in proc.stderr
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frequency=11\n")
        proc = self.run_cli("run", "manufactured", "--config", str(cfg))
        assert proc.returncode == 2
