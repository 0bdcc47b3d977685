"""Benchmark drivers: manufactured convergence, rotating annulus, lid cavity.

Each runner assembles the mixed system at one or more refinement levels,
solves, and measures L2 errors with quadrature two orders above the
assembly rule.  Output files are plain text and bit-reproducible for a
fixed configuration.
"""

from __future__ import annotations

import functools
import subprocess
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from . import __version__
from .assembly import (
    _PatchGrid,
    apply_strong_normal_velocity,
    apply_weak_tangential_velocity,
    assemble_vvp,
    solve,
)
from .errors import ConstructionError, check_integer, check_real
from .geometry import (
    GridAxis,
    MultiPatch,
    build_taylor_couette,
    curved_square_patch,
    jacobian_det,
    pushforward_1form,
    unit_square_patch,
)
from .spaces import DiscreteForm, vvp_spaces
from .splines import Basis1D, KnotVector, uniform_open_knots

__all__ = [
    "CaseConfig",
    "ConvergenceRecord",
    "CavityResult",
    "run_manufactured",
    "run_taylor_couette",
    "run_cavity",
    "emit_outputs",
    "manufactured_fields",
    "couette_speed",
    "couette_fields",
]

# case -> the geometries it runs on, the default first
_CASE_GEOMETRIES = {
    "manufactured": ("unit-square", "curved-square"),
    "taylor-couette": ("annulus",),
    "cavity": ("unit-square",),
}
CASES = tuple(_CASE_GEOMETRIES)
# case -> the CaseConfig fields its runner reads; the command line rejects setting any other
_CASE_SETTINGS = {
    "manufactured": ("degree", "levels", "geometry", "nu", "quad", "out_dir", "base_spans"),
    "taylor-couette": ("degree", "levels", "geometry", "nu", "quad", "out_dir", "base_spans"),
    "cavity": ("degree", "geometry", "nu", "quad", "out_dir", "spans"),
}
# case -> the errors that are rounding noise, because the exact field lies in
# the discrete space (the Couette vorticity and pressure); no rate is written
_NOISE_ERRORS = {"taylor-couette": ("err_w", "err_p")}


@dataclass
class CaseConfig:
    """Parameters of one benchmark run."""

    case: str = "manufactured"
    degree: int = 2  # velocity/pressure degree; vorticity is one higher
    levels: int = 4
    geometry: str = ""  # default depends on the case
    nu: float = 1.0
    quad: int | None = None
    out_dir: str = "out"
    base_spans: int = 4
    spans: int | None = None  # cavity resolution (spans per direction)

    def __post_init__(self):
        if self.case not in CASES:
            raise ConstructionError(f"unknown case {self.case!r}; pick from {CASES}")
        allowed = _CASE_GEOMETRIES[self.case]
        if not self.geometry:
            self.geometry = allowed[0]
        if self.geometry not in allowed:
            raise ConstructionError(
                f"{self.case} runs on {' or '.join(allowed)}, not {self.geometry!r}"
            )
        for name in ("degree", "levels", "base_spans"):
            check_integer(name, getattr(self, name))
        for name in ("quad", "spans"):
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name))
        if self.degree < 1:
            raise ConstructionError("degree must be >= 1")
        if self.levels < 1:
            raise ConstructionError("levels must be >= 1")
        if not (np.isfinite(check_real("nu", self.nu)) and self.nu > 0):
            raise ConstructionError(f"nu must be finite and > 0, got {self.nu}")
        if self.quad is not None and self.quad < 2:
            raise ConstructionError("quad must be >= 2 Gauss points per element")
        if self.quad is not None and self.quad < self.degree + 2:
            raise ConstructionError(
                f"quad must be >= degree + 2 = {self.degree + 2} Gauss points per element "
                f"(nodal degree + 1), got {self.quad}"
            )
        if self.spans is not None and self.spans < 1:
            raise ConstructionError("spans must be >= 1")
        if self.base_spans < 1:
            raise ConstructionError("base_spans must be >= 1")


@dataclass
class ConvergenceRecord:
    """Per-level error summary (pressure-constancy deviation where relevant).

    ``extra`` goes into ``run_metadata.txt``; ``stats``, the level's
    ``Solution.stats``, does not (the command line copies it into
    ``stats.json``).
    """

    level: int
    h_max: float
    dofs: int
    err_w: float
    err_u: float
    err_p: float
    div_max: float
    extra: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


@dataclass
class CavityResult:
    spans: int
    degree: int
    dofs: int
    div_max: float
    y_line: np.ndarray
    vx_centerline: np.ndarray
    x_line: np.ndarray
    vy_centerline: np.ndarray
    fields: dict  # name -> (101, 101) arrays on the uniform sample grid
    stream_residual: float
    stats: dict = field(default_factory=dict)  # the solve's Solution.stats


# -- analytic data ------------------------------------------------------------


def manufactured_fields():
    """Sinusoidal closed-form Stokes solution on the unit square.

    Velocity is given through its flux-form components (dx, dy); the
    pressure density consistent with the forcing below is
    -sin(pi x) sin(pi y), reported with its mean removed to match the
    zero-mean gauge of the solver.
    """
    pi = np.pi

    def omega(x, y):
        return -4.0 * pi * np.sin(2 * pi * x) * np.sin(2 * pi * y)

    def u_dx(x, y):
        return -np.cos(2 * pi * x) * np.sin(2 * pi * y)

    def u_dy(x, y):
        return -np.sin(2 * pi * x) * np.cos(2 * pi * y)

    def velocity(x, y):
        return u_dy(x, y), -u_dx(x, y)

    def f_dx(x, y):
        return -8 * pi**2 * np.cos(2 * pi * x) * np.sin(2 * pi * y) - pi * np.sin(
            pi * x
        ) * np.cos(pi * y)

    def f_dy(x, y):
        return -8 * pi**2 * np.sin(2 * pi * x) * np.cos(2 * pi * y) + pi * np.cos(
            pi * x
        ) * np.sin(pi * y)

    def pressure(x, y):
        return -np.sin(pi * x) * np.sin(pi * y) + 4.0 / pi**2

    return {
        "omega": omega,
        "u_dx": u_dx,
        "u_dy": u_dy,
        "velocity": velocity,
        "forcing": (f_dx, f_dy),
        "pressure": pressure,
    }


def couette_speed(r, r_in: float = 1.0, r_out: float = 2.0, omega_in: float = 1.0):
    """Azimuthal speed of flow between a rotating inner and fixed outer cylinder."""
    a = -omega_in * r_in**2 / (r_out**2 - r_in**2)
    b = omega_in * r_in**2 * r_out**2 / (r_out**2 - r_in**2)
    return a * r + b / r


def couette_fields():
    """Exact annulus flow between radii 1 and 2, inner cylinder at unit angular velocity.

    Constant vorticity -2/3 and zero pressure, in the keys of
    ``manufactured_fields`` that the error norms read.
    """
    return {
        "omega": lambda x, y: np.full_like(np.asarray(x, dtype=float), -2.0 / 3.0),
        "velocity": lambda x, y: (
            -couette_speed(np.hypot(x, y)) * y / np.hypot(x, y),
            couette_speed(np.hypot(x, y)) * x / np.hypot(x, y),
        ),
        "pressure": lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    }


# -- shared machinery ----------------------------------------------------------


def _bases(degree_nodal: int, spans: int):
    """The nodal bases of both directions: one object, so per-basis work is done once."""
    basis = Basis1D(KnotVector(uniform_open_knots(degree_nodal, spans), degree_nodal))
    return basis, basis


def _h_max(patches, triples) -> float:
    """Largest cell diameter over the patches, from the mapped breakpoint grid of each."""
    worst = 0.0
    axes = {}  # field basis -> its breakpoints, which patches sharing it share
    for (s0, _, _), patch in zip(triples, patches):
        for b in s0.nodal_bases:
            if b not in axes:
                axes[b] = GridAxis(b.breakpoints)
        corners = patch.map_grid(*(axes[b] for b in s0.nodal_bases))
        d1 = np.linalg.norm(corners[1:, 1:] - corners[:-1, :-1], axis=-1)
        d2 = np.linalg.norm(corners[1:, :-1] - corners[:-1, 1:], axis=-1)
        worst = max(worst, d1.max(), d2.max())
    return worst / np.sqrt(2.0)


def _physical_velocity(grid: _PatchGrid, fu):
    """Velocity vector components at the grid's quadrature points."""
    comp_x, comp_y = pushforward_1form(
        grid.jac, grid.det, grid.reconstruct(fu, 0), grid.reconstruct(fu, 1)
    )
    return comp_y, -comp_x  # flux form (a dy - b dx) carries the vector (a, b)


def _solution_errors(solution, exact, extra_quad: int = 2, quad=None):
    """L2 errors of (omega, velocity, pressure density) over all patches.

    Also returns the largest point-wise physical divergence, taken at the
    Gauss points of the error grid (at least 23 per direction; a grid
    with fewer gets more points per element for this check alone).
    """
    sysm = solution.system
    e_w2 = e_u2 = e_p2 = 0.0
    div_pt = 0.0
    for p, patch in enumerate(sysm.patches):
        bases = sysm.spaces[p][0].nodal_bases
        grid = _PatchGrid(bases, patch, n_quad=quad, extra=extra_quad, need_phys=True)
        W = grid.w * grid.det
        X = grid.phys[..., 0]
        Y = grid.phys[..., 1]
        fo, fu, fp = solution.forms(p)
        e_w2 += np.sum(W * (grid.reconstruct(fo, 0) - exact["omega"](X, Y)) ** 2)
        vx, vy = _physical_velocity(grid, fu)
        vx_e, vy_e = exact["velocity"](X, Y)
        e_u2 += np.sum(W * ((vx - vx_e) ** 2 + (vy - vy_e) ** 2))
        p_h = grid.reconstruct(fp, 0) / grid.det
        e_p2 += np.sum(W * (p_h - exact["pressure"](X, Y)) ** 2)
        # points per element the divergence check lacks for 23 per direction
        more = max(-(-23 // (axis.pts.size // axis.nq)) - axis.nq for axis in grid.axes)
        if more > 0:
            grid = _PatchGrid(bases, patch, n_quad=quad, extra=extra_quad + more)
        div = grid.reconstruct(fu.exterior_derivative(), 0) / grid.det
        div_pt = max(div_pt, float(np.abs(div).max()))
    return np.sqrt(e_w2), np.sqrt(e_u2), np.sqrt(e_p2), div_pt


def rates(records, noise=()):
    """Per-level convergence rates of (err_w, err_u, err_p).

    nan for the first level and for the errors named in ``noise``.
    """
    out = []
    for i, rec in enumerate(records):
        if i == 0:
            out.append((np.nan, np.nan, np.nan))
            continue
        prev = records[i - 1]
        dh = np.log(prev.h_max / rec.h_max)
        out.append(
            tuple(
                np.nan if k in noise else np.log(getattr(prev, k) / getattr(rec, k)) / dh
                for k in ("err_w", "err_u", "err_p")
            )
        )
    return out


# -- runners -------------------------------------------------------------------


def _solve_level(config: CaseConfig, geometry, spans: int, normal=None, tangential=None,
                 forcing=None):
    """One refinement level: spaces, assembly, normal flux strongly, tangential data weakly, solve.

    Every patch gets the same space triple, so per-basis work is done
    once.  Returns the triples, the system, the solution and the largest
    cochain divergence over the patches.
    """
    multi = isinstance(geometry, MultiPatch)
    triples = [vvp_spaces(_bases(config.degree + 1, spans))] * (
        len(geometry.patches) if multi else 1)
    system = assemble_vvp(triples if multi else triples[0], geometry, nu=config.nu,
                          forcing=forcing, n_quad=config.quad)
    apply_strong_normal_velocity(system, normal)
    apply_weak_tangential_velocity(system, tangential)
    solution = solve(system)
    div_max = max(np.abs(solution.divergence_cochain(p)).max() for p in range(len(triples)))
    return triples, system, solution, div_max


def _ladder(config: CaseConfig, geometry, exact, normal, tangential, forcing, extra):
    """The levels of a convergence case, ``base_spans`` doubling per level.

    ``extra(solution)`` gives the case's own entries of ``rec.extra``.
    Returns the records and the (solution, triples) of the last level.
    """
    records = []
    for level in range(config.levels):
        triples, system, solution, div_max = _solve_level(
            config, geometry, config.base_spans * 2**level, normal, tangential, forcing)
        e_w, e_u, e_p, div_pt = _solution_errors(solution, exact, quad=config.quad)
        more = {**extra(solution), "div_pointwise": div_pt, "residual": solution.residual}
        records.append(ConvergenceRecord(
            level=level, h_max=_h_max(system.patches, triples), dofs=system.size,
            err_w=e_w, err_u=e_u, err_p=e_p, div_max=div_max, extra=more, stats=solution.stats))
    return records, (solution, triples)


def run_manufactured(config: CaseConfig):
    """Convergence study of the sinusoidal solution on Cartesian or curved grids."""
    exact = manufactured_fields()
    patch = unit_square_patch() if config.geometry == "unit-square" else curved_square_patch()
    return _ladder(config, patch, exact, exact["velocity"], exact["velocity"], exact["forcing"],
                   lambda solution: {})


def run_taylor_couette(config: CaseConfig):
    """Annulus flow between a rotating inner and a fixed outer cylinder."""
    multipatch = build_taylor_couette()
    tangential = {}
    for p in range(4):
        tangential[(p, "left")] = lambda x, y: (-y, x)  # unit angular velocity at r=1
        tangential[(p, "right")] = lambda x, y: (0.0 * x, 0.0 * y)

    def extra(solution):
        # reconstructed speeds on the two cylinders (u = 0 at r = 1, u = 1 at r = 2)
        t = np.linspace(0.0, 1.0, 33)
        u_cyl = np.array([0.0, 1.0])
        comps = solution.forms(0)[1].eval_grid((u_cyl, t))
        jac = multipatch.patches[0].jacobian(
            np.stack(np.broadcast_arrays(u_cyl[:, None], t), axis=-1))
        cx, cy = pushforward_1form(jac, jacobian_det(jac), comps[0], comps[1])
        speeds = dict(zip((1.0, 2.0), np.hypot(cy, -cx)))
        return {
            "pressure_cochain_dev": np.abs(solution.p - solution.p.mean()).max(),
            "speed_err_inner": float(np.abs(speeds[1.0] - 1.0).max()),
            "speed_err_outer": float(np.abs(speeds[2.0]).max()),
        }

    return _ladder(config, multipatch, couette_fields(), None, tangential, None, extra)


def _stream_function(solution, patch_index: int = 0):
    """Potential whose discrete gradient reproduces the velocity cochain."""
    sysm = solution.system
    s0, s1, _ = sysm.spaces[patch_index]
    D10 = s0.coboundary_matrix().tocsc().astype(float)
    u = solution.u[sysm.map1[patch_index]]
    L = (D10.T @ D10).tocsc()
    rhs = D10.T @ u
    # pin one coefficient; the potential is defined up to a constant
    psi = np.zeros(s0.dim)
    psi[1:] = spla.spsolve(L[1:, 1:], rhs[1:])
    resid = np.abs(D10 @ psi - u).max()
    return psi, float(resid)


def run_cavity(config: CaseConfig) -> CavityResult:
    """Lid-driven cavity: unit tangential velocity on the top wall."""
    spans = 9 if config.spans is None else config.spans
    lid = {(0, "top"): lambda x, y: (np.ones_like(x), np.zeros_like(y))}
    _, system, solution, div_max = _solve_level(config, unit_square_patch(), spans,
                                                tangential=lid)

    fo, fu, fp = solution.forms(0)
    line = np.linspace(0.0, 1.0, 101)  # samples of the profiles and of each field direction
    comps_v = fu.eval_grid((np.array([0.5]), line))
    vx_center = comps_v[1][0]  # horizontal velocity = dy-component of the flux form
    comps_h = fu.eval_grid((line, np.array([0.5])))
    vy_center = -comps_h[0][:, 0]

    psi, stream_resid = _stream_function(solution)
    stream = DiscreteForm(system.spaces[0][0], psi).eval_grid((line, line))[0]
    vort = fo.eval_grid((line, line))[0]
    pres = fp.eval_grid((line, line))[0]  # identity map: density = reference values
    return CavityResult(
        spans=spans,
        degree=config.degree,
        dofs=system.size,
        div_max=float(div_max),
        y_line=line,
        vx_centerline=np.asarray(vx_center),
        x_line=line,
        vy_centerline=np.asarray(vy_center),
        fields={"stream": stream, "vorticity": vort, "pressure": pres},
        stream_residual=stream_resid,
        stats=solution.stats,
    )


# -- output --------------------------------------------------------------------


@functools.cache
def _version_stamp() -> str:
    """Package version and git revision, read once per process.

    The stamp is the revision when the process first wrote output; a
    checkout that changes later in the same process is not seen.
    """
    stamp = f"splineforms {__version__}"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        )
        if rev.returncode == 0:
            stamp += f" git {rev.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return stamp


def _percent_table(grid: np.ndarray) -> str:
    """The table format: one line per row, values ``%.17e`` joined by spaces.

    One ``%`` over the whole array writes the same bytes as formatting
    each value on its own.  ``_table`` writes these bytes faster and
    hands this the rows it cannot write.
    """
    m, n = grid.shape
    row = " ".join(["%.17e"] * n)
    return ("\n".join([row] * m) + "\n") % tuple(grid.ravel().tolist())


_EXP10 = 252  # the powers 10^(17-k) of ``_significands`` cover |k| <= _EXP10


def _halves(v):
    """Dekker's split: top + bottom = v, each with at most 26 significant bits."""
    big = 134217729.0 * v  # 2^27 + 1
    top = big - (big - v)
    return top, v - top


@functools.cache
def _decimal_tables():
    """The tables of ``_significands`` and ``_table``, built on first use.

    10^(17-k) for k = -_EXP10 .. _EXP10 as correctly rounded (hi, lo)
    pairs, with hi in Dekker's halves (top, bottom), and the four ASCII
    digits of each of 0 .. 9999, (10000, 4) bytes.
    """
    hi, lo = [], []
    for j in range(17 + _EXP10, 16 - _EXP10, -1):
        if j >= 0:
            power = 10**j
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10**-j
            hi.append(1 / power)  # int / int rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    n = np.arange(10000)
    digits = np.stack((n // 1000, n // 100 % 10, n // 10 % 10, n % 10), axis=1) + ord("0")
    return hi, np.array(lo), *_halves(hi), digits.astype(np.uint8)


def _significands(x):
    """The 18-digit significand and decimal exponent of each double, and where to distrust them.

    Fixed-precision conversion by table multiplication (Adams, "Ryu
    revisited", OOPSLA 2019) in double-double arithmetic.  With
    k = floor(log10|x|), y = |x| 10^(17-k) is a normalized double-double
    (hi, lo): 10^(17-k) is a correctly rounded pair, |x| times its hi
    part is exact by Dekker's product (Numer. Math. 18, 1971), and the
    error of y is below 2^-104 y, that is below 1e-12 units.  Comparing
    y with 1e17 and 1e18 corrects k once; y rounded is the significand,
    and a carry to 10^18 moves to the next decade.  Zero and -0.0 read
    significand 0 and exponent 0.  ``bad`` marks a value that is not
    finite, a nonzero |x| outside [1e-250, 1e250], and a y whose
    fractional part lies within 1e-6 of one half, where that error could
    flip the rounding.
    """
    p_hi, p_lo, p_top, p_bot, _ = _decimal_tables()
    a = np.abs(x)
    zero = a == 0.0
    inside = (a >= 1e-250) & (a <= 1e250)
    a[~inside] = 1.0
    a_top, a_bot = _halves(a)

    def scaled(k):
        """y = a 10^(17-k) as (hi, lo), and its decade offset (-1, 0 or 1)."""
        i = k + _EXP10
        prod = a * p_hi[i]
        err = ((a_top * p_top[i] - prod) + a_top * p_bot[i] + a_bot * p_top[i]) + a_bot * p_bot[i]
        tail = err + a * p_lo[i]
        hi = prod + tail
        lo = tail - (hi - prod)
        offset = ((hi > 1e18) | (hi == 1e18) & (lo >= 0.0)).astype(np.intp)
        offset -= (hi < 1e17) | (hi == 1e17) & (lo < 0.0)
        return hi, lo, offset

    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo, offset = scaled(k)
    if offset.any():  # log10 is off by one next to powers of ten
        k += offset
        hi, lo, _ = scaled(k)
    whole = np.rint(lo)
    bad = ~(inside | zero) | (np.abs(np.abs(lo - whole) - 0.5) < 1e-6)
    sig = hi.astype(np.int64) + whole.astype(np.int64)
    carry = sig == 10**18
    sig[carry] = 10**17
    k += carry
    sig[zero] = 0
    k[zero] = 0
    return sig, k, bad


def _table(grid: np.ndarray) -> str:
    """The bytes of ``_percent_table(grid)``, written by a numpy kernel.

    ``_significands`` gives each value's digits; a 28-byte record per
    value lays them out, and the zero bytes of the records are padding.
    A row goes to ``_percent_table`` if ``_significands`` marks a value
    of it: not finite, nonzero and outside [1e-250, 1e250] in magnitude,
    or within 1e-6 units of a rounding tie (the kernel's error is below
    1e-12 units).
    """
    m, n = grid.shape
    if m * n == 0:
        return "\n" * max(m, 1)
    x = np.ascontiguousarray(grid, dtype=np.float64).ravel()
    sig, k, bad = _significands(x)
    digits = _decimal_tables()[-1]
    quad = digits.view("<u4").ravel()

    # sign, d, '.', 17 digits, 'e', sign, 3 exponent digits, separator, 2 pad bytes
    words = np.zeros((x.size, 7), dtype="<u4")
    rec = words.view(np.uint8)
    top = sig // 10**8
    lead = top // 10**8
    upper, lower = top - lead * 10**8, sig - top * 10**8
    up, low = upper // 10**4, lower // 10**4
    rec[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    rec[:, 1], rec[:, 2], rec[:, 3] = digits[lead, 2], ord("."), digits[lead, 3]
    words[:, 1], words[:, 2] = quad[up], quad[upper - up * 10**4]
    words[:, 3], words[:, 4] = quad[low], quad[lower - low * 10**4]
    rec[:, 20] = ord("e")
    rec[:, 21] = np.where(k < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    exp = np.abs(k)
    rec[:, 22:25] = quad[exp].view(np.uint8).reshape(-1, 4)[:, 1:]
    rec[:, 22] *= exp >= 100
    rec.reshape(m, n, 28)[:, :, 25] = ord(" ")
    rec.reshape(m, n, 28)[:, -1, 25] = ord("\n")
    text = str(rec[rec != 0].data, "ascii")

    rows = np.flatnonzero(bad.reshape(m, n).any(axis=1))
    if rows.size:
        lines = text.split("\n")
        for i, line in zip(rows, _percent_table(grid[rows]).split("\n")):
            lines[i] = line
        text = "\n".join(lines)
    return text


def _out_dir(config: CaseConfig) -> Path:
    """The output directory, created with its parents where missing."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    return out


def emit_outputs(config: CaseConfig, records=None, cavity: CavityResult | None = None):
    """Write convergence tables, field grids and profiles; returns the paths."""
    out = _out_dir(config)
    written = []

    def emit(path: Path, text: str):
        path.write_text(text)
        written.append(path)

    if records:
        rate_list = rates(records, _NOISE_ERRORS.get(config.case, ()))
        lines = ["level,h_max,dof,err_w,err_u,err_p,div_max,rate_w,rate_u,rate_p"]
        for rec, rate in zip(records, rate_list):
            nums = [
                f"{rec.h_max:.17e}",
                str(rec.dofs),
                f"{rec.err_w:.17e}",
                f"{rec.err_u:.17e}",
                f"{rec.err_p:.17e}",
                f"{rec.div_max:.17e}",
            ] + [("nan" if np.isnan(r) else f"{r:.6f}") for r in rate]
            lines.append(f"{rec.level}," + ",".join(nums))
        emit(out / "convergence.csv", "\n".join(lines) + "\n")

    if cavity is not None:
        emit(
            out / "profile_horizontal_velocity.dat",
            _table(np.column_stack((cavity.y_line, cavity.vx_centerline))),
        )
        emit(
            out / "profile_vertical_velocity.dat",
            _table(np.column_stack((cavity.x_line, cavity.vy_centerline))),
        )
        for name, grid in sorted(cavity.fields.items()):
            emit(out / f"field_{name}.dat", _table(grid))

    meta = [f"# {_version_stamp()}"]
    meta += [f"{f.name}={getattr(config, f.name)}" for f in fields(config)]
    if records:
        for rec in records:
            extra = " ".join(f"{k}={v:.17e}" for k, v in sorted(rec.extra.items()))
            meta.append(f"# level {rec.level}: {extra}")
    if cavity is not None:
        meta.append(f"# cavity dofs={cavity.dofs} div_max={cavity.div_max:.17e}")
        meta.append(f"# stream_residual={cavity.stream_residual:.17e}")
    emit(out / "run_metadata.txt", "\n".join(meta) + "\n")
    return written
