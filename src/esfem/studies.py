"""Refinement-study harness: bounded-ratio tables for the regularity checks,
convergence studies against the exact decay solutions, and the fitted-constant
inequality suite.  All reports are deterministic for a fixed config and seed
and are emitted as CSV plus a plain-text summary; mesh snapshots go out
through the same table writer."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IOFailure, RichardsonFailure, UnknownProfile, UnsupportedSurface
from .fem import (
    DISCRETE,
    LIFTED,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    discrete_laplacian,
    element_values,
    l2_project,
    norm_lq,
    norm_w1q,
    ritz_project,
    tangent_gradients,
)
from .meshing import DEFAULT_LEVELS, ELEMENT_DEGREES, MIN_LEVEL, build_circle_mesh, build_sphere_mesh
from .surfaces import exact_heat_solution, forcing_profile, make_surface, profile_seed
from .timestepping import (
    SCHEME_A,
    SCHEME_B,
    STATIONARY,
    NormSeries,
    TimeGrid,
    norm_series,
    solve_heat,
    spacetime_norm,
)

CSV_COLUMNS = ("level", "h", "dt", "p", "q", "norm_dtu", "norm_lapu",
               "norm_f", "ratio", "richardson_ok")


@dataclass(frozen=True)
class StudyConfig:
    surface_kind: str = "circle"
    dimension: int | None = None  # None: the kind's own, which __post_init__ sets
    surface_params: tuple = ()
    scheme: str = STATIONARY
    degree: int = 1
    levels: tuple | None = None  # None: the dimension's DEFAULT_LEVELS
    pq_pairs: tuple = ((2.0, 2.0),)
    profile: str = "osc-seed42"
    mode: int = 1
    dt_factor: float = 0.5
    richardson_rtol: float = 0.01
    cg_tol: float = 1e-12
    seed: int = 42

    def __post_init__(self):
        if self.dimension is None:
            # the kind's own: circles are curves, every other kind a surface
            object.__setattr__(self, "dimension", 1 if self.surface_kind == "circle" else 2)
        if self.levels is None:
            object.__setattr__(self, "levels", DEFAULT_LEVELS.get(self.dimension, ()))

    def validate(self):
        """Self, or ConfigError naming the config key of the first value
        the studies or the mesh builders would reject."""
        dim = self.dimension  # first, as the default levels depend on it
        if dim not in ELEMENT_DEGREES:
            raise ConfigError(f"surface.dimension (no mesh builder for dimension {dim})")
        if self.scheme not in (SCHEME_A, SCHEME_B, STATIONARY):
            raise ConfigError(f"study.scheme (must be A, B or stationary, got {self.scheme!r})")
        if any(not (1.0 < p < math.inf and 1.0 < q < math.inf)
               for p, q in self.pq_pairs):
            raise ConfigError("study.pq (all p, q must lie in (1, inf))")
        for i, (p, q) in enumerate(self.pq_pairs):
            if (p, q) in self.pq_pairs[:i]:
                raise ConfigError(f"study.pq (the pair {p:g}:{q:g} is repeated)")
        if not self.levels:
            raise ConfigError("study.levels (must name at least one level)")
        if list(self.levels) != sorted(set(self.levels)):
            raise ConfigError("study.levels (must be strictly increasing)")
        for key, value in (("study.dt_factor", self.dt_factor),
                           ("study.richardson_rtol", self.richardson_rtol),
                           ("solver.cg_tol", self.cg_tol)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{key} (must be positive and finite, got {value})")
        if self.mode < 1:
            raise ConfigError(f"study.mode (must be >= 1, got {self.mode})")
        if self.seed < 0:
            raise ConfigError(f"study.seed (must be >= 0, got {self.seed})")
        try:
            surface = self.surface()
        except UnsupportedSurface as exc:
            raise ConfigError(f"surface.kind ({exc})") from exc
        except ValueError as exc:
            raise ConfigError(f"surface.params ({exc})") from exc
        if surface.dimension != dim:
            raise ConfigError(f"surface.dimension (a {self.surface_kind} has dimension "
                              f"{surface.dimension}, got {dim})")
        if self.degree not in ELEMENT_DEGREES[dim]:
            raise ConfigError(f"study.degree (must be one of {ELEMENT_DEGREES[dim]} "
                              f"on a {dim}-dimensional surface, got {self.degree})")
        if self.levels[0] < MIN_LEVEL[dim]:
            raise ConfigError(f"study.levels (must be >= {MIN_LEVEL[dim]} on a "
                              f"{dim}-dimensional surface, got {self.levels[0]})")
        try:
            profile_seed(self.profile)
        except UnknownProfile as exc:
            raise ConfigError(f"study.profile ({exc})") from exc
        return self

    def surface(self):
        return make_surface(self.surface_kind, self.dimension, self.surface_params)


def config_hash(parameters):
    """Stable hash of the dict of parameters that a manifest records (for a
    StudyConfig, its ``asdict``)."""
    # CPython's builtin SHA-256 gives hashlib's digest without hashlib, which
    # loads OpenSSL (_hashlib, about 3.5 MB of RSS) for one short payload
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10, 3.11
        except ImportError:
            from hashlib import sha256

    payload = json.dumps(parameters, sort_keys=True, default=list)
    return sha256(payload.encode()).hexdigest()[:16]


def study_forcing(config, surface):
    """The forcing of the config's profile as solve_heat takes it: None for
    ``zero``, so that no load is evaluated and no fh is solved for."""
    return None if config.profile == "zero" else forcing_profile(config.profile, surface)


def build_level_mesh(surface, level, degree):
    if surface.dimension == 1:
        return build_circle_mesh(surface, level, degree)
    return build_sphere_mesh(surface, level, degree)


@dataclass
class StudyRow:
    level: int
    h: float
    dt: float
    p: float
    q: float
    norm_dtu: float
    norm_lapu: float
    norm_f: float
    ratio: float  # nan encodes "NA" (zero forcing)
    richardson_ok: bool


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list = field(default_factory=list)
    uniformity: dict = field(default_factory=dict)

    def rows_for(self, p, q):
        return [r for r in self.rows if r.p == p and r.q == q]


def _solve_level(config, surface, level):
    """One study cell: solve at dt and dt/2, return both norm series.

    The dt stream takes its frames from the dt/2 stream: each of its nodes
    takes the snapshot, geometry, M, A and b of the dt/2 stream's node at
    the same time, and its fh solve starts from that node's fh (see
    solve_heat).  The dt/2 stream is drawn only as the dt stream asks for
    its even nodes, so its series are bitwise those of a stream on its own.
    Nodes are reduced as they are drawn and dropped before the next is
    drawn, so that each snapshot is built with no other alive."""
    mesh = build_level_mesh(surface, level, config.degree)
    grid = TimeGrid.from_mesh(mesh, t_end=1.0, factor=config.dt_factor)
    forcing = study_forcing(config, surface)
    qset = tuple(sorted({q for _, q in config.pq_pairs}))
    pairs = [(name, q) for name in ("udot", "lap", "fh") for q in qset]
    common = dict(scheme=config.scheme, cg_tol=config.cg_tol)
    fine = NormSeries(pairs)

    def even_fine_nodes():
        nodes = solve_heat(mesh, forcing, grid.halved(), **common)
        # next(), not enumerate: enumerate's cached (k, node) tuple would keep
        # node 2k alive while the snapshot of node 2k + 1 is built
        for k in range(2 * grid.n_steps + 1):
            node = next(nodes)
            fine.add(node)
            if k % 2 == 0:
                yield node
            del node

    coarse = norm_series(solve_heat(mesh, forcing, grid, frames=even_fine_nodes(), **common),
                         pairs)
    return mesh, grid, coarse, fine.result()


def maxreg_study(config):
    """Ratio table R(h; p, q) = (|du/dt| + |discrete Laplacian u|) / |f_h| in
    the L^p(0,1; L^q) norms, with a dt-halving certificate per row.

    h-uniformity is declared per (p, q) when max/min of R over the levels is
    at most 1.25 and the last refinement step grows R by at most 10%.  A
    failed certificate raises RichardsonFailure, which carries the report.
    """
    config.validate()
    surface = config.surface()

    report = StudyReport(config=config)
    failures = {pq: [] for pq in config.pq_pairs}  # (level, field, deviation)
    for level in config.levels:
        mesh, grid, coarse, fine = _solve_level(config, surface, level)
        for p, q in config.pq_pairs:
            norms_fine = {
                name: spacetime_norm(*fine, name, p, q)
                for name in ("udot", "lap", "fh")
            }
            ok = True
            for name, value in norms_fine.items():
                ref = spacetime_norm(*coarse, name, p, q)
                deviation = abs(value - ref) / max(abs(value), 1e-300)
                if deviation > config.richardson_rtol:
                    ok = False
                    failures[(p, q)].append((level, name, deviation))
            nf = norms_fine["fh"]
            ratio = (norms_fine["udot"] + norms_fine["lap"]) / nf if nf > 0 else math.nan
            report.rows.append(StudyRow(
                level=level, h=mesh.h, dt=grid.halved().dt, p=p, q=q,
                norm_dtu=norms_fine["udot"], norm_lapu=norms_fine["lap"],
                norm_f=nf, ratio=ratio, richardson_ok=ok,
            ))

    for p, q in config.pq_pairs:
        rows = report.rows_for(p, q)
        ratios = [r.ratio for r in rows if not math.isnan(r.ratio)]
        if failures[(p, q)]:
            where = ", ".join(f"level {level} {name} by {deviation:.3g}"
                              for level, name, deviation in failures[(p, q)])
            raise RichardsonFailure(
                f"dt-halving changed norms by more than richardson_rtol = "
                f"{config.richardson_rtol:g} (relative) at (p,q)=({p},{q}): {where}",
                report)
        if ratios:
            spread = max(ratios) / min(ratios)
            last_growth = ratios[-1] / ratios[-2] - 1.0 if len(ratios) > 1 else 0.0
            report.uniformity[(p, q)] = {
                "spread": spread,
                "last_growth": last_growth,
                "uniform": spread <= 1.25 and last_growth <= 0.10,
            }
    return report


def convergence_study(config):
    """L^inf(0,T; L^2) errors against the exact eigenfunction-decay solution,
    integrated with BDF2 at dt = factor * h^((k+1)/2 + 1/2) so the time error
    stays below the spatial rate being measured.

    Returns the rows (level, h, dt, error), one per level, and the observed
    order: the slope of log(error) against log(h)."""
    config.validate()
    surface = config.surface()
    solution = exact_heat_solution(surface, config.mode)
    rows = []
    for level in config.levels:
        mesh = build_level_mesh(surface, level, config.degree)
        space = FeSpace(mesh, DISCRETE)
        n = max(2, math.ceil(1.0 / (config.dt_factor * mesh.h ** ((config.degree + 1) / 2.0 + 0.5))))
        grid = TimeGrid(1.0, n)
        nodes = solve_heat(
            mesh, None, grid, scheme=STATIONARY, integrator="bdf2",
            u0=solution.initial(mesh.nodes), cg_tol=config.cg_tol,
        )
        geom = space.geometry()
        exact_pts = surface.project(mesh.time, geom.points.reshape(-1, geom.points.shape[-1]))
        err = 0.0
        for node in nodes:
            uh = element_values(node.u, mesh.elements, geom)
            ue = solution.value(node.t, exact_pts).reshape(uh.shape)
            err = max(err, math.sqrt(float(np.sum(geom.weights * (uh - ue) ** 2))))
        rows.append((level, mesh.h, grid.dt, err))
    _, hs, _, errors = zip(*rows)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return rows, float(order)


# ---------------------------------------------------------------------------
# inequality suite (fitted-constant stability checks)
# ---------------------------------------------------------------------------


_PROJECTION_TEST_FUNCTIONS = (
    lambda x: np.abs(x[..., 0]),
    lambda x: np.tanh(8.0 * x[..., 0]),
    lambda x: np.sign(x[..., -1]) * np.minimum(1.0, 8.0 * np.abs(x[..., -1])),
    lambda x: np.exp(np.sin(5.0 * x[..., 0])),
    lambda x: x[..., 0] * x[..., -1],
)


RANDOM_FUNCTIONS = 20  # random FE functions per level of inequality_suite


def inequality_suite(config):
    """Per-level fitted constants for: lifted/discrete norm equivalence,
    L^p stability of the L^2 projection, the inverse inequality, the
    gradient-Laplacian interpolation inequality, and Ritz-projection
    W^{1,q} stability.  Stability means max/min <= 1.10 across levels."""
    eps_values, q_values = (0.1, 0.3, 1.0), (2.0, 4.0)
    config.validate()
    surface = config.surface()
    levels = config.levels
    out = {
        "levels": list(levels),
        "h": [],
        "norm_equivalence_c": [],
        "projection_stability": {p: [] for p in (1.0, 2.0, 4.0)},
        "inverse_constant": [],
        "interpolation_c": {q: [] for q in q_values},
        "ritz_stability": {q: [] for q in q_values},
    }
    for idx, level in enumerate(levels):
        rng = np.random.default_rng(config.seed + 1000 * idx)
        mesh = build_level_mesh(surface, level, config.degree)
        space = FeSpace(mesh, DISCRETE)
        lifted = FeSpace(mesh, LIFTED)
        mass = assemble_mass(space)
        stiff = assemble_stiffness(space)
        h = mesh.h
        out["h"].append(h)

        funcs = [rng.standard_normal(space.num_dofs) for _ in range(RANDOM_FUNCTIONS)]

        # norm equivalence between the discrete and lifted surfaces; the
        # lifted space reuses the discrete quadrature order so the two norms
        # sample identical points and differ only through the metric
        lifted_same_rule = FeSpace(mesh, LIFTED, quad_order=space.quad_order)
        c_equiv = 0.0
        for u in funcs:
            for p in (1.0, 2.0, 4.0, math.inf):
                r = norm_lq(lifted_same_rule, u, p) / norm_lq(space, u, p)
                c_equiv = max(c_equiv, abs(r - 1.0) / h ** (config.degree + 1))
        out["norm_equivalence_c"].append(c_equiv)

        # L^p stability of the L2 projection on rough-ish functions
        projections = [(fn, l2_project(space, fn, mass=mass, tol=config.cg_tol))
                       for fn in _PROJECTION_TEST_FUNCTIONS]
        for p in (1.0, 2.0, 4.0):
            worst = 0.0
            for fn, proj in projections:
                worst = max(worst, norm_lq(space, proj, p) / norm_lq(space, fn, p))
            out["projection_stability"][p].append(worst)

        # inverse inequality |chi|_W12 <= K h^-1 |chi|_L2
        k_inv = max(norm_w1q(space, u, 2.0) * h / norm_lq(space, u, 2.0) for u in funcs)
        out["inverse_constant"].append(k_inv)

        # interpolation |grad u|_q <= C (eps^-1 |u|_q + eps |lap_h u|_q)
        laplacians = [discrete_laplacian(u, mass=mass, stiffness=stiff, tol=config.cg_tol)
                      for u in funcs]
        for q in q_values:
            worst = 0.0
            for u, lap in zip(funcs, laplacians):
                gn = _gradient_norm_lq(space, u, q)
                for eps in eps_values:
                    bound = norm_lq(space, u, q) / eps + eps * norm_lq(space, lap, q)
                    worst = max(worst, gn / bound)
            out["interpolation_c"][q].append(worst)

        # Ritz projection stability in W^{1,q} for w = x_d, the last
        # coordinate (sin(theta) times the radius on a circle)
        ritz = ritz_project(lifted, _last_coordinate, _last_coordinate_gradient,
                            tol=config.cg_tol)
        for q in q_values:
            num = norm_w1q(lifted, ritz, q)
            den = _callable_w1q_norm(lifted, _last_coordinate, _last_coordinate_gradient, q)
            out["ritz_stability"][q].append(num / den)

    out["stable"] = {}
    # the equivalence constant is fitted once (coarsest level); finer levels
    # must stay inside the band with a factor-10 slack, since it is a maximum
    # over random draws rather than a deterministic constant
    c_fit = out["norm_equivalence_c"][0]
    out["stable"]["norm_equivalence_c"] = all(
        c <= 10.0 * c_fit for c in out["norm_equivalence_c"]
    )
    out["stable"]["inverse_constant"] = _growth_ok(out["inverse_constant"])
    for p, series in out["projection_stability"].items():
        out["stable"][f"projection_p{p:g}"] = _growth_ok(series)
    for q, series in out["interpolation_c"].items():
        out["stable"][f"interpolation_q{q:g}"] = _growth_ok(series)
    for q, series in out["ritz_stability"].items():
        out["stable"][f"ritz_q{q:g}"] = _growth_ok(series)
    out["all_stable"] = all(out["stable"].values())
    return out


def _growth_ok(series):
    """Constants fitted at the coarsest level may not grow by more than 10%
    under refinement; shrinking is fine (the bound only gets easier)."""
    return max(series) <= 1.10 * series[0]


def _gradient_norm_lq(space, u, q):
    grads, geom = tangent_gradients(space, u)
    gmag = np.linalg.norm(grads, axis=-1)
    return float(np.sum(geom.weights * gmag**q) ** (1.0 / q))


def _callable_w1q_norm(space, fn, grad_fn, q):
    geom = space.geometry()
    pts = geom.points
    flat = pts.reshape(-1, pts.shape[-1])
    vals = np.asarray(fn(flat), dtype=float)
    grads = np.asarray(grad_fn(flat), dtype=float)
    nu = space.mesh.surface.normal(space.mesh.time, flat)
    tangential = grads - np.sum(grads * nu, axis=-1, keepdims=True) * nu
    gmag = np.linalg.norm(tangential, axis=-1)
    w = geom.weights.reshape(-1)
    return float(np.sum(w * (np.abs(vals) ** q + gmag**q)) ** (1.0 / q))


def _last_coordinate(x):
    return x[..., -1]


def _last_coordinate_gradient(x):
    g = np.zeros_like(x)
    g[..., -1] = 1.0
    return g


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        return format(value, ".17g")
    return str(value)


def write_table(path, header, rows, sep=","):
    """Write one header line (none when header is empty) and one line per row,
    each value formatted by ``_fmt`` and joined by sep.

    Floats carry 17 significant digits, so identical values give identical
    bytes.  Creates the parent directory; raises IOFailure when the file
    cannot be written.
    """
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            if header:
                fh.write(sep.join(header) + "\n")
            for row in rows:
                fh.write(sep.join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    return path


def write_mesh_text(mesh, path):
    """Line-oriented whitespace-separated snapshot (header, nodes, elements)."""
    rows = [
        ["esfem-mesh", 1],
        ["degree", mesh.degree],
        ["dimension", mesh.dimension],
        ["time", mesh.time],
        ["nodes", mesh.num_nodes], *mesh.nodes,
        ["refnodes", mesh.num_nodes], *mesh.ref_nodes,
        ["elements", mesh.num_elements], *mesh.elements,
    ]
    return write_table(path, (), rows, sep=" ")


def write_mesh_vtk(mesh, path):
    """Legacy ASCII VTK: POLYDATA with polygons (m=2) or lines (m=1).

    Curved (degree 2) elements are written through their corner vertices;
    all nodes are kept in the point list.
    """
    pad = [0.0] * (3 - mesh.nodes.shape[1])
    verts = mesh.elements[:, list(mesh.reference.vertex_ids)]
    nv = verts.shape[1]
    kind = "LINES" if mesh.dimension == 1 else "POLYGONS"
    rows = [
        ["# vtk DataFile Version 3.0"],
        ["esfem surface mesh"],
        ["ASCII"],
        ["DATASET POLYDATA"],
        ["POINTS", mesh.num_nodes, "double"],
        *([*row, *pad] for row in mesh.nodes),
        [kind, mesh.num_elements, mesh.num_elements * (nv + 1)],
        *([nv, *row] for row in verts),
    ]
    return write_table(path, (), rows, sep=" ")


def emit_reports(report, outdir):
    """Write the maxreg CSV table and, when every row passed its dt-halving
    check, as the summary's verdicts assume, its pass/fail summary; returns
    their paths."""
    csv_path = write_table(
        os.path.join(outdir, "maxreg.csv"), CSV_COLUMNS,
        ([getattr(r, c) for c in CSV_COLUMNS] for r in report.rows),
    )
    if not all(r.richardson_ok for r in report.rows):
        return [csv_path]
    summary = []
    for (p, q), verdict in sorted(report.uniformity.items()):
        summary.append([
            "PASS" if verdict["uniform"] else "FAIL", "h-uniform", "ratio",
            f"p={p:g}", f"q={q:g}", f"spread={verdict['spread']:.6g}",
            f"last_growth={verdict['last_growth']:.6g}",
        ])
    summary_path = write_table(os.path.join(outdir, "maxreg_summary.txt"),
                               (), summary, sep=" ")
    return [csv_path, summary_path]
