"""Discrete heat-kernel diagnostics: source evolution, decay fits, kernel
consistency between the discrete and exact surfaces, and the dyadic
space-time decomposition report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    HTooLarge,
    InsufficientSamples,
    MeshMismatch,
)
from .fem import (
    LIFTED,
    FeSpace,
    block_geometry,
    default_quad_order,
    discrete_delta,
    element_point,
    element_values,
    norm_lq,
    radial_inverse_lift,
)
from .quadrature import reference_rule
from .timestepping import STATIONARY, norm_series, solve_heat


SOURCE_COUNT = 8  # point sources of default_source_points


def default_source_points(mesh):
    """SOURCE_COUNT sources spread over the mesh: vertices, element
    interiors, midpoints."""
    if mesh.dimension == 1:
        refs = [np.array([0.0]), np.array([0.5]), np.array([0.37]), np.array([0.81])]
    else:
        refs = [
            np.array([0.0, 0.0]),
            np.array([1.0 / 3.0, 1.0 / 3.0]),
            np.array([0.5, 0.0]),
            np.array([0.21, 0.34]),
        ]
    points = []
    for i in range(SOURCE_COUNT):
        element = int(round(i * mesh.num_elements / SOURCE_COUNT)) % mesh.num_elements
        points.append(element_point(mesh, element, refs[i % len(refs)]))
    return points


def discrete_green(mesh, x0, grid, cg_tol):
    """Homogeneous evolution of the discrete point source at x0 on the frozen
    snapshot; the total discrete mass (kernel, 1) stays at 1 exactly.

    The point source is solved for at the call, to cg_tol as every step is;
    returns the solve_heat stream of the evolution, which yields one
    TimeNode per node of the grid and runs each step only when its node is
    drawn."""
    return solve_heat(mesh, None, grid, scheme=STATIONARY,
                      u0=discrete_delta(FeSpace(mesh), x0, cg_tol), cg_tol=cg_tol)


@dataclass
class DecayFit:
    amplitude: float
    rate: float
    r_squared: float
    times: np.ndarray
    values: np.ndarray


def _log_linear_fit(times, values):
    """Least-squares line through (times, log values): its slope, intercept
    and R^2.  The slope and intercept come in closed form from centred
    sums; np.polyfit would give the same to rounding, through an SVD least
    squares that loads LAPACK code for two numbers."""
    logs = np.log(values)
    t_mean, log_mean = times.mean(), logs.mean()
    t_centred, log_centred = times - t_mean, logs - log_mean
    slope = (t_centred @ log_centred) / (t_centred @ t_centred)
    intercept = log_mean - slope * t_mean
    fitted = slope * times + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum(log_centred ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


MIN_FIT_SAMPLES = 5  # time nodes the decay fit of green_decay_study needs


def green_decay_study(mesh, grid, cg_tol):
    """Fit the long-time exponential decay of the kernel's time derivative.

    Tracks max over the default sources of the L^1 norm of d/dt kernel at
    each time node of the fit window t >= 1, the only nodes whose norms are
    taken, and returns the log-linear fit (rate > 0 means decay
    exp(-rate*t)).  Each source's kernel is solved for to cg_tol.
    """
    times = grid.times()
    times = times[times >= 1.0]
    envelope = np.zeros(len(times))
    for x0 in default_source_points(mesh):
        _, norms = norm_series(discrete_green(mesh, x0, grid, cg_tol=cg_tol),
                               [("udot", 1.0)], t_min=1.0)
        envelope = np.maximum(envelope, norms[("udot", 1.0)])
    sel = envelope > 0
    if sel.sum() < MIN_FIT_SAMPLES:
        raise InsufficientSamples(
            f"need at least {MIN_FIT_SAMPLES} samples in the fit window")
    slope, intercept, r2 = _log_linear_fit(times[sel], envelope[sel])
    return DecayFit(
        amplitude=math.exp(intercept),
        rate=-slope,
        r_squared=r2,
        times=times[sel],
        values=envelope[sel],
    )


def delta_decay_fit(mesh, x0, delta):
    """Regression of log|delta| against distance/h over the nodes outside
    the exclusion ball of radius 3h whose coefficient is above 1e-13 of the
    peak, for delta the discrete point source at x0 (discrete_delta on the
    discrete space of mesh): nothing is solved here.

    decay_length is the fitted K in |delta| ~ h^-m exp(-dist/(K h)).
    """
    vals = np.abs(delta)
    dist = mesh.surface.geodesic_distance(mesh.time, mesh.nodes, np.asarray(x0, float))
    h = mesh.h
    peak = vals.max()
    sel = (dist > 3.0 * h) & (vals > 1e-13 * peak)
    if sel.sum() < 5:
        raise InsufficientSamples("not enough dofs outside the exclusion ball")
    slope, _, r2 = _log_linear_fit(dist[sel] / h, np.maximum(vals[sel], 1e-300))
    decay_length = -1.0 / slope if slope < 0 else math.inf
    return {
        "slope": float(slope),
        "r_squared": float(r2),
        "decay_length": float(decay_length),
        "peak": float(peak),
        "n_samples": int(sel.sum()),
    }


def delta_consistency(mesh, x0, delta, cg_tol):
    """Distance between the lifted discrete point source delta at x0
    (discrete_delta on the discrete space of mesh) and the point source of
    the lifted space of mesh, relative to the latter's norm, in L^1 and L^2:
    a dict that maps p = 1 and p = 2 to the difference norm, the reference
    norm and their ratio.  Only the lifted source is solved for, once and
    to cg_tol; it sits at the projection of x0.
    """
    lifted = FeSpace(mesh, LIFTED)
    tilde = discrete_delta(lifted, x0, cg_tol)
    diff = delta - tilde
    out = {}
    for p in (1, 2):
        dnorm = norm_lq(lifted, diff, p)
        tnorm = norm_lq(lifted, tilde, p)
        out[p] = {"difference_norm": dnorm, "reference_norm": tnorm,
                  "ratio": dnorm / tnorm}
    return out


# lifted fine quadrature points set up per block: the block's geometry and
# inverse-lift temporaries stay about 1 MB at any level, no more than the
# evaluation adds to the tables (8192 was no faster at L3/L5)
_QUAD_BLOCK = 4096
# lifted fine quadrature points evaluated per block at each time node: a
# block's coarse values and differences take 0.5 MB
_EVAL_BLOCK = 32768


class _LiftedDifference:
    """The L^1 norm over the fine elements' quadrature, lifted onto the
    exact surface, of the difference between a fine and a coarse
    coefficient vector: called on the two vectors of one time node.

    The constructor walks the fine elements in blocks of ``_QUAD_BLOCK``
    points, building each block's lifted geometry, keeping its weights and
    inverse-lifting its points onto the coarse mesh into tables; no lifted
    geometry of the whole fine mesh is built or cached.  The coarse shape
    functions sum to one, so the coarse value at a point is
    c_0 + sum_{k>=1} (c_k - c_0) phi_k of the point's coarse coefficients
    c_k, and the tables keep only the shape rows k = 1..nloc-1.  They come
    in one of two layouts:

    - nested, while every fine element's points lie in one coarse element,
      as on the nested meshes of both builders: (E_f, nloc - 1, Q) shape
      values and the (E_f, nloc) coarse nodes of each fine element.  A
      call writes each element's c_0 into the last column of the gathered
      fine coefficients, and the fine map's last row, -1, subtracts it in
      the fine matmul;
    - per point, from the first block with a fine element across coarse
      elements on: (nloc - 1, E_f*Q) shape values and (nloc, E_f*Q) coarse
      nodes, with the rows already filled carried over.  The last fine
      column stays zero and c_0 is added to the coarse values.

    Both give the same products summed in the same order.  A call runs over
    blocks of ``_EVAL_BLOCK`` points, evaluating the fine values, the
    coarse values, their difference and its weighted sum per block, and
    adds the blocks' sums; its scratch, sized to one block, is allocated
    once.
    """

    def __init__(self, coarse_mesh, fine_mesh, order):
        self.coarse_mesh, self.fine_mesh = coarse_mesh, fine_mesh
        self.n_fine = n_fine = fine_mesh.num_elements
        self.n_quad = n_quad = len(reference_rule(fine_mesh.dimension, order).weights)
        self.block = block = max(1, _EVAL_BLOCK // n_quad)
        weights = np.empty((n_fine, n_quad))
        # Both builders order children after their parent: when E_c divides
        # E_f, fine element k lies in coarse element k // (E_f / E_c), which
        # the inverse lift tries first for each of k's points
        n_coarse = coarse_mesh.num_elements
        self.ratio = n_fine // n_coarse if n_fine % n_coarse == 0 else None
        self.nested = self.ratio is not None
        nloc = coarse_mesh.elements.shape[1]
        if self.nested:
            self.table = np.empty((n_fine, nloc - 1, n_quad))
            self.gather = np.empty((n_fine, nloc), dtype=coarse_mesh.elements.dtype)
            self.coarse_gathered = np.empty((block, nloc))
        else:
            self._per_point(0)
        step = max(1, _QUAD_BLOCK // n_quad)
        for lo in range(0, n_fine, step):
            geom = block_geometry(fine_mesh, LIFTED, order, lo, min(lo + step, n_fine))
            weights[lo:lo + step], points, fine_sv = geom.weights, geom.points, geom.shape_values
            # the block's Jacobians and metric go before its points are lifted,
            # and its points before the next block's geometry is built
            del geom
            self._fill(lo, points)
            del points
        self.weights = weights.reshape(-1)
        self.fine_map = np.vstack([fine_sv.T, np.full(n_quad, -1.0)])
        self.fine_gathered = np.zeros((block, fine_mesh.elements.shape[1] + 1))
        self.diff = np.empty((block, n_quad))
        self.coarse_vals = np.empty_like(self.diff)

    def _per_point(self, filled):
        # per-point tables, with the rows of the first `filled` fine
        # elements carried over from the per-element tables
        nloc, n_points = self.coarse_mesh.elements.shape[1], self.n_fine * self.n_quad
        table = np.empty((nloc - 1, n_points))
        gather = np.empty((nloc, n_points), dtype=self.coarse_mesh.elements.dtype)
        if filled:
            done = filled * self.n_quad
            table[:, :done] = self.table[:filled].transpose(1, 0, 2).reshape(nloc - 1, done)
            gather[:, :done] = np.repeat(self.gather[:filled].T, self.n_quad, axis=1)
        self.table, self.gather = table, gather
        self.coarse_gathered = np.empty((nloc, self.block * self.n_quad))
        self.nested = False

    def _fill(self, lo, points):
        # the tables of the fine elements from lo on, given their lifted
        # quadrature points (block, Q, d)
        hi = lo + len(points)
        guess = None
        if self.ratio is not None:
            guess = np.repeat(np.arange(lo, hi) // self.ratio, self.n_quad)
        elems, refs = radial_inverse_lift(
            self.coarse_mesh, points.reshape(-1, points.shape[-1]), guess=guess)
        elems = elems.reshape(hi - lo, self.n_quad)
        sv = self.coarse_mesh.reference.shape_values(refs)[:, 1:]
        if self.nested and not (elems == elems[:, :1]).all():
            self._per_point(lo)
        if self.nested:
            self.table[lo:hi] = sv.reshape(hi - lo, self.n_quad, -1).transpose(0, 2, 1)
            self.gather[lo:hi] = self.coarse_mesh.elements[elems[:, 0]]
        else:
            span = slice(lo * self.n_quad, hi * self.n_quad)
            self.table[:, span] = sv.T
            self.gather[:, span] = self.coarse_mesh.elements[elems.reshape(-1)].T

    def __call__(self, fine_coeffs, coarse_coeffs):
        fine_elements, n_quad = self.fine_mesh.elements, self.n_quad
        nloc = fine_elements.shape[1]
        total = 0.0
        for lo in range(0, self.n_fine, self.block):
            hi = min(lo + self.block, self.n_fine)
            n, span = hi - lo, slice(lo * n_quad, hi * n_quad)
            d, fine, coarse = self.diff[:n], self.fine_gathered[:n], self.coarse_vals[:n]
            np.take(fine_coeffs, fine_elements[lo:hi], out=fine[:, :nloc])
            if self.nested:
                gathered = self.coarse_gathered[:n]
                np.take(coarse_coeffs, self.gather[lo:hi], out=gathered)
                base, rest = gathered[:, 0], gathered[:, 1:]
                np.subtract(rest, base[:, None], out=rest)
                np.einsum("ek,ekq->eq", rest, self.table[lo:hi], out=coarse)
                fine[:, nloc] = base
            else:
                gathered = self.coarse_gathered[:, :n * n_quad]
                np.take(coarse_coeffs, self.gather[:, span], out=gathered)
                base, rest = gathered[0], gathered[1:]
                np.subtract(rest, base, out=rest)
                flat = coarse.reshape(-1)
                np.einsum("kp,kp->p", self.table[:, span], rest, out=flat)
                flat += base
            np.matmul(fine, self.fine_map, out=d)
            np.subtract(d, coarse, out=d)
            total += self.weights[span] @ np.abs(d, out=d).reshape(-1)
        return float(total)


# the most dofs kernel_difference_l1 takes on its fine mesh
MAX_FINE_DOFS = 100_000


def _check_kernel_pair(coarse_mesh, fine_mesh):
    """MeshMismatch unless the fine mesh discretizes the coarse mesh's surface
    with h below 1/3.5 of the coarse h (or is the coarse mesh);
    BudgetExceeded if it has more than MAX_FINE_DOFS dofs."""
    if coarse_mesh.surface is not fine_mesh.surface:
        raise MeshMismatch("meshes must discretize one surface")
    if coarse_mesh is not fine_mesh and coarse_mesh.h <= 3.5 * fine_mesh.h:
        raise MeshMismatch(f"reference mesh must be at least ~4x finer, got h = "
                           f"{coarse_mesh.h:.4g} and {fine_mesh.h:.4g}")
    if fine_mesh.num_nodes > MAX_FINE_DOFS:
        raise BudgetExceeded(
            f"fine mesh has {fine_mesh.num_nodes} dofs > cap {MAX_FINE_DOFS}"
        )


def kernel_difference_l1(coarse_mesh, fine_mesh, x0, grid, cg_tol):
    """Truncated L^1 space-time norm of the difference of kernel time
    derivatives, with the fine mesh standing in for the exact kernel; both
    kernels are solved for to cg_tol.

    Both kernels are lifted onto the exact surface and compared there; the
    value is recomputed with a halved time step to attach a Richardson error
    estimate.  x0 must lie on the exact surface (it is projected to each mesh
    through the inverse lift).

    The mesh and budget checks (``_check_kernel_pair``) raise at the call.
    What the function then holds is O(E_f*Q*(nloc - 1)) for E_f fine
    elements, Q points and nloc coarse nodes per element: the lifted weights
    and the coarse tables of ``_LiftedDifference``.  The coarse and fine
    Green's streams are drawn in lockstep, one time node of each at a time,
    so only the current node of either kernel is held.
    """
    _check_kernel_pair(coarse_mesh, fine_mesh)
    surface = coarse_mesh.surface
    x0 = surface.project(coarse_mesh.time, np.asarray(x0, dtype=float))

    def source_on(mesh):
        elems, refs = radial_inverse_lift(mesh, x0[None, :])
        return element_point(mesh, int(elems[0]), refs[0])

    # the Green's streams at dt and dt/2, whose point sources are solved
    # here: on a fresh mesh that builds its geometry and sparsity pattern,
    # whose temporaries so come before the tables, not on top of them
    x_coarse, x_fine = source_on(coarse_mesh), source_on(fine_mesh)
    streams = [(time_grid,
                discrete_green(coarse_mesh, x_coarse, time_grid, cg_tol=cg_tol),
                discrete_green(fine_mesh, x_fine, time_grid, cg_tol=cg_tol))
               for time_grid in (grid, grid.halved())]

    difference = _LiftedDifference(
        coarse_mesh, fine_mesh,
        default_quad_order(fine_mesh.degree, fine_mesh.dimension, LIFTED))

    def run(time_grid, coarse, fine):
        series = [difference(fine_node.udot, coarse_node.udot)
                  for coarse_node, fine_node in zip(coarse, fine, strict=True)]
        times, series = time_grid.times(), np.array(series)
        total = float(np.trapezoid(series, times))
        tail_sel = times >= 0.5 * times[-1]
        tail = float(np.trapezoid(series[tail_sel], times[tail_sel]))
        return total, tail

    (value_coarse_dt, _), (value, tail) = (run(*stream) for stream in streams)
    return {
        "l1_difference": value,
        "richardson_error": abs(value - value_coarse_dt),
        "tail_fraction": tail / value if value > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# dyadic decomposition of (0, 1) x Gamma around a source point
# ---------------------------------------------------------------------------


def _trapezoid_weights(nodes, t_max):
    """Each node up to t_max with its composite trapezoid weight in time,
    half the step before it plus half the step after it.  A node is passed
    on once the next one has been drawn."""
    last, weight = None, 0.0
    for node in nodes:
        if node.t > t_max:
            break
        if last is not None:
            half = 0.5 * (node.t - last.t)
            yield last, weight + half
            weight = half
        last = node
    if last is not None:
        yield last, weight


def dyadic_report(mesh, nodes, x0, c_star):
    """Per-annulus L^2 norms of a stationary solve_heat stream on mesh (a
    discrete_green stream, say) and of its time derivative over the
    parabolic dyadic decomposition of (0,1) x Gamma around x0.  It solves
    nothing itself: the stream's solves ran at the stream's tolerance.

    The decomposition has the sets Q_j of radius d_j = 2^-j for j = 0..j_star,
    j_star = max(2, round(log2(1/(c_star h)))), and the innermost set of
    radius d_j_star; it needs h < 1/(4 c_star).  The decomposition and the
    distances to x0 are computed before the first node is drawn, so
    HTooLarge, and UnsupportedSurface on a kind without a geodesic distance,
    raise before any step runs.  Nodes are then drawn one at a time up to
    t = 1 and reduced as they come; no solution series is kept.

    Classification uses rho = max(geodesic distance to x0, sqrt(t)); each
    space-time quadrature sample lands in exactly one set, so the reported
    measures add up to |(0,1) x Gamma_h| by construction.
    """
    h = mesh.h
    if h >= 1.0 / (4.0 * c_star):
        raise HTooLarge(f"need h < 1/(4*C) = {1.0 / (4.0 * c_star):.4g}, got {h:.4g}")
    j_star = max(int(round(math.log2(1.0 / (c_star * h)))), 2)
    radii = 2.0 ** (-np.arange(j_star + 1))
    geom = FeSpace(mesh).geometry()
    pts = geom.points.reshape(-1, geom.points.shape[-1])
    dist = mesh.surface.geodesic_distance(mesh.time, pts, np.asarray(x0, dtype=float))
    w_space = geom.weights.reshape(-1)

    d_star = radii[-1]
    n_bins = j_star + 2  # Q_0 .. Q_{j_star}, innermost at index j_star+1
    meas, u_sq, du_sq = np.zeros((3, n_bins))
    for node, weight in _trapezoid_weights(nodes, 1.0 + 1e-12):
        if node.mesh is not mesh:
            raise MeshMismatch("the nodes must live on the report's mesh")
        rho = np.maximum(dist, math.sqrt(node.t))
        bins = np.where(
            rho <= d_star,
            j_star + 1,
            np.clip(np.ceil(-np.log2(np.maximum(rho, 1e-300))), 0, j_star),
        ).astype(int)
        uv = element_values(node.u, mesh.elements, geom).reshape(-1)
        duv = element_values(node.udot, mesh.elements, geom).reshape(-1)
        wtotal = weight * w_space
        meas += np.bincount(bins, weights=wtotal, minlength=n_bins)
        u_sq += np.bincount(bins, weights=wtotal * uv * uv, minlength=n_bins)
        du_sq += np.bincount(bins, weights=wtotal * duv * duv, minlength=n_bins)

    names = [f"Q{j}" for j in range(j_star + 1)] + ["innermost"]
    rows = [{"set": name, "radius": float(radius), "measure": float(m),
             "field_l2": math.sqrt(u), "dtfield_l2": math.sqrt(du)}
            for name, radius, m, u, du in zip(names, [*radii, d_star], meas, u_sq, du_sq)]
    return {
        "j_star": j_star,
        "c_star": float(c_star),
        "rows": rows,
        "total_measure": float(meas.sum()),
    }
