"""Method-of-lines integration of the surface heat equation on moving meshes.

Two spatial schemes are supported: the non-conservative form (test functions
see the material time derivative nodally) and the conservative form (the time
derivative sits on the mass-weighted coefficient vector).  Implicit Euler is
the reference integrator; BDF2 is available where higher time accuracy is
needed (convergence studies).  Nodal coefficient vectors are transported by
keeping them fixed while the mesh moves.

solve_heat is a stream: it checks its arguments when called and returns an
iterator that yields one TimeNode per time node.  Each step runs only when
its node is drawn, and the stream holds only what its next step needs, so
callers reduce the nodes as they draw them (norm_series or NormSeries, for
instance) and memory does not grow with the number of steps.

Each node carries the frame it was computed on, the part of a step that
depends on its time alone: the mesh snapshot, its geometry, M, A and the
load b.  A stream on grid can take its frames from the even nodes of a
stream on grid.halved() instead of building them (solve_heat's frames):
the dt/2 stream is then bitwise unchanged, and a caller that reduces the
nodes as it draws them keeps no more snapshots alive than two streams run
one after the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidExponent
from .fem import (
    DISCRETE,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    check_exponent,
    element_values,
    load_from_geometry,
    values_norm_lq,
)
from .sparse import cg_solve

SCHEME_A = "A"
SCHEME_B = "B"
STATIONARY = "stationary"

FIELDS = ("u", "udot", "lap", "fh")

# degree of the polynomial in t whose value one step ahead starts each CG
# solve of solve_heat (start vectors for successive right-hand sides: Fischer,
# CMAME 163, 1998).  Against degree 0 (the last solution) degree 5 cuts the
# CG iterations of sphere L3-L4 runs by 37-70%; degree 6 saved at most 13%
# more and lost on sqwave forcing, P2 and the coarsest sphere, and degree 7
# lost on most runs
EXTRAPOLATION_ORDER = 5


def extrapolation_weights(order):
    """Weights w with sum_j w[j] p(n - j) = p(n + 1) for every polynomial p
    of degree <= order: w[j] = (-1)^j C(order + 1, j + 1)."""
    return np.array([(-1) ** j * math.comb(order + 1, j + 1) for j in range(order + 1)],
                    dtype=float)


_WEIGHTS = [extrapolation_weights(order) for order in range(EXTRAPOLATION_ORDER + 1)]


class _Extrapolation:
    """The last EXTRAPOLATION_ORDER + 1 values of one field on the uniform
    time grid, and their polynomial extrapolation one step ahead (of lower
    degree while fewer values are known, and None before the first)."""

    def __init__(self):
        self._past = None  # newest first, allocated by the first push
        self._known = 0

    def push(self, values):
        if self._past is None:
            self._past = np.zeros((EXTRAPOLATION_ORDER + 1, values.size))
        self._past[1:] = self._past[:-1]
        self._past[0] = values
        self._known = min(self._known + 1, len(self._past))

    def extrapolate(self):
        if not self._known:
            return None
        return _WEIGHTS[self._known - 1] @ self._past[: self._known]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int

    @property
    def dt(self):
        return self.t_end / self.n_steps

    def times(self):
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    @classmethod
    def from_mesh(cls, mesh, t_end=1.0, factor=0.5):
        """Parabolic scaling dt = factor*h^2 (rounded up to a whole division)."""
        n = max(1, math.ceil(t_end / (factor * mesh.h**2)))
        return cls(t_end, n)

    def halved(self):
        return TimeGrid(self.t_end, 2 * self.n_steps)


class TimeNode(NamedTuple):
    """One time node of a solve_heat stream: the time t, the frame the step
    was computed on (the mesh snapshot at t, its geometry, M(t), A(t) and
    the load b(t)), and the coefficient vectors of the solution u, its time
    derivative udot, the discrete Laplacian lap and the projected forcing
    fh.  The stream never writes to these arrays again."""

    t: float
    mesh: object
    geom: object
    mass: object
    stiff: object
    b: np.ndarray
    u: np.ndarray
    udot: np.ndarray
    lap: np.ndarray
    fh: np.ndarray


class NormSeries:
    """Per-node L^q space norms of chosen fields of a solve_heat stream,
    added one node at a time, so that streams drawn in lockstep can be
    reduced as they are drawn.  pairs are (field, q); unknown field names
    raise ValueError, and exponents outside [1, inf] InvalidExponent."""

    def __init__(self, pairs):
        self._times = []
        self._series = {}  # field -> q -> its norms so far, in the order first asked for
        for name, q in pairs:
            if name not in FIELDS:
                raise ValueError(f"unknown field {name!r}")
            check_exponent(q)
            self._series.setdefault(name, {})[float(q)] = []

    def add(self, node):
        """Record the node's norms, each taken on the node's mesh snapshot."""
        self._times.append(node.t)
        for name, by_q in self._series.items():
            coeffs = getattr(node, name)
            at_quad = element_values(coeffs, node.mesh.elements, node.geom)
            for q, norms in by_q.items():
                norms.append(values_norm_lq(at_quad, coeffs, node.geom, q))

    def result(self):
        """The times and a dict that maps each (field, q) pair to its norms."""
        return np.array(self._times), {(name, q): np.array(norms)
                                       for name, by_q in self._series.items()
                                       for q, norms in by_q.items()}


def norm_series(nodes, pairs, t_min=-math.inf):
    """Draw every node of a solve_heat stream; return NormSeries.result()
    for the given (field, q) pairs, which are checked before a node is
    drawn, over the nodes at t >= t_min."""
    series = NormSeries(pairs)
    for node in nodes:
        if node.t >= t_min:
            series.add(node)
        # dropped before the next node is drawn, so that a moving stream
        # builds the next snapshot without the last one alive
        del node
    return series.result()


def spacetime_norm(times, norms, fieldname, p, q):
    """Bochner norm from the result of norm_series: composite trapezoid in t
    of the field's recorded L^q space norms to the p."""
    for exponent in (p, q):
        if not (1.0 < exponent < math.inf):
            raise InvalidExponent("space-time norms need exponents in (1, inf)")
    series = norms[(fieldname, float(q))]
    return float(np.trapezoid(series**p, times) ** (1.0 / p))


def solve_heat(mesh0, forcing, grid, scheme, integrator="be", u0=None, *, cg_tol,
               frames=None):
    """Integrate one of the semi-discrete schemes over the given time grid.

    forcing is f(t, x) evaluated at ambient points of Gamma_h(t) (callers pass
    the inverse-lifted exact forcing; nodes lie on Gamma so no transport is
    needed for the analytic families used here), or None for f = 0: then no
    load vector is evaluated, no mass solve for fh runs and fh is zero.  u0
    is a coefficient vector (defaults to zero).

    Returns an iterator over the grid's n_steps + 1 time nodes that yields
    one TimeNode per node.  Argument errors (an unknown scheme or
    integrator) raise here, at the call; the initial state is computed when
    the first node is drawn and each step when its node is drawn, so a
    caller that stops drawing runs no further step.  The stream holds only
    what its next step needs: on a moving mesh it keeps nothing of a node's
    snapshot once the node is drawn, and on a frozen one only the snapshot,
    its geometry, M and A.

    frames is None, or an iterator over the even nodes of a stream of this
    mesh0, forcing and scheme on grid.halved().  The stream then draws one
    of them per step and takes its snapshot, geometry, M, A and b instead of
    evolving, assembling and loading; its M, A, b, u and udot are bitwise
    those of a stream on its own.  It still solves for fh, starting from
    the node's fh, so fh meets this stream's own tolerance, and scheme A and
    the stationary scheme take lap = udot - fh.  A drawn node at another t,
    or on a snapshot not of mesh0 at the time this stream needs (t on a
    moving mesh, mesh0.time on a frozen one), raises ValueError.

    Each field (u, fh, and lap in scheme B) keeps a history of its nodal
    vectors that starts empty; u's first entry is u0, the others' their
    first solve.  Every CG solve of a field whose history is not empty
    starts from the polynomial in t through its last EXTRAPOLATION_ORDER + 1
    entries, evaluated at the new time node (of lower degree while fewer
    are known); with frames, fh solves start from the drawn node's fh.
    Nodal vectors are transported with the mesh, so this holds on moving
    meshes too.

    Per accepted step the non-conservative scheme satisfies
    M(t) udot + A(t) u = b(t) exactly up to solver tolerance, with udot the
    backward difference of the nodal vectors: (u1 - u0) / dt for Euler,
    and (3 u1 - 4 u0 + um1) / (2 dt) for BDF2 after its Euler first step.
    With f = 0 the conservative scheme B preserves the weighted total mass
    1^T M(t) u exactly up to solver tolerance.  The stationary scheme
    integrates on the frozen snapshot the mesh was built or evolved to.
    """
    if scheme not in (SCHEME_A, SCHEME_B, STATIONARY):
        raise ValueError(f"unknown scheme {scheme!r}")
    if integrator not in ("be", "bdf2"):
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator == "bdf2" and scheme == SCHEME_B:
        raise ValueError("bdf2 is only wired for the non-conservative forms")
    moving = scheme != STATIONARY and not mesh0.surface.is_stationary
    u = np.zeros(mesh0.num_nodes) if u0 is None else np.asarray(u0, dtype=float).copy()
    return _steps(mesh0, forcing, grid, scheme, integrator, u, cg_tol, moving, frames)


def _steps(mesh0, forcing, grid, scheme, integrator, u, cg_tol, moving, frames):
    times = grid.times()
    dt = grid.dt
    n_dofs = mesh0.num_nodes
    zero = np.zeros(n_dofs)  # b and fh when forcing is None
    u_past, fh_past, lap_past = _Extrapolation(), _Extrapolation(), _Extrapolation()
    u_past.push(u)
    u_prev = None  # for bdf2
    mass_u = None  # M u at the last node, for scheme B
    frozen = None  # the snapshot, geometry, M and A that a frozen mesh keeps
    systems = {}  # scale -> M + scale * A on a frozen mesh
    force_scale = 0.0

    def step(i, t):
        # the node at times[i]; on a moving mesh nothing of its frame
        # outlives the TimeNode returned, so a caller that drops the node
        # frees the snapshot before the next one is built
        nonlocal u, u_prev, mass_u, frozen, force_scale
        if frames is not None:
            node = next(frames, None)
            snapshot_time = t if moving and i else mesh0.time
            if (node is None or node.t != t
                    or node.mesh.family_cache is not mesh0.family_cache
                    or node.mesh.time != snapshot_time):
                raise ValueError(f"frames must yield a node at t = {t} on mesh0's "
                                 f"snapshot at {snapshot_time}")
            mesh, geom, mass, stiff, b = node.mesh, node.geom, node.mass, node.stiff, node.b
            fh_start = node.fh
        else:
            if frozen is not None:
                mesh, geom, mass, stiff = frozen
            else:
                mesh = mesh0.evolved(t) if i else mesh0
                space = FeSpace(mesh, DISCRETE)
                geom = space.geometry()
                mass, stiff = assemble_mass(space), assemble_stiffness(space)
                if not moving:
                    frozen = mesh, geom, mass, stiff
            if forcing is None:
                b = zero
            else:
                b = load_from_geometry(geom, mesh.elements, n_dofs, forcing, t=t)
            fh_start = fh_past.extrapolate()

        if forcing is None:
            fh = zero
        else:
            force_scale = max(force_scale, float(np.linalg.norm(b)))
            # relative CG tolerances are meaningless where the forcing crosses
            # zero; anchor an absolute floor to the forcing scale seen so far
            fh, _ = cg_solve(mass, b, tol=cg_tol, x0=fh_start,
                             atol=cg_tol * force_scale if i else 0.0)
            if frames is None:
                fh_past.push(fh)

        if i == 0:
            lap, _ = cg_solve(mass, -stiff.matvec(u), tol=cg_tol)
            udot = fh + lap
        else:
            # one backward difference udot = (u_new - hist) / scale: Euler,
            # or bdf2's (3 u1 - 4 u0 + um1) / (2 dt) after its Euler start
            if u_prev is None:
                hist, scale = u, dt
            else:
                hist, scale = (4.0 * u - u_prev) / 3.0, 2.0 * dt / 3.0
            if moving:
                system = mass.scaled_add(scale, stiff)
            else:
                if scale not in systems:
                    systems[scale] = mass.scaled_add(scale, stiff)
                system = systems[scale]
            rhs = (mass_u if scheme == SCHEME_B else mass.matvec(hist)) + scale * b
            u_new, _ = cg_solve(system, rhs, tol=cg_tol, x0=u_past.extrapolate())
            udot = (u_new - hist) / scale
            u_past.push(u_new)

            if scheme == SCHEME_B:
                lap, _ = cg_solve(mass, -stiff.matvec(u_new), tol=cg_tol,
                                  x0=lap_past.extrapolate())
            else:
                # scheme identity: M udot = b - A u_new, hence lap = udot - fh
                lap = udot - fh
            u_prev = u if integrator == "bdf2" else None
            u = u_new
        if scheme == SCHEME_B:
            lap_past.push(lap)
            # the next step's M(t_prev) u_prev, formed now so that no step
            # keeps the last node's M
            mass_u = mass.matvec(u)
        return TimeNode(t, mesh, geom, mass, stiff, b, u, udot, lap, fh)

    for i, t in enumerate(times):
        yield step(i, t)
