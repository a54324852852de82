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
callers reduce the nodes as they draw them (norm_series, for instance) and
memory does not grow with the number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidExponent, StepTooLarge
from .fem import (
    DISCRETE,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    check_exponent,
    element_values,
    load_from_geometry,
    load_vector,
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
    degree while fewer values are known)."""

    def __init__(self, first):
        self._past = np.zeros((EXTRAPOLATION_ORDER + 1, first.size))  # newest first
        self._known = 0
        self.push(first)

    def push(self, values):
        self._past[1:] = self._past[:-1]
        self._past[0] = values
        self._known = min(self._known + 1, len(self._past))

    def extrapolate(self):
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
    """One time node of a solve_heat stream: the time t, the mesh snapshot at
    t and its geometry, and the coefficient vectors of the solution u, its
    time derivative udot, the discrete Laplacian lap and the projected
    forcing fh.  The stream never writes to these arrays again."""

    t: float
    mesh: object
    geom: object
    u: np.ndarray
    udot: np.ndarray
    lap: np.ndarray
    fh: np.ndarray


def norm_series(nodes, pairs):
    """Draw every node of a solve_heat stream; return the times and a dict
    that maps each (field, q) pair to the field's per-node L^q space norms,
    each taken on the mesh snapshot of its node.  Unknown field names raise
    ValueError, and exponents outside [1, inf] InvalidExponent, before a node
    is drawn."""
    series = {}  # field -> q -> its norms so far, in the order first asked for
    for name, q in pairs:
        if name not in FIELDS:
            raise ValueError(f"unknown field {name!r}")
        check_exponent(q)
        series.setdefault(name, {})[float(q)] = []
    times = []
    for node in nodes:
        times.append(node.t)
        for name, by_q in series.items():
            coeffs = getattr(node, name)
            at_quad = element_values(coeffs, node.mesh.elements, node.geom)
            for q, norms in by_q.items():
                norms.append(values_norm_lq(at_quad, coeffs, node.geom, q))
    return np.array(times), {(name, q): np.array(norms) for name, by_q in series.items()
                             for q, norms in by_q.items()}


def spacetime_norm(times, norms, fieldname, p, q):
    """Bochner norm from the result of norm_series: composite trapezoid in t
    of the field's recorded L^q space norms to the p."""
    for exponent in (p, q):
        if not (1.0 < exponent < math.inf):
            raise InvalidExponent("space-time norms need exponents in (1, inf)")
    series = norms[(fieldname, float(q))]
    return float(np.trapezoid(series**p, times) ** (1.0 / p))


def solve_heat(
    mesh0,
    forcing,
    grid,
    scheme=SCHEME_A,
    integrator="be",
    u0=None,
    cg_tol=1e-12,
    max_dt_factor=None,
):
    """Integrate one of the semi-discrete schemes over the given time grid.

    forcing is f(t, x) evaluated at ambient points of Gamma_h(t) (callers pass
    the inverse-lifted exact forcing; nodes lie on Gamma so no transport is
    needed for the analytic families used here), or None for f = 0: then no
    load vector is evaluated, no mass solve for fh runs and fh is zero.  u0
    is a coefficient vector (defaults to zero).

    Returns an iterator over the grid's n_steps + 1 time nodes that yields
    one TimeNode per node.  Argument errors (an unknown scheme or integrator,
    StepTooLarge) raise here, at the call; the initial state is computed when
    the first node is drawn and each step when its node is drawn, so a caller
    that stops drawing runs no further step.  The stream holds only what its
    next step needs.

    Every CG solve after the first of its field (u, fh, and lap in scheme B)
    starts from the polynomial in t through that field's last
    EXTRAPOLATION_ORDER + 1 nodal vectors, evaluated at the new time node (of
    lower degree while fewer vectors are known).  Nodal vectors are
    transported with the mesh, so this holds on moving meshes too.

    Per accepted step the non-conservative scheme satisfies
    M(t) udot + A(t) u = b(t) exactly up to solver tolerance, with
    udot the backward difference quotient of the nodal vector.  With f = 0
    the conservative scheme B preserves the weighted total mass 1^T M(t) u
    exactly up to solver tolerance.  The stationary scheme integrates on the
    frozen snapshot the mesh was built or evolved to.
    """
    if scheme not in (SCHEME_A, SCHEME_B, STATIONARY):
        raise ValueError(f"unknown scheme {scheme!r}")
    if integrator not in ("be", "bdf2"):
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator == "bdf2" and scheme == SCHEME_B:
        raise ValueError("bdf2 is only wired for the non-conservative forms")
    if max_dt_factor is not None and grid.dt > max_dt_factor * mesh0.h**2 * (1 + 1e-9):
        raise StepTooLarge(
            f"dt={grid.dt:.3e} exceeds {max_dt_factor}*h^2={max_dt_factor * mesh0.h ** 2:.3e}"
        )
    u = np.zeros(mesh0.num_nodes) if u0 is None else np.asarray(u0, dtype=float).copy()
    return _steps(mesh0, forcing, grid, scheme, integrator, u, cg_tol)


def _steps(mesh0, forcing, grid, scheme, integrator, u, cg_tol):
    moving = scheme != STATIONARY and not mesh0.surface.is_stationary
    times = grid.times()
    dt = grid.dt
    n_dofs = mesh0.num_nodes

    mesh = mesh0
    space = FeSpace(mesh, DISCRETE)
    geom = space.geometry()
    mass = assemble_mass(space)
    stiff = assemble_stiffness(space)

    if forcing is None:
        b = fh = np.zeros(n_dofs)
    else:
        b = load_vector(space, forcing, t=times[0])
        force_scale = float(np.linalg.norm(b))
        fh, _ = cg_solve(mass, b, tol=cg_tol)
        fh_past = _Extrapolation(fh)
    lap, _ = cg_solve(mass, -stiff.matvec(u), tol=cg_tol)
    udot = fh + lap
    u_past = _Extrapolation(u)
    if scheme == SCHEME_B:
        lap_past = _Extrapolation(lap)
    yield TimeNode(times[0], mesh, geom, u, udot, lap, fh)

    mass_prev = mass
    u_prev = None  # for bdf2
    system, system_scale = None, None  # M + system_scale * A
    for i in range(1, len(times)):
        t1 = times[i]
        bdf2_step = integrator == "bdf2" and u_prev is not None
        scale = 2.0 * dt / 3.0 if bdf2_step else dt
        if moving:
            mesh = mesh0.evolved(t1)
            space = FeSpace(mesh, DISCRETE)
            geom = space.geometry()
            mass = assemble_mass(space)
            stiff = assemble_stiffness(space)
        # rebuilt only when the mesh moves, or when BDF2 follows its Euler step
        if moving or scale != system_scale:
            system, system_scale = mass.scaled_add(scale, stiff), scale
        if forcing is not None:
            b = load_from_geometry(geom, mesh.elements, n_dofs, forcing, t=t1)
            force_scale = max(force_scale, float(np.linalg.norm(b)))

        if bdf2_step:
            # (3 u1 - 4 u0 + um1) / (2 dt) against M(t1)
            rhs = mass.matvec((4.0 * u - u_prev) / 3.0) + (2.0 * dt / 3.0) * b
            u_new, _ = cg_solve(system, rhs, tol=cg_tol, x0=u_past.extrapolate())
            udot = (3.0 * u_new - 4.0 * u + u_prev) / (2.0 * dt)
        else:
            if scheme == SCHEME_B:
                rhs = mass_prev.matvec(u) + dt * b
            else:
                rhs = mass.matvec(u) + dt * b
            u_new, _ = cg_solve(system, rhs, tol=cg_tol, x0=u_past.extrapolate())
            udot = (u_new - u) / dt
        u_past.push(u_new)

        if forcing is not None:
            # relative CG tolerances are meaningless where the forcing crosses
            # zero; anchor an absolute floor to the forcing scale seen so far
            fh, _ = cg_solve(mass, b, tol=cg_tol, x0=fh_past.extrapolate(),
                             atol=cg_tol * force_scale)
            fh_past.push(fh)
        if scheme == SCHEME_B:
            lap, _ = cg_solve(mass, -stiff.matvec(u_new), tol=cg_tol,
                              x0=lap_past.extrapolate())
            lap_past.push(lap)
        else:
            # scheme identity: M udot = b - A u_new, hence lap = udot - fh
            lap = udot - fh

        u_prev = u if integrator == "bdf2" else None
        u = u_new
        mass_prev = mass
        yield TimeNode(t1, mesh, geom, u, udot, lap, fh)
