"""Method-of-lines integration of the surface heat equation on moving meshes.

Two spatial schemes are supported: the non-conservative form (test functions
see the material time derivative nodally) and the conservative form (the time
derivative sits on the mass-weighted coefficient vector).  Implicit Euler is
the reference integrator; BDF2 is available where higher time accuracy is
needed (convergence studies).  Nodal coefficient vectors are transported by
keeping them fixed while the mesh moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, StepTooLarge
from .fem import (
    DISCRETE,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
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
L2_NORMS = tuple((name, 2.0) for name in FIELDS)

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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """What one solve_heat call recorded, built once at its end.

    mesh0 is the snapshot the solve started from; times are the n_steps + 1 time nodes; fields maps each name solve_heat
    was asked to keep ("u", "udot", "lap", "fh") to its (n_steps + 1, N)
    coefficient series; norm_series maps each recorded (field, q) pair to
    its per-node L^q space norms on the mesh snapshot at that node.
    """

    mesh0: object
    times: np.ndarray
    fields: dict
    norm_series: dict

    def norms(self, fieldname, q):
        """The recorded per-node L^q norms of the field; KeyError listing the
        recorded pairs when this one was not recorded."""
        try:
            return self.norm_series[(fieldname, float(q))]
        except KeyError:
            raise KeyError(
                f"norms for {fieldname!r} at q={q} were not recorded; "
                f"recorded: {sorted(self.norm_series)}"
            ) from None


def spacetime_norm(traj, fieldname, p, q):
    """Bochner norm: composite trapezoid in t of the space norms to the p."""
    for exponent in (p, q):
        if not (1.0 < exponent < math.inf):
            raise InvalidExponent("space-time norms need exponents in (1, inf)")
    series = traj.norms(fieldname, q)
    return float(np.trapezoid(series**p, traj.times) ** (1.0 / p))


def _check_policy(grid, mesh, max_dt_factor):
    if max_dt_factor is not None and grid.dt > max_dt_factor * mesh.h**2 * (1 + 1e-9):
        raise StepTooLarge(
            f"dt={grid.dt:.3e} exceeds {max_dt_factor}*h^2={max_dt_factor * mesh.h ** 2:.3e}"
        )


def _check_field(name):
    if name not in FIELDS:
        raise ValueError(f"unknown field {name!r}")


def solve_heat(
    mesh0,
    forcing,
    grid,
    scheme=SCHEME_A,
    integrator="be",
    u0=None,
    norms=L2_NORMS,
    cg_tol=1e-12,
    store_fields=FIELDS,
    max_dt_factor=None,
):
    """Integrate one of the semi-discrete schemes over the given time grid.

    forcing is f(t, x) evaluated at ambient points of Gamma_h(t) (callers pass
    the inverse-lifted exact forcing; nodes lie on Gamma so no transport is
    needed for the analytic families used here), or None for f = 0: then no
    load vector is evaluated, no mass solve for fh runs and fh is zero.  u0
    is a coefficient vector (defaults to zero).  Returns a Trajectory that
    holds what was asked for and nothing else.

    Every CG solve after the first of its field (u, fh, and lap in scheme B)
    starts from the polynomial in t through that field's last
    EXTRAPOLATION_ORDER + 1 nodal vectors, evaluated at the new time node (of
    lower degree while fewer vectors are known).  Nodal vectors are
    transported with the mesh, so this holds on moving meshes too.

    norms lists the (field, q) pairs whose per-node L^q space norms are
    recorded (default: every field at q = 2), and store_fields names the
    fields whose coefficient series are kept (default: all four; () keeps
    none).  Nothing else can be asked of the Trajectory afterwards.
    Unknown field names raise ValueError.

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
    _check_policy(grid, mesh0, max_dt_factor)

    moving = scheme != STATIONARY and not mesh0.surface.is_stationary
    times = grid.times()
    dt = grid.dt
    n_dofs = mesh0.num_nodes

    norm_qs = {}  # field -> the q of its recorded norms
    for name, q in norms:
        _check_field(name)
        qs = norm_qs.setdefault(name, [])
        if float(q) not in qs:
            qs.append(float(q))
    series = {(name, q): np.empty(len(times))
              for name, qs in norm_qs.items() for q in qs}
    for name in store_fields:
        _check_field(name)
    stored = [name for name in FIELDS if name in store_fields]
    buffers = {name: [] for name in stored}

    mesh = mesh0
    space = FeSpace(mesh, DISCRETE)
    geom = space.geometry()
    mass = assemble_mass(space)
    stiff = assemble_stiffness(space)

    u = np.zeros(n_dofs) if u0 is None else np.asarray(u0, dtype=float).copy()
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

    def push(i, vals, mesh_i, geom_i):
        for name, qs in norm_qs.items():
            coeffs = vals[name]
            at_quad = element_values(coeffs, mesh_i.elements, geom_i)
            for q in qs:
                series[(name, q)][i] = values_norm_lq(at_quad, coeffs, geom_i, q)
        for name in stored:
            buffers[name].append(vals[name])

    push(0, {"u": u, "udot": udot, "lap": lap, "fh": fh}, mesh, geom)

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
        push(i, {"u": u, "udot": udot, "lap": lap, "fh": fh}, mesh, geom)
        mass_prev = mass

    fields = {name: np.array(rows) for name, rows in buffers.items()}
    return Trajectory(mesh0, times, fields, series)


def weighted_total_mass(mesh, coeffs):
    """1^T M(t) u, the discrete integral of the finite element function."""
    space = FeSpace(mesh, DISCRETE)
    mass = assemble_mass(space)
    return float(np.ones(mesh.num_nodes) @ mass.matvec(coeffs))
