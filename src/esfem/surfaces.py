"""Analytic closed surfaces, prescribed flows, and verification solution families.

Every surface kind here has a closed-form outward normal and a closest-point
projection that is either closed-form (circle, sphere) or obtained by a
damped Newton iteration on the Lagrange condition (ellipsoid).  All point-wise
operations accept arrays of points with shape ``(..., d)`` where
``d = dimension + 1`` is the ambient dimension.  The flows are closed-form
and defined for every time t; each study sets its own end time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UnknownProfile, UnsupportedSurface

TWO_PI = 2.0 * math.pi


class Surface:
    """Base class for closed hypersurfaces of dimension ``m`` in R^(m+1).

    Subclasses provide the closest-point projection with its Jacobian, normals
    and (for evolving kinds) the flow map that moves the mesh nodes, defined
    for every time t.  The default flow is the identity (stationary surface).
    """

    kind = "abstract"
    is_stationary = True

    def __init__(self, dimension):
        self.dimension = int(dimension)
        self.ambient_dim = self.dimension + 1

    # -- projection --------------------------------------------------------------

    def project(self, t, x):
        """Closest-point projection onto the surface at time ``t`` (vectorized)."""
        raise NotImplementedError

    def normal(self, t, x):
        """Outward unit normal at points on (or near) the surface."""
        raise NotImplementedError

    def project_with_jacobian(self, t, x):
        """``project`` at the points and the Jacobian dq/dx of the
        closest-point projection there, shape (..., d, d)."""
        raise NotImplementedError

    # -- flow map --------------------------------------------------------------

    def position(self, t, y):
        """Flow map: position at time ``t`` of the material point ``y`` on the
        initial surface."""
        return np.asarray(y, dtype=float)

    # -- analytic helpers --------------------------------------------------------

    def geodesic_distance(self, t, x, y):
        raise UnsupportedSurface(f"no geodesic distance for kind {self.kind!r}")


def _radial_project(x, radius):
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    return radius * x / r


class _RadialSurface(Surface):
    """Shared machinery for circles/spheres, possibly with radius varying in t."""

    def radius(self, t):
        raise NotImplementedError

    def project(self, t, x):
        return _radial_project(np.asarray(x, dtype=float), self.radius(t))

    def normal(self, t, x):
        x = np.asarray(x, dtype=float)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def project_with_jacobian(self, t, x):
        x = np.asarray(x, dtype=float)
        radius = self.radius(t)
        projected = _radial_project(x, radius)
        r = np.linalg.norm(x, axis=-1)
        unit = x / r[..., None]
        d = x.shape[-1]
        # (radius/r)(I - unit unit^T), formed in one (..., d, d) array
        jac = unit[..., :, None] * unit[..., None, :]
        np.subtract(np.eye(d), jac, out=jac)
        jac *= (radius / r)[..., None, None]
        return projected, jac

    def geodesic_distance(self, t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = self.radius(t)
        xn = x / np.linalg.norm(x, axis=-1, keepdims=True)
        yn = y / np.linalg.norm(y, axis=-1, keepdims=True)
        c = np.clip(np.sum(xn * yn, axis=-1), -1.0, 1.0)
        return r * np.arccos(c)


def _checked_radius(radius):
    radius = float(radius)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return radius


class Circle(_RadialSurface):
    kind = "circle"

    def __init__(self, radius=1.0):
        super().__init__(dimension=1)
        self._radius = _checked_radius(radius)

    def radius(self, t):
        return self._radius


class Sphere(_RadialSurface):
    kind = "sphere"

    def __init__(self, radius=1.0):
        super().__init__(dimension=2)
        self._radius = _checked_radius(radius)

    def radius(self, t):
        return self._radius


class ScaledSphereFlow(_RadialSurface):
    """Circle/sphere uniformly scaled in time: r(t) = 1 + amplitude*sin(2*pi*t).

    The flow map is X(t, y) = r(t)*y.
    """

    kind = "scaled_sphere_flow"
    is_stationary = False

    def __init__(self, dimension=2, amplitude=0.25):
        super().__init__(dimension=dimension)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must lie in [0, 1)")
        self.amplitude = float(amplitude)

    def radius(self, t):
        return 1.0 + self.amplitude * math.sin(TWO_PI * t)

    def position(self, t, y):
        return self.radius(t) * np.asarray(y, dtype=float)


class EllipsoidFlow(Surface):
    """Ellipsoid with axes oscillating in time via a diagonal scaling.

    Axis i has length a_i(t) = 1 + amplitudes[i]*sin(2*pi*t), so the initial
    surface is the unit sphere and the flow map is X_i(t, y) = a_i(t) y_i.
    """

    kind = "ellipsoid_flow"
    is_stationary = False

    def __init__(self, dimension=2, amplitudes=None):
        super().__init__(dimension=dimension)
        if amplitudes is None:
            amplitudes = (0.2, -0.12, 0.08)[: self.ambient_dim]
        amplitudes = tuple(float(a) for a in amplitudes)
        if len(amplitudes) != self.ambient_dim:
            raise ValueError("need one amplitude per ambient coordinate")
        if not all(abs(a) < 1.0 for a in amplitudes):
            raise ValueError(f"amplitudes must have modulus < 1, got {amplitudes}")
        self.amplitudes = amplitudes

    def axes(self, t):
        return np.array(
            [1.0 + a * math.sin(TWO_PI * t) for a in self.amplitudes]
        )

    def position(self, t, y):
        return self.axes(t) * np.asarray(y, dtype=float)

    def normal(self, t, x):
        x = np.asarray(x, dtype=float)
        a = self.axes(t)
        g = 2.0 * x / (a * a)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def _solve_multiplier(self, t, x):
        """Lagrange multiplier of the nearest-point condition, vectorized.

        q_i = a_i^2 x_i / (a_i^2 + lam) with g(lam) = sum (a_i x_i/(a_i^2+lam))^2 - 1
        monotone decreasing on (-min a_i^2, inf); damped Newton with a bisection
        safeguard, to |g| <= 1e-14 (relative) in at most 50 steps.
        """
        x = np.asarray(x, dtype=float)
        a2 = self.axes(t) ** 2
        ax2 = a2 * x * x  # (a_i x_i)^2
        lam_min = -np.min(a2)
        lo = np.full(x.shape[:-1], lam_min + 1e-12 * np.min(a2))
        hi = np.full(x.shape[:-1], np.max(a2) + np.sum(np.abs(x), axis=-1) ** 2)
        lam = np.zeros(x.shape[:-1])
        lam = np.clip(lam, lo, hi)
        converged = np.zeros(x.shape[:-1], dtype=bool)
        for _ in range(50):
            denom = a2 + lam[..., None]
            g = np.sum(ax2 / denom**2, axis=-1) - 1.0
            converged = np.abs(g) <= 1e-14 * np.maximum(
                1.0, np.sum(ax2 / a2**2, axis=-1)
            )
            if np.all(converged):
                break
            dg = -2.0 * np.sum(ax2 / denom**3, axis=-1)
            lo = np.where(g > 0, lam, lo)
            hi = np.where(g < 0, lam, hi)
            step = np.where(np.abs(dg) > 0, -g / np.where(dg == 0, 1.0, dg), 0.0)
            lam_new = lam + step
            bad = (lam_new <= lo) | (lam_new >= hi) | ~np.isfinite(lam_new)
            lam = np.where(bad & ~converged, 0.5 * (lo + hi), np.where(converged, lam, lam_new))
        if not np.all(converged):
            raise NonConvergence("ellipsoid projection Newton did not converge")
        return lam

    def project(self, t, x):
        x = np.asarray(x, dtype=float)
        return self._project_at(t, x, self._solve_multiplier(t, x))

    def project_with_jacobian(self, t, x):
        # one Newton solve for the multiplier serves both
        x = np.asarray(x, dtype=float)
        lam = self._solve_multiplier(t, x)
        projected = self._project_at(t, x, lam)
        a2 = self.axes(t) ** 2
        denom = a2 + lam[..., None]
        # implicit differentiation of the multiplier equation
        dldx = (a2 * x / denom**2) / np.sum(
            a2 * x * x / denom**3, axis=-1, keepdims=True
        )
        diag = a2 / denom
        d = x.shape[-1]
        jac = np.zeros(x.shape[:-1] + (d, d))
        idx = np.arange(d)
        jac[..., idx, idx] = diag
        jac -= (a2 * x / denom**2)[..., :, None] * dldx[..., None, :]
        return projected, jac

    def _project_at(self, t, x, lam):
        a2 = self.axes(t) ** 2
        return a2 * x / (a2 + lam[..., None])


def make_surface(kind, dimension, params):
    """Build a surface from a config-style description.

    kind in {circle, sphere, scaled_sphere_flow, ellipsoid_flow};
    params carries radii/axis data where applicable.
    """
    params = tuple(float(p) for p in params)
    if kind in ("circle", "sphere", "scaled_sphere_flow") and len(params) > 1:
        raise ValueError(f"a {kind} takes at most one parameter, got {len(params)}")
    if kind == "circle":
        return Circle(radius=params[0] if params else 1.0)
    if kind == "sphere":
        return Sphere(radius=params[0] if params else 1.0)
    if kind == "scaled_sphere_flow":
        return ScaledSphereFlow(dimension, amplitude=params[0] if params else 0.25)
    if kind == "ellipsoid_flow":
        return EllipsoidFlow(dimension, amplitudes=params or None)
    raise UnsupportedSurface(f"unknown surface kind {kind!r}")


# ---------------------------------------------------------------------------
# exact solutions of the surface heat equation on stationary circle/sphere
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatSolution:
    """Separable decaying solution u(t,x) = exp(-rate*t) * profile(x) of the
    heat equation with f = 0, which solve_heat takes as forcing None."""

    value: object
    initial: object


def exact_heat_solution(surface, mode):
    """Eigenfunction-decay solutions used as convergence oracles.

    Circle of radius r: u = exp(-(n/r)^2 t) sin(n*theta).
    Sphere of radius r: u = exp(-l(l+1)/r^2 t) P_l(x3/r) (zonal harmonic).
    """
    mode = int(mode)
    if mode < 1:
        raise ValueError("mode must be >= 1")
    if isinstance(surface, Circle):
        r = surface.radius(0.0)
        rate = (mode / r) ** 2

        def profile(x):
            x = np.asarray(x, dtype=float)
            theta = np.arctan2(x[..., 1], x[..., 0])
            return np.sin(mode * theta)

    elif isinstance(surface, Sphere):
        r = surface.radius(0.0)
        rate = mode * (mode + 1) / r**2
        leg = np.polynomial.legendre.Legendre.basis(mode)

        def profile(x):
            x = np.asarray(x, dtype=float)
            return leg(np.clip(x[..., -1] / r, -1.0, 1.0))

    else:
        raise UnsupportedSurface(
            "exact heat solutions exist only on the stationary circle and sphere"
        )

    def value(t, x):
        return math.exp(-rate * t) * profile(x)

    return HeatSolution(value=value, initial=profile)


# ---------------------------------------------------------------------------
# forcing catalog for the refinement studies
# ---------------------------------------------------------------------------

_BUMP_WIDTH = 0.6
_BUMP_PERIOD = 2.0


def _bump_center(surface, t):
    # scale(t) x direction(phi): the axes or the radius at t, times a point
    # circling the unit circle, or the unit sphere at polar angle 1
    phi = TWO_PI * t / _BUMP_PERIOD
    scale = surface.axes(t) if isinstance(surface, EllipsoidFlow) else surface.radius(t)
    if surface.ambient_dim == 2:
        return scale * np.array([math.cos(phi), math.sin(phi)])
    return scale * np.array(
        [math.sin(1.0) * math.cos(phi), math.sin(1.0) * math.sin(phi), math.cos(1.0)]
    )


def profile_seed(profile_id):
    """The seed k of an "osc-seed<k>" profile id, None for the other ids of
    the forcing_profile catalog; UnknownProfile for any other id."""
    if profile_id in ("zero", "bump", "sqwave"):
        return None
    seed = profile_id.removeprefix("osc-seed")
    if seed == profile_id or not seed.isdecimal():
        raise UnknownProfile(f"unknown forcing profile {profile_id!r}")
    return int(seed)


# numpy's default bit generator: PCG64 (O'Neill, HMC-CS-2014-0905) seeded by
# SeedSequence, with the constants of numpy/random/bit_generator.pyx and
# numpy/random/src/pcg64
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, np.uint64), as ints."""
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    # a pool of 4 words: the first words of the seed, each word then mixed
    # into every other one, then the seed's words past the 4th
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    # pairs of 32-bit words read as little-endian 64-bit words
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]


def _uniform_stream(seed, low, high, count):
    """The first `count` values of np.random.default_rng(seed).uniform(low,
    high): PCG64 (XSL-RR output of a 128-bit LCG) seeded by SeedSequence."""
    s0, s1, i0, i1 = _seed_sequence_state(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = (inc + (s0 << 64 | s1)) & _MASK128
    state = (state * _PCG64_MULT + inc) & _MASK128
    values = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        values.append(low + (high - low) * ((word >> 11) * 2.0**-53))
    return values


def forcing_profile(profile_id, surface):
    """Return a deterministic forcing f(t, x) from the documented catalog.

    Catalog: "zero"; "bump" (traveling smooth bump with peak value 1);
    "sqwave" (smoothed square wave in time times a smooth spatial factor);
    "osc-seed<k>" (low-frequency random-coefficient sum, fixed seed k).

    The coefficients of "osc-seed<k>" are numpy's
    ``np.random.default_rng(k).uniform(-1, 1, size=(monomials, 5))`` stream
    in row-major order, reproduced bit for bit in pure Python: importing
    numpy.random to draw about 50 numbers costs 17-20 ms and 6 MB of RSS,
    as it loads nine extension modules and, through ``secrets``, OpenSSL.
    """
    seed = profile_seed(profile_id)
    if profile_id == "zero":
        def zero(t, x):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1])
        return zero

    if profile_id == "bump":
        def bump(t, x):
            x = np.asarray(x, dtype=float)
            c = _bump_center(surface, t)
            d2 = np.sum((x - c) ** 2, axis=-1)
            return np.exp(-d2 / (2.0 * _BUMP_WIDTH**2))
        return bump

    if profile_id == "sqwave":
        def sqwave(t, x):
            x = np.asarray(x, dtype=float)
            return math.tanh(6.0 * math.sin(TWO_PI * t)) * (
                1.0 + 0.5 * np.sin(3.0 * x[..., 0])
            )
        return sqwave

    # osc-seed<k>
    d = surface.ambient_dim
    nmono = 1 + d + d * (d + 1) // 2
    ntime = 5
    coeff = np.array(_uniform_stream(seed, -1.0, 1.0, nmono * ntime)).reshape(nmono, ntime)
    coeff /= math.sqrt(nmono * ntime)
    # the rows weigh the monomials 1, x_i, x_i x_j (i <= j), which is the
    # row-major upper triangle of (1, x) (1, x)^T: so the sum is one
    # quadratic form (1, x)^T H (1, x) = c0 + c.x + x^T C x
    form = np.zeros((d + 1, d + 1, ntime))
    form[np.triu_indices(d + 1)] = coeff
    ones = np.ones(d)

    def oscillator(t, x):
        tau = np.array(
            [
                1.0,
                math.cos(TWO_PI * t),
                math.sin(TWO_PI * t),
                math.cos(2.0 * TWO_PI * t),
                math.sin(2.0 * TWO_PI * t),
            ]
        )
        h = form @ tau
        x = np.asarray(x, dtype=float)
        lin = x @ h[1:, 1:]
        lin += h[0, 1:]
        lin *= x
        # a product with ones sums the d terms faster than a reduction
        out = lin @ ones
        out += h[0, 0]
        return out

    return oscillator
