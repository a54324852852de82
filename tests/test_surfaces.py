import math

import numpy as np
import pytest
import sympy as sp

from esfem.errors import UnknownProfile, UnsupportedSurface
from esfem.surfaces import (
    Circle,
    EllipsoidFlow,
    ScaledSphereFlow,
    Sphere,
    _uniform_stream,
    exact_heat_solution,
    forcing_profile,
    make_surface,
)
from oracles import inverse_position, sample_points, velocity

ALL_SURFACES = [
    Circle(),
    Sphere(),
    ScaledSphereFlow(dimension=1),
    ScaledSphereFlow(dimension=2),
    EllipsoidFlow(dimension=2),
]


def test_closest_point_circle_example():
    x = np.array([2.0, 0.0])
    q = Circle().project(0.0, x)
    assert np.allclose(q, [1.0, 0.0], atol=1e-14)
    assert abs(np.linalg.norm(x - q) - 1.0) < 1e-14
    assert np.allclose(Circle().normal(0.0, q), [1.0, 0.0], atol=1e-14)


def test_closest_point_sphere_example():
    # interior point: the foot point is 0.5 away and the normal points out
    x = np.array([0.0, 0.0, 0.5])
    q = Sphere().project(0.0, x)
    assert np.allclose(q, [0.0, 0.0, 1.0], atol=1e-14)
    assert abs(np.linalg.norm(x - q) - 0.5) < 1e-14
    assert np.allclose(Sphere().normal(0.0, q), [0.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.kind + str(s.dimension))
def test_projection_idempotent_and_aligned(surface):
    rng = np.random.default_rng(0)
    t = 0.3 if not surface.is_stationary else 0.0
    pts = sample_points(surface, t, 50, rng)
    again = surface.project(t, pts)
    assert np.abs(again - pts).max() <= 1e-12
    off = pts * 1.02 + 0.0
    q = surface.project(t, off)
    nu = surface.normal(t, q)
    diff = off - q
    cross = diff - np.sum(diff * nu, axis=-1, keepdims=True) * nu
    assert np.abs(cross).max() <= 1e-10 * (1 + np.abs(diff).max())


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.kind + str(s.dimension))
def test_flow_map_identity_at_zero(surface):
    rng = np.random.default_rng(1)
    y = sample_points(surface, 0.0, 20, rng)
    assert np.abs(surface.position(0.0, y) - y).max() <= 1e-14


@pytest.mark.parametrize(
    "surface",
    [ScaledSphereFlow(dimension=1), ScaledSphereFlow(dimension=2), EllipsoidFlow()],
    ids=["scaled1", "scaled2", "ellipsoid"],
)
def test_velocity_matches_flow_derivative(surface):
    rng = np.random.default_rng(2)
    y = sample_points(surface, 0.0, 10, rng)
    step = 1e-4
    for t in (0.1, 0.37, 0.8):
        x = surface.position(t, y)
        fd = (surface.position(t + step, y) - surface.position(t - step, y)) / (2 * step)
        assert np.abs(velocity(surface, t, x) - fd).max() <= 1e-6


def test_scaled_flow_velocity_identity():
    surface = ScaledSphereFlow(dimension=2)
    rng = np.random.default_rng(3)
    for t in (0.12, 0.5, 0.9):
        x = sample_points(surface, t, 10, rng)
        r = surface.radius(t)
        rp = surface.amplitude * 2 * math.pi * math.cos(2 * math.pi * t)
        assert np.abs(velocity(surface, t, x) - (rp / r) * x).max() <= 1e-12


def test_flow_inverse_roundtrip():
    for surface in (ScaledSphereFlow(dimension=2), EllipsoidFlow()):
        rng = np.random.default_rng(4)
        y = sample_points(surface, 0.0, 15, rng)
        x = surface.position(0.63, y)
        assert np.abs(inverse_position(surface, 0.63, x) - y).max() <= 1e-12


@pytest.mark.parametrize("surface", [*ALL_SURFACES, EllipsoidFlow(dimension=1)],
                         ids=lambda s: f"{s.kind}-{s.dimension}")
def test_project_with_jacobian_is_project_and_its_derivative(surface):
    # the points are project's bit for bit, although the ellipsoid solves
    # its multiplier once for both; the Jacobian is project's derivative,
    # checked by central differences off the surface
    t = 0.37
    rng = np.random.default_rng(surface.ambient_dim)
    x = sample_points(surface, t, 500, rng) * rng.uniform(0.9, 1.1, size=(500, 1))
    points, jac = surface.project_with_jacobian(t, x)
    assert np.array_equal(points, surface.project(t, x))
    eps = 1e-6
    for j in range(surface.ambient_dim):
        dx = np.zeros(surface.ambient_dim)
        dx[j] = eps
        col = (surface.project(t, x + dx) - surface.project(t, x - dx)) / (2 * eps)
        assert np.abs(jac[..., j] - col).max() <= 1e-8


# --- exact heat solutions -----------------------------------------------

def test_heat_solution_circle_examples():
    sol = exact_heat_solution(Circle(), 1)
    pt = np.array([math.cos(math.pi / 2), math.sin(math.pi / 2)])
    assert abs(sol(0.0, pt) - 1.0) < 1e-14

    sol2 = exact_heat_solution(Circle(), 2)
    theta = 0.77
    pt = np.array([math.cos(theta), math.sin(theta)])
    assert abs(sol2(0.25, pt) - math.exp(-1.0) * math.sin(2 * theta)) < 1e-14


def test_heat_solution_sphere_example():
    sol = exact_heat_solution(Sphere(), 1)
    pt = np.array([0.1, 0.3, math.sqrt(1 - 0.1)])
    z = pt[2]
    assert abs(sol(0.5, pt) - math.exp(-1.0) * z) < 1e-14


def test_heat_solution_rejects_flows():
    with pytest.raises(UnsupportedSurface):
        exact_heat_solution(ScaledSphereFlow(), 1)
    with pytest.raises(UnsupportedSurface):
        exact_heat_solution(EllipsoidFlow(), 1)


def test_heat_solution_residual_symbolic_circle():
    # independent oracle: parametric Laplace-Beltrami on the circle is
    # (1/r^2) d^2/dtheta^2; the residual of the claimed solution must vanish
    t, theta = sp.symbols("t theta", real=True)
    for n in (1, 2, 3):
        u = sp.exp(-(n**2) * t) * sp.sin(n * theta)
        residual = sp.diff(u, t) - sp.diff(u, theta, 2)
        assert sp.simplify(residual) == 0
        # implementation agrees with the symbolic solution at random samples
        sol = exact_heat_solution(Circle(), n)
        rng = np.random.default_rng(10 + n)
        for _ in range(100):
            tv = rng.uniform(0, 1)
            av = rng.uniform(0, 2 * math.pi)
            pt = np.array([math.cos(av), math.sin(av)])
            expected = float(u.subs({t: tv, theta: av}))
            assert abs(sol(tv, pt) - expected) <= 1e-12


def test_heat_solution_residual_symbolic_sphere():
    # zonal Laplace-Beltrami: (1/sin phi) d/dphi (sin phi d/dphi)
    t, phi = sp.symbols("t phi", real=True)
    for ell in (1, 2):
        leg = sp.legendre(ell, sp.cos(phi))
        u = sp.exp(-ell * (ell + 1) * t) * leg
        lap = sp.diff(sp.sin(phi) * sp.diff(u, phi), phi) / sp.sin(phi)
        residual = sp.simplify(sp.diff(u, t) - lap)
        assert sp.simplify(residual) == 0
        sol = exact_heat_solution(Sphere(), ell)
        rng = np.random.default_rng(20 + ell)
        for _ in range(100):
            tv = rng.uniform(0, 1)
            pv = rng.uniform(0.1, math.pi - 0.1)
            av = rng.uniform(0, 2 * math.pi)
            pt = np.array(
                [math.sin(pv) * math.cos(av), math.sin(pv) * math.sin(av), math.cos(pv)]
            )
            expected = float(u.subs({t: tv, phi: pv}))
            assert abs(sol(tv, pt) - expected) <= 1e-12


# --- forcing profiles -----------------------------------------------------

def test_bump_profile_peaks_at_one():
    from esfem.surfaces import _bump_center

    for surface in ALL_SURFACES:
        f = forcing_profile("bump", surface)
        for t in (0.0, 0.3, 0.9):
            center = _bump_center(surface, t)
            assert abs(f(t, center[None, :])[0] - 1.0) < 1e-14


def test_sqwave_profile_is_its_formula():
    # a smoothed square wave in time times a smooth factor of x_0
    rng = np.random.default_rng(3)
    for surface in ALL_SURFACES:
        f = forcing_profile("sqwave", surface)
        pts = sample_points(surface, 0.0, 7, rng)
        for t in (0.0, 0.1, 0.37, 0.75):
            wave = math.tanh(6.0 * math.sin(2.0 * math.pi * t))
            want = [wave * (1.0 + 0.5 * math.sin(3.0 * x[0])) for x in pts]
            assert np.allclose(f(t, pts), want, rtol=1e-14, atol=1e-15), (surface, t)


def test_zero_profile():
    f = forcing_profile("zero", Circle())
    assert np.all(f(0.5, np.ones((4, 2))) == 0.0)


def test_oscillator_profile_deterministic():
    surface = Sphere()
    f1 = forcing_profile("osc-seed42", surface)
    f2 = forcing_profile("osc-seed42", surface)
    rng = np.random.default_rng(0)
    pts = sample_points(surface, 0.0, 30, rng)
    a = f1(0.37, pts)
    b = f2(0.37, pts)
    assert np.array_equal(a, b)
    # different seed gives a different field
    other = forcing_profile("osc-seed7", surface)(0.37, pts)
    assert not np.array_equal(a, other)


# the perfbench seeds, and seeds of 2, 4, 5 and 7 32-bit words: SeedSequence
# mixes the words past its pool of 4 in a separate pass
STREAM_SEEDS = sorted({*range(1000), 2**32 + 5, 2**40, 10**12, 2**96 + 7,
                       2**128 + 12345, 3**100, 2**200 - 1})


@pytest.mark.parametrize("nmono", [6, 10], ids=["d2", "d3"])
def test_oscillator_coefficients_are_numpys_stream(nmono):
    # bit for bit np.random.default_rng(k).uniform(-1, 1, size), row-major
    for seed in STREAM_SEEDS:
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(nmono, 5))
        got = np.array(_uniform_stream(seed, -1.0, 1.0, nmono * 5)).reshape(nmono, 5)
        assert got.tobytes() == want.tobytes(), seed


def _monomials(x):
    """Low-order ambient monomials 1, x_i, x_i*x_j (i<=j), stacked on the last axis."""
    d = x.shape[-1]
    cols = [np.ones(x.shape[:-1])]
    cols.extend(x[..., i] for i in range(d))
    for i in range(d):
        for j in range(i, d):
            cols.append(x[..., i] * x[..., j])
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("surface", [Circle(), Sphere()], ids=["d2", "d3"])
def test_oscillator_profile_matches_monomial_sum(surface, seed):
    # the documented recipe: seeded coefficients of the monomials times
    # the five time modes, summed column by column
    d = surface.ambient_dim
    nmono = 1 + d + d * (d + 1) // 2
    rng = np.random.default_rng(seed)
    coeff = rng.uniform(-1.0, 1.0, size=(nmono, 5)) / math.sqrt(nmono * 5)
    f = forcing_profile(f"osc-seed{seed}", surface)
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(40, 6, d))
    for t in (0.0, 0.13, 0.37, 0.5, 0.91):
        w = 2.0 * math.pi * t
        tau = np.array([1.0, math.cos(w), math.sin(w), math.cos(2 * w), math.sin(2 * w)])
        want = _monomials(pts) @ (coeff @ tau)
        got = f(t, pts)
        assert got.shape == (40, 6)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        flat = f(t, pts.reshape(-1, d))
        assert np.abs(flat - want.reshape(-1)).max() <= 1e-14 * np.abs(want).max()


def test_unknown_profile_rejected():
    with pytest.raises(UnknownProfile):
        forcing_profile("mystery", Circle())
    with pytest.raises(UnknownProfile):
        forcing_profile("osc-seedXY", Circle())


def test_make_surface_factory():
    assert make_surface("circle", 1, (2.0,)).radius(0.0) == 2.0
    assert make_surface("scaled_sphere_flow", 2, ()).dimension == 2
    assert make_surface("ellipsoid_flow", 2, (0.1, 0.1, -0.1)).amplitudes == (0.1, 0.1, -0.1)
    with pytest.raises(UnsupportedSurface):
        make_surface("moebius", 2, ())
    with pytest.raises(UnsupportedSurface):
        make_surface("torus", 2, (3.0, 0.5))
