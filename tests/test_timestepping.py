import itertools
import math
import weakref

import numpy as np
import pytest

from esfem.errors import InvalidExponent
from esfem.fem import (
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    element_values,
    load_from_geometry,
    values_norm_lq,
)
from esfem.meshing import SurfaceMesh, build_circle_mesh, build_sphere_mesh
from esfem.surfaces import (
    Circle,
    EllipsoidFlow,
    ScaledSphereFlow,
    Sphere,
    exact_heat_solution,
    forcing_profile,
)
from esfem import timestepping
from esfem.timestepping import (
    EXTRAPOLATION_ORDER,
    FIELDS,
    SCHEME_A,
    SCHEME_B,
    STATIONARY,
    TimeGrid,
    extrapolation_weights,
    norm_series,
    solve_heat,
    spacetime_norm,
)
from oracles import dense, weighted_total_mass


def test_zero_data_stays_zero():
    mesh = build_circle_mesh(Circle(), 16, 1)
    nodes = solve_heat(mesh, forcing_profile("zero", mesh.surface), TimeGrid(1.0, 20),
                       scheme=SCHEME_A, cg_tol=1e-12)
    assert all(np.abs(node.u).max() == 0.0 for node in nodes)


def test_constants_are_invariant_under_scheme_a_on_flows():
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(1.0, 40)
    nodes = solve_heat(
        mesh, forcing_profile("zero", surface), grid, scheme=SCHEME_A,
        u0=np.ones(mesh.num_nodes), cg_tol=1e-12,
    )
    assert max(np.abs(node.u - 1.0).max() for node in nodes) <= 1e-12


@pytest.mark.parametrize("integrator", ["be", "bdf2"])
def test_scheme_identity_per_step(integrator):
    mesh = build_circle_mesh(Circle(), 24, 1)
    surface = mesh.surface
    forcing = forcing_profile("bump", surface)
    grid = TimeGrid(0.5, 64)
    nodes = list(solve_heat(mesh, forcing, grid, scheme=SCHEME_A, integrator=integrator,
                            cg_tol=1e-12))
    space = FeSpace(mesh)
    mass = assemble_mass(space)
    stiff = assemble_stiffness(space)
    for i in (7, 31, 64):
        node = nodes[i]
        # udot is the integrator's backward difference of the nodal vectors
        if integrator == "be":
            udot = (node.u - nodes[i - 1].u) / grid.dt
        else:
            udot = (3.0 * node.u - 4.0 * nodes[i - 1].u + nodes[i - 2].u) / (2.0 * grid.dt)
        assert np.abs(node.udot - udot).max() <= 1e-12 * np.abs(udot).max()
        b = load_from_geometry(space.geometry(), mesh.elements, space.num_dofs, forcing,
                               node.t)
        resid = mass.matvec(node.udot) + stiff.matvec(node.u) - b
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(b)


def test_scheme_b_conserves_weighted_mass():
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(1.0, 200)
    rng = np.random.default_rng(0)
    u0 = 1.0 + 0.2 * rng.standard_normal(mesh.num_nodes)
    nodes = list(solve_heat(mesh, forcing_profile("zero", surface), grid,
                            scheme=SCHEME_B, u0=u0, cg_tol=1e-12))
    initial = weighted_total_mass(mesh, u0)
    for i in (1, 50, 100, 200):
        snapshot = mesh.evolved(nodes[i].t)
        value = weighted_total_mass(snapshot, nodes[i].u)
        assert abs(value - initial) <= 1e-10 * abs(initial)


def test_schemes_coincide_on_stationary_surface():
    mesh = build_circle_mesh(Circle(), 20, 1)
    forcing = forcing_profile("osc-seed42", mesh.surface)
    grid = TimeGrid(0.5, 50)
    ta = solve_heat(mesh, forcing, grid, scheme=SCHEME_A, cg_tol=1e-12)
    tb = solve_heat(mesh, forcing, grid, scheme=SCHEME_B, cg_tol=1e-12)
    for a, b in zip(ta, tb, strict=True):
        assert np.abs(a.u - b.u).max() <= 1e-12


def test_scheme_b_dilution_solution():
    # uniform scaling: the conservative equation has the spatially constant
    # solution u(t) = (r(0)/r(t))^2, reproduced exactly by the discrete flow
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(1.0, 100)
    nodes = list(solve_heat(
        mesh, forcing_profile("zero", surface), grid, scheme=SCHEME_B,
        u0=np.ones(mesh.num_nodes), cg_tol=1e-12,
    ))
    for i in (10, 50, 100):
        expected = 1.0 / surface.radius(nodes[i].t) ** 2
        assert np.abs(nodes[i].u - expected).max() <= 1e-9


def test_scheme_b_mass_nondecreasing_for_positive_forcing():
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(1.0, 50)
    nodes = list(solve_heat(mesh, forcing_profile("bump", surface), grid, scheme=SCHEME_B,
                            cg_tol=1e-12))
    values = [
        weighted_total_mass(mesh.evolved(nodes[i].t), nodes[i].u)
        for i in range(0, 51, 10)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_energy_dissipation_homogeneous():
    mesh = build_circle_mesh(Circle(), 32, 1)
    space = FeSpace(mesh)
    mass = assemble_mass(space)
    u0 = np.sign(mesh.nodes[..., 0])
    nodes = solve_heat(mesh, forcing_profile("zero", mesh.surface), TimeGrid(1.0, 80),
                       scheme=STATIONARY, u0=u0, cg_tol=1e-12)
    energies = [float(node.u @ mass.matvec(node.u)) for node in nodes]
    assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))


def test_eigen_decay_convergence_order():
    surface = Circle()
    solution = exact_heat_solution(surface, 1)
    errors, hs = [], []
    for n in (16, 32, 64):
        mesh = build_circle_mesh(surface, n, 1)
        space = FeSpace(mesh)
        grid = TimeGrid(1.0, max(4, int(8 / mesh.h)))
        *_, last = solve_heat(
            mesh, None, grid, scheme="stationary", integrator="bdf2",
            u0=solution(0.0, mesh.nodes), cg_tol=1e-12,
        )
        assert last.t == 1.0
        geom = space.geometry()
        pts = surface.project(0.0, geom.points.reshape(-1, 2))
        uh = last.u[mesh.elements] @ geom.shape_values.T
        ue = solution(1.0, pts).reshape(uh.shape)
        errors.append(math.sqrt(float(np.sum(geom.weights * (uh - ue) ** 2))))
        hs.append(mesh.h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 1.7 <= order <= 2.3


def test_stationary_energy_identity_bounds():
    mesh = build_circle_mesh(Circle(), 48, 1)
    forcing = forcing_profile("osc-seed42", mesh.surface)
    grid = TimeGrid.from_mesh(mesh, 1.0, 0.5)
    times, norms = norm_series(solve_heat(mesh, forcing, grid, scheme=STATIONARY, cg_tol=1e-12),
                               [("lap", 2.0), ("udot", 2.0), ("fh", 2.0)])
    lap = spacetime_norm(times, norms, "lap", 2.0, 2.0)
    dtu = spacetime_norm(times, norms, "udot", 2.0, 2.0)
    f = spacetime_norm(times, norms, "fh", 2.0, 2.0)
    assert lap <= 1.02 * f
    assert dtu <= 2.04 * f


def test_spacetime_norm_contracts():
    mesh = build_circle_mesh(Circle(), 16, 1)
    grid = TimeGrid(2.0, 40)
    pairs = [("fh", 2.0), ("fh", 3.0)]
    ones = norm_series(
        solve_heat(mesh, lambda t, x: np.ones(x.shape[:-1]), grid, scheme=STATIONARY,
                   cg_tol=1e-12),
        pairs)
    # f_h == 1 for all t: norm is a * T^(1/p) with a = |1|_Lq
    space_norm = ones[1][("fh", 2.0)][0]
    for p in (2.0, 4.0):
        expected = space_norm * 2.0 ** (1.0 / p)
        assert abs(spacetime_norm(*ones, "fh", p, 2.0) - expected) <= 1e-12
    zero = norm_series(
        solve_heat(mesh, forcing_profile("zero", mesh.surface), grid, scheme=STATIONARY,
                   cg_tol=1e-12),
        pairs)
    assert spacetime_norm(*zero, "fh", 2.0, 2.0) == 0.0
    with pytest.raises(InvalidExponent):
        spacetime_norm(*ones, "fh", 1.0, 2.0)
    with pytest.raises(InvalidExponent):
        spacetime_norm(*ones, "fh", 2.0, math.inf)
    with pytest.raises(KeyError):
        spacetime_norm(*ones, "fh", 2.0, 4.0)


def test_spacetime_norm_against_dense_quadrature_oracle():
    # independent oracle: same trapezoid nodes, but the space integral is done
    # by dense per-element Gauss quadrature coded from scratch
    mesh = build_circle_mesh(Circle(), 24, 1)
    forcing = forcing_profile("bump", mesh.surface)
    grid = TimeGrid(1.0, 100)
    nodes = list(solve_heat(mesh, forcing, grid, scheme=STATIONARY, cg_tol=1e-12))
    value = spacetime_norm(*norm_series(nodes, [("fh", 2.0)]), "fh", 2.0, 2.0)

    gx, gw = np.polynomial.legendre.leggauss(40)
    xi = 0.5 * (gx + 1.0)
    sv = mesh.reference.shape_values(xi.reshape(-1, 1))
    series = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        total = 0.0
        for el in mesh.elements:
            coords = mesh.nodes[el]
            pts = sv @ coords
            speeds = np.linalg.norm(coords[1] - coords[0])
            vals = sv @ node.fh[el]
            total += 0.5 * float(np.sum(gw * vals**2)) * speeds
        series[i] = total
    oracle = math.sqrt(float(np.trapezoid(series, grid.times())))
    assert abs(value - oracle) <= 1e-8 * oracle


def test_linearity_of_ratio():
    mesh = build_circle_mesh(Circle(), 24, 1)
    base = forcing_profile("bump", mesh.surface)
    doubled = lambda t, x: 2.0 * base(t, x)
    grid = TimeGrid.from_mesh(mesh, 1.0, 0.5)
    pairs = [("udot", 2.0), ("lap", 2.0), ("fh", 2.0)]
    t1 = norm_series(solve_heat(mesh, base, grid, scheme=STATIONARY, cg_tol=1e-12), pairs)
    t2 = norm_series(solve_heat(mesh, doubled, grid, scheme=STATIONARY, cg_tol=1e-12), pairs)

    def ratio(series):
        return (
            spacetime_norm(*series, "udot", 2.0, 2.0)
            + spacetime_norm(*series, "lap", 2.0, 2.0)
        ) / spacetime_norm(*series, "fh", 2.0, 2.0)

    assert abs(ratio(t1) - ratio(t2)) <= 1e-10 * ratio(t1)


def test_timegrid_policy_constructor():
    mesh = build_circle_mesh(Circle(), 32, 1)
    grid = TimeGrid.from_mesh(mesh, 1.0, 0.5)
    assert grid.dt <= 0.5 * mesh.h**2 * (1 + 1e-12)
    assert grid.halved().n_steps == 2 * grid.n_steps


@pytest.mark.parametrize("scheme, integrator, match", [
    ("C", "be", "unknown scheme 'C'"),
    (SCHEME_A, "rk4", "unknown integrator 'rk4'"),
    (SCHEME_B, "bdf2", "only wired for the non-conservative forms"),
])
def test_solve_heat_rejects_bad_arguments_at_the_call(scheme, integrator, match):
    # the call raises: no stream is returned, so no node is drawn and no
    # load is evaluated
    mesh = build_circle_mesh(Circle(), 16, 1)
    loads = []

    def forcing(t, x):
        loads.append(t)
        return np.zeros(x.shape[:-1])

    with pytest.raises(ValueError, match=match):
        solve_heat(mesh, forcing, TimeGrid(1.0, 4), scheme=scheme, integrator=integrator,
                   cg_tol=1e-12)
    assert loads == []


def _norm_oracle(nodes, mesh0, field, q, moving):
    # per-node L^q norms of the nodes' coefficients, each on its own snapshot
    series = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        mesh = mesh0.evolved(node.t) if moving else mesh0
        geom = FeSpace(mesh).geometry()
        coeffs = getattr(node, field)
        values = element_values(coeffs, mesh.elements, geom)
        series[i] = values_norm_lq(values, coeffs, geom, q)
    return series


def _undrawable():
    raise AssertionError("a node was drawn")
    yield


def test_norm_series_records_exactly_the_requested_norms():
    mesh = build_circle_mesh(Circle(), 16, 1)
    forcing = forcing_profile("bump", mesh.surface)
    grid = TimeGrid(0.5, 10)
    pairs = [("udot", 1.0), ("fh", 2.0), ("fh", 3.0), ("fh", 2)]
    nodes = list(solve_heat(mesh, forcing, grid, scheme=STATIONARY, cg_tol=1e-12))
    times, norms = norm_series(nodes, pairs)
    assert times.tolist() == grid.times().tolist()
    assert list(norms) == [("udot", 1.0), ("fh", 2.0), ("fh", 3.0)]
    for (field, q), series in norms.items():
        oracle = _norm_oracle(nodes, mesh, field, q, moving=False)
        assert np.allclose(series, oracle, rtol=1e-13, atol=0.0)

    with pytest.raises(ValueError, match="unknown field 'v'"):
        norm_series(_undrawable(), [("v", 2.0)])
    # L^q with q < 1 is no norm
    for q in (0.5, -1.0, math.nan):
        with pytest.raises(InvalidExponent, match=f"got {q}"):
            norm_series(_undrawable(), [("u", 2.0), ("fh", q)])


@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B])
def test_moving_mesh_norms_are_taken_on_the_evolved_snapshot(scheme):
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(1.0, 8)
    pairs = [("u", 2.0), ("udot", 1.5), ("lap", 2.0), ("fh", 3.0)]
    nodes = list(solve_heat(mesh, forcing_profile("bump", surface), grid, scheme=scheme,
                            cg_tol=1e-12))
    _, norms = norm_series(nodes, pairs)
    for field, q in pairs:
        oracle = _norm_oracle(nodes, mesh, field, q, moving=True)
        assert np.allclose(norms[(field, q)], oracle, rtol=1e-13, atol=0.0)
        # the radius runs between 0.75 and 1.25, so the initial mesh gives
        # other norms
        frozen = _norm_oracle(nodes, mesh, field, q, moving=False)
        assert not np.allclose(norms[(field, q)], frozen, rtol=1e-3)


def test_norm_series_keeps_no_snapshot_while_the_next_is_built(monkeypatch):
    # a lone stream on a moving mesh, reduced by norm_series: when a step
    # evolves the mesh, no earlier evolved snapshot is alive
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(0.5, 6)
    snapshots, alive = [], []
    original = SurfaceMesh.evolved

    def watched(self, t):
        alive.append(sum(ref() is not None for ref in snapshots))
        snapshot = original(self, t)
        snapshots.append(weakref.ref(snapshot))
        return snapshot

    monkeypatch.setattr(SurfaceMesh, "evolved", watched)
    norm_series(solve_heat(mesh, forcing_profile("bump", surface), grid, scheme=SCHEME_A,
                           cg_tol=1e-12), [("u", 2.0)])
    assert alive == [0] * grid.n_steps


@pytest.mark.parametrize("scheme", [SCHEME_A, STATIONARY])
def test_solve_heat_steps_only_as_nodes_are_drawn(monkeypatch, scheme):
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(0.5, 6)
    iterations = _count_cg(monkeypatch)
    nodes = solve_heat(mesh, forcing_profile("bump", surface), grid, scheme=scheme, cg_tol=1e-12)
    assert iterations == []
    # the initial state solves for fh and lap, each step for u and fh
    first = next(nodes)
    assert len(iterations) == 2
    kept = [first, next(nodes)]
    assert len(iterations) == 4
    copies = [{name: getattr(node, name).copy() for name in FIELDS} for node in kept]
    rest = list(nodes)
    assert len(iterations) == 2 + 2 * grid.n_steps
    # one node per time node, on the mesh snapshot of its time, and the
    # stream never writes to a node it has handed over
    all_nodes = kept + rest
    assert [node.t for node in all_nodes] == grid.times().tolist()
    for node in all_nodes:
        assert node.mesh.time == (node.t if scheme == SCHEME_A else 0.0)
    for node, copy in zip(kept, copies):
        for name in FIELDS:
            assert np.array_equal(getattr(node, name), copy[name])


def _count_scaled_add(monkeypatch):
    from esfem.sparse import SparseMatrix

    calls = []
    original = SparseMatrix.scaled_add

    def counting(self, alpha, other):
        calls.append(alpha)
        return original(self, alpha, other)

    monkeypatch.setattr(SparseMatrix, "scaled_add", counting)
    return calls


def test_stationary_operator_is_built_once(monkeypatch):
    mesh = build_circle_mesh(Circle(), 16, 1)
    forcing = forcing_profile("osc-seed42", mesh.surface)
    grid = TimeGrid(0.5, 12)
    calls = _count_scaled_add(monkeypatch)
    list(solve_heat(mesh, forcing, grid, scheme=STATIONARY, cg_tol=1e-12))
    assert calls == [grid.dt]

    # BDF2: one backward Euler start-up system, then one BDF2 system
    calls.clear()
    list(solve_heat(mesh, forcing, grid, scheme=STATIONARY, integrator="bdf2", cg_tol=1e-12))
    assert calls == [grid.dt, 2.0 * grid.dt / 3.0]


def test_moving_operator_is_built_every_step(monkeypatch):
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(1.0, 6)
    calls = _count_scaled_add(monkeypatch)
    list(solve_heat(mesh, forcing_profile("bump", surface), grid, scheme=SCHEME_A, cg_tol=1e-12))
    assert calls == [grid.dt] * grid.n_steps


@pytest.mark.parametrize("order", range(EXTRAPOLATION_ORDER + 1))
def test_extrapolation_weights_reproduce_polynomials(order):
    # sum_j w[j] p(n - j) = p(n + 1) for every degree <= order, at any n
    weights = extrapolation_weights(order)
    assert weights.tolist() == [(-1) ** j * math.comb(order + 1, j + 1)
                                for j in range(order + 1)]
    rng = np.random.default_rng(order)
    for degree in range(order + 1):
        coeffs = rng.standard_normal(degree + 1)
        n = 0.37 + degree
        past = np.polyval(coeffs, n - np.arange(order + 1.0))
        expected = np.polyval(coeffs, n + 1.0)
        assert abs(weights @ past - expected) <= 1e-11 * max(1.0, abs(expected))
    # one degree more is not reproduced
    assert weights @ (-np.arange(order + 1.0)) ** (order + 1) != 1.0


def test_extrapolated_start_vectors_follow_a_short_history():
    # before EXTRAPOLATION_ORDER + 1 values are known the degree drops: a
    # field that is linear in t is extrapolated exactly from two values on
    past = timestepping._Extrapolation()
    assert past.extrapolate() is None
    past.push(np.array([1.0, 0.0]))
    assert past.extrapolate().tolist() == [1.0, 0.0]
    for k in range(1, 2 * EXTRAPOLATION_ORDER):
        past.push(np.array([1.0 + k, -2.0 * k]))
        assert past.extrapolate().tolist() == [2.0 + k, -2.0 * (k + 1)]


def _count_cg(monkeypatch):
    iterations = []
    original = timestepping.cg_solve

    def counting(*args, **kwargs):
        x, report = original(*args, **kwargs)
        iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(timestepping, "cg_solve", counting)
    return iterations


def test_extrapolated_start_vectors_save_cg_iterations(monkeypatch):
    # sphere L3, 74 stationary steps: 2 990 iterations when every solve
    # started from the previous solution, 1 898 from the degree-5 polynomial
    mesh = build_sphere_mesh(Sphere(), 3, 1)
    grid = TimeGrid.from_mesh(mesh, 1.0, 0.5)
    assert grid.n_steps == 74
    iterations = _count_cg(monkeypatch)
    for _ in solve_heat(mesh, forcing_profile("osc-seed42", mesh.surface), grid,
                        scheme=STATIONARY, cg_tol=1e-12):
        pass
    assert len(iterations) == 2 + 2 * grid.n_steps
    assert sum(iterations) <= 2100


@pytest.mark.parametrize("scheme, integrator", [
    pytest.param(SCHEME_A, "be", id="A"),
    pytest.param(SCHEME_B, "be", id="B"),
    pytest.param(STATIONARY, "be", id="stationary"),
    pytest.param(SCHEME_A, "bdf2", id="A-bdf2"),
    pytest.param(STATIONARY, "bdf2", id="stationary-bdf2"),
])
def test_homogeneous_solve_without_load_vectors(monkeypatch, scheme, integrator):
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    grid = TimeGrid(0.5, 12)
    u0 = 1.0 + 0.2 * np.random.default_rng(3).standard_normal(mesh.num_nodes)
    kwargs = dict(scheme=scheme, integrator=integrator, u0=u0, cg_tol=1e-12)
    zero = list(solve_heat(mesh, forcing_profile("zero", surface), grid, **kwargs))

    def no_load(*args, **kwargs):
        raise AssertionError("a homogeneous solve evaluated a load vector")

    monkeypatch.setattr(timestepping, "load_from_geometry", no_load)
    iterations = _count_cg(monkeypatch)
    none = list(solve_heat(mesh, None, grid, **kwargs))
    # no mass solve for fh: the initial lap solve, then one system solve per
    # step, and one lap solve per step in scheme B
    per_step = 2 if scheme == SCHEME_B else 1
    assert len(iterations) == 1 + per_step * grid.n_steps
    assert len(none) == len(zero) == grid.n_steps + 1
    for a, b in zip(none, zero):
        assert np.all(a.fh == 0.0)
        for name in ("u", "udot", "lap"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    pairs = [(name, 2.0) for name in FIELDS]
    none_norms, zero_norms = norm_series(none, pairs)[1], norm_series(zero, pairs)[1]
    assert np.all(none_norms[("fh", 2.0)] == 0.0)
    for key, series in zero_norms.items():
        assert np.array_equal(none_norms[key], series), key


def _shared_streams(mesh, forcing, grid, **kwargs):
    # the dt/2 stream's nodes, and those of the dt stream that takes its
    # frames from the even ones
    fine = []

    def even_nodes():
        for node in solve_heat(mesh, forcing, grid.halved(), **kwargs):
            fine.append(node)
            if len(fine) % 2:
                yield node

    coarse = list(solve_heat(mesh, forcing, grid, frames=even_nodes(), **kwargs))
    assert len(fine) == 2 * len(coarse) - 1 == 2 * grid.n_steps + 1
    return fine, coarse


def _assert_nodes_close(nodes, reference, exact):
    # the fields named in exact bit for bit, the others to solver tolerance
    assert [node.t for node in nodes] == [node.t for node in reference]
    for node, ref in zip(nodes, reference):
        assert node.mesh.time == ref.mesh.time
        for name in FIELDS:
            got, want = getattr(node, name), getattr(ref, name)
            if name in exact:
                assert np.array_equal(got, want), (name, node.t)
            else:
                scale = max(float(np.abs(want).max()), 1e-300)
                assert np.abs(got - want).max() <= 1e-10 * scale, (name, node.t)


@pytest.mark.parametrize("profile", ["bump", None])
@pytest.mark.parametrize("scheme", [SCHEME_A, SCHEME_B, STATIONARY])
def test_streams_on_nested_grids_share_their_frames(scheme, profile):
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    forcing = None if profile is None else forcing_profile(profile, surface)
    grid = TimeGrid(0.5, 6)
    u0 = np.cos(3.0 * mesh.nodes[:, 0])
    alone = [list(solve_heat(mesh, forcing, g, scheme=scheme, u0=u0, cg_tol=1e-12))
             for g in (grid.halved(), grid)]
    fine, coarse = _shared_streams(mesh, forcing, grid, scheme=scheme, u0=u0, cg_tol=1e-12)
    # the dt/2 stream builds every frame as on its own; the dt stream takes
    # the snapshot, geometry, M, A and b of each of its nodes from it
    _assert_nodes_close(fine, alone[0], FIELDS)
    for node, twin in zip(coarse, fine[::2]):
        for name in ("mesh", "geom", "mass", "stiff", "b"):
            assert getattr(node, name) is getattr(twin, name), (name, node.t)
    exact = {"u", "udot"}
    if profile is None:
        exact = set(FIELDS)  # fh = 0 and nothing is re-solved
    elif scheme == SCHEME_B:
        exact.add("lap")  # its own mass solve, from M, A and u alone
    _assert_nodes_close(coarse, alone[1], exact)


def test_frames_must_be_nodes_of_mesh0_at_the_stream_times():
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    forcing = forcing_profile("bump", surface)
    grid = TimeGrid(0.5, 6)
    other_mesh = build_sphere_mesh(surface, 1, 1)

    def even(nodes):
        return (node for k, node in enumerate(nodes) if k % 2 == 0)

    def stream(mesh, grid, scheme, frames=None):
        return solve_heat(mesh, forcing, grid, scheme, cg_tol=1e-12, frames=frames)

    for frames, scheme in [
        (even(stream(other_mesh, grid.halved(), SCHEME_A)), SCHEME_A),  # another mesh
        (stream(mesh, grid.halved(), SCHEME_A), SCHEME_A),  # odd nodes too
        (even(stream(mesh, grid.halved(), STATIONARY)), SCHEME_A),
        (even(stream(mesh, grid.halved(), SCHEME_A)), STATIONARY),
        (itertools.islice(even(stream(mesh, grid.halved(), SCHEME_A)), 3), SCHEME_A),
    ]:
        with pytest.raises(ValueError, match="frames must yield a node at t"):
            list(stream(mesh, grid, scheme, frames))
    # scheme B moves the mesh as A does, so its frames are the same
    nodes = stream(mesh, grid, SCHEME_B, even(stream(mesh, grid.halved(), SCHEME_A)))
    assert len(list(nodes)) == grid.n_steps + 1


def test_shared_scheme_identity_holds_on_the_nodes_own_operators():
    # a shared ellipsoid_flow scheme-A cell: at every node of both streams
    # M udot + A u = b to solver tolerance, and the node's M, A and b are
    # those of a fresh assembly and load on mesh0 evolved to t
    surface = EllipsoidFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    forcing = forcing_profile("osc-seed7", surface)
    grid = TimeGrid(0.5, 5)
    fine, coarse = _shared_streams(mesh, forcing, grid, scheme=SCHEME_A, cg_tol=1e-12)
    for node in fine + coarse:
        resid = node.mass.matvec(node.udot) + node.stiff.matvec(node.u) - node.b
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(node.b), node.t
        snapshot = mesh.evolved(node.t)
        space = FeSpace(snapshot)
        assert np.array_equal(node.mesh.nodes, snapshot.nodes), node.t
        assert np.array_equal(dense(node.mass), dense(assemble_mass(space))), node.t
        assert np.array_equal(dense(node.stiff), dense(assemble_stiffness(space))), node.t
        b = load_from_geometry(space.geometry(), snapshot.elements, space.num_dofs,
                               forcing, t=node.t)
        assert np.array_equal(node.b, b), node.t


def test_shared_frames_are_built_once_per_fine_node(monkeypatch):
    # the moving L3 cell of maxreg: 74 dt steps and 148 dt/2 steps
    surface = EllipsoidFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 3, 1)
    forcing = forcing_profile("osc-seed42", surface)
    grid = TimeGrid.from_mesh(mesh, 1.0, 0.5)
    assert grid.n_steps == 74
    evolved, loads, solves = [], [], []
    original_evolved = SurfaceMesh.evolved
    original_load = timestepping.load_from_geometry
    original_cg = timestepping.cg_solve

    def counting_evolved(self, t):
        evolved.append(t)
        return original_evolved(self, t)

    def counting_load(*args, **kwargs):
        loads.append(kwargs["t"])
        return original_load(*args, **kwargs)

    def recording_cg(*args, **kwargs):
        x, report = original_cg(*args, **kwargs)
        solves.append((drawing_fine, kwargs.get("x0"), report.iterations))
        return x, report

    monkeypatch.setattr(SurfaceMesh, "evolved", counting_evolved)
    monkeypatch.setattr(timestepping, "load_from_geometry", counting_load)
    monkeypatch.setattr(timestepping, "cg_solve", recording_cg)
    fine = solve_heat(mesh, forcing, grid.halved(), scheme=SCHEME_A, cg_tol=1e-12)
    drawing_fine = False
    taken = []

    def even_nodes():
        nonlocal drawing_fine
        for k in range(2 * grid.n_steps + 1):
            drawing_fine = True
            node = next(fine)
            drawing_fine = False
            if k % 2 == 0:
                taken.append(node.fh)
                yield node
            del node

    coarse = solve_heat(mesh, forcing, grid, frames=even_nodes(), scheme=SCHEME_A, cg_tol=1e-12)
    for k in range(grid.n_steps + 1):
        before = len(solves)
        next(coarse)
        drawn = [(x0, its) for in_fine, x0, its in solves[before:] if not in_fine]
        # the fh solve starts from the taken node's fh, which already meets
        # (or nearly meets) the coarse stream's tolerance
        fh_solves = [its for x0, its in drawn if x0 is taken[k]]
        assert len(fh_solves) == 1 and fh_solves[0] <= 1, (k, drawn)
    fine_solves = sum(in_fine for in_fine, _, _ in solves)
    coarse_solves = len(solves) - fine_solves
    # one snapshot and one load per dt/2 node: 148 + 1, not 222 + 2
    assert len(evolved) == 2 * grid.n_steps
    assert loads == grid.halved().times().tolist()
    # still two solves per step and two for the initial node, per stream
    assert fine_solves == 2 + 2 * 2 * grid.n_steps
    assert coarse_solves == 2 + 2 * grid.n_steps
