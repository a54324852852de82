import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from esfem import greens
from esfem.errors import BudgetExceeded, HTooLarge, InsufficientSamples, MeshMismatch
from esfem.fem import (
    DISCRETE,
    LIFTED,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    block_geometry,
    default_quad_order,
    delta_load,
    discrete_delta,
    radial_inverse_lift,
)
from esfem.greens import (
    build_dyadic,
    delta_consistency,
    delta_decay_fit,
    discrete_green,
    dyadic_report,
    green_decay_study,
    kernel_difference_l1,
)
from esfem.meshing import SurfaceMesh, build_circle_mesh, build_sphere_mesh
from esfem.quadrature import reference_rule
from esfem.surfaces import Circle, Sphere, Surface
from esfem.timestepping import NormSeries, TimeGrid, norm_series
from oracles import (
    coarse_at_quadrature,
    jittered_circle_mesh,
    lift_quadrature,
    point_interpolation,
    smallest_nonzero_eigenvalue,
    whole_difference_l1,
)


@pytest.fixture(scope="module")
def circle_kernel():
    mesh = build_circle_mesh(Circle(), 32, 1)
    grid = TimeGrid.from_mesh(mesh, 1.0, 0.5)
    return mesh, list(discrete_green(mesh, mesh.nodes[0], grid))


def test_kernel_initial_slice_is_delta(circle_kernel):
    mesh, nodes = circle_kernel
    space = FeSpace(mesh)
    delta = discrete_delta(space, mesh.nodes[0])
    assert nodes[0].t == 0.0
    assert np.abs(nodes[0].u - delta).max() <= 1e-13


def test_kernel_total_mass_conserved(circle_kernel):
    mesh, nodes = circle_kernel
    mass = assemble_mass(FeSpace(mesh))
    ones = np.ones(mesh.num_nodes)
    for node in nodes[::50]:
        total = float(node.u @ mass.matvec(ones))
        assert abs(total - 1.0) <= 1e-10


def test_kernel_flattens_to_average(circle_kernel):
    mesh, nodes = circle_kernel
    mass = assemble_mass(FeSpace(mesh))
    ones = np.ones(mesh.num_nodes)
    area = float(ones @ mass.matvec(ones))
    deviations = []
    for i in (0, len(nodes) // 2, len(nodes) - 1):
        dev = nodes[i].u - 1.0 / area
        deviations.append(math.sqrt(float(dev @ mass.matvec(dev))))
    assert deviations[0] > deviations[1] > deviations[2]
    # exponential-in-t fit over the tail has negative slope
    times, norms = norm_series(nodes, [("udot", 1.0)])
    tail = norms[("udot", 1.0)]
    sel = times >= 0.5
    slope = np.polyfit(times[sel], np.log(tail[sel] + 1e-300), 1)[0]
    assert slope < 0


def test_kernel_symmetry_spot_check():
    mesh = build_circle_mesh(Circle(), 24, 1)
    grid = TimeGrid(0.25, 64)
    space = FeSpace(mesh)
    rng = np.random.default_rng(0)
    pairs = [(mesh.nodes[i], mesh.nodes[j])
             for i, j in rng.integers(0, mesh.num_nodes, size=(10, 2))]
    for x0, x1 in pairs:
        *_, k0 = discrete_green(mesh, x0, grid)
        *_, k1 = discrete_green(mesh, x1, grid)
        e0 = delta_load(space, x0)
        e1 = delta_load(space, x1)
        a = float(e1 @ k0.u)
        b = float(e0 @ k1.u)
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-12)


def test_delta_consistency_identity_fixture():
    # a surface whose projection is the identity: the lifted space coincides
    # with the discrete one, so the two point sources must agree
    class IdentitySurface(Surface):
        kind = "identity"

        def __init__(self):
            super().__init__(dimension=1)

        def project(self, t, x):
            return np.asarray(x, dtype=float)

        def project_with_jacobian(self, t, x):
            x = np.asarray(x, dtype=float)
            return x, np.broadcast_to(np.eye(2), x.shape + (2,)).copy()

        def normal(self, t, x):
            x = np.asarray(x, dtype=float)
            return x / np.linalg.norm(x, axis=-1, keepdims=True)

        def geodesic_distance(self, t, x, y):
            return np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)

    base = build_circle_mesh(Circle(), 16, 1)
    surface = IdentitySurface()
    mesh = SurfaceMesh(surface, 1, base.nodes, base.elements)
    space = FeSpace(mesh, DISCRETE)
    lifted = FeSpace(mesh, LIFTED)
    out = delta_consistency(space, lifted, mesh.nodes[3])
    assert out[1]["difference_norm"] <= 1e-11
    assert out[2]["difference_norm"] <= 1e-11


def test_delta_consistency_requires_shared_mesh():
    m1 = build_circle_mesh(Circle(), 16, 1)
    m2 = build_circle_mesh(Circle(), 16, 1)
    with pytest.raises(MeshMismatch):
        delta_consistency(FeSpace(m1), FeSpace(m2, LIFTED), m1.nodes[0])
    with pytest.raises(MeshMismatch):
        delta_consistency(FeSpace(m1), FeSpace(m1, DISCRETE), m1.nodes[0])


@pytest.mark.parametrize("degree", [1, 2])
def test_delta_consistency_order(degree):
    # degree 2 needs the jittered family and its asymptotic range; on the
    # uniform circle family the consistency error superconverges past k+1
    levels = (8, 16, 32, 64) if degree == 1 else (32, 64, 128, 256)
    jitter = 0.0 if degree == 1 else 0.5
    ratios, hs = [], []
    for n in levels:
        mesh = jittered_circle_mesh(n, degree, jitter)
        space = FeSpace(mesh)
        lifted = FeSpace(mesh, LIFTED)
        x0 = mesh.nodes[1]
        cons = delta_consistency(space, lifted, x0)
        out, out2 = cons[1], cons[2]
        assert out["ratio"] / out2["ratio"] <= 10
        assert out2["ratio"] / out["ratio"] <= 10
        ratios.append(out["ratio"])
        hs.append(mesh.h)
    order = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
    assert abs(order - (degree + 1)) <= 0.3, order


def test_delta_decay_fit_stable_under_refinement():
    lengths = []
    for n in (48, 96):
        mesh = build_circle_mesh(Circle(), n, 1)
        fit = delta_decay_fit(FeSpace(mesh), mesh.nodes[0])
        assert fit["slope"] <= -0.3
        assert fit["r_squared"] >= 0.9
        lengths.append(fit["decay_length"])
    assert abs(lengths[1] - lengths[0]) <= 0.2 * lengths[0]


def test_delta_decay_needs_enough_samples():
    mesh = build_circle_mesh(Circle(), 6, 1)
    with pytest.raises(InsufficientSamples):
        delta_decay_fit(FeSpace(mesh), mesh.nodes[0])


def test_green_decay_study_matches_eigenvalue():
    mesh = build_circle_mesh(Circle(), 32, 1)
    fit = green_decay_study(mesh, TimeGrid.from_mesh(mesh, t_end=3.0))
    assert fit.rate > 0
    assert fit.r_squared >= 0.95
    space = FeSpace(mesh)
    lam = smallest_nonzero_eigenvalue(assemble_mass(space), assemble_stiffness(space))
    assert abs(fit.rate - lam) <= 0.10 * lam


def _polyfit_agrees(fit, times, values):
    slope, intercept = np.polyfit(times, np.log(values), 1)
    assert abs(fit[0] - slope) <= 1e-12 * abs(slope)
    assert abs(fit[1] - intercept) <= 1e-12 * abs(intercept)


def test_log_linear_fit_matches_polyfit():
    # the closed form against np.polyfit's least squares: on an exact line,
    # and on both levels' decay envelopes of the greens-kernel study
    # (sphere P1 L1 and L3 on [0, 3], dt = 0.5 h^2)
    times = np.linspace(1.0, 3.0, 11)
    values = np.exp(0.75 - 1.8 * times)
    fit = greens._log_linear_fit(times, values)
    _polyfit_agrees(fit, times, values)
    assert abs(fit[0] + 1.8) <= 1e-14 and abs(fit[1] - 0.75) <= 1e-14
    assert abs(fit[2] - 1.0) <= 1e-14
    for level in (1, 3):
        mesh = build_sphere_mesh(Sphere(), level, 1)
        decay = green_decay_study(mesh, TimeGrid.from_mesh(mesh, t_end=3.0))
        _polyfit_agrees(greens._log_linear_fit(decay.times, decay.values),
                        decay.times, decay.values)


def test_green_decay_study_takes_norms_in_its_fit_window_only(monkeypatch):
    # every node is drawn, but only the nodes at t >= 1 are reduced; the
    # fit window's norms are those of the whole series
    mesh = build_circle_mesh(Circle(), 32, 1)
    grid = TimeGrid.from_mesh(mesh, t_end=3.0)
    x0 = mesh.nodes[0]
    times, norms = norm_series(discrete_green(mesh, x0, grid), [("udot", 1.0)])
    window = times >= 1.0
    assert 0 < window.sum() < len(times)
    drawn, reduced = [], []

    def counted(nodes):
        for node in nodes:
            drawn.append(node.t)
            yield node

    windowed = norm_series(counted(discrete_green(mesh, x0, grid)), [("udot", 1.0)],
                           t_min=1.0)
    assert drawn == list(times)
    assert np.array_equal(windowed[0], times[window])
    assert np.array_equal(windowed[1][("udot", 1.0)], norms[("udot", 1.0)][window])

    add = NormSeries.add

    def counted_add(self, node):
        reduced.append(node.t)
        add(self, node)

    monkeypatch.setattr(NormSeries, "add", counted_add)
    fit = green_decay_study(mesh, grid)
    assert reduced == greens.SOURCE_COUNT * list(times[window])
    assert np.array_equal(fit.times, times[window])


def test_kernel_difference_same_mesh_is_zero():
    mesh = build_circle_mesh(Circle(), 16, 1)
    grid = TimeGrid(0.5, 64)
    out = kernel_difference_l1(mesh, mesh, mesh.nodes[0], grid)
    assert out["l1_difference"] <= 1e-12


def test_kernel_difference_requires_finer_reference():
    coarse = build_circle_mesh(Circle(), 16, 1)
    fine = build_circle_mesh(Circle(), 32, 1)
    fine.surface = coarse.surface
    with pytest.raises(MeshMismatch):
        kernel_difference_l1(coarse, fine, coarse.nodes[0], TimeGrid(0.5, 8))


def test_kernel_difference_caps_the_fine_dofs(monkeypatch):
    coarse = build_circle_mesh(Circle(), 8, 1)
    fine = build_circle_mesh(coarse.surface, 64, 1)
    monkeypatch.setattr(greens, "MAX_FINE_DOFS", 63)
    with pytest.raises(BudgetExceeded, match="64 dofs > cap 63"):
        kernel_difference_l1(coarse, fine, coarse.nodes[0], TimeGrid(0.5, 8))


def test_dyadic_report_partitions_spacetime():
    # the h < 1/(4 C) precondition needs a fine curve mesh at C = 16
    mesh = build_circle_mesh(Circle(), 512, 1)
    grid = TimeGrid(1.0, 400)
    nodes = discrete_green(mesh, mesh.nodes[0], grid)
    table = dyadic_report(mesh, nodes, mesh.nodes[0], c_star=16.0)
    total = table["total_measure"]
    space_measure = float(
        np.ones(mesh.num_nodes)
        @ assemble_mass(FeSpace(mesh)).matvec(np.ones(mesh.num_nodes))
    )
    assert abs(total - space_measure * 1.0) <= 1e-10 * space_measure
    js = table["j_star"]
    assert js == round(math.log2(1.0 / (16.0 * mesh.h)))
    assert js >= 2
    # innermost + Q_0..Q_js rows present
    assert len(table["rows"]) == js + 2
    # kernel energy concentrates near the source: the recorded profile decays
    # outward from the innermost set (coarse sanity, no constants asserted)
    values = [row["field_l2"] for row in table["rows"]]
    assert values[-1] > 0
    assert values[-1] > values[0]

    # on a longer grid with the same step the report reads the same nodes up
    # to t = 1, and it stops drawing at the first node past t = 1
    drawn = []

    def counted(nodes):
        for node in nodes:
            drawn.append(node.t)
            yield node

    longer = discrete_green(mesh, mesh.nodes[0], TimeGrid(1.25, 500))
    assert dyadic_report(mesh, counted(longer), mesh.nodes[0], c_star=16.0) == table
    assert len(drawn) == 402 and drawn[-1] > 1.0


def test_dyadic_rejects_coarse_mesh():
    mesh = build_circle_mesh(Circle(), 8, 1)
    with pytest.raises(HTooLarge):
        build_dyadic(mesh, mesh.nodes[0], c_star=16.0)
    # the report checks before it draws a node, so no step runs
    nodes = discrete_green(mesh, mesh.nodes[0], TimeGrid(1.0, 4))
    with pytest.raises(HTooLarge):
        dyadic_report(mesh, nodes, mesh.nodes[0], c_star=16.0)
    assert next(nodes).t == 0.0


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dyadic_report_memory_does_not_grow_with_the_steps():
    # sphere L3 has h = 0.165, so c_star = 1 passes h < 1/(4 c_star); stored
    # u and udot series would grow the peak 3.8x from 100 to 400 steps
    mesh = build_sphere_mesh(Sphere(), 3, 1)
    x0 = mesh.nodes[0]

    def report(steps):
        nodes = discrete_green(mesh, x0, TimeGrid(1.0, steps))
        return dyadic_report(mesh, nodes, x0, c_star=1.0)

    report(10)  # fills the mesh's caches
    short, long = _peak_bytes(lambda: report(100)), _peak_bytes(lambda: report(400))
    assert long < 1.1 * short, (short, long)


def test_kernel_difference_memory_does_not_grow_with_the_steps():
    # on curves, where the inverse lift needs less memory than on spheres:
    # stored udot series would grow the peak 1.7x from 100 to 400 steps
    surface = Circle()
    coarse = build_circle_mesh(surface, 16, 1)
    fine = build_circle_mesh(surface, 64, 1)

    def difference(steps):
        return kernel_difference_l1(coarse, fine, coarse.nodes[0], TimeGrid(0.5, steps))

    difference(4)  # fills the meshes' caches
    short, long = _peak_bytes(lambda: difference(100)), _peak_bytes(lambda: difference(400))
    assert long < 1.1 * short, (short, long)


INTERPOLATION_PAIRS = {
    # coarse mesh, fine mesh; the circles with 20 and 90 elements do not nest
    "sphere-P1": lambda: (build_sphere_mesh(Sphere(), 1, 1), build_sphere_mesh(Sphere(), 2, 1)),
    "sphere-P2": lambda: (build_sphere_mesh(Sphere(), 1, 2), build_sphere_mesh(Sphere(), 2, 2)),
    "circle-P2-20-90": lambda: (build_circle_mesh(Circle(), 20, 2),
                                build_circle_mesh(Circle(), 90, 2)),
}


@pytest.mark.parametrize("case", sorted(INTERPOLATION_PAIRS))
def test_point_interpolation_matches_gathered_sum(case):
    # the coarse-kernel map of kernel_difference_l1 against the plain formula
    # sum_k phi_k(ref_p) u[element_p, k], on lifted fine quadrature points,
    # given flat and in rows of one fine element each
    coarse, fine = INTERPOLATION_PAIRS[case]()
    geom = FeSpace(fine, LIFTED).geometry()
    n_fine, n_quad = geom.weights.shape
    elems, refs = radial_inverse_lift(coarse, geom.points.reshape(n_fine * n_quad, -1))
    rows = elems.reshape(n_fine, n_quad)
    nested = bool((rows == rows[:, :1]).all())
    # the spheres nest, so each row takes the per-row gather; the circles do
    # not, so their rows fall back to the per-point gather
    assert nested == case.startswith("sphere")
    per_point = point_interpolation(coarse, elems, refs)
    per_row = point_interpolation(coarse, rows, refs.reshape(n_fine, n_quad, -1))
    sv = coarse.reference.shape_values(refs)
    gather = coarse.elements[elems]
    rng = np.random.default_rng(len(case))
    for _ in range(3):
        u = rng.standard_normal(coarse.num_nodes)
        expected = np.sum(sv * u[gather], axis=1)
        got = per_row(u)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        # the same products summed in the same order on both paths
        assert np.array_equal(got, per_point(u))


def _circle_with_moved_vertex(n_elements, vertex, shift):
    # a P1 circle mesh whose one vertex moves along the circle by shift
    # elements, so the finer meshes that nest in the uniform one cross its
    # elements near that vertex
    mesh = build_circle_mesh(Circle(), n_elements, 1)
    theta = 2.0 * math.pi * np.arange(n_elements) / n_elements
    theta[vertex] += 2.0 * math.pi * shift / n_elements
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return SurfaceMesh(mesh.surface, 1, nodes, mesh.elements)


TABLE_PAIRS = {
    # coarse mesh, fine mesh, quadrature points per block (None: the module's)
    "sphere-P1-L1-L3": lambda: (build_sphere_mesh(Sphere(), 1, 1),
                                build_sphere_mesh(Sphere(), 3, 1), None),
    "sphere-P2-L1-L3": lambda: (build_sphere_mesh(Sphere(), 1, 2),
                                build_sphere_mesh(Sphere(), 3, 2), None),
    # E_c does not divide E_f: the per-point tables from the first block on
    "circle-P2-20-90": lambda: (build_circle_mesh(Circle(), 20, 2),
                                build_circle_mesh(Circle(), 90, 2), 60),
    # E_c divides E_f, but fine elements 30 and 31 cross coarse element 14's
    # moved end: the blocks before them fill the per-element tables, which
    # then turn into per-point tables
    "circle-P1-20-40-moved": lambda: (_circle_with_moved_vertex(20, 15, 0.3),
                                      build_circle_mesh(Circle(), 40, 1), 48),
}


def _blocked_difference(case, monkeypatch, eval_elements=None):
    # the pair of TABLE_PAIRS and its kernel difference, set up in the
    # pair's blocks and evaluated eval_elements fine elements at a time
    # (None: the module's block)
    coarse, fine, block = TABLE_PAIRS[case]()
    fine.surface = coarse.surface
    if block is not None:
        monkeypatch.setattr(greens, "_QUAD_BLOCK", block)
    order = default_quad_order(fine.degree, fine.dimension, LIFTED)
    if eval_elements is not None:
        n_quad = len(reference_rule(fine.dimension, order).weights)
        monkeypatch.setattr(greens, "_EVAL_BLOCK", eval_elements * n_quad)
    return coarse, fine, order, greens._LiftedDifference(coarse, fine, order)


@pytest.mark.parametrize("case", sorted(TABLE_PAIRS))
def test_blocked_tables_match_the_whole_mesh_tables(case, monkeypatch):
    # the tables kernel_difference_l1 fills block by block against the
    # lifted geometry of the whole fine mesh and the inverse lift of its
    # points in one call.  BLAS may round the element map of a block of
    # rows differently from the same rows of the whole mesh (the sphere
    # points move by an ulp), so the geometry is compared to 1e-15 and the
    # tables, which the inverse lift makes sensitive to the points, are
    # compared at the same points, bit for bit: the stored shape rows
    # k >= 1 and coarse nodes against those of the one lift
    coarse, fine, order, difference = _blocked_difference(case, monkeypatch, eval_elements=7)
    assert not any(tag == LIFTED for tag, _ in getattr(fine, "_geom_cache", {}))
    geom = FeSpace(fine, LIFTED).geometry()
    n_fine, n_quad = geom.weights.shape
    step = max(1, greens._QUAD_BLOCK // n_quad)
    assert step < n_fine  # more than one block
    weights = difference.weights
    assert np.abs(weights - geom.weights.reshape(-1)).max() <= 1e-15 * geom.weights.max()
    assert np.array_equal(difference.fine_map[:-1], geom.shape_values.T)
    assert (difference.fine_map[-1] == -1.0).all()
    blocks = [block_geometry(fine, LIFTED, order, lo, min(lo + step, n_fine))
              for lo in range(0, n_fine, step)]
    points = np.concatenate([b.points for b in blocks])
    assert np.abs(points - geom.points).max() <= 1e-15 * np.abs(geom.points).max()
    assert np.array_equal(np.concatenate([b.weights for b in blocks]).reshape(-1), weights)
    assert difference.nested == case.startswith("sphere")
    at_points = SimpleNamespace(points=points, weights=geom.weights,
                                shape_values=geom.shape_values)
    elems, refs = lift_quadrature(coarse, at_points)
    rows = coarse.reference.shape_values(refs)[..., 1:]
    if difference.nested:
        assert (elems == elems[:, :1]).all()
        assert np.array_equal(difference.table,
                              rows.reshape(n_fine, n_quad, -1).transpose(0, 2, 1))
        assert np.array_equal(difference.gather, coarse.elements[elems[:, 0]])
    else:
        assert np.array_equal(difference.table, rows.T)
        assert np.array_equal(difference.gather, coarse.elements[elems.reshape(-1)].T)
    # with a zero fine vector the difference is the L^1 norm of the coarse
    # values c_0 + sum_{k>=1} (c_k - c_0) phi_k, c_0 taken through the fine
    # matmul on the nested layout, against the plain sum_k c_k phi_k, which
    # rounds differently, at the same points; the evaluation blocks cover
    # the fine mesh in more than one piece
    assert difference.block < n_fine
    expected_at = coarse_at_quadrature(coarse, at_points)
    zero = np.zeros(fine.num_nodes)
    rng = np.random.default_rng(len(case))
    for _ in range(3):
        u = rng.standard_normal(coarse.num_nodes)
        expected = whole_difference_l1(fine, at_points, expected_at, zero, u)
        assert abs(difference(zero, u) - expected) <= 1e-14 * expected


@pytest.mark.parametrize("eval_elements", [None, 7], ids=["module-block", "7-elements"])
@pytest.mark.parametrize("case", sorted(TABLE_PAIRS))
def test_blocked_difference_matches_the_whole_mesh_difference(case, eval_elements,
                                                              monkeypatch):
    # the L^1 difference at one time node, summed block by block over the
    # fine elements, against one pass over the whole lifted fine geometry
    # with its points inverse-lifted in one call; the sum runs in another
    # order and the points may move by an ulp (see above)
    coarse, fine, _, difference = _blocked_difference(case, monkeypatch, eval_elements)
    geom = FeSpace(fine, LIFTED).geometry()
    coarse_at = coarse_at_quadrature(coarse, geom)
    rng = np.random.default_rng(len(case))
    for _ in range(3):
        fine_u = rng.standard_normal(fine.num_nodes)
        coarse_u = rng.standard_normal(coarse.num_nodes)
        expected = whole_difference_l1(fine, geom, coarse_at, fine_u, coarse_u)
        assert abs(difference(fine_u, coarse_u) - expected) <= 1e-14 * expected


def test_kernel_difference_memory_is_bounded_by_its_tables():
    # sphere L1/L3 at the lifted order 8: 1 280 fine elements, 81 points
    # each.  The tables, two coarse shape rows and the weight per point,
    # come to 2.5 MB and the traced peak to 3.35 MB (4.17 MB with all three
    # shape rows): the set-up blocks and the evaluation's scratch, sized to
    # a block of elements, each add under 1 MB to the tables.  No lifted
    # geometry is cached.
    surface = Sphere()
    coarse = build_sphere_mesh(surface, 1, 1)
    fine = build_sphere_mesh(surface, 3, 1)

    def difference():
        return kernel_difference_l1(coarse, fine, coarse.nodes[0], TimeGrid(0.05, 4))

    difference()  # fills the meshes' discrete caches
    assert _peak_bytes(difference) < 3.9e6
    for mesh in (coarse, fine):
        assert not any(tag == LIFTED for tag, _ in mesh._geom_cache)
