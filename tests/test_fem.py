import math
import tracemalloc

import numpy as np
import pytest

from esfem import fem
from esfem.errors import (
    DimensionMismatch,
    InvalidExponent,
    NonConvergence,
    PointNotOnMesh,
    SingularElement,
)
from esfem.fem import (
    DISCRETE,
    LIFTED,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    delta_load,
    discrete_delta,
    discrete_laplacian,
    element_geometry,
    element_point,
    l2_project,
    load_from_geometry,
    locate_point,
    norm_lq,
    norm_w1q,
    radial_inverse_lift,
    ritz_project,
)
from esfem.meshing import SurfaceMesh, build_circle_mesh, build_sphere_mesh
from esfem.quadrature import reference_rule
from esfem.surfaces import Circle, EllipsoidFlow, ScaledSphereFlow, Sphere
from oracles import (
    dense,
    jittered_circle_mesh,
    parametric_quadrature,
    prefactors,
    smallest_nonzero_eigenvalue,
)

ICO_EDGE = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))


@pytest.fixture(scope="module")
def circle64():
    return build_circle_mesh(Circle(), 64, 1)


@pytest.fixture(scope="module")
def sphere2():
    return build_sphere_mesh(Sphere(), 2, 1)


def sin_theta(x):
    return x[..., 1] / np.hypot(x[..., 0], x[..., 1])


def grad_sin_theta(x):
    r2 = x[..., 0] ** 2 + x[..., 1] ** 2
    g = np.empty_like(x)
    g[..., 0] = -x[..., 0] * x[..., 1] / r2**1.5
    g[..., 1] = x[..., 0] ** 2 / r2**1.5
    return g


def test_partition_of_unity(circle64, sphere2):
    for mesh in (circle64, sphere2):
        geom = FeSpace(mesh).geometry()
        sums = geom.shape_values.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-13


def test_mass_circle_polygon_perimeter(circle64):
    mass = assemble_mass(FeSpace(circle64))
    one = np.ones(mass.n)
    assert abs(one @ mass.matvec(one) - 128 * math.sin(math.pi / 64)) <= 1e-12


def test_mass_lifted_circle_exact_measure(circle64):
    mass = assemble_mass(FeSpace(circle64, LIFTED))
    one = np.ones(mass.n)
    assert abs(one @ mass.matvec(one) - 2 * math.pi) <= 1e-12


def test_mass_icosahedron_closed_form():
    mesh = build_sphere_mesh(Sphere(), 0, 1)
    mass = assemble_mass(FeSpace(mesh))
    one = np.ones(mass.n)
    expected = 5.0 * math.sqrt(3.0) * ICO_EDGE**2
    assert abs(one @ mass.matvec(one) - expected) <= 1e-12


def test_stiffness_kernel_contains_constants(circle64, sphere2):
    for mesh in (circle64, sphere2):
        stiff = assemble_stiffness(FeSpace(mesh))
        one = np.ones(stiff.n)
        assert np.abs(stiff.matvec(one)).max() <= 1e-13


def test_stiffness_smallest_eigenvalue_circle(circle64):
    space = FeSpace(circle64)
    lam = smallest_nonzero_eigenvalue(
        assemble_mass(space), assemble_stiffness(space)
    )
    assert abs(lam - 1.0) <= 2.0 * circle64.h**2


def test_stiffness_smallest_eigenvalue_sphere(sphere2):
    space = FeSpace(sphere2)
    lam = smallest_nonzero_eigenvalue(
        assemble_mass(space), assemble_stiffness(space)
    )
    assert abs(lam - 2.0) / 2.0 <= 4.0 * sphere2.h**2


# --- geometry and assembly against per-point quadrature -------------------

def quadrature_oracle(mesh, tag, order):
    """Tables and local matrices with every quantity evaluated at every
    quadrature point of every element, affine or not."""
    rule = reference_rule(mesh.dimension, order)
    sv = mesh.reference.shape_values(rule.points)
    sg = mesh.reference.shape_gradients(rule.points)
    coords = np.take(mesh.nodes, mesh.elements, axis=0)
    points = np.einsum("ql,eld->eqd", sv, coords)
    jac = np.einsum("qlm,eld->eqdm", sg, coords)
    if tag == LIFTED:
        flat = points.reshape(-1, points.shape[-1])
        dq = mesh.surface.project_with_jacobian(mesh.time, flat)[1]
        jac = np.einsum("eqij,eqjm->eqim", dq.reshape(points.shape + dq.shape[-1:]), jac)
        points = mesh.surface.project(mesh.time, flat).reshape(points.shape)
    g = np.einsum("eqdi,eqdj->eqij", jac, jac)
    weights = rule.weights * np.sqrt(np.linalg.det(g))
    tgrad = np.einsum("eqdm,eqmn,qln->eqld", jac, np.linalg.inv(g), sg)
    mass = np.einsum("eq,qi,qj->eij", weights, sv, sv)
    stiff = np.einsum("eq,eqid,eqjd->eij", weights, tgrad, tgrad)
    return points, weights, tgrad, mass, stiff


def dense_from_local(mesh, local):
    n = mesh.num_nodes
    out = np.zeros((n, n))
    el = mesh.elements
    np.add.at(out, (el[:, :, None], el[:, None, :]), local)
    return out


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


ORACLE_MESHES = {
    "circle": lambda k: build_circle_mesh(Circle(), 12, k),
    "sphere": lambda k: build_sphere_mesh(Sphere(), 1, k),
    "ellipsoid_flow": lambda k: build_sphere_mesh(EllipsoidFlow(), 1, k).evolved(0.4),
    "scaled_sphere_flow": lambda k: build_sphere_mesh(ScaledSphereFlow(), 1, k).evolved(0.3),
}


@pytest.mark.parametrize("tag", [DISCRETE, LIFTED])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", sorted(ORACLE_MESHES))
def test_geometry_and_assembly_match_quadrature_oracle(kind, degree, tag):
    mesh = ORACLE_MESHES[kind](degree)
    space = FeSpace(mesh, tag)
    geom = space.geometry()
    points, weights, tgrad, mass, stiff = quadrature_oracle(mesh, tag, space.quad_order)
    assert rel_err(geom.points, points) <= 1e-13
    assert rel_err(geom.weights, weights) <= 1e-13
    assert rel_err(np.broadcast_to(geom.tangent_grads, tgrad.shape), tgrad) <= 1e-13
    assert rel_err(dense(assemble_mass(space)), dense_from_local(mesh, mass)) <= 1e-13
    assert rel_err(dense(assemble_stiffness(space)), dense_from_local(mesh, stiff)) <= 1e-13


COO_MESHES = {
    "circle-p1": lambda: build_circle_mesh(Circle(), 24, 1),
    "sphere-p1": lambda: build_sphere_mesh(Sphere(), 2, 1),
    "sphere-p2": lambda: build_sphere_mesh(Sphere(), 2, 2),
    "ellipsoid_flow-p1": lambda: build_sphere_mesh(EllipsoidFlow(), 2, 1).evolved(0.4),
}


@pytest.mark.parametrize("kind", sorted(COO_MESHES))
def test_assembly_matches_dense_coo_oracle(kind):
    # the same local matrices, summed entry by entry with np.add.at
    mesh = COO_MESHES[kind]()
    space = FeSpace(mesh)
    geom = space.geometry()
    sv, tg = geom.shape_values, np.broadcast_to(
        geom.tangent_grads, geom.weights.shape + geom.tangent_grads.shape[2:])
    local_mass = np.einsum("eq,qi,qj->eij", geom.weights, sv, sv)
    local_stiff = np.einsum("eq,eqid,eqjd->eij", geom.weights, tg, tg)
    for mat, local in ((assemble_mass(space), local_mass),
                       (assemble_stiffness(space), local_stiff)):
        expected = dense_from_local(mesh, local)
        assert rel_err(dense(mat), expected) <= 1e-14
        coupled = np.zeros_like(expected, dtype=bool)
        el = mesh.elements
        coupled[el[:, :, None], el[:, None, :]] = True
        assert mat.indices.size == np.count_nonzero(coupled)


# --- matrix-product kernels against the eager per-element formulas --------

def eager_metric(jac, m):
    g = np.swapaxes(jac, -1, -2) @ jac
    if m == 1:
        det = g[..., 0, 0]
        return det, (1.0 / det)[..., None, None]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1]
    inv[..., 1, 1] = g[..., 0, 0]
    inv[..., 0, 1] = -g[..., 0, 1]
    inv[..., 1, 0] = -g[..., 1, 0]
    return det, inv / det[..., None, None]


def eager_geometry(mesh, tag, order):
    """Points, weights, metric factor, tangential gradients and local
    stiffness matrices by per-element stacked matmuls and a three-operand
    einsum, with a length-1 quadrature axis on affine quantities."""
    rule = reference_rule(mesh.dimension, order)
    sv = mesh.reference.shape_values(rule.points)
    sg = mesh.reference.shape_gradients(
        rule.points[:1] if mesh.degree == 1 else rule.points)
    coords = np.take(mesh.nodes, mesh.elements, axis=0)
    points = sv @ coords
    jac = np.swapaxes(coords, 1, 2)[:, None] @ sg
    if tag == LIFTED:
        flat = points.reshape(-1, points.shape[-1])
        dq = mesh.surface.project_with_jacobian(mesh.time, flat)[1]
        jac = dq.reshape(points.shape + dq.shape[-1:]) @ jac
        points = mesh.surface.project(mesh.time, flat).reshape(points.shape)
    det, inv = eager_metric(jac, mesh.dimension)
    mu = np.sqrt(det)
    weights = rule.weights[None, :] * mu
    tgrad = sg @ np.swapaxes(jac @ inv, -1, -2)
    tg = np.broadcast_to(tgrad, weights.shape + tgrad.shape[2:])
    stiff = np.einsum("eq,eqid,eqjd->eij", weights, tg, tg)
    return points, weights, mu, tgrad, stiff


EAGER_MESHES = {
    "circle-p1": lambda: build_circle_mesh(Circle(), 12, 1),
    "circle-p2": lambda: build_circle_mesh(Circle(), 12, 2),
    "sphere-l2-p1": lambda: build_sphere_mesh(Sphere(), 2, 1),
    "sphere-l2-p2": lambda: build_sphere_mesh(Sphere(), 2, 2),
    "ellipsoid_flow-l2-p1": lambda: build_sphere_mesh(EllipsoidFlow(), 2, 1).evolved(0.37),
    "ellipsoid_flow-l2-p2": lambda: build_sphere_mesh(EllipsoidFlow(), 2, 2).evolved(0.37),
}


@pytest.mark.parametrize("tag", [DISCRETE, LIFTED])
@pytest.mark.parametrize("kind", sorted(EAGER_MESHES))
def test_product_kernels_match_eager_formulas(kind, tag):
    mesh = EAGER_MESHES[kind]()
    space = FeSpace(mesh, tag)
    geom = space.geometry()
    points, weights, mu, tgrad, stiff = eager_geometry(mesh, tag, space.quad_order)
    assert geom.points.flags.c_contiguous
    for got, want in ((geom.points, points), (geom.weights, weights),
                      (geom.metric_factor, mu), (geom.tangent_grads, tgrad)):
        assert got.shape == want.shape
        assert rel_err(got, want) <= 1e-14
    # computed once, on first access
    assert geom.tangent_grads is geom.tangent_grads
    assert rel_err(assemble_stiffness(space).data, space.pattern().assemble(stiff).data) <= 1e-14


def _perturbed_sphere(edit):
    mesh = build_sphere_mesh(Sphere(), 1, 1)
    nodes = mesh.nodes.copy()
    edit(nodes, mesh.elements)
    return SurfaceMesh(mesh.surface, 1, nodes, mesh.elements)


def test_collapsed_triangle_raises_singular_element():
    def collapse(nodes, elements):
        # element 0 loses its last vertex to its first: so does the
        # neighbour across that edge
        nodes[elements[0, 2]] = nodes[elements[0, 0]]

    mesh = _perturbed_sphere(collapse)
    with pytest.raises(SingularElement, match=(
            r"^2 of 80 elements have a degenerate Jacobian; first is element 0 "
            r"with Gram determinant 0\.000e\+00 \(not positive\)$")):
        FeSpace(mesh).geometry()


@pytest.mark.parametrize("tag", [DISCRETE, LIFTED])
def test_nan_node_raises_singular_element(tag):
    node = 7

    def poison(nodes, elements):
        nodes[node] = np.nan

    mesh = _perturbed_sphere(poison)
    touching = np.flatnonzero((mesh.elements == node).any(axis=1))
    with pytest.raises(SingularElement, match=(
            rf"^{len(touching)} of 80 elements have a degenerate Jacobian; first is "
            rf"element {touching[0]} with Gram determinant nan \(non-finite\)$")):
        element_geometry(mesh, tag)


@pytest.mark.parametrize("dim", [1, 2])
def test_dilated_matrices_scale_with_radius(dim):
    # X(t, y) = r(t) y scales lengths by r, so M by r^m and A by r^(m-2)
    surface = ScaledSphereFlow(dimension=dim)
    mesh0 = build_circle_mesh(surface, 16, 1) if dim == 1 else build_sphere_mesh(surface, 2, 1)
    mass0 = assemble_mass(FeSpace(mesh0))
    stiff0 = assemble_stiffness(FeSpace(mesh0))
    for t in (0.1, 0.3, 0.7):
        r = surface.radius(t) / surface.radius(0.0)
        space = FeSpace(mesh0.evolved(t))
        assert rel_err(assemble_mass(space).data, r**dim * mass0.data) <= 1e-13
        assert rel_err(assemble_stiffness(space).data, r ** (dim - 2) * stiff0.data) <= 1e-13


# --- projections -----------------------------------------------------------

def test_l2_project_fixes_members(circle64):
    space = FeSpace(circle64)
    rng = np.random.default_rng(0)
    member = rng.standard_normal(space.num_dofs)

    def as_callable(x):
        elems, refs = radial_inverse_lift(circle64, x)
        sv = circle64.reference.shape_values(refs)
        return np.sum(sv * member[circle64.elements[elems]], axis=1)

    proj = l2_project(space, as_callable, assemble_mass(space), 1e-12)
    assert np.abs(proj - member).max() <= 1e-11


def test_l2_project_constant(circle64):
    space = FeSpace(circle64)
    proj = l2_project(space, lambda x: np.ones(x.shape[:-1]), assemble_mass(space), 1e-12)
    assert np.abs(proj - 1.0).max() <= 1e-12


def test_l2_project_contracts(circle64):
    space = FeSpace(circle64)
    fn = lambda x: x[..., 0]
    proj = l2_project(space, fn, assemble_mass(space), 1e-12)
    assert norm_lq(space, proj, 2) <= norm_lq(space, fn, 2) * (1 + 1e-10)


def test_l2_project_galerkin_orthogonality(circle64):
    space = FeSpace(circle64)
    fn = lambda x: np.exp(x[..., 0])
    proj = l2_project(space, fn, assemble_mass(space), 1e-12)
    geom = element_geometry(space.mesh, space.tag, 20)
    fvals = fn(geom.points)
    pvals = proj[circle64.elements] @ geom.shape_values.T
    rng = np.random.default_rng(1)
    scale = norm_lq(space, proj, 2)
    for _ in range(5):
        chi = rng.standard_normal(space.num_dofs)
        cvals = chi[circle64.elements] @ geom.shape_values.T
        inner = float(np.sum(geom.weights * (fvals - pvals) * cvals))
        assert abs(inner) <= 1e-10 * scale * np.abs(chi).max() * 10


def test_interpolate_fixes_members_and_converges():
    surface = Circle()
    errors, hs = [], []
    for n in (16, 32, 64, 128):
        mesh = build_circle_mesh(surface, n, 1)
        space = FeSpace(mesh)
        rng = np.random.default_rng(2)
        member = rng.standard_normal(space.num_dofs)
        # the nodal interpolant of fn is fn at the nodes
        again = _eval_fe(member, mesh, mesh.nodes)
        assert np.abs(again - member).max() <= 1e-13
        ih = sin_theta(mesh.nodes)
        err = _callable_error_l2(space, ih, sin_theta)
        errors.append(err)
        hs.append(mesh.h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 1.8 <= order <= 2.2


def _eval_fe(member, mesh, x):
    elems, refs = radial_inverse_lift(mesh, x)
    sv = mesh.reference.shape_values(refs)
    return np.sum(sv * member[mesh.elements[elems]], axis=1)


def _callable_error_l2(space, u, fn, order=16):
    geom = element_geometry(space.mesh, space.tag, order)
    uv = u[space.mesh.elements] @ geom.shape_values.T
    fv = fn(geom.points)
    return math.sqrt(float(np.sum(geom.weights * (uv - fv) ** 2)))


def test_interpolation_estimate_constant_stable():
    # |f - I_h f| + h |grad (f - I_h f)| <= C h^2 |f|_{H2}; fitted C stable
    surface = Circle()
    constants = []
    for n in (16, 32, 64):
        mesh = build_circle_mesh(surface, n, 1)
        space = FeSpace(mesh)
        ih = sin_theta(mesh.nodes)
        err0 = _callable_error_l2(space, ih, sin_theta)
        # H1 seminorm of the error via elevated quadrature
        geom = element_geometry(space.mesh, space.tag, 16)
        gv = np.einsum(
            "el,eqld->eqd", ih[mesh.elements], geom.tangent_grads
        )
        exact_grad = grad_sin_theta(geom.points)
        nu = geom.points / np.linalg.norm(geom.points, axis=-1, keepdims=True)
        exact_tang = exact_grad - np.sum(exact_grad * nu, axis=-1, keepdims=True) * nu
        err1 = math.sqrt(float(np.sum(geom.weights * np.sum((gv - exact_tang) ** 2, -1))))
        # |sin theta|_{H2} on the unit circle: |u| + |u'| + |u''| in L2
        h2_norm = math.sqrt(3 * math.pi)
        constants.append((err0 + mesh.h * err1) / (mesh.h**2 * h2_norm))
    assert max(constants) / min(constants) <= 1.10


# --- discrete laplacian -----------------------------------------------------

def test_discrete_laplacian_of_constant(circle64):
    space = FeSpace(circle64)
    lap = discrete_laplacian(np.ones(space.num_dofs), assemble_mass(space),
                             assemble_stiffness(space), 1e-12)
    assert np.abs(lap).max() <= 1e-11


def test_discrete_laplacian_weak_identity(circle64):
    space = FeSpace(circle64)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(space.num_dofs)
    mass = assemble_mass(space)
    stiff = assemble_stiffness(space)
    lap = discrete_laplacian(u, mass, stiff, 1e-12)
    for _ in range(5):
        chi = rng.standard_normal(space.num_dofs)
        lhs = float(lap @ mass.matvec(chi))
        rhs = -float(u @ stiff.matvec(chi))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize(
    "builder,mode_fn,expected_factor",
    [
        (lambda n: build_circle_mesh(Circle(), n, 1), sin_theta, 1.0),
        (lambda lvl: build_sphere_mesh(Sphere(), lvl, 1), lambda x: x[..., 2], 2.0),
    ],
    ids=["circle-sin", "sphere-z"],
)
def test_discrete_laplacian_eigenfunction(builder, mode_fn, expected_factor):
    levels = (16, 32, 64) if expected_factor == 1.0 else (1, 2, 3)
    errors, hs = [], []
    for level in levels:
        mesh = builder(level)
        space = FeSpace(mesh)
        u = mode_fn(mesh.nodes)
        lap = discrete_laplacian(u, assemble_mass(space), assemble_stiffness(space), 1e-12)
        errors.append(norm_lq(space, lap + expected_factor * u, 2))
        hs.append(mesh.h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert order >= 1.0


# --- discrete delta ----------------------------------------------------------

def test_discrete_delta_reproduces_constants(circle64):
    space = FeSpace(circle64)
    x0 = element_point(circle64, 3, np.array([0.37]))
    delta = discrete_delta(space, x0, tol=1e-12)
    mass = assemble_mass(space)
    assert abs(delta @ mass.matvec(np.ones(space.num_dofs)) - 1.0) <= 1e-11


def test_discrete_delta_reproduces_point_values(circle64):
    space = FeSpace(circle64)
    x0 = element_point(circle64, 10, np.array([0.21]))
    delta = discrete_delta(space, x0, tol=1e-12)
    mass = assemble_mass(space)
    e = delta_load(space, x0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        chi = rng.standard_normal(space.num_dofs)
        pairing = float(delta @ mass.matvec(chi))
        point_value = float(e @ chi)
        assert abs(pairing - point_value) <= 1e-10 * max(1.0, abs(point_value))


def test_discrete_delta_peak_scales_like_inverse_h():
    scale_constants = []
    for n in (32, 64):
        mesh = build_circle_mesh(Circle(), n, 1)
        space = FeSpace(mesh)
        delta = discrete_delta(space, mesh.nodes[0], tol=1e-12)
        scale_constants.append(np.abs(delta).max() * mesh.h)
    lo, hi = sorted(scale_constants)
    assert hi / lo <= 1.25


def test_discrete_delta_exponential_decay():
    # regression oracle over all dof positions, outside a 3h ball
    mesh = build_circle_mesh(Circle(), 64, 1)
    space = FeSpace(mesh)
    x0 = mesh.nodes[0]
    delta = discrete_delta(space, x0, tol=1e-12)
    dist = mesh.surface.geodesic_distance(0.0, mesh.nodes, x0)
    vals = np.abs(delta)
    sel = (dist > 3 * mesh.h) & (vals > 1e-13 * vals.max())
    logs = np.log(vals[sel])
    slope, intercept = np.polyfit(dist[sel] / mesh.h, logs, 1)
    fitted = slope * dist[sel] / mesh.h + intercept
    r2 = 1 - np.sum((logs - fitted) ** 2) / np.sum((logs - logs.mean()) ** 2)
    assert slope <= -0.3
    assert r2 >= 0.9


def test_locate_point_errors(circle64):
    with pytest.raises(PointNotOnMesh):
        locate_point(circle64, np.array([5.0, 5.0]))


# --- point location ----------------------------------------------------------

def ellipse_mesh(n_elements, degree):
    # a closed curve that is no circle: the circle mesh's nodes under a
    # diagonal linear map, which keeps every ray cone that of its flat simplex
    circle = build_circle_mesh(Circle(), n_elements, degree)
    return SurfaceMesh(circle.surface, degree, circle.nodes * [2.0, 0.5], circle.elements)


LOCATE_CASES = {
    **{f"sphere-P{k}-L{level}": (lambda k=k, level=level: build_sphere_mesh(Sphere(), level, k))
       for k in (1, 2) for level in (1, 2, 3)},
    **{f"ellipsoid_flow-P{k}": (lambda k=k: build_sphere_mesh(EllipsoidFlow(), 2, k).evolved(0.3))
       for k in (1, 2)},
    **{f"circle-P{k}-jitter": (lambda k=k: jittered_circle_mesh(24, k))
       for k in (1, 2, 3)},
    "ellipse-P2": lambda: ellipse_mesh(20, 2),
}


def location_probes(mesh, per_kind=40, seed=0):
    """Points of Gamma_h to locate: nodes (vertices and edge nodes), images
    of random refs, and images of refs 1e-9 from the ends of an element."""
    rng = np.random.default_rng(seed)
    if mesh.dimension == 1:
        near_ends = np.array([[1e-9], [1.0 - 1e-9]])
        random_refs = rng.random((per_kind, 1))
    else:
        near_ends = np.array([[1e-9, 1e-9], [1.0 - 2e-9, 1e-9], [1e-9, 1.0 - 2e-9],
                              [0.5, 1e-9], [1e-9, 0.5], [0.5 - 1e-9, 0.5 - 1e-9]])
        random_refs = rng.random((per_kind, 2))
        flip = random_refs.sum(axis=1) > 1.0
        random_refs[flip] = 1.0 - random_refs[flip]
    picks = rng.integers(mesh.num_elements, size=per_kind)
    nodes = mesh.nodes[rng.choice(mesh.num_nodes, size=min(per_kind, mesh.num_nodes),
                                  replace=False)]
    on_random = [element_point(mesh, e, ref) for e, ref in zip(picks, random_refs)]
    on_ends = [element_point(mesh, e, ref) for e in picks[:4] for ref in near_ends]
    return np.vstack([nodes, on_random, on_ends])


def assert_located(mesh, points):
    for x in points:
        element, ref = locate_point(mesh, x)
        scale = max(1.0, float(np.linalg.norm(x)))
        assert np.linalg.norm(element_point(mesh, element, ref) - x) <= 1e-14 * scale


@pytest.mark.parametrize("case", sorted(LOCATE_CASES))
def test_locate_point_finds_points_of_the_mesh(case):
    mesh = LOCATE_CASES[case]()
    assert_located(mesh, location_probes(mesh))


def test_locate_point_uses_the_inverses_of_its_snapshot():
    # the ellipsoid flow moves the nodes by a non-uniform scaling, so the
    # flat simplices of the two snapshots have different inverses
    mesh = build_sphere_mesh(EllipsoidFlow(), 2, 2)
    assert_located(mesh, location_probes(mesh, seed=1))
    moved = mesh.evolved(0.3)
    assert_located(moved, location_probes(moved, seed=1))
    assert moved.flat_inverses is not mesh.flat_inverses
    verts = np.swapaxes(moved.vertex_coords(), 1, 2)
    assert np.array_equal(moved.flat_inverses, np.linalg.inv(verts))


@pytest.mark.parametrize("scale", [2.0, 0.5, 0.0], ids=["outside", "inside", "zero"])
def test_locate_point_rejects_points_off_the_sphere_mesh(sphere2, scale):
    x = scale * element_point(sphere2, 7, np.array([0.2, 0.3]))
    with pytest.raises(PointNotOnMesh):
        locate_point(sphere2, x)


# --- Ritz projection ---------------------------------------------------------

def test_ritz_fixes_members(circle64):
    space = FeSpace(circle64, LIFTED)
    rng = np.random.default_rng(5)
    member = rng.standard_normal(space.num_dofs)
    mesh = circle64

    def fn(x):
        return _eval_fe(member, mesh, x)

    def gradfn(x):
        # tangential gradient of the lift: chain rule through the projection,
        # so the tangent is Dq applied to the chord tangent
        elems, refs = radial_inverse_lift(mesh, x)
        sg = mesh.reference.shape_gradients(refs)
        coords = mesh.nodes[mesh.elements[elems]]
        dvals = np.sum(sg[..., 0] * member[mesh.elements[elems]], axis=1)
        jac = np.einsum("plm,pld->pdm", sg, coords)[..., 0]
        base = np.einsum("pl,pld->pd", mesh.reference.shape_values(refs), coords)
        dq = mesh.surface.project_with_jacobian(mesh.time, base)[1]
        lifted_tangent = np.einsum("pij,pj->pi", dq, jac)
        speed2 = np.sum(lifted_tangent * lifted_tangent, axis=-1)
        return dvals[:, None] * lifted_tangent / speed2[:, None]

    proj = ritz_project(space, fn, gradfn, 1e-12)
    assert np.abs(proj - member).max() <= 1e-9


def test_ritz_h1_rate_and_w14_stability():
    ratios, errors, hs = [], [], []
    for n in (16, 32, 64, 128):
        mesh = build_circle_mesh(Circle(), n, 1)
        space = FeSpace(mesh, LIFTED)
        proj = ritz_project(space, sin_theta, grad_sin_theta, 1e-12)
        # H1 error via the triangle inequality against the interpolant plus
        # the interpolant's own error, both by elevated quadrature
        err = norm_w1q(space, proj - sin_theta(mesh.nodes), 2) + mesh.h * 1.0
        errors.append(err)
        hs.append(mesh.h)
        num = norm_w1q(space, proj, 4)
        den = _callable_w14(space, sin_theta, grad_sin_theta)
        ratios.append(num / den)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert order >= 0.9  # degree-1 Ritz converges at order 1 in H1
    assert max(ratios) / min(ratios) <= 1.10


def _callable_w14(space, fn, gradfn, q=4.0):
    geom = space.geometry()
    flat = geom.points.reshape(-1, geom.points.shape[-1])
    vals = fn(flat)
    grads = gradfn(flat)
    nu = space.mesh.surface.normal(space.mesh.time, flat)
    tang = grads - np.sum(grads * nu, axis=-1, keepdims=True) * nu
    gmag = np.linalg.norm(tang, axis=-1)
    w = geom.weights.reshape(-1)
    return float(np.sum(w * (np.abs(vals) ** q + gmag**q)) ** (1 / q))


def test_type_error_inside_a_callable_reaches_the_caller(circle64):
    def forcing(t, x):
        raise TypeError("bug inside the forcing")

    with pytest.raises(TypeError, match="bug inside the forcing"):
        load_from_geometry(FeSpace(circle64).geometry(), circle64.elements,
                           circle64.num_nodes, forcing, 0.0)
    with pytest.raises(TypeError, match="bug inside the forcing"):
        ritz_project(FeSpace(circle64, LIFTED), sin_theta, lambda x: forcing(0.0, x), 1e-12)


# --- radial inverse lift -----------------------------------------------------

def inverse_lift_oracle(mesh, points, tol=1e-12):
    """The inverse lift point by point: every ray scored against every
    element in one (P, E, d) array, then lstsq Gauss-Newton per point."""
    pts = np.asarray(points, dtype=float)
    rays = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    verts = mesh.vertex_coords()
    d = pts.shape[-1]
    inv = np.linalg.inv(np.swapaxes(verts, 1, 2))
    lam = np.einsum("eij,pj->pei", inv, rays)
    lam_sum = lam.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bary = lam / lam_sum[..., None]
    bary = np.where((lam_sum > 0)[..., None], bary, -1.0)
    elems = np.argmax(bary.min(axis=-1), axis=-1)
    refs = np.empty((pts.shape[0], mesh.dimension))
    ref_el = mesh.reference
    for i in range(pts.shape[0]):
        e = elems[i]
        ref = bary[i, e, 1:]
        ray = rays[i]
        coords = mesh.nodes[mesh.elements[e]]
        proj = np.eye(d) - np.outer(ray, ray)
        for _ in range(40):
            sv = ref_el.shape_values(ref[None, :])[0]
            sg = ref_el.shape_gradients(ref[None, :])[0]
            resid = proj @ (sv @ coords)
            if np.linalg.norm(resid) < tol:
                break
            step, *_ = np.linalg.lstsq(proj @ (coords.T @ sg), -resid, rcond=None)
            ref = ref + step
        refs[i] = ref
    return elems, refs


def lifted_quadrature_points(mesh):
    geom = FeSpace(mesh, LIFTED).geometry()
    return geom.points.reshape(-1, geom.points.shape[-1])


LIFT_CASES = {
    # coarse mesh, fine mesh whose lifted quadrature points and nodes are lifted
    "sphere-P1": lambda: (build_sphere_mesh(Sphere(), 1, 1), build_sphere_mesh(Sphere(), 3, 1)),
    "sphere-P2": lambda: (build_sphere_mesh(Sphere(), 1, 2), build_sphere_mesh(Sphere(), 3, 2)),
    "circle64": lambda: (build_circle_mesh(Circle(), 64, 1), build_circle_mesh(Circle(), 256, 1)),
}


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_radial_inverse_lift_matches_pointwise_oracle(case):
    coarse, fine = LIFT_CASES[case]()
    pts = np.vstack([lifted_quadrature_points(fine), fine.nodes])
    elems, refs = radial_inverse_lift(coarse, pts)
    # every mapped Gamma_h point projects back onto its input
    sv = coarse.reference.shape_values(refs)
    mapped = np.einsum("pl,pld->pd", sv, coarse.nodes[coarse.elements[elems]])
    assert np.abs(coarse.surface.project(0.0, mapped) - pts).max() <= 1e-12
    # the oracle is slow point by point: compare on every 97th quadrature
    # point and every other fine node; nodes sit on coarse edges and vertices
    n_quad = len(pts) - fine.num_nodes
    sample = np.concatenate([np.arange(0, n_quad, 97), np.arange(n_quad, len(pts), 2)])
    o_elems, o_refs = inverse_lift_oracle(coarse, pts[sample])
    assert np.array_equal(elems[sample], o_elems)
    assert np.abs(refs[sample] - o_refs).max() <= 1e-14


def test_radial_inverse_lift_memory_is_bounded():
    # 103 680 lifted L3 quadrature points against L1: the (P, E, d) score
    # array alone would take 200 MB
    coarse = build_sphere_mesh(Sphere(), 1, 1)
    pts = lifted_quadrature_points(build_sphere_mesh(Sphere(), 3, 1)).copy()
    assert len(pts) == 103_680
    tracemalloc.start()
    try:
        radial_inverse_lift(coarse, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def ancestor_lift_points(coarse, fine):
    # the lifted quadrature points and the nodes of each fine element, with
    # the coarse element k // ratio that nesting puts fine element k in
    geom = FeSpace(fine, LIFTED).geometry()
    per_element = np.concatenate([geom.points, fine.nodes[fine.elements]], axis=1)
    ancestor = np.arange(fine.num_elements) // (fine.num_elements // coarse.num_elements)
    return (per_element.reshape(-1, per_element.shape[-1]),
            np.repeat(ancestor, per_element.shape[1]))


def assert_same_lift(mesh, got, expected):
    # the same elements and refs, except that a point on an edge shared by
    # two elements may go to either one; it must then map to the same point
    (elems, refs), (e_elems, e_refs) = got, expected
    same = elems == e_elems
    assert np.abs(refs[same] - e_refs[same]).max() <= 1e-14
    sv, e_sv = mesh.reference.shape_values(refs), mesh.reference.shape_values(e_refs)
    mapped = np.einsum("pl,pld->pd", sv, mesh.nodes[mesh.elements[elems]])
    e_mapped = np.einsum("pl,pld->pd", e_sv, mesh.nodes[mesh.elements[e_elems]])
    assert np.abs(mapped - e_mapped).max() <= 1e-14


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_radial_inverse_lift_with_ancestor_guess_matches_scoring(case):
    coarse, fine = LIFT_CASES[case]()
    pts, ancestor = ancestor_lift_points(coarse, fine)
    assert_same_lift(coarse, radial_inverse_lift(coarse, pts, guess=ancestor),
                     radial_inverse_lift(coarse, pts))


@pytest.mark.parametrize("wrong", ["all", "half"])
def test_radial_inverse_lift_recovers_from_wrong_guesses(wrong):
    coarse, fine = build_sphere_mesh(Sphere(), 1, 2), build_sphere_mesh(Sphere(), 2, 2)
    pts, ancestor = ancestor_lift_points(coarse, fine)
    guess = (ancestor + 1) % coarse.num_elements
    if wrong == "half":
        guess[::2] = ancestor[::2]
    assert_same_lift(coarse, radial_inverse_lift(coarse, pts, guess=guess),
                     radial_inverse_lift(coarse, pts))


@pytest.mark.parametrize("guess, error", [
    (np.zeros(3, dtype=int), DimensionMismatch),
    (np.zeros((2, 1), dtype=int), DimensionMismatch),
    (np.array([0, -1]), ValueError),
    (np.array([0, 80]), ValueError),
    (np.array([0.0, 1.0]), ValueError),
], ids=["long", "2d", "negative", "past-end", "float"])
def test_radial_inverse_lift_rejects_a_bad_guess(guess, error):
    # each check raises, not asserts, so it holds under python -O as well
    mesh = build_sphere_mesh(Sphere(), 1, 1)
    assert mesh.num_elements == 80
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(error, match="guess"):
        radial_inverse_lift(mesh, pts, guess=guess)


def test_radial_inverse_lift_with_guess_memory_is_bounded():
    # the guessed simplices are gathered per block, so a guess costs no
    # memory beyond the lift without one (22 MiB measured for both)
    coarse, fine = build_sphere_mesh(Sphere(), 1, 1), build_sphere_mesh(Sphere(), 3, 1)
    geom = FeSpace(fine, LIFTED).geometry()
    pts = geom.points.reshape(-1, 3).copy()
    assert len(pts) == 103_680
    guess = np.repeat(np.arange(fine.num_elements) // 16, geom.points.shape[1])
    tracemalloc.start()
    try:
        radial_inverse_lift(coarse, pts, guess=guess)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_radial_inverse_lift_rejects_points_without_a_ray(sphere2, bad):
    pts = np.array([[0.0, 0.0, 1.0], bad])
    with pytest.raises(PointNotOnMesh, match="1 points"):
        radial_inverse_lift(sphere2, pts)


def test_radial_inverse_lift_reports_stalled_newton(monkeypatch):
    # a zero tolerance is never met, so Newton runs into its iteration cap
    mesh = build_sphere_mesh(Sphere(), 1, 2)
    pts = mesh.surface.project(0.0, np.array([[0.3, 0.2, 0.9], [-0.5, 0.4, 0.1]]))
    monkeypatch.setattr(fem, "_LIFT_TOL", 0.0)
    with pytest.raises(NonConvergence, match=r"2 points above residual .* worst \d"):
        radial_inverse_lift(mesh, pts)


# --- prefactors --------------------------------------------------------------

def test_prefactor_change_of_variables_identity(circle64):
    space_h = FeSpace(circle64)
    mass_h = assemble_mass(space_h)
    order = 12
    disc = element_geometry(circle64, DISCRETE, order=order)
    lift = element_geometry(circle64, LIFTED, order=order)
    ratio = disc.metric_factor / lift.metric_factor
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = rng.standard_normal(space_h.num_dofs)
        v = rng.standard_normal(space_h.num_dofs)
        direct = float(u @ mass_h.matvec(v))
        uv = (u[circle64.elements] @ disc.shape_values.T) * (
            v[circle64.elements] @ disc.shape_values.T
        )
        lifted_weighted = float(np.sum(lift.weights * ratio * uv))
        assert abs(direct - lifted_weighted) <= 1e-10 * max(1.0, abs(direct))


def test_prefactor_orders():
    # degree 2 uses the jittered circle family: the uniform one superconverges
    # by a whole order here, hiding the generic rate
    for degree, levels, builder in (
        (1, (16, 32, 64), lambda n, k: build_circle_mesh(Circle(), n, k)),
        (2, (64, 128, 256), jittered_circle_mesh),
        (1, (1, 2, 3), lambda lvl, k: build_sphere_mesh(Sphere(), lvl, k)),
    ):
        sup_a, sup_b, hs = [], [], []
        for level in levels:
            mesh = builder(level, degree)
            measure_dev, gradient_dev, min_ratio = prefactors(mesh)
            assert min_ratio > 0
            sup_a.append(measure_dev)
            sup_b.append(gradient_dev)
            hs.append(mesh.h)
        order_a = np.polyfit(np.log(hs), np.log(sup_a), 1)[0]
        order_b = np.polyfit(np.log(hs), np.log(sup_b), 1)[0]
        assert abs(order_a - (degree + 1)) <= 0.3, (degree, order_a)
        assert abs(order_b - (degree + 1)) <= 0.3, (degree, order_b)


def test_prefactor_at_chord_midpoint_closed_form():
    # inscribed chord: the measure ratio at the midpoint is cos(pi/N) < 1,
    # i.e. 1 + O(h^2) with the deficit h^2/8 to leading order
    n = 32
    mesh = build_circle_mesh(Circle(), n, 1)
    # the one-point Gauss rule sits at the chord midpoint 0.5
    disc = element_geometry(mesh, DISCRETE, order=1)
    lift = element_geometry(mesh, LIFTED, order=1)
    ratio = (disc.metric_factor / lift.metric_factor)[0, 0]
    assert abs(ratio - math.cos(math.pi / n)) <= 1e-12
    assert ratio <= 1.0


# --- norms -------------------------------------------------------------------

def test_norm_constant_on_lifted_circle(circle64):
    space = FeSpace(circle64, LIFTED)
    one = np.ones(space.num_dofs)
    assert abs(norm_lq(space, one, 2) - math.sqrt(2 * math.pi)) <= 1e-12
    assert norm_lq(space, one, math.inf) == 1.0


def test_norm_sin_theta_analytic(circle64):
    space = FeSpace(circle64, LIFTED)
    value = norm_lq(space, sin_theta, 2)
    assert abs(value - math.sqrt(math.pi)) <= 1e-10


def test_norm_invalid_exponent(circle64):
    space = FeSpace(circle64)
    with pytest.raises(InvalidExponent):
        norm_lq(space, np.ones(space.num_dofs), 0.5)


@pytest.mark.parametrize("norm", [norm_lq, norm_w1q])
def test_norms_reject_a_vector_of_the_wrong_length(circle64, norm):
    space = FeSpace(circle64)
    for n in (space.num_dofs - 1, space.num_dofs + 1):
        with pytest.raises(DimensionMismatch, match=f"{space.num_dofs} dofs"):
            norm(space, np.ones(n), 2.0)
    with pytest.raises(DimensionMismatch):
        norm(space, np.ones((space.num_dofs, 1)), 2.0)


def test_two_path_integration_agreement():
    # lifted quadrature vs the analytic parametric path, smooth integrands
    for mesh, order in (
        (build_circle_mesh(Circle(), 32, 1), 31),
        (build_sphere_mesh(Sphere(), 3, 1), 14),
    ):
        surface = mesh.surface
        space = FeSpace(mesh, LIFTED)

        def fn(x):
            return 1.0 + x[..., 0] ** 2 + 0.5 * x[..., -1]

        geom = element_geometry(space.mesh, space.tag, order)
        lifted_value = float(np.sum(geom.weights * fn(geom.points)))
        pts, w = parametric_quadrature(surface, 0.0, 200)
        param_value = float(w @ fn(pts))
        assert abs(lifted_value - param_value) <= 1e-10 * abs(param_value)


# --- lifts -------------------------------------------------------------------

def test_lift_constant_is_constant(circle64):
    # the lift keeps the coefficients: the constant vector is 1 on Gamma too
    one = np.ones(circle64.num_nodes)
    assert abs(norm_lq(FeSpace(circle64, LIFTED), one, math.inf) - 1.0) <= 1e-14


def test_inverse_lift_of_coordinate_on_square():
    # chord midpoint of the inscribed square projects to (sqrt2/2)(1,1);
    # the pulled-back coordinate function takes the value sqrt2/2 there
    mesh = build_circle_mesh(Circle(), 4, 1)
    midpoint = element_point(mesh, 0, np.array([0.5]))
    q = mesh.surface.project(0.0, midpoint)
    assert np.allclose(q, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-14)
    pulled_back = q[0]  # (x1 o q) evaluated at the chord midpoint
    assert abs(pulled_back - math.sqrt(2) / 2) <= 1e-14
