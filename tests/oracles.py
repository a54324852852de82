"""Reference computations that the tests check the package against.

Closed forms of the surfaces and flows, samplers, mesh diagnostics, the
icosphere built face by face, a jittered circle family, a reader for the
text mesh format, exact reference-element integrals, a dense view of sparse
matrices, an eigenvalue and a mass oracle, the geometric prefactors of the
lift, and the whole-mesh tables and values of the kernel difference, and a
maxreg study cell solved by two streams that share nothing.  None of this is
needed to run a study.
"""

import math

import numpy as np

from esfem.errors import IOFailure
from esfem.fem import (
    DISCRETE,
    LIFTED,
    FeSpace,
    assemble_mass,
    default_quad_order,
    element_geometry,
    radial_inverse_lift,
)
from esfem import meshing
from esfem.meshing import SurfaceMesh
from esfem.sparse import cg_solve
from esfem.studies import build_level_mesh
from esfem.surfaces import Circle, EllipsoidFlow, forcing_profile
from esfem.timestepping import TimeGrid, norm_series, solve_heat

TWO_PI = 2.0 * math.pi


# --- surfaces and flows ------------------------------------------------------

def _scale(surface, t):
    # the per-axis factor s(t) by which the surface at t scales the unit
    # circle or sphere: the axes of an ellipsoid, the radius otherwise
    return surface.axes(t) if isinstance(surface, EllipsoidFlow) else surface.radius(t)


def sample_points(surface, t, n, rng):
    """n random points on a radial surface or an ellipsoid at time t."""
    if surface.dimension == 1 and not isinstance(surface, EllipsoidFlow):
        theta = rng.uniform(0.0, TWO_PI, size=n)
        unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        v = rng.normal(size=(n, surface.ambient_dim))
        unit = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return _scale(surface, t) * unit


def parametric_quadrature(surface, t, order):
    """Quadrature (points, weights) on the exact circle or sphere, independent
    of any mesh: the trapezoid rule in the angle, and tensor Gauss-Legendre in
    (colatitude, longitude)."""
    r = surface.radius(t)
    n = max(order, 8)
    if surface.dimension == 1:
        theta = TWO_PI * np.arange(n) / n
        pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return pts, np.full(n, TWO_PI * r / n)
    gx, gw = np.polynomial.legendre.leggauss(n)
    phi = 0.5 * math.pi * (gx + 1.0)  # colatitude in (0, pi)
    wphi = 0.5 * math.pi * gw
    ntheta = 2 * n
    theta = TWO_PI * np.arange(ntheta) / ntheta
    P, T = np.meshgrid(phi, theta, indexing="ij")
    pts = r * np.stack(
        [np.sin(P) * np.cos(T), np.sin(P) * np.sin(T), np.cos(P)], axis=-1
    ).reshape(-1, 3)
    w = (r * r * np.sin(P) * wphi[:, None] * (TWO_PI / ntheta)).reshape(-1)
    return pts, w


def inverse_position(surface, t, x):
    """Initial position of the point x at time t under the flow of a
    ScaledSphereFlow or EllipsoidFlow, X(t, y) = s(t) y."""
    return np.asarray(x, dtype=float) / _scale(surface, t)


def velocity(surface, t, x):
    """Material velocity (s'(t)/s(t)) x of the same flows, where each axis
    scales by s(t) = 1 + a sin(2 pi t)."""
    if isinstance(surface, EllipsoidFlow):
        amplitude = np.array(surface.amplitudes)
    else:
        amplitude = surface.amplitude
    rate = amplitude * TWO_PI * math.cos(TWO_PI * t)
    return (rate / _scale(surface, t)) * np.asarray(x, dtype=float)


# --- mesh diagnostics --------------------------------------------------------

def node_surface_residual(mesh):
    """Max distance of the nodes from the exact surface (should be ~1e-14)."""
    q = mesh.surface.project(mesh.time, mesh.nodes)
    return float(np.max(np.linalg.norm(mesh.nodes - q, axis=-1)))


def orientation_defects(mesh):
    """Count of elements whose flat normal opposes the surface normal."""
    verts = mesh.vertex_coords()
    bary = verts.mean(axis=1)
    nu = mesh.surface.normal(mesh.time, mesh.surface.project(mesh.time, bary))
    if mesh.dimension == 1:
        tang = verts[:, 1] - verts[:, 0]
        flat_n = np.stack([tang[:, 1], -tang[:, 0]], axis=-1)
    else:
        flat_n = np.cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0])
    return int(np.sum(np.sum(flat_n * nu, axis=-1) <= 0.0))


def inscribed_radii(mesh):
    """Inscribed radius of each flat element; half the length of a segment."""
    if mesh.dimension == 1:
        return 0.5 * mesh.flat_diameters()
    verts = mesh.vertex_coords()
    e0 = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=-1)
    e1 = np.linalg.norm(verts[:, 2] - verts[:, 1], axis=-1)
    e2 = np.linalg.norm(verts[:, 0] - verts[:, 2], axis=-1)
    s = 0.5 * (e0 + e1 + e2)
    area2 = s * (s - e0) * (s - e1) * (s - e2)
    return np.sqrt(np.maximum(area2, 0.0)) / s


def quasi_uniformity_report(mesh):
    """Measured uniformity of the triangulation.

    size_ratio is max over min flat-element diameter (1 for congruent
    elements); shape_ratio is the worst diameter over inscribed radius.
    """
    diam = mesh.flat_diameters()
    rho = inscribed_radii(mesh)
    return {
        "h": float(diam.max()),
        "min_diameter": float(diam.min()),
        "size_ratio": float(diam.max() / diam.min()),
        "shape_ratio": float((diam / rho).max()),
        "min_inscribed_radius": float(rho.min()),
        "num_elements": mesh.num_elements,
    }


def _midpoint_closure(verts):
    """mid(i, j): the index in the list verts of the normalized midpoint of
    verts[i] and verts[j], appended on its first request."""
    index = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in index:
            p = 0.5 * (verts[i] + verts[j])
            verts.append(p / np.linalg.norm(p))
            index[key] = len(verts) - 1
        return index[key]

    return mid


def icosphere_by_faces(levels, degree):
    """The nodes, before projection, and the elements of build_sphere_mesh,
    built face by face with a closure that appends each edge midpoint on its
    first request: the loops that the vectorised midpoints replace."""
    verts = [v / np.linalg.norm(v) for v in meshing._ICO_VERTS]
    faces = list(meshing._ICO_FACES)
    for _ in range(levels):
        mid = _midpoint_closure(verts)
        children = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            children.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = children
    points = np.array(verts)
    oriented = []
    for a, b, c in faces:
        n = np.cross(points[b] - points[a], points[c] - points[a])
        oriented.append((a, c, b) if np.dot(n, points[a] + points[b] + points[c]) < 0.0
                        else (a, b, c))
    if degree == 1:
        return points, np.array(oriented, dtype=np.int64)
    edge = _midpoint_closure(verts)
    elements = [(a, b, c, edge(a, b), edge(b, c), edge(c, a)) for a, b, c in oriented]
    return np.array(verts), np.array(elements, dtype=np.int64)


# --- a jittered circle family ------------------------------------------------

def jittered_circle_mesh(n_elements, degree, jitter=0.5):
    """build_circle_mesh on the unit circle with each element's interior
    nodes shifted by ``jitter`` times a deterministic per-element
    pseudo-random angle of size O(span^2).

    The perfectly uniform family is special on the circle: every odd
    parameter derivative of the curve is tangential, so the geometric
    consistency errors superconverge by a whole extra order for degree >= 2.
    Rate studies that target the generic order use this family.  The shift
    keeps the parametrization regular uniformly in h (the optimal degree+1
    geometry approximation survives) and keeps quasi-uniformity, but makes
    the leading geometric error rough from element to element."""
    uniform = meshing.build_circle_mesh(Circle(), n_elements, degree)
    n_nodes = n_elements * degree
    theta = 2.0 * math.pi * (np.arange(n_nodes) / degree) / n_elements
    span = 2.0 * math.pi / n_elements
    element_of = np.arange(n_nodes) // degree
    local = np.arange(n_nodes) % degree
    wiggle = np.sin(2.71 * element_of + 0.9)  # fixed quasi-random signs
    theta = theta + jitter * span * span * wiggle * (local > 0)
    nodes = uniform.surface.project(0.0, np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    return SurfaceMesh(uniform.surface, degree, nodes, uniform.elements, time=0.0)


# --- the text mesh format ----------------------------------------------------

def _read_section(lines, idx, keyword, dtype, path):
    """Rows of the section whose header line ``<keyword> <count>`` is at idx,
    as an array, and the index of the line after the section."""
    head = lines[idx] if idx < len(lines) else []
    if len(head) != 2 or head[0] != keyword or not head[1].isdigit():
        raise IOFailure(f"{path}: expected a '{keyword} <count>' line")
    count = int(head[1])
    rows = lines[idx + 1:idx + 1 + count]
    if len(rows) != count:
        raise IOFailure(f"{path}: {keyword} section has {len(rows)} of {count} rows")
    try:
        table = np.array(rows, dtype=dtype)
    except ValueError as exc:
        raise IOFailure(f"{path}: malformed {keyword} section: {exc}") from exc
    return table, idx + 1 + count


def read_mesh_text(path, surface):
    """Read a snapshot written by write_mesh_text; the surface is supplied by
    the caller (the file stores geometry, not the analytic surface).

    Raises IOFailure when the file is not an esfem mesh or is incomplete.
    """
    with open(path, encoding="ascii") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if not lines or lines[0][0] != "esfem-mesh":
        raise IOFailure(f"{path}: not an esfem mesh file")
    idx = 1
    header = {}
    while idx < len(lines) and lines[idx][0] in ("degree", "dimension", "time"):
        header[lines[idx][0]] = lines[idx][1]
        idx += 1
    missing = {"degree", "time"} - header.keys()
    if missing:
        raise IOFailure(f"{path}: header lacks {', '.join(sorted(missing))}")
    nodes, idx = _read_section(lines, idx, "nodes", float, path)
    ref, idx = _read_section(lines, idx, "refnodes", float, path)
    elements, idx = _read_section(lines, idx, "elements", np.int64, path)
    if ref.shape != nodes.shape:
        raise IOFailure(f"{path}: refnodes do not match nodes")
    return SurfaceMesh(
        surface, int(header["degree"]), nodes, elements,
        ref_nodes=ref, time=float(header["time"]),
    )


# --- exact integrals, matrices and spectra -----------------------------------

def reference_monomial_integral(dim, powers):
    """Exact integral of x^p (segment) or x^p y^q (unit triangle)."""
    if dim == 1:
        (p,) = powers
        return 1.0 / (p + 1)
    p, q = powers
    # int_T x^p y^q = p! q! / (p+q+2)!
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def dense(mat):
    """The sparse matrix as a dense array, from its compressed rows."""
    out = np.zeros((mat.n, mat.n))
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    out[rows, mat.indices] = mat.data
    return out


def pattern_arrays(n, rows, cols):
    """The arrays of a SparsityPattern, built with np.unique(...,
    return_inverse=True) on the raveled keys row*n + col."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    entry_rows, indices = np.divmod(keys, n)
    counts = np.bincount(entry_rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    width = int(counts.max(initial=0))
    entry_slots = (np.arange(keys.size) - indptr[entry_rows]) * n + entry_rows
    table = np.zeros(n * width, dtype=np.int64)
    table[entry_slots] = indices
    ondiag = entry_rows == indices
    return {"n": n, "width": width, "indices": indices, "indptr": indptr,
            "entry_slots": entry_slots, "slots": entry_slots[inverse],
            "cols": table.reshape(width, n), "diag_rows": entry_rows[ondiag],
            "diag_slots": entry_slots[ondiag]}


def smallest_nonzero_eigenvalue(mass, stiffness, tol=1e-10, maxiter=400, seed=0):
    """Smallest nonzero generalized eigenvalue of (A, M) by inverse iteration
    on the shifted pencil (A + M, M) with the constant mode deflated."""
    n = mass.n
    rng = np.random.default_rng(seed)
    ones = np.ones(n)
    m_one = mass.matvec(ones)
    weight = float(ones @ m_one)
    shifted = stiffness.scaled_add(1.0, mass)

    y = rng.standard_normal(n)
    y -= ones * float(m_one @ y) / weight
    y /= math.sqrt(float(y @ mass.matvec(y)))
    lam = math.inf
    for _ in range(maxiter):
        x, _ = cg_solve(shifted, mass.matvec(y), tol=1e-13, x0=y)
        x -= ones * float(m_one @ x) / weight
        mx = mass.matvec(x)
        lam_new = float(x @ stiffness.matvec(x)) / float(x @ mx)
        x /= math.sqrt(float(x @ mx))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
        y = x
    return lam


def weighted_total_mass(mesh, coeffs):
    """1^T M(t) u, the discrete integral of the finite element function."""
    mass = assemble_mass(FeSpace(mesh, DISCRETE))
    return float(np.ones(mesh.num_nodes) @ mass.matvec(coeffs))


# --- geometric prefactors of the lift ----------------------------------------

def prefactors(mesh):
    """Deviation of the lift's geometric prefactors from the identity at the
    lifted quadrature points.

    The measure ratio a satisfies int_{Gamma_h} u v = int_Gamma a u^l v^l;
    the gradient transform B = a T Ghat^{-1} T^T (T the lifted tangent map,
    Ghat the discrete metric) satisfies the same identity for tangential
    gradients.  Returns (sup |a - 1|, sup of the eigenvalue moduli of B - P
    with P the tangential projector, min a).
    """
    d = mesh.dimension + 1
    order = default_quad_order(mesh.degree, mesh.dimension, LIFTED)
    disc = element_geometry(mesh, DISCRETE, order)
    lift = element_geometry(mesh, LIFTED, order)
    ratio = disc.metric_factor / lift.metric_factor
    dq = mesh.surface.project_with_jacobian(mesh.time, disc.points.reshape(-1, d))[1]
    tmap = dq.reshape(disc.points.shape + (d,)) @ disc.jac
    bfield = ratio[..., None, None] * (tmap @ disc.inv_metric @ np.swapaxes(tmap, -1, -2))
    nu = mesh.surface.normal(mesh.time, lift.points.reshape(-1, d)).reshape(lift.points.shape)
    tangential_id = np.eye(d) - nu[..., :, None] * nu[..., None, :]
    dev = np.linalg.eigvalsh(bfield - tangential_id)
    return float(np.abs(ratio - 1.0).max()), float(np.abs(dev).max()), float(ratio.min())


# --- the kernel difference's tables over the whole fine mesh -------------------

def point_interpolation(mesh, elements, refs):
    """The map from a coefficient vector on mesh to its values at the points
    with reference coordinates refs in the given elements.

    ``elements`` may come in rows, shape (groups, points per group) with refs
    (groups, points per group, d), such as the quadrature points of each
    element of a finer mesh.  When every row lies in one element, the
    coefficients are gathered once per row; otherwise once per point.  The
    values come back flat, row after row.
    """
    elements = np.asarray(elements)
    refs = np.asarray(refs, dtype=float)
    sv = mesh.reference.shape_values(refs.reshape(-1, refs.shape[-1]))
    if elements.ndim == 2 and (elements == elements[:, :1]).all():
        table = np.ascontiguousarray(
            sv.reshape(elements.shape + sv.shape[-1:]).transpose(0, 2, 1))
        gather = mesh.elements[elements[:, 0]]
        return lambda coeffs: np.einsum("ek,ekq->eq", coeffs[gather], table).reshape(-1)
    sv = np.ascontiguousarray(sv.T)
    gather = np.ascontiguousarray(mesh.elements[elements.reshape(-1)].T)
    return lambda coeffs: np.einsum("kp,kp->p", sv, coeffs[gather])


def lift_quadrature(coarse_mesh, geom):
    """The coarse elements (E_f, Q) and reference coordinates (E_f, Q, d)
    of the quadrature points of a whole lifted fine geometry, inverse-lifted
    in one call with the nested guess when E_c divides E_f."""
    n_fine, n_quad = geom.weights.shape
    guess = None
    if n_fine % coarse_mesh.num_elements == 0:
        ratio = n_fine // coarse_mesh.num_elements
        guess = np.repeat(np.arange(n_fine) // ratio, n_quad)
    elems, refs = radial_inverse_lift(
        coarse_mesh, geom.points.reshape(-1, geom.points.shape[-1]), guess=guess)
    return elems.reshape(n_fine, n_quad), refs.reshape(n_fine, n_quad, -1)


def coarse_at_quadrature(coarse_mesh, geom):
    """The map from a coarse coefficient vector to its values at the
    quadrature points of a whole lifted fine geometry (``lift_quadrature``)."""
    return point_interpolation(coarse_mesh, *lift_quadrature(coarse_mesh, geom))


def whole_difference_l1(fine_mesh, geom, coarse_at, fine_coeffs, coarse_coeffs):
    """The L^1 norm over a whole lifted fine geometry of the difference
    between a fine and a coarse coefficient vector, in one pass over all
    (E_f, Q) points: the kernel difference at one time node, with coarse_at
    from ``coarse_at_quadrature``."""
    fine_vals = (fine_coeffs[fine_mesh.elements] @ geom.shape_values.T).reshape(-1)
    return float(geom.weights.reshape(-1) @ np.abs(fine_vals - coarse_at(coarse_coeffs)))


# --- a maxreg study cell without shared frames ---------------------------------

def unshared_cell(config, surface, level):
    """``studies._solve_level`` with two independent solve_heat streams, the
    dt stream drawn to its end before the dt/2 stream starts: each stream
    evolves, assembles and loads every one of its own time nodes."""
    mesh = build_level_mesh(surface, level, config.degree)
    grid = TimeGrid.from_mesh(mesh, t_end=1.0, factor=config.dt_factor)
    forcing = forcing_profile(config.profile, surface)
    qset = tuple(sorted({q for _, q in config.pq_pairs}))
    pairs = [(name, q) for name in ("udot", "lap", "fh") for q in qset]
    common = dict(scheme=config.scheme, cg_tol=config.cg_tol)
    coarse = norm_series(solve_heat(mesh, forcing, grid, **common), pairs)
    fine = norm_series(solve_heat(mesh, forcing, grid.halved(), **common), pairs)
    return mesh, grid, coarse, fine
