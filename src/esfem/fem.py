"""Finite element spaces on a discrete surface and on its lifted image.

The "discrete" tag integrates with the metric of the piecewise-polynomial
surface itself; the "lifted" tag composes every element map with the exact
closest-point projection, so quadrature runs over the smooth surface with the
exact metric.  Both paths share one reference-element pipeline: per mesh
family and quadrature rule, ``_ReferenceMaps`` tabulates the basis on the
reference element once; every snapshot then maps its points and Jacobians
with one matrix product each over all elements, and the stiffness matrix is
one product of the weighted inverse metric with a reference table.

A function on a space is its coefficient vector, of length
``space.num_dofs`` in the nodal basis; its lift to the exact surface keeps
the coefficients, so lifting is a change of space, not of vector.  The
nodal interpolant of fn is ``fn(mesh.nodes)``.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidExponent,
    NonConvergence,
    PointNotOnMesh,
    SingularElement,
    UnsupportedSurface,
)
from .quadrature import reference_rule
from .reference import reference_element
from .sparse import SparsityPattern, cg_solve

DISCRETE = "discrete"
LIFTED = "lifted"


class _ReferenceMaps:
    """Reference tables of one element type and point set, in the layouts
    that turn per-element work into single matrix products.

    With nloc local nodes, Q points, reference dimension m and ambient
    dimension d = m + 1 (Q' = 1 for degree 1, whose reference gradients are
    constant, and Q otherwise):

    shape_values: (Q, nloc); shape_grads: (Q', nloc, m);
    point_map: (nloc*d, Q*d), so that element coordinates flattened to
    (E, nloc*d) times point_map are the (E, Q, d) mapped points;
    jac_map: (nloc*d, Q'*d*m), the same for the (E, Q', d, m) Jacobians;
    stiffness_table: (Q'*m*m, nloc*nloc) products g_ia g_jb of reference
    gradients, since grad phi_i . grad phi_j = g_i^T G^{-1} g_j.
    """

    def __init__(self, ref, points):
        m, nloc = ref.dim, ref.n_nodes
        d = m + 1
        eye = np.eye(d)
        self.shape_values = ref.shape_values(points)
        sg = ref.shape_gradients(points[:1] if ref.degree == 1 else points)
        self.shape_grads = sg
        self.point_map = np.kron(self.shape_values.T, eye)
        self.jac_map = np.einsum("qla,kj->lkqja", sg, eye).reshape(nloc * d, -1)
        self.stiffness_table = np.einsum("qia,qjb->qabij", sg, sg).reshape(
            -1, nloc * nloc)
        # shared by every geometry built on this rule
        for table in vars(self).values():
            table.flags.writeable = False


@lru_cache(maxsize=None)
def _rule_maps(dim, degree, order):
    return _ReferenceMaps(reference_element(dim, degree),
                          reference_rule(dim, order).points)


class ElementGeometry:
    """Geometry tables at the reference quadrature points, shared by assembly
    and norms.  With E elements, Q points, nloc local nodes, reference
    dimension m and ambient dimension d:

    shape_values: (Q, nloc) reference basis values;
    ref_grads: (Q', nloc, m) reference basis gradients;
    stiffness_table: (Q'*m*m, nloc*nloc) reference gradient products
    (``_ReferenceMaps``);
    points: (E, Q, d) mapped quadrature points (on Gamma_h or on Gamma),
    C-contiguous;
    weights: (E, Q) quadrature weight times metric factor;
    jac: (E, Q', d, m) Jacobians of the element maps;
    inv_metric: (E, Q', m, m) inverse of the metric G = jac^T jac;
    metric_factor: (E, Q') square root of the Gram determinant det G;
    tangent_grads: (E, Q', nloc, d) tangential basis gradients
    ref_grads G^{-1} jac^T, computed on first access (only gradient
    evaluation and the Ritz projection read them).

    Q' is 1 where the quantity is the same at every point and Q otherwise:
    the reference gradients of degree 1, and the Jacobian and metric of
    affine elements (degree 1 on the discrete surface).  The length-1 axis
    broadcasts against the quadrature axis.
    """

    def __init__(self, maps, points, weights, jac, inv_metric, metric_factor):
        self.shape_values = maps.shape_values
        self.ref_grads = maps.shape_grads
        self.stiffness_table = maps.stiffness_table
        self.points = points
        self.weights = weights
        self.jac = jac
        self.inv_metric = inv_metric
        self.metric_factor = metric_factor

    @cached_property
    def tangent_grads(self):
        return self.ref_grads @ (self.inv_metric @ np.swapaxes(self.jac, -1, -2))


def _gram(jac, m):
    """The entries G_ab, a <= b, of G = jac^T jac, each flat over the
    leading axes, formed entry by entry from a component-major copy of the
    Jacobians (a matmul over the trailing d x m blocks is several times
    slower).  The copy goes on return, before the metric is inverted."""
    d = jac.shape[-2]
    comp = jac.reshape(-1, d * m).T.copy()  # row k*m + a holds J_ka
    entries = []
    for a in range(m):
        for b in range(a, m):
            g = comp[a] * comp[b]
            for k in range(1, d):
                g += comp[k * m + a] * comp[k * m + b]
            entries.append(g)
    return entries


def _metric(jac, m):
    """det G and G^{-1} of G = jac^T jac.  Raises SingularElement before
    inverting if det G is not positive and finite everywhere."""
    lead = jac.shape[:-2]
    if m == 1:
        (det,) = _gram(jac, m)
        det = det.reshape(lead)
        _check_gram(det)
        return det, (1.0 / det)[..., None, None]
    g00, g01, g11 = _gram(jac, m)
    det = g00 * g11 - g01 * g01
    _check_gram(det.reshape(lead))
    inv = np.empty((len(det), 2, 2))
    inv[:, 0, 0] = g11 / det
    inv[:, 1, 1] = g00 / det
    inv[:, 0, 1] = inv[:, 1, 0] = -g01 / det
    return det.reshape(lead), inv.reshape(lead + (2, 2))


def _check_gram(det):
    """Raise SingularElement naming the degenerate elements of an (E, Q')
    table of Gram determinants, if any."""
    ok = np.isfinite(det) & (det > 0.0)
    if ok.all():
        return
    bad = ~ok.all(axis=1)
    first = int(np.flatnonzero(bad)[0])
    value = float(det[first][~ok[first]][0])
    kind = "non-finite" if not math.isfinite(value) else "not positive"
    raise SingularElement(
        f"{int(bad.sum())} of {len(det)} elements have a degenerate Jacobian; "
        f"first is element {first} with Gram determinant {value:.3e} ({kind})"
    )


def element_geometry(mesh, tag=DISCRETE, order=None):
    """Geometry tables at reference quadrature points (cached on the mesh).

    Raises SingularElement if the Gram determinant of any element map is
    zero, negative or not finite at a point.
    """
    if order is None:
        order = default_quad_order(mesh.degree, mesh.dimension, tag)
    cache = mesh._geom_cache
    key = (tag, order)
    if key not in cache:
        cache[key] = block_geometry(mesh, tag, order, 0, mesh.num_elements)
    return cache[key]


def block_geometry(mesh, tag, order, lo, hi):
    """Geometry tables of the elements lo:hi alone, built afresh and not
    cached: the element maps' points and Jacobians at the rule's points,
    composed with the closest-point projection for the lifted tag, and the
    metric and weights they give.  ``element_geometry`` is this over all
    elements; a caller that walks the elements in blocks holds one block's
    tables at a time.

    Raises SingularElement as ``element_geometry`` does, with the element
    numbered within the block.
    """
    if tag not in (DISCRETE, LIFTED):
        raise ValueError(f"unknown surface tag {tag!r}")
    m = mesh.dimension
    rule = reference_rule(m, order)
    maps = _rule_maps(m, mesh.degree, order)
    n_el, d = hi - lo, m + 1
    coords = np.take(mesh.nodes, mesh.elements[lo:hi], axis=0).reshape(n_el, -1)
    points = (coords @ maps.point_map).reshape(n_el, -1, d)
    jac = (coords @ maps.jac_map).reshape(n_el, -1, d, m)
    if tag == LIFTED:
        projected, dq = mesh.surface.project_with_jacobian(
            mesh.time, points.reshape(-1, d))
        jac = dq.reshape(points.shape + (d,)) @ jac
        points = projected.reshape(points.shape)
        del dq  # the (E, Q, d, d) projection Jacobians are not held through the metric
    det, inv = _metric(jac, m)
    mu = np.sqrt(det)
    return ElementGeometry(
        maps=maps,
        points=points,
        weights=rule.weights[None, :] * mu,
        jac=jac,
        inv_metric=inv,
        metric_factor=mu,
    )


def default_quad_order(degree, dim, tag):
    """2k+2 on the discrete surface; elevated for exact-metric integration."""
    base = 2 * degree + 2
    if tag == LIFTED:
        return max(base, 23 if dim == 1 else base + 4)
    return base


class FeSpace:
    """Isoparametric nodal space on a mesh snapshot, on Gamma_h or lifted.
    A function on the space is its coefficient vector, one value per node.

    The space fixes the quadrature rule: every assembly, load, projection
    and norm on it integrates with ``quad_order`` (``default_quad_order``
    unless given).  The tables of another order are
    ``element_geometry(mesh, tag, order)``.
    """

    def __init__(self, mesh, tag=DISCRETE, quad_order=None):
        if tag not in (DISCRETE, LIFTED):
            raise ValueError(f"unknown surface tag {tag!r}")
        self.mesh = mesh
        self.tag = tag
        self.degree = mesh.degree
        self.num_dofs = mesh.num_nodes
        self.quad_order = (
            default_quad_order(mesh.degree, mesh.dimension, tag)
            if quad_order is None
            else int(quad_order)
        )

    def geometry(self):
        return element_geometry(self.mesh, self.tag, self.quad_order)

    def pattern(self):
        cache = self.mesh.family_cache
        if "pattern" not in cache:
            # entry (e, a, b) of the local matrices: row el[e, a], col el[e, b]
            el = self.mesh.elements
            shape = el.shape + el.shape[1:]
            rows = np.broadcast_to(el[:, :, None], shape)
            cols = np.broadcast_to(el[:, None, :], shape)
            cache["pattern"] = SparsityPattern(self.num_dofs, rows, cols)
        return cache["pattern"]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble_mass(space):
    geom = space.geometry()
    sv = geom.shape_values
    nq, nloc = sv.shape
    table = (sv[:, :, None] * sv[:, None, :]).reshape(nq, nloc * nloc)
    local = (geom.weights @ table).reshape(-1, nloc, nloc)
    return space.pattern().assemble(local)


def assemble_stiffness(space):
    """A_ij = sum_q w_q g_i^T G^{-1} g_j: the weighted inverse metric times
    the reference table of gradient products, one matrix product."""
    geom = space.geometry()
    weights, inv = geom.weights, geom.inv_metric
    n_el, m = len(weights), inv.shape[-1]
    if inv.shape[1] == 1:
        # affine elements: one metric per element, so sum the weights first
        wg = weights.sum(axis=1)[:, None] * inv.reshape(n_el, m * m)
    else:
        wg = (weights[..., None, None] * inv).reshape(n_el, -1, m * m)
        if len(geom.ref_grads) == 1:
            # constant reference gradients: contract over the points first
            wg = wg.sum(axis=1)
    local = wg.reshape(n_el, -1) @ geom.stiffness_table
    return space.pattern().assemble(local)


def _call_spatial(fn, t, pts):
    """fn(t, x) when a time is given, fn(x) otherwise, on the flattened
    points; values keep any trailing axes (gradients)."""
    flat = pts.reshape(-1, pts.shape[-1])
    vals = np.asarray(fn(t, flat) if t is not None else fn(flat), dtype=float)
    return vals.reshape(pts.shape[:-1] + vals.shape[1:])


def load_vector(space, fn):
    """b_i = integral of fn * phi_i over the space's surface."""
    return load_from_geometry(space.geometry(), space.mesh.elements, space.num_dofs, fn)


def load_from_geometry(geom, elements, n_dofs, fn, t=None):
    fvals = _call_spatial(fn, t, geom.points)
    local = (geom.weights * fvals) @ geom.shape_values
    return np.bincount(elements.ravel(), weights=local.ravel(), minlength=n_dofs)


# ---------------------------------------------------------------------------
# projections and discrete operators
# ---------------------------------------------------------------------------


def l2_project(space, fn, mass, tol):
    return cg_solve(mass, load_vector(space, fn), tol=tol)[0]


def discrete_laplacian(u, mass, stiffness, tol):
    """w with (w, chi) = -(grad u, grad chi) for all chi, i.e. M w = -A u."""
    return cg_solve(mass, -stiffness.matvec(u), tol=tol)[0]


def delta_load(space, x0):
    """Vector e with e_i = phi_i(x0); the dual pairing of the point mass."""
    element, ref = locate_point(space.mesh, x0)
    sv = space.mesh.reference.shape_values(np.atleast_2d(ref))[0]
    e = np.zeros(space.num_dofs)
    np.add.at(e, space.mesh.elements[element], sv)
    return e


def discrete_delta(space, x0, tol):
    """L2 projection of the point mass at x0: reproduces chi(x0) against chi,
    solved for to tol."""
    return cg_solve(assemble_mass(space), delta_load(space, x0), tol=tol)[0]


def ritz_project(space, fn, grad_fn, tol):
    """Projection with respect to the (grad, grad) + (., .) inner product.

    grad_fn supplies the ambient gradient of fn; only its tangential part
    enters, because the test gradients are tangential already.
    """
    geom = space.geometry()
    fvals = _call_spatial(fn, None, geom.points)
    gvals = _call_spatial(grad_fn, None, geom.points)
    local = (geom.weights * fvals) @ geom.shape_values
    local += np.einsum("eqd,eqid->ei", geom.weights[..., None] * gvals,
                       geom.tangent_grads, optimize=True)
    b = np.bincount(space.mesh.elements.ravel(), weights=local.ravel(),
                    minlength=space.num_dofs)
    system = assemble_stiffness(space).scaled_add(1.0, assemble_mass(space))
    return cg_solve(system, b, tol=tol)[0]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def check_exponent(q):
    if q != math.inf and not q >= 1:
        raise InvalidExponent(f"norm exponent must be >= 1 or inf, got {q}")


def _checked(space, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (space.num_dofs,):
        raise DimensionMismatch(
            f"coefficient vector has shape {u.shape}; the space has {space.num_dofs} dofs")
    return u


def norm_lq(space, u, q):
    """L^q norm over the space's surface of u, a coefficient vector of the
    space or a callable u(x); q = inf takes the max over quadrature points
    (and nodes, for a vector: documented approximation)."""
    check_exponent(q)
    geom = space.geometry()
    if callable(u):
        vals = _call_spatial(u, None, geom.points)
        if q == math.inf:
            return float(np.abs(vals).max())
        return float(np.sum(geom.weights * np.abs(vals) ** q) ** (1.0 / q))
    return element_norms_lq(_checked(space, u), space.mesh.elements, geom, q)


def tangent_gradients(space, coeffs):
    """(E, Q', d) tangential gradients of a coefficient vector at the
    space's quadrature points, and the geometry they were taken on."""
    geom = space.geometry()
    local = coeffs[space.mesh.elements]
    return np.einsum("el,eqld->eqd", local, geom.tangent_grads), geom


def norm_w1q(space, u, q):
    """(|u|_q^q + |grad u|_q^q)^(1/q); max of the two sups for q = inf."""
    check_exponent(q)
    u = _checked(space, u)
    grads, geom = tangent_gradients(space, u)
    vals = element_values(u, space.mesh.elements, geom)
    gmag = np.linalg.norm(grads, axis=-1)
    if q == math.inf:
        return float(max(np.abs(vals).max(), gmag.max(), np.abs(u).max()))
    total = np.sum(geom.weights * (np.abs(vals) ** q + gmag**q))
    return float(total ** (1.0 / q))


def seminorm_h1(space, u):
    grads, geom = tangent_gradients(space, u)
    gmag2 = np.sum(grads * grads, axis=-1)
    return float(math.sqrt(np.sum(geom.weights * gmag2)))


def element_values(coeffs, elements, geom):
    """Values of a coefficient vector at the geometry's quadrature points."""
    return coeffs[elements] @ geom.shape_values.T


def _abs_power(vals, q):
    # np.power is the per-step hot spot for fractional q; special-case the
    # small integer exponents the studies actually use
    if q == 2.0:
        return vals * vals
    if q == 4.0:
        sq = vals * vals
        return sq * sq
    if q == 1.0:
        return np.abs(vals)
    if q == 3.0:
        return vals * vals * np.abs(vals)
    return np.abs(vals) ** q


def values_norm_lq(vals, coeffs, geom, q):
    if q == math.inf:
        return float(max(np.abs(vals).max(), np.abs(coeffs).max()))
    return float(np.sum(geom.weights * _abs_power(vals, q)) ** (1.0 / q))


def element_norms_lq(coeffs, elements, geom, q):
    """L^q norm of a coefficient vector against a prebuilt geometry table."""
    return values_norm_lq(element_values(coeffs, elements, geom), coeffs, geom, q)


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------


def locate_point(mesh, x):
    """Find (element, reference coordinates) of a point of Gamma_h.

    Casts the ray from the origin through x as ``radial_inverse_lift`` does,
    with the residual normal to the ray at rounding level.  On the meshes the
    builders make, each element's ray cone is its flat simplex's cone, so the
    ray meets Gamma_h at x itself when x is on it; raises PointNotOnMesh when
    the point it meets is more than 1e-10*max(1, |x|) from x, or x is zero
    or not finite.
    """
    x = np.asarray(x, dtype=float)
    scale = max(1.0, float(np.linalg.norm(x)))
    elems, refs = _cast_rays(mesh, x[None, :], 1e-15 * scale, None)
    element, ref = int(elems[0]), refs[0]
    if not np.linalg.norm(element_point(mesh, element, ref) - x) <= 1e-10 * scale:
        raise PointNotOnMesh(f"point {x} not inside any element")
    return element, ref


def element_point(mesh, element, ref):
    """Map a reference point of one element to physical coordinates."""
    sv = mesh.reference.shape_values(np.atleast_2d(ref))[0]
    return sv @ mesh.nodes[mesh.elements[element]]


# rays per block: the (block, E, d) barycentric temporaries of the scoring
# stay a few MB however many points are lifted
_LIFT_BLOCK = 1024
# Newton steps of radial_inverse_lift before it reports a stall, and the
# residual normal to the ray that it stops at
_LIFT_MAXITER = 40
_LIFT_TOL = 1e-12


def _row_dot(a, b):
    # np.sum(a * b, axis=-1) for a few columns, bit for bit, without the slow
    # reduce over a short axis
    out = a[:, 0] * b[:, 0]
    for k in range(1, a.shape[-1]):
        out += a[:, k] * b[:, k]
    return out


def _sum_min(lam):
    # sum and minimum over the leading axis of length d, componentwise: a
    # reduce over an axis that short is slow
    lam_sum, lam_min = lam[0] + lam[1], np.minimum(lam[0], lam[1])
    for comp in lam[2:]:
        lam_sum += comp
        np.minimum(lam_min, comp, out=lam_min)
    return lam_sum, lam_min


def _score_rays(inv, rays):
    # the element whose flat simplex each ray crosses deepest, and the
    # reference coordinates of the crossing
    lam = np.einsum("eij,pj->ipe", inv, rays)  # (d, P, E)
    lam_sum, lam_min = _sum_min(lam)
    # min(lam)/sum == min(lam/sum) exactly: division by sum > 0 is monotone
    with np.errstate(divide="ignore", invalid="ignore"):
        score = lam_min / lam_sum
    score[~(lam_sum > 0)] = -1.0
    best = np.argmax(score, axis=-1)
    rows = np.arange(rays.shape[0])
    return best, (lam[1:, rows, best] / lam_sum[rows, best]).T


def _check_guess(guess, n, n_elements):
    guess = np.asarray(guess)
    if guess.shape != (n,):
        raise DimensionMismatch(
            f"guess has shape {guess.shape}; expected ({n},), one element per point")
    if guess.dtype.kind not in "iu":
        raise ValueError(f"guess must hold element indices, got dtype {guess.dtype}")
    if n and (guess.min() < 0 or guess.max() >= n_elements):
        raise ValueError(
            f"guess names elements outside 0..{n_elements - 1}: "
            f"{int(guess.min())}..{int(guess.max())}")
    return guess


def _project_onto_rays(mesh, rays, elems, refs, tol):
    """Projected Gauss-Newton on one block: move refs (in place) until the
    Gamma_h point of each (element, ref) lies on its ray to ``tol``."""
    ref_el = mesh.reference
    local_nodes = np.take(mesh.elements, elems, axis=0)

    def residual(idx):
        # component of the Gamma_h point normal to the ray
        coords = np.take(mesh.nodes, local_nodes[idx], axis=0)
        pos = np.einsum("pl,pld->pd", ref_el.shape_values(refs[idx]), coords)
        ray = rays[idx]
        return pos - ray * _row_dot(ray, pos)[:, None], coords

    n = len(rays)
    active = slice(None)  # the first pass takes every point, without copies
    for _ in range(_LIFT_MAXITER):
        resid, coords = residual(active)
        keep = ~(np.sqrt(_row_dot(resid, resid)) < tol)
        active = np.arange(n)[active][keep]
        resid, coords = resid[keep], coords[keep]
        if active.size == 0:
            return
        ray = rays[active]
        jac = np.swapaxes(coords, 1, 2) @ ref_el.shape_gradients(refs[active])
        jac -= ray[:, :, None] * (ray[:, None, :] @ jac)
        jac_t = np.swapaxes(jac, 1, 2)
        refs[active] -= np.linalg.solve(jac_t @ jac, jac_t @ resid[..., None])[..., 0]
    resid, _ = residual(active)
    dist = np.linalg.norm(resid, axis=-1)
    stalled = ~(dist < tol)
    if stalled.any():
        raise NonConvergence(
            f"ray cast: {int(stalled.sum())} points above residual "
            f"{tol:.1e} after {_LIFT_MAXITER} Newton steps, worst "
            f"{float(np.nanmax(dist)):.3e}"
        )


def radial_inverse_lift(mesh, points, guess=None):
    """Inverse of the closest-point projection restricted to Gamma_h, for
    surfaces with radial projection (circle/sphere families).

    Returns (elements, ref_coords) such that mapping the reference points
    through the element maps gives the Gamma_h points projecting onto
    ``points``.  Each ray through the origin goes to the element whose flat
    vertex simplex it crosses deepest (largest smallest barycentric; the first
    such element on ties).  ``guess`` optionally gives one element per point
    to try first: a ray that crosses its guessed flat simplex (no barycentric
    below 0) keeps that element, and only the other rays are scored against
    every element, so a wrong guess costs time but never the result.
    Projected Gauss-Newton then moves the crossing of the flat simplex onto
    the curved element until the residual normal to the ray is below
    ``_LIFT_TOL``.  Both run on blocks of ``_LIFT_BLOCK`` rays: beyond a few
    values per point and the mesh's ``flat_inverses``, the call's
    temporaries are O(block) at any number of points.
    Raises UnsupportedSurface for a non-radial kind, PointNotOnMesh for
    non-finite or zero points, NonConvergence if Newton stalls (counting
    the points of the first block that stalls), and DimensionMismatch or
    ValueError for a guess of the wrong length or with elements out of
    range.
    """
    if not hasattr(mesh.surface, "radius"):
        raise UnsupportedSurface("inverse lift by ray casting needs a radial kind")
    return _cast_rays(mesh, points, _LIFT_TOL, guess)


def _cast_rays(mesh, points, tol, guess):
    # the ray cast of radial_inverse_lift on any mesh star-shaped around the
    # origin; locate_point casts its one ray here too
    pts = np.asarray(points, dtype=float)
    norms = np.sqrt(_row_dot(pts, pts))
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        raise PointNotOnMesh(
            f"{int(bad.sum())} points are zero or not finite, "
            f"first {pts[bad][0]}; no ray to cast"
        )
    n = pts.shape[0]
    if guess is not None:
        guess = _check_guess(guess, n, mesh.num_elements)
    # inverses of the flat simplices' vertex matrices turn a ray into
    # barycentric weights; the snapshot computes them once
    inv = mesh.flat_inverses
    elems = np.empty(n, dtype=np.intp)
    refs = np.empty((n, mesh.dimension))
    for lo in range(0, n, _LIFT_BLOCK):
        hi = min(lo + _LIFT_BLOCK, n)
        rays = pts[lo:hi] / norms[lo:hi, None]
        if guess is None:
            elems[lo:hi], refs[lo:hi] = _score_rays(inv, rays)
        else:
            # barycentrics against the guessed simplex only; the rays that
            # miss it are scored against every element
            lam = np.einsum("pij,pj->ip", np.take(inv, guess[lo:hi], axis=0), rays)
            lam_sum, lam_min = _sum_min(lam)
            elems[lo:hi] = guess[lo:hi]
            with np.errstate(divide="ignore", invalid="ignore"):
                refs[lo:hi] = (lam[1:] / lam_sum).T
            missed = np.flatnonzero(~((lam_min >= 0.0) & (lam_sum > 0.0)))
            if missed.size:
                elems[lo + missed], refs[lo + missed] = _score_rays(inv, rays[missed])
        _project_onto_rays(mesh, rays, elems[lo:hi], refs[lo:hi], tol)
    return elems, refs
