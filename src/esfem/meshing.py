"""Isoparametric surface triangulations whose nodes ride on the exact surface.

Meshes are immutable snapshots: evolving a mesh produces a new snapshot whose
nodes are the flow-map images of the time-zero node positions, so no motion
error accumulates over time steps.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegenerateMesh, UnsupportedSurface
from .reference import reference_element

# surface dimension -> the element degrees its mesh builder supports, and
# the smallest level it accepts (curves: elements, spheres: subdivisions)
ELEMENT_DEGREES = {1: (1, 2, 3), 2: (1, 2)}
MIN_LEVEL = {1: 4, 2: 0}

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        (-1, _GOLDEN, 0),
        (1, _GOLDEN, 0),
        (-1, -_GOLDEN, 0),
        (1, -_GOLDEN, 0),
        (0, -1, _GOLDEN),
        (0, 1, _GOLDEN),
        (0, -1, -_GOLDEN),
        (0, 1, -_GOLDEN),
        (_GOLDEN, 0, -1),
        (_GOLDEN, 0, 1),
        (-_GOLDEN, 0, -1),
        (-_GOLDEN, 0, 1),
    ],
    dtype=float,
)

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


class SurfaceMesh:
    """Degree-k triangulation of Gamma_h(t) with nodes on Gamma(t).

    nodes: (N, d) current positions; ref_nodes: (N, d) positions at t=0;
    elements: (E, nloc) node indices matching the reference node ordering.
    """

    def __init__(self, surface, degree, nodes, elements, ref_nodes=None, time=0.0,
                 family_cache=None):
        self.surface = surface
        self.degree = int(degree)
        self.nodes = np.asarray(nodes, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.ref_nodes = self.nodes if ref_nodes is None else np.asarray(ref_nodes, float)
        self.time = float(time)
        self.dimension = surface.dimension
        self.reference = reference_element(self.dimension, self.degree)
        self._geom_cache = {}  # (tag, order) -> fem.element_geometry's tables
        # shared across evolved snapshots (connectivity-dependent structures)
        self.family_cache = {} if family_cache is None else family_cache

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def vertex_coords(self):
        """Corner-vertex coordinates of the flat elements, (E, nverts, d)."""
        return self.nodes[self.elements[:, list(self.reference.vertex_ids)]]

    @cached_property
    def flat_inverses(self):
        """Inverses of the flat elements' vertex matrices (vertices as
        columns), (E, d, d), read-only: inverse e times a point gives its
        barycentric weights in flat simplex e.  Computed on first access and
        kept by this snapshot, since evolved snapshots move the nodes."""
        inv = np.linalg.inv(np.swapaxes(self.vertex_coords(), 1, 2))
        inv.flags.writeable = False
        return inv

    def flat_diameters(self):
        verts = self.vertex_coords()
        if self.dimension == 1:
            return np.linalg.norm(verts[:, 1] - verts[:, 0], axis=-1)
        e0 = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=-1)
        e1 = np.linalg.norm(verts[:, 2] - verts[:, 1], axis=-1)
        e2 = np.linalg.norm(verts[:, 0] - verts[:, 2], axis=-1)
        return np.max(np.stack([e0, e1, e2]), axis=0)

    @cached_property
    def h(self):
        return float(self.flat_diameters().max())

    def evolved(self, t):
        """Snapshot at time t: node i goes to X(t, y_i); connectivity unchanged."""
        nodes = self.surface.position(t, self.ref_nodes)
        return SurfaceMesh(
            self.surface, self.degree, nodes, self.elements,
            ref_nodes=self.ref_nodes, time=t, family_cache=self.family_cache,
        )


def build_circle_mesh(surface, n_elements, degree=1):
    """Uniform degree-k mesh of a closed curve, nodes on the exact curve.

    Nodes sit at parameter angles 2*pi*j/(N*k) projected onto Gamma(0).

    Element e spans the parameter angles [2*pi*e/N, 2*pi*(e+1)/N], so the
    meshes nest in child order: when N_c divides N_f, element k of the N_f
    mesh lies in the ray cone of element k // (N_f / N_c) of the N_c mesh.
    """
    n_elements = int(n_elements)
    if surface.dimension != 1:
        raise UnsupportedSurface("circle meshes need a one-dimensional surface")
    if n_elements < MIN_LEVEL[1]:
        raise DegenerateMesh(f"need at least {MIN_LEVEL[1]} elements on a closed curve")
    if degree not in ELEMENT_DEGREES[1]:
        raise ValueError(f"curve elements support degrees {ELEMENT_DEGREES[1]}")
    n_nodes = n_elements * degree
    fractions = np.arange(n_nodes) / degree
    theta = 2.0 * math.pi * fractions / n_elements
    param = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ref_nodes = surface.project(0.0, param)
    elements = np.empty((n_elements, degree + 1), dtype=np.int64)
    for e in range(n_elements):
        elements[e] = [(e * degree + i) % n_nodes for i in range(degree + 1)]
    return SurfaceMesh(surface, degree, ref_nodes, elements, time=0.0)


def _edge_midpoints(verts, faces):
    """The vertices with the normalized midpoints of the edges ab, bc, ca of
    every face (a, b, c) appended, each edge once, in the order the faces
    first name it, and the (F, 3) indices of every face's three midpoints."""
    requests = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    n = len(verts)
    codes = requests.min(axis=1) * n + requests.max(axis=1)
    _, first, edge_of = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct edges by first request
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    a, b = requests[first[order]].T
    mids = 0.5 * (verts[a] + verts[b])
    # one dot product per row, as np.linalg.norm takes of a single vector
    # (an einsum or a row sum rounds some norms differently)
    mids /= np.sqrt(np.vecdot(mids, mids))[:, None]
    return np.concatenate([verts, mids]), (n + rank[edge_of]).reshape(-1, 3)


def _subdivide(verts, faces):
    """One midpoint subdivision: the four children of face k at 4k..4k+3."""
    verts, faces = np.asarray(verts, dtype=float), np.asarray(faces, dtype=np.int64)
    verts, mids = _edge_midpoints(verts, faces)
    ab, bc, ca = mids.T
    a, b, c = faces.T
    children = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return verts, children.reshape(-1, 3)


def build_sphere_mesh(surface, levels, degree=1):
    """Icosahedral degree-k mesh: `levels` midpoint subdivisions, all nodes
    (vertices and, for degree 2, edge nodes) projected onto Gamma(0).

    Each subdivision puts the four children of face k at 4k..4k+3, so the
    levels nest in child order: element k of level L lies in the ray cone of
    element k // 4**(L - J) of level J <= L.
    """
    if surface.dimension != 2:
        raise UnsupportedSurface("sphere meshes need a two-dimensional surface")
    if not (hasattr(surface, "radius") or surface.kind == "ellipsoid_flow"):
        raise UnsupportedSurface(
            "icosahedral meshes need a surface star-shaped around the origin"
        )
    if levels < MIN_LEVEL[2]:
        raise ValueError(f"levels must be >= {MIN_LEVEL[2]}")
    if degree not in ELEMENT_DEGREES[2]:
        raise ValueError(f"surface triangles support degrees {ELEMENT_DEGREES[2]}")
    verts = np.array([v / np.linalg.norm(v) for v in _ICO_VERTS])
    faces = np.array(_ICO_FACES, dtype=np.int64)
    for _ in range(int(levels)):
        verts, faces = _subdivide(verts, faces)
    # enforce outward orientation regardless of the base table
    corners = verts[faces]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    inward = np.einsum("ij,ij->i", normals, corners.sum(axis=1)) < 0.0
    faces[inward] = faces[inward][:, [0, 2, 1]]

    if degree == 1:
        ref_nodes = surface.project(0.0, verts)
        return SurfaceMesh(surface, 1, ref_nodes, faces, time=0.0)

    verts, edges = _edge_midpoints(verts, faces)
    ref_nodes = surface.project(0.0, verts)
    return SurfaceMesh(surface, 2, ref_nodes, np.concatenate([faces, edges], axis=1), time=0.0)
