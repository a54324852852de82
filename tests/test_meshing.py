import math

import numpy as np
import pytest

from esfem.errors import DegenerateMesh, IOFailure, UnsupportedSurface
from esfem.fem import LIFTED, FeSpace
from esfem.meshing import SurfaceMesh, build_circle_mesh, build_sphere_mesh
from esfem.studies import write_mesh_text, write_mesh_vtk
from esfem.surfaces import Circle, EllipsoidFlow, ScaledSphereFlow, Sphere, Surface
from oracles import (
    icosphere_by_faces,
    inverse_position,
    node_surface_residual,
    orientation_defects,
    quasi_uniformity_report,
    read_mesh_text,
)


def polygon_perimeter(n):
    return 2 * n * math.sin(math.pi / n)


def dense_arclength(mesh, samples=4000):
    """Independent arc-length oracle: trapezoid over a dense parametric
    sampling of each element map."""
    total = 0.0
    xi = np.linspace(0.0, 1.0, samples).reshape(-1, 1)
    sv = mesh.reference.shape_values(xi)
    for el in mesh.elements:
        pts = sv @ mesh.nodes[el]
        total += np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    return total


def test_circle_mesh_square_perimeter():
    mesh = build_circle_mesh(Circle(), 4, 1)
    assert abs(dense_arclength(mesh) - 4 * math.sqrt(2)) < 1e-9
    assert mesh.num_nodes == 4


def test_circle_mesh_polygon_perimeter():
    mesh = build_circle_mesh(Circle(), 64, 1)
    assert abs(dense_arclength(mesh) - polygon_perimeter(64)) < 1e-8


def test_circle_mesh_degree2_measure_order():
    # curved measure converges to 2*pi at observed order >= 3.5
    errors, hs = [], []
    for n in (16, 32, 64):
        mesh = build_circle_mesh(Circle(), n, 2)
        measure = float(FeSpace(mesh).geometry().weights.sum())
        oracle = dense_arclength(mesh, samples=6000)
        assert abs(measure - oracle) < 1e-6
        errors.append(abs(measure - 2 * math.pi))
        hs.append(mesh.h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert order >= 3.5


def test_circle_mesh_rejects_small_and_bad_degree():
    with pytest.raises(DegenerateMesh):
        build_circle_mesh(Circle(), 3, 1)
    with pytest.raises(ValueError):
        build_circle_mesh(Circle(), 8, 4)
    with pytest.raises(UnsupportedSurface):
        build_circle_mesh(Sphere(), 8, 1)


def test_icosphere_combinatorics():
    mesh = build_sphere_mesh(Sphere(), 0, 1)
    assert mesh.num_elements == 20
    assert mesh.num_nodes == 12
    assert build_sphere_mesh(Sphere(), 2, 1).num_elements == 320


def test_icosphere_area_convergence():
    errors, hs = [], []
    for level in (1, 2, 3):
        mesh = build_sphere_mesh(Sphere(), level, 1)
        area = float(FeSpace(mesh).geometry().weights.sum())
        assert area < 4 * math.pi
        errors.append(4 * math.pi - area)
        hs.append(mesh.h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert 1.7 <= order <= 2.3


def test_meshes_sit_on_surface_and_oriented():
    for mesh in (
        build_circle_mesh(Circle(), 32, 2),
        build_sphere_mesh(Sphere(), 2, 1),
        build_sphere_mesh(Sphere(), 1, 2),
    ):
        assert node_surface_residual(mesh) <= 1e-12
        assert orientation_defects(mesh) == 0


def test_refinement_roughly_halves_h():
    prev = build_circle_mesh(Circle(), 16, 1).h
    for n in (32, 64, 128):
        h = build_circle_mesh(Circle(), n, 1).h
        assert 0.45 <= h / prev <= 0.55
        prev = h
    prev = build_sphere_mesh(Sphere(), 1, 1).h
    for level in (2, 3):
        h = build_sphere_mesh(Sphere(), level, 1).h
        assert 0.45 <= h / prev <= 0.55
        prev = h


def test_evolve_scaling_flow():
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    node = mesh.nodes[0].copy()
    moved = mesh.evolved(0.25)
    assert np.allclose(moved.nodes[0], 1.25 * node, atol=1e-14)
    assert np.array_equal(mesh.evolved(0.0).nodes, mesh.nodes)
    # r(0.5) = 1 again
    assert np.abs(mesh.evolved(0.5).nodes - mesh.nodes).max() <= 1e-13
    assert node_surface_residual(moved) <= 1e-12


def test_each_snapshot_keeps_its_own_caches():
    # geometry, h and the flat inverses depend on the node positions, so an
    # evolved snapshot starts without them; the sparsity pattern does not
    mesh = build_sphere_mesh(ScaledSphereFlow(dimension=2), 1, 1)
    assert mesh._geom_cache == {}
    geom = FeSpace(mesh).geometry()
    FeSpace(mesh).pattern()
    assert list(mesh._geom_cache.values()) == [geom]
    assert mesh.flat_inverses is mesh.flat_inverses
    h = mesh.h
    moved = mesh.evolved(0.25)
    assert moved._geom_cache == {}
    assert moved.family_cache is mesh.family_cache
    assert moved.h == pytest.approx(1.25 * h, rel=1e-14)
    assert not np.array_equal(moved.flat_inverses, mesh.flat_inverses)
    assert mesh.h == h


def test_evolve_roundtrip_via_inverse_flow():
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 1)
    moved = mesh.evolved(0.37)
    back = inverse_position(surface, 0.37, moved.nodes)
    assert np.abs(back - mesh.nodes).max() <= 1e-12


def test_evolve_places_each_node_on_the_flow_map_past_t_1():
    # a flow is defined for every t; a snapshot's nodes are the flow map's
    # images of the reference nodes, whatever the time
    surface = EllipsoidFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 2)
    moved = mesh.evolved(1.5)
    assert moved.time == 1.5
    assert np.array_equal(moved.nodes, surface.position(1.5, mesh.ref_nodes))


def test_evolve_passes_on_errors_of_the_flow_map():
    # an error of the flow map itself reaches the caller as it was raised
    class BrokenFlow(ScaledSphereFlow):
        def position(self, t, y):
            raise TypeError("broken flow map")

    mesh = build_sphere_mesh(BrokenFlow(dimension=2), 0, 1)
    with pytest.raises(TypeError, match="broken flow map"):
        mesh.evolved(0.5)


def test_quasi_uniformity_uniform_circle():
    report = quasi_uniformity_report(build_circle_mesh(Circle(), 24, 1))
    assert abs(report["size_ratio"] - 1.0) <= 1e-12


def test_quasi_uniformity_icosphere():
    report = quasi_uniformity_report(build_sphere_mesh(Sphere(), 2, 1))
    assert report["size_ratio"] <= 1.5
    assert report["size_ratio"] >= 1.0


def test_quasi_uniformity_split_element_fixture():
    # constructed counterexample: one element of the uniform mesh split in two
    surface = Circle()
    n = 16
    theta = 2 * math.pi * np.arange(n) / n
    theta = np.sort(np.append(theta, math.pi / n))  # bisect the first element
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    elements = np.array([[i, (i + 1) % len(theta)] for i in range(len(theta))])
    mesh = SurfaceMesh(surface, 1, nodes, elements)
    report = quasi_uniformity_report(mesh)
    assert abs(report["size_ratio"] - 2.0) <= 0.2


def test_mesh_text_roundtrip(tmp_path):
    surface = ScaledSphereFlow(dimension=2)
    mesh = build_sphere_mesh(surface, 1, 2).evolved(0.3)
    path = tmp_path / "mesh.txt"
    write_mesh_text(mesh, path)
    back = read_mesh_text(path, surface)
    assert back.degree == 2 and back.time == 0.3
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.ref_nodes, mesh.ref_nodes)
    assert np.array_equal(back.elements, mesh.elements)


def test_mesh_text_rejects_truncated_and_foreign_files(tmp_path):
    surface = Sphere()
    path = tmp_path / "mesh.txt"
    write_mesh_text(build_sphere_mesh(surface, 1, 1), path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    bad = tmp_path / "bad.txt"
    # cut inside the node block, right after it, inside the element block,
    # and inside the last element row
    cuts = ["".join(lines[:keep]) for keep in (10, 47, len(lines) - 3)]
    for truncated in cuts + [text[:-4]]:
        bad.write_text(truncated)
        with pytest.raises(IOFailure):
            read_mesh_text(bad, surface)
    bad.write_text("solid ascii\n")
    with pytest.raises(IOFailure):
        read_mesh_text(bad, surface)


def test_vtk_export_structure(tmp_path):
    mesh = build_sphere_mesh(Sphere(), 2, 1)
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(mesh, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET POLYDATA" in text[3]
    polygons = [ln for ln in text if ln.startswith("POLYGONS")]
    assert polygons and int(polygons[0].split()[1]) == 320

    line_mesh = build_circle_mesh(Circle(), 8, 1)
    path2 = tmp_path / "circle.vtk"
    write_mesh_vtk(line_mesh, path2)
    assert any(ln.startswith("LINES 8") for ln in path2.read_text().splitlines())


class _Torus(Surface):
    # a two-dimensional surface that is not star-shaped around the origin
    kind = "torus"

    def __init__(self):
        super().__init__(dimension=2)


def test_torus_has_no_level_builder():
    with pytest.raises(UnsupportedSurface, match="star-shaped"):
        build_sphere_mesh(_Torus(), 1, 1)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("reverse_every", [0, 2], ids=["base-table", "half-reversed"])
def test_icosphere_orientation_matches_per_face_loop(monkeypatch, degree, reverse_every):
    # the per-face cross/dot orientation loop is the reference for the
    # vectorised orientation in build_sphere_mesh; reversing faces of the
    # base table makes it flip some of them
    from esfem import meshing

    base = [(a, c, b) if reverse_every and i % reverse_every == 0 else (a, b, c)
            for i, (a, b, c) in enumerate(meshing._ICO_FACES)]
    monkeypatch.setattr(meshing, "_ICO_FACES", base)
    for levels in range(4):
        verts = [v / np.linalg.norm(v) for v in meshing._ICO_VERTS]
        faces = list(base)
        for _ in range(levels):
            verts, faces = meshing._subdivide(verts, faces)
        verts = np.array(verts)
        expected = []
        for a, b, c in faces:
            n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
            if np.dot(n, verts[a] + verts[b] + verts[c]) < 0.0:
                a, b, c = a, c, b
            expected.append((a, b, c))
        mesh = build_sphere_mesh(Sphere(), levels, degree)
        assert np.array_equal(mesh.elements[:, :3], np.array(expected))
        assert mesh.elements.dtype == np.int64
        assert orientation_defects(mesh) == 0


@pytest.mark.parametrize("degree", [1, 2])
def test_icosphere_matches_the_face_by_face_midpoints(degree):
    # the edge midpoints found by one np.unique pass against the closure
    # that appended each one on its first request, face by face: the same
    # nodes, bit for bit and in the same order, and the same elements
    surface = Sphere()
    for levels in range(6):
        verts, elements = icosphere_by_faces(levels, degree)
        mesh = build_sphere_mesh(surface, levels, degree)
        assert np.array_equal(mesh.nodes, surface.project(0.0, verts))
        assert np.array_equal(mesh.elements, elements)
        assert mesh.elements.dtype == np.int64


NESTED_PAIRS = {
    # coarse mesh, fine mesh built in child order from it
    **{f"sphere-P{p}-L{lc}-L3": (lambda p=p, lc=lc: (build_sphere_mesh(Sphere(), lc, p),
                                                      build_sphere_mesh(Sphere(), 3, p)))
       for p in (1, 2) for lc in (0, 1, 2)},
    **{f"circle-P{p}-16-64": (lambda p=p: (build_circle_mesh(Circle(), 16, p),
                                           build_circle_mesh(Circle(), 64, p)))
       for p in (1, 2, 3)},
}


@pytest.mark.parametrize("case", sorted(NESTED_PAIRS))
def test_refined_elements_lie_in_the_cone_of_their_ancestor(case):
    # kernel_difference_l1 guesses coarse element k // ratio for the lifted
    # quadrature points of fine element k: every such point and every node
    # of fine element k has no negative barycentric against the vertex
    # simplex of that coarse element (the flat cone of rays through it)
    coarse, fine = NESTED_PAIRS[case]()
    ratio, rest = divmod(fine.num_elements, coarse.num_elements)
    assert ratio > 1 and rest == 0
    geom = FeSpace(fine, LIFTED).geometry()
    per_element = np.concatenate([geom.points, fine.nodes[fine.elements]], axis=1)
    ancestor = np.arange(fine.num_elements) // ratio
    vertices = coarse.vertex_coords()[ancestor]  # (E_f, d, d), one vertex a row
    bary = np.linalg.solve(np.swapaxes(vertices, 1, 2), np.swapaxes(per_element, 1, 2))
    assert bary.min() >= -1e-12
    assert np.all(bary.sum(axis=1) > 0.0)
