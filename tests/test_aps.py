import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from aurisense.errors import ParameterError, PlacementError
from aurisense.geometry import (
    AuricularPointSet,
    default_template,
    load_template,
    place_aps,
    read_aps_json,
    write_aps_json,
)
from aurisense.geometry.mesh import SurfaceMesh, closest_point_on_triangles
from aurisense.geometry.primitives import make_plane_grid


def test_default_templates():
    t13 = default_template(13)
    assert [lab for lab, _ in t13] == [f"AP{i}" for i in range(1, 14)]
    t10 = default_template(10)
    assert [lab for lab, _ in t10] == [f"AP{i}" for i in range(1, 11)]
    with pytest.raises(ParameterError):
        default_template(7)


def test_template_parse_errors(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("AP1 0.5 0.5\n")
    with pytest.raises(ParameterError):
        load_template(f)
    f.write_text("AP1 0.5 0.5 1.5\n")
    with pytest.raises(ParameterError):
        load_template(f)
    f.write_text("AP1 0.1 0.1 0.1\nAP1 0.2 0.2 0.2\n")
    with pytest.raises(ParameterError):
        load_template(f)


def test_point_on_surface_projects_to_itself(plane_coarse):
    template = [("AP1", np.array([0.5, 0.5, 0.0]))]
    aps = place_aps(plane_coarse, template)
    # bbox center of a z=0 plane is on the plane: projection distance 0
    np.testing.assert_allclose(aps.points[0].position, [0.0, 0.0, 0.0], atol=1e-12)
    bary = aps.points[0].barycentric
    assert (bary >= -1e-12).all()
    assert abs(bary.sum() - 1.0) < 1e-9


def test_ten_point_template_labels(plane_coarse):
    aps = place_aps(plane_coarse, default_template(10))
    assert aps.labels == [f"AP{i}" for i in range(1, 11)]
    assert len(aps) == 10


def _relief_mesh():
    # irregular relief without mirror symmetries, so nearest-surface
    # projections are unique (the equivariance property breaks only on
    # exact ties)
    base = make_plane_grid(extent=20.0, spacing=1.0)
    v = base.vertices.copy()
    v[:, 2] = (0.8 * np.sin(0.37 * v[:, 0] + 0.2) * np.cos(0.23 * v[:, 1] + 1.1)
               + 0.5 * np.sin(0.61 * v[:, 1] + 0.7))
    return SurfaceMesh(v, base.faces)


def test_scaling_equivariance():
    mesh = _relief_mesh()
    template = default_template(13)
    aps1 = place_aps(mesh, template)
    scaled = SurfaceMesh(mesh.vertices * 2.0, mesh.faces)
    aps2 = place_aps(scaled, template)
    np.testing.assert_allclose(aps2.positions(), 2.0 * aps1.positions(), atol=1e-9)


def test_translation_equivariance():
    mesh = _relief_mesh()
    template = default_template(13)
    aps1 = place_aps(mesh, template)
    shift = np.array([11.0, -4.0, 2.5])
    moved = SurfaceMesh(mesh.vertices + shift, mesh.faces)
    aps2 = place_aps(moved, template)
    np.testing.assert_allclose(aps2.positions(), aps1.positions() + shift, atol=1e-8)


def test_placed_aps_own_their_arrays_and_keep_no_mesh_sized_memory(bumpy):
    template = default_template(13)
    place_aps(bumpy, template)  # the mesh's own cached tables are built here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        aps = place_aps(bumpy, template)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for p in aps:
        assert p.position.base is None
        assert p.barycentric.base is None
    # a view into a per-face array would keep (F, 3) floats, 270 KB here, alive
    assert retained < 64 * 1024 * len(aps)


def _brute_closest_point(mesh, p):
    """The Ericson kernel over every face; ties go to the lowest face index."""
    v, f = mesh.vertices, mesh.faces
    pts, bary = closest_point_on_triangles(p, v[f[:, 0]], v[f[:, 1]], v[f[:, 2]])
    d2 = np.einsum("ij,ij->i", pts - p, pts - p)
    i = int(np.argmin(d2))
    return pts[i], i, bary[i], float(np.sqrt(d2[i])), int((d2 == d2[i]).sum())


@pytest.mark.parametrize("name", ["bumpy", "icosphere_r10", "bumpy-rotated"])
def test_closest_point_equals_the_search_over_every_face(request, name):
    mesh = request.getfixturevalue(name.removesuffix("-rotated"))
    if name.endswith("-rotated"):
        rot = Rotation.from_rotvec([0.4, -1.1, 0.7]).as_matrix()
        mesh = SurfaceMesh(mesh.vertices @ rot.T + [3.0, -7.0, 12.0], mesh.faces)
    rng = np.random.default_rng(23)
    lo, hi = mesh.bounding_box()
    margin = 0.1 * (hi - lo)
    # vertices and edge midpoints lie on several faces at once: ties
    edges = mesh.faces[rng.choice(mesh.n_faces, 30, replace=False)][:, :2]
    # at a face centroid the upper bound is 0; five diagonals beyond the box
    # it is loosest
    diag = mesh.bounding_diagonal()
    away = rng.normal(size=(20, 3))
    away *= 5.5 * diag / np.linalg.norm(away, axis=1)[:, None]
    points = np.concatenate([rng.uniform(lo - margin, hi + margin, size=(60, 3)),
                             mesh.vertices[rng.choice(mesh.n_vertices, 30, replace=False)],
                             mesh.vertices[edges].mean(axis=1),
                             mesh.face_spheres()[0][rng.choice(mesh.n_faces, 20, replace=False)],
                             (lo + hi) / 2.0 + away])
    ties = 0
    for p in points:
        pos, face, bary, dist = mesh.closest_point(p)
        ref_pos, ref_face, ref_bary, ref_dist, n_min = _brute_closest_point(mesh, p)
        assert face == ref_face
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(bary, ref_bary)
        assert dist == ref_dist
        ties += n_min > 1
    assert ties >= 10


def test_far_projection_raises():
    # two tiny patches 50 mm apart: a template point mapped to the middle
    # of the bounding box is far from both surfaces
    verts = np.array([
        [0, 0, 0], [2, 0, 0], [0, 2, 0],
        [0, 0, 50], [2, 0, 50], [0, 2, 50],
    ], dtype=float)
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    mesh = SurfaceMesh(verts, faces)
    with pytest.raises(PlacementError, match="APX"):
        place_aps(mesh, [("APX", np.array([0.9, 0.9, 0.5]))])


def test_aps_json_roundtrip(tmp_path, plane_coarse):
    aps = place_aps(plane_coarse, default_template(10))
    path = tmp_path / "aps.json"
    write_aps_json(path, aps, meta={"seed": 1})
    back = read_aps_json(path)
    assert isinstance(back, AuricularPointSet)
    assert back.labels == aps.labels
    np.testing.assert_allclose(back.positions(), aps.positions())
