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
    """``closest_point_on_triangles`` over every face; ties go to the lowest
    face index."""
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


def _oracle_queries(rng, n):
    """(5n, 3, 3) triangle corners, each relative to its query point.

    Five families of n random triangles: ordinary ones, slivers (c within
    1e-3 of the line ab), needles (ab 1e-3 long), ordinary ones whose
    query lies about 1e3 off the plane, and thinner slivers (c within 1e-6
    of the line ab).  Each query is a + s ab + t ac + h n
    for the unit normal n; (s, t) covers all seven regions of the plane,
    and in each family an eighth of the queries lies on each edge, an eighth
    at a vertex and an eighth in the plane (h = 0).
    """
    a, ab, ac = (rng.normal(size=(5, n, 3)) for _ in range(3))
    for i, height in ((1, 1e-3), (4, 1e-6)):
        ac[i] = ab[i] * rng.uniform(-0.5, 1.5, size=(n, 1)) + height * rng.normal(size=(n, 3))
    ab[2] *= 1e-3
    normal = np.cross(ab, ac)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    st = rng.uniform(-1.5, 2.5, size=(5, n, 2))
    k = n // 8
    s = rng.uniform(size=(5, k))
    st[:, :k] = np.stack([s, 0 * s], axis=-1)
    st[:, k:2 * k] = np.stack([0 * s, s], axis=-1)
    st[:, 2 * k:3 * k] = np.stack([s, 1 - s], axis=-1)
    st[:, 3 * k:4 * k] = np.array([[0, 0], [1, 0], [0, 1]])[rng.integers(3, size=(5, k))]
    h = rng.normal(size=(5, n, 1))
    h[:, 4 * k:5 * k] = 0.0
    h[3] *= 1e3
    query = a + st[..., :1] * ab + st[..., 1:] * ac + h * normal
    return (np.stack([a, a + ab, a + ac], axis=2) - query[:, :, None]).reshape(-1, 3, 3)


@pytest.mark.parametrize("p", [[0.0, 0.0, 0.0], [1e4, -1e4, 1e4]], ids=["origin", "far"])
def test_closest_point_on_triangles_meets_the_projection_conditions(p):
    """q is the closest point of a triangle to p exactly when q lies on the
    triangle and (p - q).(x - q) <= 0 for each corner x: the kernel is
    checked against these conditions, not against a second kernel."""
    p = np.asarray(p)
    x = _oracle_queries(np.random.default_rng(5), 400) + p
    q, bary = closest_point_on_triangles(p, x[:, 0], x[:, 1], x[:, 2])
    assert np.isfinite(q).all() and np.isfinite(bary).all()
    assert bary.min() >= -1e-9
    np.testing.assert_allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(q, np.einsum("ik,ikj->ij", bary, x), rtol=0,
                               atol=1e-12 * (1.0 + np.abs(x).max()))
    # a q within delta of the true closest point gives at most about
    # delta (|p - q| + diam) here; on this draw the 1e-6 slivers put q a few
    # 1e-10 of the diameter off, and on other draws random triangles that
    # come out nearly collinear reach 2e-8
    diam = np.linalg.norm(x - np.roll(x, 1, axis=1), axis=2).max(axis=1)
    gap = np.linalg.norm(p - q, axis=1)
    for corner in range(3):
        worst = np.einsum("ij,ij->i", p - q, x[:, corner] - q)
        assert (worst <= 1e-7 * diam * (gap + diam)).all()


def test_closest_point_on_triangles_is_finite_on_every_face_a_mesh_keeps():
    # each face just above the degenerate area, or with an edge whose length
    # rounds away against the others: the edge's parameter is 0/0
    tris = np.array([
        [[0, 0, 0], [1e3, 0, 0], [1e3, 1e-14, 0]],
        [[0, 0, 0], [1e-14, 1e3, 0], [0, 1e3, 0]],
        [[1e6, 1e6, 1e6], [1e6 + 2e-6, 1e6, 1e6], [1e6, 1e6 + 2e-6, 1e6]],
        [[0, 0, 0], [1e-6, 0, 0], [0, 4e-6, 0]],
    ])
    mesh = SurfaceMesh(tris.reshape(-1, 3), np.arange(12).reshape(4, 3))
    assert mesh.n_faces == 4
    v, f = mesh.vertices, mesh.faces
    for p in np.concatenate([v, v + [3.0, -2.0, 1.0], 1.5 * v + 7.0, [[5e3, 5e3, 5e3]]]):
        q, bary = closest_point_on_triangles(p, v[f[:, 0]], v[f[:, 1]], v[f[:, 2]])
        assert np.isfinite(q).all() and np.isfinite(bary).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_point_that_is_not_finite_is_a_parameter_error(plane_coarse, bad):
    with pytest.raises(ParameterError, match="finite"):
        plane_coarse.closest_point([bad, 0.0, 0.0])
    with pytest.raises(ParameterError, match="finite"):
        place_aps(plane_coarse, [("A", [bad, 0.5, 0.5])])


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
