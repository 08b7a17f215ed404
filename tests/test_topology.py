from types import SimpleNamespace

import numpy as np
import pytest

from aurisense.electrode import _Pathway, design_array
from aurisense.errors import ParameterError
from aurisense.geometry import curvature_field, default_template, place_aps
from aurisense.geometry.mesh import SurfaceMesh
from aurisense.geometry.primitives import make_icosphere
from test_electrode import _two_sheets

# ----------------------------------------------------------------------
# set-based references: one neighbour set per vertex / face, then sorted
# ----------------------------------------------------------------------


def ref_vertex_adjacency(mesh):
    nbrs = [set() for _ in range(mesh.n_vertices)]
    for i, j, k in mesh.faces.tolist():
        nbrs[i] |= {j, k}
        nbrs[j] |= {i, k}
        nbrs[k] |= {i, j}
    return [sorted(s) for s in nbrs]


def ref_face_adjacency(mesh):
    by_edge = {}
    for f, (i, j, k) in enumerate(mesh.faces.tolist()):
        for edge in ((i, j), (j, k), (k, i)):
            by_edge.setdefault(frozenset(edge), []).append(f)
    nbrs = [set() for _ in range(mesh.n_faces)]
    for faces in by_edge.values():
        for f in faces:
            nbrs[f].update(g for g in faces if g != f)
    return [sorted(s) for s in nbrs]


def ref_k_ring(adjacency, v, k):
    seen = {v}
    frontier = {v}
    for _ in range(k):
        frontier = {u for w in frontier for u in adjacency[w]} - seen
        seen |= frontier
    return sorted(seen - {v})


def rows(csr):
    return [csr.indices[csr.indptr[r]:csr.indptr[r + 1]].tolist()
            for r in range(csr.shape[0])]


# ----------------------------------------------------------------------
# meshes
# ----------------------------------------------------------------------


def non_manifold_fan():
    # edge (0, 1) carries three faces; face 3 hangs off the first one
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0],
                      [0.5, 0, 1], [1.5, 1, 0]], dtype=float)
    return SurfaceMesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4], [1, 5, 2]]))


def orphan_vertex_mesh():
    # face (0, 1, 4) is collinear, so it is dropped and vertex 4 is left bare
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
    with pytest.warns(UserWarning, match="degenerate"):
        mesh = SurfaceMesh(verts, np.array([[0, 1, 2], [0, 2, 3], [0, 1, 4]]))
    assert mesh.n_faces == 2
    return mesh


def duplicate_face_mesh():
    # face 0 appears again as faces 2 (rotated) and 3, face 1 as face 4
    # (reversed): each copy shares every edge with the others
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 1, 0]], dtype=float)
    return SurfaceMesh(verts, np.array([[0, 1, 2], [0, 2, 3], [2, 0, 1], [0, 1, 2],
                                        [0, 3, 2], [1, 4, 2]]))


@pytest.fixture(params=["icosphere", "bumpy", "non-manifold", "orphan", "duplicate-face"])
def mesh(request, bumpy):
    return {
        "icosphere": lambda: make_icosphere(subdivisions=2),
        "bumpy": lambda: bumpy,
        "non-manifold": non_manifold_fan,
        "orphan": orphan_vertex_mesh,
        "duplicate-face": duplicate_face_mesh,
    }[request.param]()


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


def test_adjacency_matches_set_reference(mesh):
    vadj = mesh.vertex_adjacency()
    fadj = mesh.face_adjacency()
    assert vadj.shape == (mesh.n_vertices, mesh.n_vertices)
    assert fadj.shape == (mesh.n_faces, mesh.n_faces)
    assert vadj.has_sorted_indices and fadj.has_sorted_indices
    assert rows(vadj) == ref_vertex_adjacency(mesh)
    assert rows(fadj) == ref_face_adjacency(mesh)
    assert mesh.vertex_adjacency() is vadj  # built once


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_k_rings_match_set_reference(mesh, k):
    adjacency = ref_vertex_adjacency(mesh)
    expected = [ref_k_ring(adjacency, v, k) for v in range(mesh.n_vertices)]
    assert rows(mesh.k_rings(np.arange(mesh.n_vertices), k)) == expected
    # single rows, and a batch in an arbitrary order with a repeat
    sample = np.unique(np.linspace(0, mesh.n_vertices - 1, 12).astype(int))
    for v in sample:
        assert mesh.k_ring(v, k).tolist() == expected[v]
    query = np.r_[sample[::-1], sample[0]]
    assert rows(mesh.k_rings(query, k)) == [expected[v] for v in query]


def test_non_manifold_edge_pairs_all_its_faces():
    fadj = rows(non_manifold_fan().face_adjacency())
    assert fadj == [[1, 2, 3], [0, 2], [0, 1], [0]]


@pytest.mark.parametrize("vertex", [-1, -7, 642, 10 ** 6])
def test_k_ring_rejects_an_index_outside_the_mesh(icosphere_unit, vertex):
    assert icosphere_unit.n_vertices == 642
    with pytest.raises(ParameterError):
        icosphere_unit.k_ring(vertex, 2)
    with pytest.raises(ParameterError):
        icosphere_unit.k_rings([0, vertex], 1)


@pytest.mark.parametrize("k", [2.5, True, -1], ids=["fractional", "bool", "negative"])
def test_k_rings_take_only_a_whole_k(k):
    mesh = make_icosphere(subdivisions=1)
    with pytest.raises(ParameterError, match="k must be an integer >= 0"):
        mesh.k_rings([0, 1], k)
    with pytest.raises(ParameterError, match="k must be an integer >= 0"):
        mesh.k_ring(0, k)


@pytest.mark.parametrize("name", ["icosphere_unit", "bumpy"])
def test_curvature_equals_curvature_from_reference_rings(request, monkeypatch, name):
    mesh = request.getfixturevalue(name)
    field = curvature_field(mesh)
    adjacency = ref_vertex_adjacency(mesh)

    def ref_k_rings(query, k):
        rings = [ref_k_ring(adjacency, int(v), k) for v in query]
        return SimpleNamespace(indptr=np.cumsum([0] + [len(r) for r in rings]),
                               indices=np.array([u for r in rings for u in r], dtype=np.int64))

    monkeypatch.setattr(mesh, "k_rings", ref_k_rings)
    ref = curvature_field(mesh)
    np.testing.assert_array_equal(field.kappa1, ref.kappa1)
    np.testing.assert_array_equal(field.kappa2, ref.kappa2)
    np.testing.assert_array_equal(field.flagged, ref.flagged)


@pytest.mark.parametrize("name", ["bumpy", "two-sheets", "non-manifold"])
def test_pathway_adjacency_is_the_mesh_adjacency_among_its_faces(request, name):
    mesh = {
        "bumpy": lambda: request.getfixturevalue("bumpy"),
        "two-sheets": lambda: _two_sheets(request.getfixturevalue("plane_fine")),
        "non-manifold": non_manifold_fan,
    }[name]()
    full = mesh.face_adjacency()
    for target in ([0.3, -1.7, 5.0], [6.1, 2.2, 5.0]):
        center, face, bary, _ = mesh.closest_point(target)
        pathway = _Pathway(mesh, center, face, mesh.normal_at(face, bary))
        # the seed alone, a few rings of faces, wider than a sheet, every face
        for radius in (0.0, 0.5, 2.0, 8.0, 100.0):
            pathway._build(radius)
            expected = full[pathway.faces][:, pathway.faces]
            expected.sort_indices()
            assert pathway.adjacency.has_sorted_indices
            assert rows(pathway.adjacency) == rows(expected)
        assert pathway.faces.size == mesh.n_faces


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
def test_design_array_builds_no_mesh_wide_adjacency(bumpy, monkeypatch):
    # the curvature fit hops through the incidence and each pathway pairs
    # its own faces: no design step needs the (V, V) or (F, F) adjacency
    def refuse(self):
        raise AssertionError("a mesh-wide adjacency was built")

    monkeypatch.setattr(SurfaceMesh, "vertex_adjacency", refuse)
    monkeypatch.setattr(SurfaceMesh, "face_adjacency", refuse)
    aps = place_aps(bumpy, default_template(13))
    for tilt in (0.0, 20.0):
        assert not design_array(bumpy, aps, tilt_deg=tilt).failed
