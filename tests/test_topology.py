import numpy as np
import pytest

from aurisense.electrode import _Pathway, design_array
from aurisense.errors import ParameterError
from aurisense.geometry import curvature_field, default_template, place_aps
from aurisense.geometry.mesh import SurfaceMesh
from meshes import make_icosphere
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


def ref_pairs_among(adjacency, faces):
    """The sorted pairs (u, v), u < v, of positions in ``faces`` whose faces
    are neighbours in the set reference ``adjacency``."""
    pos = {f: u for u, f in enumerate(faces)}
    return sorted((u, pos[g]) for u, f in enumerate(faces) for g in adjacency[f]
                  if pos.get(g, -1) > u)


def rows(rings):
    indptr, indices = rings
    return [indices[indptr[r]:indptr[r + 1]].tolist() for r in range(indptr.size - 1)]


def neighbours(pairs, n):
    """The sorted neighbours of each of n items, from (2, E) pairs."""
    nbrs = [set() for _ in range(n)]
    for u, v in pairs.T.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(s) for s in nbrs]


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
    indptr, indices = mesh.vertex_adjacency()
    pairs = mesh.face_adjacency()
    assert indptr.shape == (mesh.n_vertices + 1,)
    assert pairs.shape[0] == 2 and (pairs[0] < pairs[1]).all()
    # sorted, each pair once
    assert list(zip(*pairs.tolist())) == sorted(set(zip(*pairs.tolist())))
    assert rows((indptr, indices)) == ref_vertex_adjacency(mesh)
    assert neighbours(pairs, mesh.n_faces) == ref_face_adjacency(mesh)


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


def test_k_rings_of_no_hop_and_of_no_vertex(mesh):
    indptr, indices = mesh.k_rings(np.arange(mesh.n_vertices), 0)
    assert indptr.tolist() == [0] * (mesh.n_vertices + 1) and indices.size == 0
    for query in ([], np.empty(0, dtype=np.int64)):
        for k in (0, 1, 3):
            indptr, indices = mesh.k_rings(query, k)
            assert indptr.tolist() == [0] and indices.size == 0


def test_bare_vertex_rows_do_not_end_the_hops_of_the_others():
    # vertex 4 lies on no face, so a hop finds nothing for its rows; that
    # must not end the hops while vertex 1's row still grows
    mesh = orphan_vertex_mesh()
    for k in (1, 2):
        assert rows(mesh.k_rings([4, 4, 1], k)) == [[], [], [0, 2] if k == 1 else [0, 2, 3]]


def test_k_rings_stop_hopping_past_the_mesh_reach(icosphere_unit):
    # a hop that reaches no new vertex ends the hops: k = 10**9 once made
    # 10**9 of them, each over every vertex reached.  24 hops reach every
    # vertex from each of these, 23 not from vertex 0
    query = [0, 321, 641]
    far = rows(icosphere_unit.k_rings(query, 10 ** 9))
    assert far == rows(icosphere_unit.k_rings(query, 24))
    assert [len(r) for r in far] == [641] * 3
    assert icosphere_unit.k_ring(0, 23).size == 640
    assert icosphere_unit.k_ring(0, 10 ** 9).tolist() == far[0]


def test_face_pairs_among_match_set_reference_on_face_subsets(mesh):
    adjacency = ref_face_adjacency(mesh)
    rng = np.random.default_rng(41)
    for _ in range(20):
        faces = rng.permutation(mesh.n_faces)[:rng.integers(mesh.n_faces + 1)]
        among = mesh.face_pairs_among(faces)
        expected = ref_pairs_among(adjacency, faces.tolist())
        assert among.shape == (2, len(expected))
        assert list(zip(*among.tolist())) == expected


def test_non_manifold_edge_pairs_all_its_faces():
    fadj = neighbours(non_manifold_fan().face_adjacency(), 4)
    assert fadj == [[1, 2, 3], [0, 2], [0, 1], [0]]


@pytest.mark.parametrize("vertex", [-1, -7, 642, 10 ** 6])
def test_k_ring_rejects_an_index_outside_the_mesh(icosphere_unit, vertex):
    assert icosphere_unit.n_vertices == 642
    with pytest.raises(ParameterError):
        icosphere_unit.k_ring(vertex, 2)
    with pytest.raises(ParameterError):
        icosphere_unit.k_rings([0, vertex], 1)


@pytest.mark.parametrize("vertices", [[1.9], [0, np.nan], [True, False], ["1"]],
                         ids=["fraction", "nan", "bool", "str"])
def test_k_rings_take_only_whole_vertex_indices(vertices):
    # 1.9 once took the ring of vertex 1
    mesh = make_icosphere(subdivisions=1)
    with pytest.raises(ParameterError, match="vertex indices must be integers"):
        mesh.k_rings(vertices, 1)
    with pytest.raises(ParameterError, match="vertex indices must be integers"):
        mesh.k_ring(vertices[-1], 1)
    assert rows(mesh.k_rings([1.0, 0.0], 2)) == rows(mesh.k_rings([1, 0], 2))


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
        return (np.cumsum([0] + [len(r) for r in rings]),
                np.array([u for r in rings for u in r], dtype=np.int64))

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
    adjacency = ref_face_adjacency(mesh)
    for target in ([0.3, -1.7, 5.0], [6.1, 2.2, 5.0]):
        center, face, bary, _ = mesh.closest_point(target)
        pathway = _Pathway(mesh, center, face, mesh.normal_at(face, bary))
        # the seed alone, a few rings of faces, wider than a sheet, every face
        for radius in (0.0, 0.5, 2.0, 8.0, 100.0):
            pathway._build(radius)
            # each edge once, as a pair (u, v) with u < v
            pairs = ref_pairs_among(adjacency, pathway.faces.tolist())
            among = mesh.face_pairs_among(pathway.faces)
            assert among.shape == (2, len(pairs))
            assert list(zip(*among.tolist())) == pairs
            assert sorted(zip(*pathway.edges.tolist())) == pairs
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
