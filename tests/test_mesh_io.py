import tracemalloc
import warnings

import numpy as np
import pytest

from aurisense import textio
from aurisense.analysis import write_dataset_csv
from aurisense.errors import (
    EmptyMeshError,
    MeshFormatError,
    UnsupportedTopologyError,
)
from aurisense.geometry import (
    SurfaceMesh,
    load_mesh,
    read_ply_vertex_scalars,
    write_ply,
)
from aurisense.geometry import meshio
from aurisense.geometry.primitives import make_bumpy_plane, make_cylinder, make_icosphere


def test_single_triangle_obj(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh(p)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1


def test_obj_slash_face_refs(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1/1/1 2/1/1 3/1/1\n")
    mesh = load_mesh(p)
    assert mesh.n_faces == 1


def test_quad_face_rejected(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(UnsupportedTopologyError):
        load_mesh(p)


def test_parse_error_carries_line(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 oops\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(p)
    assert err.value.line == 2


def test_empty_mesh(tmp_path):
    p = tmp_path / "empty.obj"
    p.write_text("# nothing\n")
    with pytest.raises(EmptyMeshError):
        load_mesh(p)


def test_icosphere_ply_roundtrip(tmp_path):
    # V = 10*4^s + 2, F = 20*4^s at subdivision s = 3
    mesh = make_icosphere(subdivisions=3, radius=1.0)
    assert mesh.n_vertices == 642
    assert mesh.n_faces == 1280
    p = tmp_path / "ico.ply"
    write_ply(p, mesh)
    back = load_mesh(p)
    assert back.n_vertices == 642
    assert back.n_faces == 1280
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-6)


def test_ply_scalar_roundtrip(tmp_path):
    mesh = make_icosphere(subdivisions=1)
    vals = np.linspace(0.0, 1.0, mesh.n_vertices)
    p = tmp_path / "scalars.ply"
    write_ply(p, mesh, scalars={"aesr": vals})
    back = load_mesh(p)
    assert back.n_vertices == mesh.n_vertices
    scalars = read_ply_vertex_scalars(p)
    assert "aesr" in scalars
    np.testing.assert_allclose(scalars["aesr"], vals)


@pytest.mark.parametrize("bad", [np.ones(24), np.ones((25, 1))], ids=["short-ply", "column-ply"])
def test_bad_scalars_leave_an_existing_file_unchanged(tmp_path, bad):
    mesh = make_bumpy_plane(extent=4.0, spacing=1.0)
    assert mesh.n_vertices == 25
    p = tmp_path / "old.ply"
    p.write_text("previous contents\n")
    with pytest.raises(ValueError, match="'aesr' has"):
        write_ply(p, mesh, scalars={"ok": np.zeros(25), "aesr": bad})
    assert p.read_text() == "previous contents\n"


def test_mesh_format_comes_from_the_extension(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshFormatError, match="cannot infer mesh format"):
        load_mesh(p)


# The per-row writers that ``textio.format_rows`` replaced, kept as the
# byte-for-byte reference.
def _reference_ply(path, mesh, scalars, comments):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        for c in comments:
            fh.write(f"comment {c}\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        for name in scalars:
            fh.write(f"property float {name}\n")
        fh.write(f"element face {mesh.n_faces}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("end_header\n")
        cols = [mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2]]
        cols += [np.asarray(scalars[name], dtype=np.float64) for name in scalars]
        for row in zip(*cols):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def _reference_dataset_csv(path, labels, rows, comments):
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("label," + ",".join(f"AP{i + 1}" for i in range(n)) + "\n")
        for label, row in zip(labels, rows):
            fh.write(str(label) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def test_writers_match_the_per_row_reference(tmp_path, monkeypatch):
    awkward = np.array([-0.0, 1e-300, 1e16, 0.1, -2.5e-7, 1.0 / 3.0])
    verts = np.array([[0.0, 0.0, 0.0], [1e16, 0.1, -0.0], [1e-300, 1.0, 0.1],
                      [1.0 / 3.0, -2.5e-7, 1e16], [0.1, 0.1, 0.1], [-0.0, 2.0, 1e-300]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2], [0, 2, 3], [1, 3, 4], [2, 4, 5]]))
    scalars = {"aesr": awkward, "rank": np.arange(6)}
    labels = ["S01-L", "S01-R", "S02-L"]
    rows = np.stack([awkward, awkward[::-1], awkward * 7.0])
    _reference_ply(tmp_path / "ref.ply", mesh, scalars, ("seed=1",))
    _reference_dataset_csv(tmp_path / "ref.csv", labels, rows, ("seed=1",))
    # rows written one, two, or all in a block
    for rows_per_block in (1, 2, textio._WRITE_ROWS):
        monkeypatch.setattr(textio, "_WRITE_ROWS", rows_per_block)
        write_ply(tmp_path / "new.ply", mesh, scalars=scalars, comments=("seed=1",))
        assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()
        write_dataset_csv(tmp_path / "new.csv", labels, rows, comments=("seed=1",))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_load_mesh_frees_its_row_strings_before_building_the_mesh(tmp_path, monkeypatch):
    # the parsed rows of a PLY take over three times the bytes of its arrays;
    # kept alive while SurfaceMesh ran, they set load_mesh's peak
    write_ply(tmp_path / "mesh.ply", make_bumpy_plane(spacing=0.4))
    build, live = meshio.SurfaceMesh, []

    def spy(vertices, faces):
        live.append(tracemalloc.get_traced_memory()[0])
        return build(vertices, faces)

    monkeypatch.setattr(meshio, "SurfaceMesh", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mesh = load_mesh(tmp_path / "mesh.ply")
    finally:
        tracemalloc.stop()
    # 0.64 MB at 5 776 vertices, with 0.41 MB of arrays; 2.04 MB with the rows alive
    assert live[0] - before < 2 * (mesh.vertices.nbytes + mesh.faces.nbytes)


def _relaid(text, layout):
    """The PLY ``text`` with its body laid out as ``layout`` says."""
    if layout == "crlf":
        return text.replace("\n", "\r\n")
    head, body = text.split("end_header\n")
    rows = body.splitlines()
    if layout == "blank":
        rows[1:1], rows[-2:-2] = [""], ["", ""]
    elif layout == "whitespace-only":
        rows[1:1], rows[-2:-2] = ["  \t "], ["\x0c", "\x1c"]
    elif layout == "tabs":
        rows = [row.replace(" ", "\t") for row in rows]
    elif layout == "extra-rows":
        rows += ["3 0 1 2", "extra row"]
    return head + "end_header\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("layout", ["lf", "crlf", "blank", "whitespace-only", "tabs",
                                    "extra-rows"])
def test_every_layout_of_a_ply_body_reads_the_same_arrays(tmp_path, monkeypatch, layout):
    # a plain body is read straight from the file; a \r or a blank line
    # sends the file to the rows of read_lines, which skip it
    mesh = make_bumpy_plane(extent=4.0, spacing=1.0)
    aesr = np.linspace(-1.0, 1.0, mesh.n_vertices) ** 3
    write_ply(tmp_path / "lf.ply", mesh, {"aesr": aesr})
    path = tmp_path / f"{layout}.ply"
    path.write_bytes(_relaid((tmp_path / "lf.ply").read_text(), layout).encode())
    rows_read = []
    read_lines = meshio.read_lines

    def spy(path, error):
        rows_read.append(path)
        return read_lines(path, error)

    monkeypatch.setattr(meshio, "read_lines", spy)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.array_equal(read_ply_vertex_scalars(path)["aesr"], aesr)
    plain = layout in ("lf", "tabs", "extra-rows")
    assert len(rows_read) == (0 if plain else 2)


def test_write_ply_memory_does_not_grow_with_the_mesh(tmp_path):
    # 11 250 and 45 000 faces: both tables span several blocks, and the text
    # held at once is one block's
    peaks = []
    for spacing in (0.4, 0.2):
        mesh = make_bumpy_plane(spacing=spacing)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_ply(tmp_path / "mesh.ply", mesh)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    # 844 kB at both sizes; 2.3 and 9.2 MB when each table was one string
    assert peaks[1] - peaks[0] < 64e3


def test_degenerate_faces_dropped():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 1, 3]])  # second is a zero-area sliver
    with pytest.warns(UserWarning, match="degenerate"):
        mesh = SurfaceMesh(verts, faces)
    assert mesh.n_faces == 1


def test_bad_face_index():
    with pytest.raises(MeshFormatError):
        SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


def test_nonfinite_vertex_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]])
    with pytest.raises(MeshFormatError):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


def test_coordinates_too_large_for_the_areas_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1e200, 1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        with pytest.raises(MeshFormatError, match="not finite"):
            SurfaceMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))


def test_vertex_normals_unit_and_outward(icosphere_unit):
    norms = np.linalg.norm(icosphere_unit.vertex_normals, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    centroid = icosphere_unit.vertices.mean(axis=0)
    outward = np.einsum(
        "ij,ij->i", icosphere_unit.vertex_normals,
        icosphere_unit.vertices - centroid,
    )
    assert (outward > 0).mean() >= 0.99


def add_at_vertex_normals(mesh):
    """Oracle: the area-weighted normal sums accumulated one corner column
    at a time with ``np.add.at``, then normalized as ``SurfaceMesh`` does."""
    vn = np.zeros_like(mesh.vertices)
    weighted = mesh.face_normals * mesh.face_areas[:, None]
    for k in range(3):
        np.add.at(vn, mesh.faces[:, k], weighted)
    norm = np.linalg.norm(vn, axis=1)
    orphan = norm < 1e-300
    vn[orphan] = (0.0, 0.0, 1.0)
    norm[orphan] = 1.0
    return vn / norm[:, None]


@pytest.mark.parametrize("make", [
    lambda: make_bumpy_plane(spacing=0.4),
    lambda: make_icosphere(4),
    lambda: make_cylinder(),
    # vertex 4 is in no face and takes the fallback normal
    lambda: SurfaceMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.5], [9, 9, 9]],
                        [[0, 1, 2], [1, 3, 2]]),
], ids=["bumpy-plane", "icosphere", "cylinder", "orphan-vertex"])
def test_vertex_normals_match_the_add_at_oracle_bit_for_bit(make):
    mesh = make()
    assert np.array_equal(mesh.vertex_normals, add_at_vertex_normals(mesh))


def test_mesh_is_immutable(icosphere_unit):
    with pytest.raises(ValueError):
        icosphere_unit.vertices[0, 0] = 5.0
