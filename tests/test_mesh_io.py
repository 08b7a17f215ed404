import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from aurisense import cli, textio
from aurisense.analysis import datasets, write_dataset_csv
from aurisense.errors import (
    EmptyMeshError,
    MeshFormatError,
    UnsupportedTopologyError,
)
from aurisense.geometry import (
    SurfaceMesh,
    load_mesh,
    load_template,
    place_aps,
    read_ply_vertex_scalars,
    write_aps_json,
    write_ply,
)
from aurisense.geometry import meshio
from aurisense.geometry.mesh import _SPHERE_PAD, DEGENERATE_AREA
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


@pytest.mark.parametrize("name", ["a b", "x", "aesr\nelement junk 1", "", "\u00e9", "a\tb"])
def test_scalar_names_the_header_cannot_carry_leave_an_existing_file_unchanged(tmp_path, name):
    # 'a b' read back as 'b', 'x' was lost to the coordinate, the newline
    # wrote a header line of its own, and '' a file load_mesh rejected
    mesh = make_bumpy_plane(extent=4.0, spacing=1.0)
    p = tmp_path / "old.ply"
    p.write_text("previous contents\n")
    with pytest.raises(ValueError, match="not a PLY property name"):
        write_ply(p, mesh, scalars={"ok": np.zeros(25), name: np.zeros(25)})
    assert p.read_text() == "previous contents\n"


@pytest.mark.parametrize("comment", ["seed=1\nelement junk 1", "a\rb", "a\r\n"])
def test_comments_with_a_line_break_leave_an_existing_file_unchanged(tmp_path, comment):
    # the break wrote a header line of its own, which load_mesh then rejected
    mesh = make_bumpy_plane(extent=4.0, spacing=1.0)
    p = tmp_path / "old.ply"
    p.write_text("previous contents\n")
    with pytest.raises(ValueError, match="line break"):
        write_ply(p, mesh, comments=("seed=1", comment))
    assert p.read_text() == "previous contents\n"


# a valid PLY whose header declares its elements in an order the body reader
# cannot follow: (text, line of the element at fault, its name)
_PLY_HEAD = "ply\nformat ascii 1.0\n"
_VERTEX = "element vertex 3\nproperty double x\nproperty double y\nproperty double z\n"
_FACE = "element face 1\nproperty list uchar int vertex_indices\n"
_ROWS = "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
ELEMENT_ORDER = {
    "edge-between": (_PLY_HEAD + _VERTEX + "element edge 1\nproperty int vertex1\n"
                     "property int vertex2\n" + _FACE + "end_header\n0 0 0\n1 0 0\n"
                     "0 1 0\n0 1\n3 0 1 2\n", 7, "edge"),
    "face-first": (_PLY_HEAD + _FACE + _VERTEX + "end_header\n3 0 1 2\n0 0 0\n1 0 0\n"
                   "0 1 0\n", 3, "face"),
    "vertex-twice": (_PLY_HEAD + _VERTEX + _VERTEX + _FACE + _ROWS, 7, "vertex"),
    "material-first": (_PLY_HEAD + "element material 0\nproperty float r\n" + _VERTEX
                       + _FACE + _ROWS, 3, "material"),
}


@pytest.mark.parametrize("case", list(ELEMENT_ORDER))
def test_a_ply_element_out_of_order_fails_at_its_header_line(tmp_path, case):
    text, line, name = ELEMENT_ORDER[case]
    p = tmp_path / "mesh.ply"
    p.write_text(text)
    for read in (load_mesh, read_ply_vertex_scalars):
        with pytest.raises(MeshFormatError, match=f"element '{name}'") as exc:
            read(p)
        assert exc.value.line == line
    # elements after the face element are read past, as later rows are
    p.write_text(_PLY_HEAD + _VERTEX + _FACE + "element edge 1\nproperty int v\n"
                 + _ROWS + "7\n")
    assert load_mesh(p).n_faces == 1


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
        fh.write("property double x\nproperty double y\nproperty double z\n")
        for name in scalars:
            fh.write(f"property double {name}\n")
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


def test_writers_end_lines_with_lf_whatever_the_platform_separator(tmp_path, monkeypatch):
    # a file opened for text without newline="\n" has each "\n" written as
    # the platform's separator; patch the writers' open to act as on Windows
    def crlf_open(file, mode="r", *args, newline=None, **kwargs):
        if "w" in mode and newline is None:
            newline = "\r\n"
        return open(file, mode, *args, newline=newline, **kwargs)

    for module in (meshio, datasets, textio):
        monkeypatch.setattr(module, "open", crlf_open, raising=False)
    mesh = make_icosphere(subdivisions=1, radius=1.0)
    write_ply(tmp_path / "out.ply", mesh, scalars={"s": np.arange(mesh.n_vertices)},
              comments=("seed=1",))
    write_dataset_csv(tmp_path / "out.csv", ["S01-L"], [[1.0, 2.0]], comments=("seed=1",))
    textio.write_report_json(tmp_path / "out.json", {"a": [1, 2]})
    for name in ("out.ply", "out.csv", "out.json"):
        data = (tmp_path / name).read_bytes()
        assert b"\n" in data and b"\r" not in data, name


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
        rows[1:1], rows[-2:-2] = ["  \t "], ["\x0c", "\x1c", "\x85\xa0 \u2028\u3000"]
    elif layout == "tabs":
        rows = [row.replace(" ", "\t") for row in rows]
    elif layout == "extra-rows":
        rows += ["3 0 1 2", "extra row"]
    elif layout == "utf8-comment":
        head = head.replace("format ascii 1.0\n", "format ascii 1.0\ncomment scan \u00e9 \u2013 \u8033\n")
    return head + "end_header\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("layout", ["lf", "crlf", "blank", "whitespace-only", "tabs",
                                    "extra-rows", "utf8-comment"])
def test_every_layout_of_a_ply_body_reads_the_same_arrays(tmp_path, monkeypatch, layout):
    # every layout is read in one pass over the file: a \r, a blank line or
    # a non-ASCII comment sends none of them to the rows of read_lines
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
    build, built = meshio.SurfaceMesh, []

    def build_spy(vertices, faces):
        built.append((vertices, faces))
        return build(vertices, faces)

    monkeypatch.setattr(meshio, "SurfaceMesh", build_spy)
    back = load_mesh(path)
    # the reader hands over C-contiguous tables, which the mesh keeps uncopied
    assert back.vertices is built[0][0] and back.faces is built[0][1]
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.array_equal(read_ply_vertex_scalars(path)["aesr"], aesr)
    assert rows_read == []


def test_every_layout_of_a_ply_loads_in_the_memory_of_a_plain_one(tmp_path):
    # no layout builds a string per row: each peak is the plain file's
    write_ply(tmp_path / "lf.ply", make_bumpy_plane(spacing=0.4))
    text = (tmp_path / "lf.ply").read_text()
    peaks = {}
    for layout in ("lf", "crlf", "blank"):
        path = tmp_path / f"{layout}.ply"
        path.write_bytes(_relaid(text, layout).encode())
        tracemalloc.start()
        try:
            load_mesh(path)
            peaks[layout] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 1.51 MiB each at 5 776 vertices; 2.64 and 2.58 MiB for the crlf and
    # blank copies when they were read as rows
    assert max(peaks["crlf"], peaks["blank"]) < peaks["lf"] + 128e3


PLY_FAULTS = {  # the faulty row, replacing vertex row 5 or the last face row
    "non-finite": ("vertex", "0 nan 0", MeshFormatError),
    "out-of-range": ("face", "3 0 1 999", MeshFormatError),
    "quad": ("face", "4 0 1 2", UnsupportedTopologyError),
    "bad-cell": ("vertex", "0 x 0", MeshFormatError),
}


@pytest.mark.parametrize("fault", list(PLY_FAULTS))
@pytest.mark.parametrize("layout", ["crlf", "blank", "utf8-comment"])
def test_a_faulty_ply_row_names_the_line_read_lines_gives(tmp_path, monkeypatch, layout, fault):
    mesh = make_bumpy_plane(extent=4.0, spacing=1.0)
    write_ply(tmp_path / "lf.ply", mesh)
    head, body = (tmp_path / "lf.ply").read_text().split("end_header\n")
    rows = body.splitlines()
    table, row, error = PLY_FAULTS[fault]
    rows[5 if table == "vertex" else -1] = row
    path = tmp_path / "mesh.ply"
    path.write_bytes(_relaid(head + "end_header\n" + "\n".join(rows) + "\n", layout).encode())
    kept, lines = textio.read_lines(path, MeshFormatError)
    with pytest.raises(error) as exc:
        load_mesh(path)
    assert exc.value.line == lines[kept.index(row)]
    # the same class, line and message as on the rows of read_lines alone
    monkeypatch.setattr(meshio, "file_table", lambda *args: None)
    with pytest.raises(error) as rows_exc:
        load_mesh(path)
    assert (rows_exc.value.line, str(rows_exc.value)) == (exc.value.line, str(exc.value))


@pytest.mark.parametrize("read", [load_mesh, read_ply_vertex_scalars],
                         ids=["load_mesh", "read_ply_vertex_scalars"])
@pytest.mark.parametrize("vertex, face, line, message", [
    ("0 nan 0 2", "3 0 1 2", 12, "non-finite vertex coordinate"),
    ("1 0 0 2", "3 0 1 99", 14, "face references a vertex that does not exist"),
], ids=["non-finite", "out-of-range"])
def test_both_ply_readers_apply_the_row_rules(tmp_path, read, vertex, face, line, message):
    path = tmp_path / "mesh.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
                    "property double y\nproperty double z\nproperty double aesr\n"
                    "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
                    f"0 0 0 1\n{vertex}\n0 1 0 3\n{face}\n")
    with pytest.raises(MeshFormatError, match=message) as exc:
        read(path)
    assert exc.value.line == line


def test_a_byte_past_the_ply_tables_that_is_not_utf8_names_its_line(tmp_path):
    # 40 kB of later rows past the tables, far beyond the text decoded with
    # them: only reading on to the end of the file finds the byte
    write_ply(tmp_path / "mesh.ply", make_bumpy_plane(extent=4.0, spacing=1.0))
    data = (tmp_path / "mesh.ply").read_bytes() + b"a later row\n" * 4000
    (tmp_path / "mesh.ply").write_bytes(data + b"extra \xff row\n")
    with pytest.raises(MeshFormatError, match="not UTF-8") as exc:
        load_mesh(tmp_path / "mesh.ply")
    assert exc.value.line == data.count(b"\n") + 1


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
    with pytest.warns(UserWarning, match="degenerate"), \
            pytest.raises(EmptyMeshError, match="all faces were degenerate"):
        SurfaceMesh(verts, faces[1:])


@pytest.mark.parametrize("vertices, faces, match", [
    (np.zeros((3, 2)), [[0, 1, 2]], r"vertices must be an \(V, 3\) array"),
    (np.zeros(9), [[0, 1, 2]], r"vertices must be an \(V, 3\) array"),
    (np.eye(3), [[0, 1, 2, 0]], r"faces must be an \(F, 3\) array"),
    (np.eye(3), [0, 1, 2], r"faces must be an \(F, 3\) array"),
], ids=["two-columns", "flat-vertices", "quad", "flat-faces"])
def test_mesh_arrays_must_be_v_by_3_and_f_by_3(vertices, faces, match):
    with pytest.raises(MeshFormatError, match=match):
        SurfaceMesh(vertices, faces)


def test_write_dataset_csv_needs_one_label_per_row(tmp_path):
    with pytest.raises(ValueError, match="one label per row"):
        write_dataset_csv(tmp_path / "out.csv", ["S01-L"], [[1.0, 2.0], [3.0, 4.0]])
    assert not (tmp_path / "out.csv").exists()


def test_bad_face_index():
    with pytest.raises(MeshFormatError):
        SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


@pytest.mark.parametrize("faces", [[[0, 1, 2.7]], [[0, 1, np.nan]], [[0, 1, 2e30]],
                                   [[True, False, True]], [["0", "1", "2"]]],
                         ids=["fraction", "nan", "past-int64", "bool", "str"])
def test_face_indices_must_be_whole_numbers(faces):
    # 2.7 once built face (0, 1, 2), and '2' was read as 2
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.]])
    with pytest.raises(MeshFormatError, match="face indices must be integers"):
        SurfaceMesh(verts, faces)
    with pytest.raises(EmptyMeshError):  # an empty list is no mesh, not a bad index
        SurfaceMesh(verts, [])
    np.testing.assert_array_equal(SurfaceMesh(verts, [[0, 1, 2.0]]).faces, [[0, 1, 2]])


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


def test_vertex_normals_are_built_on_first_read_not_by_load_or_contour(tmp_path, monkeypatch):
    # load_mesh, interpolate_contour and write_ply read no vertex normal
    mesh = make_bumpy_plane(extent=10.0, spacing=1.0)
    write_ply(tmp_path / "mesh.ply", mesh)
    (tmp_path / "t.txt").write_text("AP1 0.2 0.3 0.5\nAP2 0.8 0.5 0.5\nAP3 0.4 0.8 0.5\n")
    write_aps_json(tmp_path / "aps.json", place_aps(mesh, load_template(tmp_path / "t.txt")))
    (tmp_path / "values.csv").write_text("label,value\nAP1,1\nAP2,2\nAP3,3\n")
    compute, calls = SurfaceMesh._compute_vertex_normals, []

    def spy(self):
        calls.append(self)
        return compute(self)

    monkeypatch.setattr(SurfaceMesh, "_compute_vertex_normals", spy)
    loaded = load_mesh(tmp_path / "mesh.ply")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["contour", str(tmp_path / "mesh.ply"), str(tmp_path / "aps.json"),
                         str(tmp_path / "values.csv"), "--out", str(tmp_path / "c.ply")]) == 0
    assert calls == []
    normals = loaded.vertex_normals
    assert loaded.vertex_normals is normals and calls == [loaded]
    assert not normals.flags.writeable
    assert np.array_equal(normals, mesh.vertex_normals)


def test_vertex_normals_of_faces_too_large_to_square_are_unit_length():
    # four faces of area 5e153 around the origin: the centre's summed
    # area-weighted normal is 2e154, whose square overflows to inf
    vertices = np.array([[0.0, 0.0, 0.0], [1e77, 0.0, 0.0], [0.0, 1e77, 0.0],
                         [-1e77, 0.0, 0.0], [0.0, -1e77, 0.0]])
    mesh = SurfaceMesh(vertices, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]]))
    assert np.array_equal(mesh.vertex_normals, np.tile([0.0, 0.0, 1.0], (5, 1)))


def test_vertex_normals_that_are_not_finite_raise_at_their_first_read(monkeypatch):
    mesh = make_icosphere(1)
    monkeypatch.setattr(SurfaceMesh, "_compute_vertex_normals",
                        lambda self: np.full((self.n_vertices, 3), np.nan))
    for _ in range(2):  # nothing is cached
        with pytest.raises(MeshFormatError, match="not finite"):
            mesh.vertex_normals  # noqa: B018


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


def whole_array_mesh(vertices, faces):
    """Oracle: face areas, unit normals, vertex normals, centroids and
    radii by whole-array formulas: ``np.cross`` of (F, 3) corner gathers,
    ``np.linalg.norm``, the stacked per-coordinate ``bincount``, and the
    ``sum`` of the corners over 3 with ``einsum`` radii."""
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    cross = np.cross(b - a, c - a)
    norm = np.linalg.norm(cross, axis=1)
    keep = 0.5 * norm >= DEGENERATE_AREA
    faces, cross, norm = faces[keep], cross[keep], norm[keep]
    areas = 0.5 * norm
    normals = cross / norm[:, None]
    weighted = normals * areas[:, None]
    vn = np.stack([np.bincount(faces.T.ravel(), np.tile(weighted[:, j], 3), len(vertices))
                   for j in range(3)], axis=1)
    vnorm = np.linalg.norm(vn, axis=1)
    orphan = vnorm < 1e-300
    vn[orphan] = (0.0, 0.0, 1.0)
    vnorm[orphan] = 1.0
    corners = [vertices[faces[:, k]] for k in range(3)]
    centroids = sum(corners) / 3.0
    radii = np.sqrt(np.maximum.reduce(
        [np.einsum("ij,ij->i", q - centroids, q - centroids) for q in corners]))
    radii += _SPHERE_PAD * np.abs(vertices).max()
    return areas, normals, vn / vnorm[:, None], centroids, radii


def _tables(mesh):
    return mesh.vertices, mesh.faces


def _with_a_degenerate_face():
    vertices, faces = _tables(make_icosphere(2))
    # face (5, 5, 9) repeats a corner, so its area is 0 and it is dropped
    return vertices, np.vstack([faces[:40], [[5, 5, 9]], faces[40:]])


@pytest.mark.parametrize("make", [
    lambda: _tables(make_bumpy_plane(spacing=0.4)),
    lambda: _tables(make_icosphere(4)),
    lambda: _tables(make_cylinder()),
    _with_a_degenerate_face,
], ids=["bumpy-plane", "icosphere", "cylinder", "degenerate-face"])
def test_mesh_arrays_match_the_whole_array_oracle_bit_for_bit(make):
    vertices, faces = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the dropped face's warning
        mesh = SurfaceMesh(vertices, faces)
    areas, normals, vertex_normals, centroids, radii = whole_array_mesh(vertices, faces)
    assert mesh.n_faces == len(areas)
    np.testing.assert_array_equal(mesh.face_areas, areas)
    np.testing.assert_array_equal(mesh.face_normals, normals)
    np.testing.assert_array_equal(mesh.vertex_normals, vertex_normals)
    np.testing.assert_array_equal(mesh.face_spheres()[0], centroids)
    np.testing.assert_array_equal(mesh.face_spheres()[1], radii)


def test_mesh_build_holds_a_few_face_columns_beyond_its_outputs():
    # 45 000 faces; the vertices and faces are C-contiguous, so the mesh
    # keeps them without a copy and the outputs are the arrays it builds
    made = make_bumpy_plane(spacing=0.2)
    v, f = made.vertices, made.faces
    tracemalloc.start()
    try:
        mesh = SurfaceMesh(v, f)
        normals = mesh.vertex_normals  # built on first read
        spheres = mesh.face_spheres()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (mesh.face_areas, mesh.face_normals, normals, *spheres))
    column = 8 * mesh.n_faces  # one (F,) float64 column
    # 5.0 columns past the 3.43 MB of outputs; 17.0 with (F, 3) corner
    # gathers, np.cross and the stacked vertex-normal sums
    assert peak < outputs + 6 * column


def test_mesh_is_immutable(icosphere_unit):
    with pytest.raises(ValueError):
        icosphere_unit.vertices[0, 0] = 5.0


def test_mesh_takes_over_exact_arrays_and_copies_any_other():
    # C-contiguous float64 vertices and int64 faces are kept, and frozen
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=np.float64)
    faces = np.array([[0, 1, 2]], dtype=np.int64)
    mesh = SurfaceMesh(verts, faces)
    assert mesh.vertices is verts and mesh.faces is faces
    for arr in (verts, faces):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 3

    # another dtype, a Fortran layout or a list is copied and left writable
    others = [(verts.astype(np.float32), faces.astype(np.int32)),
              (np.asfortranarray(verts), np.asfortranarray([[0, 1, 2], [0, 2, 1]])),
              (verts.tolist(), faces.tolist())]
    for v, f in others:
        mesh = SurfaceMesh(v, f)
        for given, kept in ((v, mesh.vertices), (f, mesh.faces)):
            assert not np.shares_memory(given, kept)
            if isinstance(given, np.ndarray):
                given[0, 0] = 3
        assert mesh.vertices[0, 0] == 0.0 and mesh.faces[0, 0] == 0

    # dropping degenerate faces copies the faces, so the caller's stay writable
    faces = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int64)  # the second is a sliver
    with pytest.warns(UserWarning, match="degenerate"):
        mesh = SurfaceMesh(verts, faces)
    assert mesh.faces is not faces and faces.flags.writeable
