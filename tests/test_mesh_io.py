import warnings

import numpy as np
import pytest

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
    write_vtk,
)
from aurisense.geometry.primitives import make_bumpy_plane, make_icosphere


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


def test_vtk_writer_structure(tmp_path):
    mesh = make_icosphere(subdivisions=1)
    p = tmp_path / "mesh.vtk"
    write_vtk(p, mesh, scalars={"aesr": np.ones(mesh.n_vertices)})
    text = p.read_text()
    assert "DATASET POLYDATA" in text
    assert f"POINTS {mesh.n_vertices} double" in text
    assert "SCALARS aesr double 1" in text
    assert f"POINT_DATA {mesh.n_vertices}" in text


def test_vtk_points_and_scalars_read_back_exactly(tmp_path):
    mesh = make_icosphere(subdivisions=1)
    vals = np.linspace(-1.0, 1.0, mesh.n_vertices) / 3.0
    p = tmp_path / "mesh.vtk"
    write_vtk(p, mesh, scalars={"aesr": vals})
    lines = p.read_text().splitlines()
    start = lines.index(f"POINTS {mesh.n_vertices} double") + 1
    points = [[float(x) for x in row.split()] for row in lines[start:start + mesh.n_vertices]]
    assert np.array_equal(np.array(points), mesh.vertices)
    start = lines.index("LOOKUP_TABLE default") + 1
    assert np.array_equal([float(x) for x in lines[start:]], vals)


@pytest.mark.parametrize("writer, name", [(write_ply, "old.ply"), (write_vtk, "old.vtk")],
                         ids=["ply", "vtk"])
@pytest.mark.parametrize("bad", [np.ones(24), np.ones((25, 1))], ids=["short", "column"])
def test_bad_scalars_leave_an_existing_file_unchanged(tmp_path, writer, name, bad):
    mesh = make_bumpy_plane(extent=4.0, spacing=1.0)
    assert mesh.n_vertices == 25
    p = tmp_path / name
    p.write_text("previous contents\n")
    with pytest.raises(ValueError, match="'aesr' has"):
        writer(p, mesh, scalars={"ok": np.zeros(25), "aesr": bad})
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


def test_writers_match_the_per_row_reference(tmp_path):
    awkward = np.array([-0.0, 1e-300, 1e16, 0.1, -2.5e-7, 1.0 / 3.0])
    verts = np.array([[0.0, 0.0, 0.0], [1e16, 0.1, -0.0], [1e-300, 1.0, 0.1],
                      [1.0 / 3.0, -2.5e-7, 1e16], [0.1, 0.1, 0.1], [-0.0, 2.0, 1e-300]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2], [0, 2, 3], [1, 3, 4], [2, 4, 5]]))
    scalars = {"aesr": awkward, "rank": np.arange(6)}
    write_ply(tmp_path / "new.ply", mesh, scalars=scalars, comments=("seed=1",))
    _reference_ply(tmp_path / "ref.ply", mesh, scalars, ("seed=1",))
    assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()

    labels = ["S01-L", "S01-R", "S02-L"]
    rows = np.stack([awkward, awkward[::-1], awkward * 7.0])
    write_dataset_csv(tmp_path / "new.csv", labels, rows, comments=("seed=1",))
    _reference_dataset_csv(tmp_path / "ref.csv", labels, rows, ("seed=1",))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def test_mesh_is_immutable(icosphere_unit):
    with pytest.raises(ValueError):
        icosphere_unit.vertices[0, 0] = 5.0
