"""ASCII OBJ / PLY readers and the PLY writer.

The format is taken from the file extension, ``.obj`` or ``.ply``.  Both
readers follow the parse rule and line-number contract of
``aurisense.textio``: a fault in one body row (a bad number or column
count, a non-finite coordinate, a face index naming no vertex) raises
``MeshFormatError``, or ``UnsupportedTopologyError`` for a face that is
not a triangle, naming that row's line.  OBJ files are read as
``read_lines`` rows.  A PLY file that ``textio.plain_lines`` accepts has
its header parsed from its first lines and each table read straight from
the file by one ``np.loadtxt`` run; any other PLY file, or one whose
tables do not read, is read as ``read_lines`` rows by the same header
parser.  ``load_mesh`` and ``read_ply_vertex_scalars`` take the same route.

- OBJ reads ``v x y z`` rows (further columns, e.g. vertex colors, are
  dropped) and ``f a b c`` rows, using the head of each ``a/b/c``
  reference; a negative reference counts back from the last ``v`` row
  above the face.  Every other row is skipped.
- PLY reads ``format``, ``element`` and ``property`` header lines (others
  are skipped), then the vertex rows of float properties and the face
  rows ``3 i j k``; later rows are ignored.  Vertex properties beyond
  x/y/z are returned by ``read_ply_vertex_scalars``.
"""

from __future__ import annotations

import os
import re

import numpy as np

from ..errors import MeshFormatError, UnsupportedTopologyError
from ..textio import file_table, plain_lines, read_lines, require, table, write_rows
from .mesh import SurfaceMesh

# in OBJ rows joined by newlines: the '/vt/vn' tail of a face reference
# (never a whole cell, so the cell count stays), and a 'v x y z' row with the
# cells past z (vertex colors, w) as its tail
_REF_TAIL = re.compile(r"(?<=\S)/\S*")
_V_EXTRA = re.compile(r"^(\S+(?:[^\S\n]+\S+){3})[^\S\n].*$", re.M)
_NOT_TRIANGLE = (UnsupportedTopologyError, "only triangle faces are supported")


def load_mesh(path) -> SurfaceMesh:
    """Load and validate a triangle mesh from an ASCII ``.obj`` or ``.ply`` file."""
    path = os.fspath(path)
    ext = os.path.splitext(path)[1].lower()
    if ext not in (".obj", ".ply"):
        raise MeshFormatError(f"cannot infer mesh format for '{path}'; "
                              f"expected a .obj or .ply file")
    if ext == ".obj":
        rows, lines = read_lines(path, MeshFormatError)
        (vertices, v_lines), (faces, f_lines) = _parse_obj(rows, lines)
        del rows  # the row strings outweigh the arrays: free them before the mesh is built
    else:
        (vertices, v_lines), (faces, f_lines), _ = _read_ply(path)
    require(np.isfinite(vertices).all(axis=1), v_lines, MeshFormatError,
            "non-finite vertex coordinate")
    require(((faces >= 0) & (faces < len(vertices))).all(axis=1), f_lines,
            MeshFormatError, "face references a vertex that does not exist")
    return SurfaceMesh(vertices, faces)


def _parse_obj(rows, lines):
    """((vertices, their lines), (0-based faces, their lines)) of OBJ rows."""
    rows = np.array(rows, dtype=object)
    tags = np.array([row.split(None, 1)[0] for row in rows], dtype=object)
    is_v, is_f = tags == "v", tags == "f"

    v_rows = _V_EXTRA.sub(r"\1", "\n".join(rows[is_v])).split("\n") if is_v.any() else []
    v_lines = lines[is_v]
    vertices = table(v_rows, v_lines, 3, np.float64, MeshFormatError, label=True)[1]

    f_rows, f_lines = rows[is_f].tolist(), lines[is_f]
    heads = _REF_TAIL.sub("", "\n".join(f_rows)).split("\n") if f_rows else []
    refs = table(heads, f_lines, 3, np.int64, MeshFormatError, label=True,
                 wide=_NOT_TRIANGLE, short=_NOT_TRIANGLE)[1]
    # OBJ references are 1-based; a negative one counts back from the last
    # vertex defined above the face; 0 names no vertex
    seen = np.cumsum(is_v)[is_f][:, None]
    faces = np.where(refs > 0, refs - 1, np.where(refs < 0, seen + refs, -1))
    return (vertices, v_lines), (faces, f_lines)


def _read_ply(path):
    """((vertices, their lines), (faces, their lines), extra vertex columns)
    of an ASCII PLY file, by the route the module docstring describes."""
    tables = _read_plain_ply(path)
    if tables is None:
        return _parse_ply(*read_lines(path, MeshFormatError))
    return tables


def _read_plain_ply(path):
    """``_read_ply``'s result from ``np.loadtxt`` runs on a plain file, or
    None for any other file or for tables that do not read.  A header
    fault of a plain file is raised here, at its line."""
    with open(path, "rb") as fh:
        head = []
        for raw in fh:  # the header's lines, up to end_header
            head.append(raw)
            if raw.decode("latin-1").split()[:1] == ["end_header"]:
                break
        n_body = plain_lines(fh.read())
    if n_body is None or plain_lines(b"".join(head)) != len(head):
        return None
    top = len(head)  # the lines above the first vertex row
    props, nv, nf = _ply_header([raw.decode().strip() for raw in head],
                                np.arange(1, top + 1))[:3]
    if n_body < nv + nf:
        return None
    values = file_table(path, top, nv, len(props), np.float64)
    faces = file_table(path, top + nv, nf, 4, np.int64)
    if values is None or faces is None:
        return None
    return _ply_tables(props, values, range(top + 1, top + nv + 1),
                       faces, range(top + nv + 1, top + nv + nf + 1))


def _parse_ply(rows, lines):
    """``_read_ply``'s result from the ``read_lines`` rows of a PLY file."""
    props, nv, nf, end = _ply_header(rows, lines)
    body, body_lines = rows[end + 1:], lines[end + 1:]
    if len(body) < nv + nf:
        raise MeshFormatError(f"PLY body ended after {len(body)} of the "
                              f"{nv + nf} vertex and face rows")
    values = table(body[:nv], body_lines[:nv], len(props), np.float64, MeshFormatError)
    f_rows, f_lines = body[nv:nv + nf], body_lines[nv:nv + nf]
    faces = table(f_rows, f_lines, 4, np.int64, MeshFormatError, wide=_NOT_TRIANGLE)
    return _ply_tables(props, values, body_lines[:nv], faces, f_lines)


def _ply_header(rows, lines):
    """(vertex property names in declaration order, vertex count, face
    count, index of the end_header row) of the rows of a PLY file."""
    if not rows or rows[0] != "ply":
        raise MeshFormatError("not a PLY file (missing 'ply' magic)",
                              line=int(lines[0]) if rows else None)
    counts = {}
    props = []
    element = None
    for i in range(1, len(rows)):
        parts = rows[i].split()
        line = int(lines[i])
        if parts[0] == "end_header":
            break
        if parts[0] == "format":
            if parts[1:2] != ["ascii"]:
                raise MeshFormatError("only ASCII PLY is supported", line=line)
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdecimal():
                raise MeshFormatError("expected 'element <name> <count>'", line=line)
            element = parts[1]
            counts[element] = int(parts[2])
        elif parts[0] == "property":
            if len(parts) < 3:
                raise MeshFormatError("expected 'property <type> <name>'", line=line)
            if element == "vertex" and parts[1] != "list":
                props.append(parts[-1])
    else:
        raise MeshFormatError("PLY header has no 'end_header'")
    if "vertex" not in counts or "face" not in counts or not {"x", "y", "z"} <= set(props):
        raise MeshFormatError("PLY header lacks a vertex element with x, y, z "
                              "properties or a face element")
    return props, counts["vertex"], counts["face"], i


def _ply_tables(props, values, v_lines, faces, f_lines):
    """((vertices, their lines), (faces, their lines), extra vertex columns)
    of the PLY vertex table ``values``, whose columns are ``props``, and face
    table ``faces``, whose rows must start with 3."""
    require(faces[:, 0] == 3, f_lines, *_NOT_TRIANGLE)
    xyz = [props.index(c) for c in ("x", "y", "z")]
    extras = {name: values[:, j] for j, name in enumerate(props) if name not in ("x", "y", "z")}
    return (values[:, xyz], v_lines), (faces[:, 1:], f_lines), extras


def read_ply_vertex_scalars(path) -> dict:
    """Per-vertex scalar properties (beyond x/y/z) from an ASCII PLY file."""
    return _read_ply(path)[2]


def write_ply(path, mesh: SurfaceMesh, scalars: dict | None = None,
              comments: tuple = ()) -> None:
    """Write an ASCII PLY, optionally with named per-vertex scalar properties.

    Each scalar is one float per vertex, checked before the file is opened."""
    scalars = {name: np.asarray(vals, dtype=np.float64)
               for name, vals in (scalars or {}).items()}
    for name, vals in scalars.items():
        if vals.shape != (mesh.n_vertices,):
            raise ValueError(f"scalar '{name}' has shape {vals.shape}; a mesh of "
                             f"{mesh.n_vertices} vertices needs ({mesh.n_vertices},)")
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
        write_rows(fh, [mesh.vertices, *scalars.values()])
        write_rows(fh, [np.broadcast_to(3, mesh.n_faces), mesh.faces])

