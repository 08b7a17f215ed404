"""ASCII OBJ / PLY readers and the PLY writer.

The format is taken from the file extension, ``.obj`` or ``.ply``.  Both
readers follow the parse rule and line-number contract of
``aurisense.textio``: a fault in one body row (a bad number or column
count, a non-finite coordinate, a face index naming no vertex) raises
``MeshFormatError``, or ``UnsupportedTopologyError`` for a face that is
not a triangle, naming that row's line.

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
from ..textio import read_lines, require, table, write_rows
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
    rows, lines = read_lines(path, MeshFormatError)
    if ext == ".obj":
        (vertices, v_lines), (faces, f_lines) = _parse_obj(rows, lines)
    else:
        (vertices, v_lines), (faces, f_lines), _ = _parse_ply(rows, lines)
    del rows  # the row strings outweigh the arrays: free them before the mesh is built
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


def _parse_ply(rows, lines):
    """((vertices, their lines), (faces, their lines), extra vertex columns)
    of ASCII PLY rows."""
    if not rows or rows[0] != "ply":
        raise MeshFormatError("not a PLY file (missing 'ply' magic)",
                              line=int(lines[0]) if rows else None)
    counts = {}
    props = []  # vertex property names in declaration order
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

    body, body_lines = rows[i + 1:], lines[i + 1:]
    nv, nf = counts["vertex"], counts["face"]
    if len(body) < nv + nf:
        raise MeshFormatError(f"PLY body ended after {len(body)} of the "
                              f"{nv + nf} vertex and face rows")
    values = table(body[:nv], body_lines[:nv], len(props), np.float64, MeshFormatError)
    xyz = [props.index(c) for c in ("x", "y", "z")]
    extras = {name: values[:, j] for j, name in enumerate(props) if name not in ("x", "y", "z")}

    f_rows, f_lines = body[nv:nv + nf], body_lines[nv:nv + nf]
    faces = table(f_rows, f_lines, 4, np.int64, MeshFormatError, wide=_NOT_TRIANGLE)
    require(faces[:, 0] == 3, f_lines, *_NOT_TRIANGLE)
    return (values[:, xyz], body_lines[:nv]), (faces[:, 1:], f_lines), extras


def read_ply_vertex_scalars(path) -> dict:
    """Per-vertex scalar properties (beyond x/y/z) from an ASCII PLY file."""
    return _parse_ply(*read_lines(path, MeshFormatError))[2]


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

