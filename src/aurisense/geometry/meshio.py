"""ASCII OBJ / PLY readers and the PLY writer.

The format is taken from the file extension, ``.obj`` or ``.ply``.  Both
readers follow the parse rule and line-number contract of
``aurisense.textio``: a fault in one body row (a bad number or column
count, a non-finite coordinate, a face index naming no vertex) raises
``MeshFormatError``, or ``UnsupportedTopologyError`` for a face that is
not a triangle, naming that row's line.  OBJ files are read as
``read_lines`` rows.  A PLY file is read in one pass over one UTF-8 text
handle: its header rows, where a header fault is raised at its line, then
each table by one ``textio.file_table`` run, then the rest of the file,
which is only decoded.  Only when a table does not read, or a byte is not
UTF-8, is the file read again as ``read_lines`` rows, whose body rows
``textio.table`` reads to name the faulty line.  A row that reads but
fails a check finds its line through ``textio.FileLines``.  ``load_mesh``
and ``read_ply_vertex_scalars`` take the same route, which checks the
rows by the rules OBJ shares and returns the vertex and face tables as new
C-contiguous arrays that ``SurfaceMesh`` keeps without a copy.

- OBJ reads ``v x y z`` rows (further columns, e.g. vertex colors, are
  dropped) and ``f a b c`` rows, using the head of each ``a/b/c``
  reference; a negative reference counts back from the last ``v`` row
  above the face.  Every other row is skipped.
- PLY reads ``format``, ``element`` and ``property`` header lines (others
  are skipped), then the vertex rows and the face rows ``3 i j k``; later
  rows are ignored.  So the header declares the vertex element first and
  the face element second, and no element twice; an ``element`` line that
  breaks this rule is a fault at its line.  Every vertex property is read
  as float64, whatever its declared type; ``write_ply`` declares each one
  ``double``.  Vertex properties beyond x/y/z are returned by
  ``read_ply_vertex_scalars``.
"""

from __future__ import annotations

import os
import re

import numpy as np

from ..errors import MeshFormatError, UnsupportedTopologyError
from ..textio import FileLines, file_table, read_lines, require, table, write_rows
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
        vertices, faces = _parse_obj(rows, lines)
        del rows  # the row strings outweigh the arrays: free them before the mesh is built
    else:
        # the extra columns are views that would keep the vertex table alive
        vertices, faces = _read_ply(path)[:2]
    return SurfaceMesh(vertices, faces)


def _checked(vertices, v_lines, faces, f_lines):
    """(vertices, faces), once every coordinate is finite and every face
    index names a vertex: the row rules of both formats."""
    require(np.isfinite(vertices).all(axis=1), v_lines, MeshFormatError,
            "non-finite vertex coordinate")
    require(((faces >= 0) & (faces < len(vertices))).all(axis=1), f_lines,
            MeshFormatError, "face references a vertex that does not exist")
    return vertices, faces


def _parse_obj(rows, lines):
    """(vertices, 0-based faces) of OBJ rows, passed by ``_checked``."""
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
    return _checked(vertices, v_lines, faces, f_lines)


def _read_ply(path):
    """(vertices, faces, extra vertex columns) of an ASCII PLY file, by the
    route the module docstring describes."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            head, lines = [], []  # the header's kept rows, up to end_header
            for line, row in enumerate(map(str.strip, fh), 1):
                if row:
                    head.append(row)
                    lines.append(line)
                    if row.split()[0] == "end_header":
                        break
            props, nv, nf = _ply_header(head, lines)
            values = file_table(fh, nv, len(props), np.float64)
            faces = None if values is None else file_table(fh, nf, 4, np.int64)
            fh.read()  # a byte past the tables that is not UTF-8 is a fault too
    except UnicodeDecodeError:
        faces = None
    top = len(head)
    if faces is None:  # the rows name the line at fault; a byte not UTF-8 raises here
        rows, lines = read_lines(path, MeshFormatError)
        body, body_lines = rows[top:], lines[top:]
        if len(body) < nv + nf:
            raise MeshFormatError(f"PLY body ended after {len(body)} of the "
                                  f"{nv + nf} vertex and face rows")
        v_lines, f_lines = body_lines[:nv], body_lines[nv:nv + nf]
        values = table(body[:nv], v_lines, len(props), np.float64, MeshFormatError)
        faces = table(body[nv:nv + nf], f_lines, 4, np.int64, MeshFormatError,
                      wide=_NOT_TRIANGLE)
        return _ply_tables(props, values, v_lines, faces, f_lines)
    return _ply_tables(props, values, FileLines(path, MeshFormatError, top),
                       faces, FileLines(path, MeshFormatError, top + nv))


def _ply_header(rows, lines):
    """(vertex property names in declaration order, vertex count, face
    count) of the header rows of a PLY file, up to its end_header row."""
    if not rows or rows[0] != "ply":
        raise MeshFormatError("not a PLY file (missing 'ply' magic)",
                              line=lines[0] if rows else None)
    counts = {}
    props = []
    element = None
    for row, line in zip(rows[1:], lines[1:]):
        parts = row.split()
        if parts[0] == "end_header":
            break
        if parts[0] == "format":
            if parts[1:2] != ["ascii"]:
                raise MeshFormatError("only ASCII PLY is supported", line=line)
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdecimal():
                raise MeshFormatError("expected 'element <name> <count>'", line=line)
            element = parts[1]
            if element in counts:
                raise MeshFormatError(f"element '{element}' is declared twice", line=line)
            # the body is read as the vertex rows, then the face rows
            expected = "face" if counts else "vertex"
            if "face" not in counts and element != expected:
                raise MeshFormatError(f"element '{element}' comes before the {expected} "
                                      f"element; only vertex, then face rows are read",
                                      line=line)
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
    return props, counts["vertex"], counts["face"]


def _ply_tables(props, values, v_lines, faces, f_lines):
    """(vertices, faces, extra vertex columns) of the PLY vertex table
    ``values``, whose columns are ``props``, and face table ``faces``, whose
    rows must start with 3, passed by ``_checked``.  The vertices and faces
    are new C-contiguous arrays, so ``SurfaceMesh`` copies neither and the
    (F, 4) face table is freed once its caller drops it."""
    require(faces[:, 0] == 3, f_lines, *_NOT_TRIANGLE)
    xyz = [props.index(c) for c in ("x", "y", "z")]
    extras = {name: values[:, j] for j, name in enumerate(props) if name not in ("x", "y", "z")}
    return (*_checked(values.take(xyz, axis=1), v_lines, faces[:, 1:].copy(), f_lines), extras)


def read_ply_vertex_scalars(path) -> dict:
    """Per-vertex scalar properties (beyond x/y/z) from an ASCII PLY file."""
    return _read_ply(path)[2]


def write_ply(path, mesh: SurfaceMesh, scalars: dict | None = None,
              comments: tuple = ()) -> None:
    """Write an ASCII PLY, optionally with named per-vertex scalar properties.

    Each scalar is one float64 per vertex, checked before the file is
    opened, and so is its name, which must be one header word that is not
    a coordinate: non-empty printable ASCII with no whitespace, not ``x``,
    ``y`` or ``z``.  Every vertex property is declared ``double``."""
    scalars = {name: np.asarray(vals, dtype=np.float64)
               for name, vals in (scalars or {}).items()}
    for name, vals in scalars.items():
        if not re.fullmatch("[!-~]+", name) or name in ("x", "y", "z"):
            raise ValueError(f"scalar name {name!r} is not a PLY property name: it must be "
                             f"printable ASCII with no whitespace, and not x, y or z")
        if vals.shape != (mesh.n_vertices,):
            raise ValueError(f"scalar '{name}' has shape {vals.shape}; a mesh of "
                             f"{mesh.n_vertices} vertices needs ({mesh.n_vertices},)")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        for c in comments:
            fh.write(f"comment {c}\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        # the cells are float64, which PLY names double (its float is 32-bit)
        fh.write("property double x\nproperty double y\nproperty double z\n")
        for name in scalars:
            fh.write(f"property double {name}\n")
        fh.write(f"element face {mesh.n_faces}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("end_header\n")
        write_rows(fh, [mesh.vertices, *scalars.values()])
        write_rows(fh, [np.broadcast_to(3, mesh.n_faces), mesh.faces])

