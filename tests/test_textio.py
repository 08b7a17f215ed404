"""The text-table layer: every ASCII reader raises an ``AurisenseError``
whose ``.line`` names the line at fault, and the CLI exits 1 with a
one-line message instead of a traceback; cells follow numpy's text reader
grammar; valid files are read in one pass; integer rows are written as the
``repr`` of each cell."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aurisense import textio
from aurisense.analysis import read_dataset_csv
from aurisense.cli import main
from aurisense.errors import (
    AurisenseError,
    DatasetFormatError,
    MeshFormatError,
    ParameterError,
    UnsupportedTopologyError,
)
from aurisense.geometry import (
    load_mesh,
    load_template,
    place_aps,
    read_ply_vertex_scalars,
    write_aps_json,
    write_ply,
)
from aurisense.geometry import meshio
from aurisense.geometry.primitives import make_bumpy_plane

PLY = ("ply\nformat ascii 1.0\ncomment by hand\nelement vertex 4\n"
       "property float x\nproperty float y\nproperty float z\nproperty float aesr\n"
       "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
       "0 0 0 0.5\n1 0 0 1.5\n0 1 0 2.5\n0 0 1 3.5\n3 0 1 2\n3 0 1 3\n")
OBJ = ("# tetrahedron corner\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\n"
       "f 1/1/1 2//1 3\nv 0 0 1\nf -4 -3 -1\n")
TEMPLATE = "# layout\nAP1 0.1 0.2 0.3\nAP2 0.5 0.5 0.5\nAP3 0.9 0.2 0.7\n"
# four rows, the fewest the analyze command takes
DATASET = ("# seed=1\nlabel,AP1,AP2\nS01-L,1.0,2.0\nS01-R,1.5,2.5\n"
           "S02-L,1.2,2.1\nS02-R,1.6,2.4\n")
VALUES = "label,value\nAP1,1.0\nAP2,0.5\nAP3,2.0\n"

# kind: (file name, valid text, lines of its body rows, index of the first
# numeric cell in a body row, cell separator)
KINDS = {
    "obj": ("mesh.obj", OBJ, [2, 3, 4, 6, 7, 8], 1, " "),
    "ply": ("mesh.ply", PLY, [12, 13, 14, 15, 16, 17], 0, " "),
    "template": ("template.txt", TEMPLATE, [2, 3, 4], 1, " "),
    "dataset": ("cohort.csv", DATASET, [3, 4, 5, 6], 1, ","),
    "values": ("values.csv", VALUES, [2, 3, 4], 1, ","),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid mesh, template and APs file for the commands that read a
    second, malformed file."""
    root = tmp_path_factory.mktemp("valid")
    mesh = make_bumpy_plane(extent=10.0, spacing=2.0, amplitude=1.0, wavelength=8.0)
    write_ply(root / "mesh.ply", mesh)
    (root / "template.txt").write_text(TEMPLATE)
    write_aps_json(root / "aps.json", place_aps(mesh, load_template(root / "template.txt")))
    return root


def _argv(kind, path, valid):
    out = str(path.parent / "out")
    if kind in ("obj", "ply"):
        return ["design", str(path), str(valid / "template.txt"), "--out", out]
    if kind == "template":
        return ["design", str(valid / "mesh.ply"), str(path), "--out", out]
    if kind == "dataset":
        return ["analyze", str(path), "--out", out]
    return ["contour", str(valid / "mesh.ply"), str(valid / "aps.json"), str(path),
            "--out", out]


def _run(argv):
    """Exit code and stderr of the CLI."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _read(kind, path, valid):
    """Run the reader of ``kind`` on ``path``; for the values file, which has
    no reader of its own, run the contour command and raise what it reports."""
    if kind == "obj":
        load_mesh(path)
    elif kind == "ply":
        load_mesh(path)
        read_ply_vertex_scalars(path)
    elif kind == "template":
        load_template(path)
    elif kind == "dataset":
        read_dataset_csv(path)
    else:
        code, err = _run(_argv(kind, path, valid))
        assert code in (0, 1) and "Traceback" not in err
        if code:
            found = re.search(r"\(line (\d+)\)$", err.strip())
            raise AurisenseError(err, line=int(found[1]) if found else None)


def _fuzz_dir(valid, kind):
    path = valid / kind
    path.mkdir(exist_ok=True)
    return path


def _n_lines(data: bytes) -> int:
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    return len(lines) - (lines[-1] == b"")


H = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
     "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
     "end_header\n0 0 0\n1 0 0\n0 1 0\n")
TRI = H + "3 0 1 2\n"
V3 = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"

CASES = {
    "ply-count-not-a-number": ("ply", TRI.replace("vertex 3", "vertex abc"), MeshFormatError, 3),
    "ply-bare-format": ("ply", TRI.replace("format ascii 1.0", "format"), MeshFormatError, 2),
    "ply-bare-element": ("ply", TRI.replace("element face 1", "element"), MeshFormatError, 7),
    "ply-face-not-integers": ("ply", H + "3 a b c\n", MeshFormatError, 13),
    "ply-face-index-out-of-range": ("ply", H + "3 0 1 9\n", MeshFormatError, 13),
    "ply-quad": ("ply", H + "4 0 1 2 0\n", UnsupportedTopologyError, 13),
    "ply-nan": ("ply", TRI.replace("\n1 0 0\n", "\n1 nan 0\n"), MeshFormatError, 11),
    "ply-not-utf8": ("ply", TRI.encode().replace(b"\n0 1 0", b"\n0 1 \xff0"), MeshFormatError, 12),
    "obj-index-zero": ("obj", V3 + "f 0 1 2\n", MeshFormatError, 4),
    "obj-negative-before-first-vertex": ("obj", V3 + "f -9 1 2\n", MeshFormatError, 4),
    "obj-inf": ("obj", V3.replace("v 1 0 0", "v 1 0 inf") + "f 1 2 3\n", MeshFormatError, 2),
    "obj-not-utf8": ("obj", (V3 + "# \xe9\nf 1 2 3\n").encode("latin-1"), MeshFormatError, 4),
    "template-not-utf8": ("template", b"AP1 0.1 0.2 0.3\n\nAP2 0.1 0.2 \xfe\n", ParameterError, 3),
    "template-out-of-unit-cube": ("template", "AP1 0.1 0.2 0.3\nAP2 0.1 0.2 1.5\n",
                                  ParameterError, 2),
    "template-repeated-label": ("template", "AP1 0.1 0.2 0.3\n# c\nAP2 0.5 0.5 0.5\n"
                                "AP1 0.2 0.2 0.2\n", ParameterError, 4),
    # the label of a later row repeats an earlier one exactly; the comment
    # and the blank line count
    "dataset-repeated-label": ("dataset", "label,AP1\nS01-L,1\n# c\nS01-R,2\nS01-L,3\n",
                               DatasetFormatError, 5),
    "values-repeated-label": ("values", "label,value\nAP1,1.0\n\nAP2,2\nAP1,3\n",
                              DatasetFormatError, 5),
    "dataset-not-utf8": ("dataset", b"# c\nlabel,AP1\nS01-L,1\r\nS01-R,\xff\n",
                         DatasetFormatError, 4),
    "values-not-utf8": ("values", b"label,value\nAP1,1.0\nAP2,\xff\nAP3,1\n",
                        DatasetFormatError, 3),
    # after a byte-order mark, which is dropped, lines still count from the
    # first: a line start 3 bytes back would be the line before
    "values-bom-not-utf8": ("values", b"\xef\xbb\xbflabel,value\nAP1,1.0\n\xffAP2,1\nAP3,1\n",
                            DatasetFormatError, 3),
    "ply-bom-not-utf8": ("ply", b"\xef\xbb\xbf" + TRI.encode().replace(b"\n0 1 0", b"\n\xff0 1 0"),
                         MeshFormatError, 12),
    "values-bad-number": ("values", "label,value\nAP1,1.0\nAP2,x\nAP3,1\n",
                          DatasetFormatError, 3),
    "values-three-fields": ("values", "label,value\nAP1,1.0,2\nAP2,1\nAP3,1\n",
                            DatasetFormatError, 2),
    # numpy's text reader skips a blank row and reads a table whose every
    # row is too wide without complaint: both must still be faults
    "values-empty-cell": ("values", "label,value\nAP1,1.0\nAP2,\nAP3,1\n",
                          DatasetFormatError, 3),
    "values-every-row-too-wide": ("values", "label,value\nAP1,1,2\nAP2,1,2\nAP3,0,1\n",
                                  DatasetFormatError, 2),
    "dataset-every-row-too-wide": ("dataset", "label,AP1\nb,1,2,3\nc,1,2,3\n",
                                   DatasetFormatError, 2),
    # numpy reads 'nan' and 'inf' as numbers: the reader still names their line
    "values-nan": ("values", VALUES.replace("AP2,0.5", "AP2,nan"), DatasetFormatError, 3),
    "dataset-inf": ("dataset", DATASET.replace("S01-R,1.5", "S01-R,inf"), DatasetFormatError, 4),
    "ply-face-too-short": ("ply", H + "3 0 1\n", MeshFormatError, 13),
    "ply-quad-declared": ("ply", H + "4 0 1 2\n", UnsupportedTopologyError, 13),
    "ply-face-past-int64": ("ply", H + "3 0 1 99999999999999999999\n", MeshFormatError, 13),
    "obj-face-past-int64": ("obj", V3 + "f 1 2 99999999999999999999\n", MeshFormatError, 4),
    "obj-face-too-short": ("obj", V3 + "f 1 2\n", UnsupportedTopologyError, 4),
    "obj-quad": ("obj", V3 + "f 1 2 3 1\n", UnsupportedTopologyError, 4),
    # a lone '/4' is a fourth cell, not the tail of the third reference
    "obj-quad-bare-tail": ("obj", V3 + "f 1 2 3 /4\n", UnsupportedTopologyError, 4),
    "obj-bare-tail": ("obj", V3 + "f /1 2 3\n", MeshFormatError, 4),
}


# a warning, such as numpy's on a table with no data, is a fault of the reader
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(CASES))
def test_malformed_file_names_its_line(tmp_path, valid, case):
    kind, content, error, line = CASES[case]
    path = tmp_path / KINDS[kind][0]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    reader = read_dataset_csv if kind == "values" else lambda p: _read(kind, p, valid)
    with pytest.raises(error) as exc:
        reader(path)
    assert exc.value.line == line
    code, err = _run(_argv(kind, path, valid))
    assert code == 1
    assert err.startswith("error: ") and err.strip().endswith(f"(line {line})")
    assert "Traceback" not in err


# an integer cell that is a float: numpy 1.23 to 2.x read '1.5' as the
# integer 1 and only warn, with a DeprecationWarning hidden by default
FRACTIONAL = {
    "ply-face-fractional": ("ply", H + "3 0 1 1.5\n", MeshFormatError, 13),
    "ply-face-count-float": ("ply", H + "3.0 0 1 2\n", MeshFormatError, 13),
    "obj-face-fractional": ("obj", V3 + "f 1.5 2 3\n", MeshFormatError, 4),
}


def _truncating_loadtxt(loadtxt):
    """``np.loadtxt`` as numpy 1.23 to 2.x run it on an integer cell that
    is a float: warn, then truncate."""
    def read(rows, dtype, **kwargs):
        if np.dtype(dtype).kind not in "iu":
            return loadtxt(rows, dtype, **kwargs)
        try:
            return loadtxt(rows, dtype, **kwargs)
        except ValueError:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt(rows, np.float64, **kwargs).astype(dtype)
    return read


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("numpy_reader", ["installed", "truncating"])
@pytest.mark.parametrize("case", list(FRACTIONAL))
def test_fractional_integer_cells_name_their_line(tmp_path, valid, monkeypatch,
                                                  case, numpy_reader):
    if numpy_reader == "truncating":
        monkeypatch.setattr(np, "loadtxt", _truncating_loadtxt(np.loadtxt))
    kind, content, error, line = FRACTIONAL[case]
    path = tmp_path / KINDS[kind][0]
    path.write_text(content)
    with pytest.raises(error) as exc:
        load_mesh(path)
    assert exc.value.line == line
    code, err = _run(_argv(kind, path, valid))
    assert code == 1 and err.strip().endswith(f"(line {line})")


def _outcome(reader, path):
    """What ``reader`` does with ``path``: its result, or its fault's class,
    line and message."""
    try:
        return "read", reader(path)
    except AurisenseError as exc:
        return type(exc), exc.line, str(exc)


def _same_outcome(a, b):
    if a[0] != "read" or b[0] != "read":
        return a == b
    if isinstance(a[1], dict):
        return a[1].keys() == b[1].keys() and all(
            np.array_equal(a[1][k], b[1][k], equal_nan=True) for k in a[1])
    return (np.array_equal(a[1].vertices, b[1].vertices)
            and np.array_equal(a[1].faces, b[1].faces))


def _ply_routes_agree(path):
    """Assert that the PLY readers do the same in their one pass over the
    file as on its ``read_lines`` rows alone, with the one pass switched off."""
    for reader in (load_mesh, read_ply_vertex_scalars):
        one_pass = _outcome(reader, path)
        with mock.patch.object(meshio, "file_table", lambda *args: None):
            rows = _outcome(reader, path)
        assert _same_outcome(one_pass, rows), (one_pass, rows)


@pytest.mark.parametrize("case", [c for c in {**CASES, **FRACTIONAL} if c.startswith("ply")])
def test_both_ply_routes_raise_the_same_fault(tmp_path, case):
    kind, content, error, line = {**CASES, **FRACTIONAL}[case]
    path = tmp_path / "mesh.ply"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(error) as exc:
        load_mesh(path)
    assert exc.value.line == line
    _ply_routes_agree(path)


_SOUP = ["", "x", "nan", "-inf", "-1", "0", "3", "4", "1e999", "9" * 25, "/", "#",
         "v", "f", "label", "ply", "element", "vertex", "face", "property", "end_header"]


@st.composite
def _mutated(draw, text):
    """``text`` with one token dropped, replaced by any text or by any
    number, its body cut short, a line dropped or doubled, or the bytes
    ff fe inserted."""
    op = draw(st.sampled_from(["drop", "replace", "number", "truncate", "line", "bytes"]))
    if op == "truncate":
        return text[:draw(st.integers(0, len(text)))].encode()
    if op == "bytes":
        data = text.encode()
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff\xfe" + data[at:]
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    if op == "line":
        lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2]))
        return "\n".join(lines).encode()
    tokens = list(re.finditer(r"[^ ,/]+", lines[i]))
    if not tokens:
        return text.encode()
    m = draw(st.sampled_from(tokens))
    if op == "drop":
        new = ""
    elif op == "replace":
        new = draw(st.text(max_size=6))
    else:  # a count, index or value changed
        new = str(draw(st.integers(-10 ** 20, 10 ** 20) | st.floats()))
    lines[i] = lines[i][:m.start()] + new + lines[i][m.end():]
    return "\n".join(lines).encode()


def _soup(text):
    words = re.findall(r"[^\s,]+", text) + _SOUP
    cells = st.tuples(st.sampled_from(words), st.sampled_from([" ", ",", "\n", "\t", "\r\n"]))
    return st.lists(cells, max_size=40).map(lambda c: "".join(w + s for w, s in c).encode())


# fuzzed meshes may hold slivers or huge coordinates, and fuzzed values
# collinear APs: the warnings those raise are expected here
@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_files_raise_only_aurisense_errors_with_real_lines(valid, kind, data):
    name, text = KINDS[kind][:2]
    content = data.draw(st.one_of(_mutated(text), _soup(text),
                                  st.text().map(str.encode)))
    path = _fuzz_dir(valid, kind) / name
    path.write_bytes(content)
    try:
        _read(kind, path, valid)
    except AurisenseError as exc:
        assert exc.line is None or 1 <= exc.line <= _n_lines(content)


# fuzzed meshes may hold slivers or huge coordinates
@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_ply_files_read_alike_by_both_routes(valid, data):
    text = data.draw(st.sampled_from([KINDS["ply"][1], TRI]))
    path = _fuzz_dir(valid, "ply-routes") / "mesh.ply"
    path.write_bytes(data.draw(st.one_of(_mutated(text), _soup(text))))
    _ply_routes_agree(path)


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_bad_cell_is_reported_at_its_line(valid, kind, data):
    name, text, body, first, sep = KINDS[kind]
    lines = text.split("\n")
    line = data.draw(st.sampled_from(body))
    cells = lines[line - 1].split(sep)
    j = data.draw(st.integers(first, len(cells) - 1))
    cells[j] = data.draw(st.sampled_from(["x", "", "1..2", "--1", "0x1", "1,2"]))
    lines[line - 1] = sep.join(cells)
    path = _fuzz_dir(valid, kind) / name
    path.write_text("\n".join(lines))
    with pytest.raises(AurisenseError) as exc:
        _read(kind, path, valid)
    assert exc.value.line == line


ERRORS = {"obj": MeshFormatError, "ply": MeshFormatError, "template": ParameterError,
          "dataset": DatasetFormatError, "values": DatasetFormatError}


@pytest.mark.parametrize("kind", list(KINDS))
def test_base_files_are_valid(tmp_path, valid, kind):
    """Each malformed case differs from a file its reader accepts; the CLI
    accepts the CSV files too, so a malformed CSV that wrongly parsed would
    fail there on the exit code, not on a later check."""
    name, text = KINDS[kind][:2]
    path = tmp_path / name
    path.write_text(text)
    _read(kind, path, valid)
    if kind in ("dataset", "values"):
        assert _run(_argv(kind, path, valid))[0] == 0


def _with_cell(kind, line, cell):
    """The valid text of ``kind`` with the last cell of ``line`` replaced."""
    _, text, _, _, sep = KINDS[kind]
    lines = text.split("\n")
    lines[line - 1] = lines[line - 1].rpartition(sep)[0] + sep + cell
    return "\n".join(lines)


# a comment mark inside a cell (comments are off), a digit separator, an
# Arabic-Indic digit and a fullwidth digit: Python's float() and int() take
# the last three, numpy's text reader takes none of them; nor a U+FEFF,
# which only at the start of a file is a byte-order mark
@pytest.mark.parametrize("cell", ["1#2", "1_0", "\u0661", "\uff11", "\ufeff1"])
@pytest.mark.parametrize("row", ["first", "last"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_cells_outside_the_grammar_name_their_line(tmp_path, valid, kind, row, cell):
    body = KINDS[kind][2]
    line = body[0] if row == "first" else body[-1]
    path = tmp_path / KINDS[kind][0]
    path.write_text(_with_cell(kind, line, cell), encoding="utf-8")
    with pytest.raises(ERRORS[kind]) as exc:
        read_dataset_csv(path) if kind == "values" else _read(kind, path, valid)
    assert exc.value.line == line


def _contents(kind, path):
    """What the reader of ``kind`` makes of ``path``, as comparable values."""
    if kind in ("obj", "ply"):
        mesh = load_mesh(path)
        scalars = read_ply_vertex_scalars(path) if kind == "ply" else {}
        return (mesh.vertices.tolist(), mesh.faces.tolist(),
                {name: vals.tolist() for name, vals in scalars.items()})
    if kind == "template":
        return repr(load_template(path))
    labels, rows = read_dataset_csv(path)
    return labels, rows.tolist()


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, valid, monkeypatch, kind):
    # as a spreadsheet's "CSV UTF-8" export and some editors save a file
    name, text = KINDS[kind][:2]
    plain, marked = tmp_path / f"plain-{name}", tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _contents(kind, marked) == _contents(kind, plain)
    if kind in ("dataset", "values"):
        assert _run(_argv(kind, marked, valid))[0] == 0
    if kind == "ply":  # the rows of read_lines drop it too
        monkeypatch.setattr(meshio, "file_table", lambda *args: None)
        assert _contents(kind, marked) == _contents(kind, plain)


@pytest.mark.parametrize("kind", ["ply", "template", "dataset", "values"])
def test_a_byte_order_mark_after_the_first_is_text(tmp_path, valid, kind):
    # the first line of each of these files must read as it is written, and
    # a second mark is a U+FEFF at its start
    name, text = KINDS[kind][:2]
    path = tmp_path / name
    path.write_text("\ufeff" + text, encoding="utf-8-sig")
    with pytest.raises(ERRORS[kind]) as exc:
        read_dataset_csv(path) if kind == "values" else _read(kind, path, valid)
    assert exc.value.line == 1


@pytest.mark.parametrize("space", ["\t", "\f", "   ", " \t\f\v "])
@pytest.mark.parametrize("kind", ["obj", "ply", "template"])
def test_any_whitespace_run_separates_cells(tmp_path, kind, space):
    name, text, body = KINDS[kind][:3]
    lines = text.split("\n")
    for line in body:
        lines[line - 1] = lines[line - 1].replace(" ", space)
    plain, spaced = tmp_path / f"plain-{name}", tmp_path / name
    plain.write_text(text)
    spaced.write_text("\n".join(lines))
    if kind == "template":
        assert repr(load_template(spaced)) == repr(load_template(plain))
        return
    a, b = load_mesh(spaced), load_mesh(plain)
    assert np.array_equal(a.vertices, b.vertices) and np.array_equal(a.faces, b.faces)
    if kind == "ply":
        assert np.array_equal(read_ply_vertex_scalars(spaced)["aesr"], [0.5, 1.5, 2.5, 3.5])


def test_valid_files_are_read_without_counting_cells(tmp_path, monkeypatch):
    """The per-row cell count runs only to name the line of a fault."""
    rng = np.random.default_rng([1, 2107])  # the relief of the seed-1 ear-fine mesh
    mesh = make_bumpy_plane(extent=30.0, spacing=0.2, amplitude=rng.uniform(1.8, 2.2),
                            wavelength=rng.uniform(11.0, 13.0))
    aesr = np.linspace(-1.0, 1.0, mesh.n_vertices) ** 3
    write_ply(tmp_path / "mesh.ply", mesh, {"aesr": aesr})
    (tmp_path / "cohort.csv").write_text(DATASET)
    (tmp_path / "bad.csv").write_text(DATASET.replace("2.5", "x"))

    def counted(*args, **kwargs):
        raise AssertionError("cells were counted")

    monkeypatch.setattr(textio, "token_counts", counted)
    loaded = load_mesh(tmp_path / "mesh.ply")
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.faces, mesh.faces)
    assert np.array_equal(read_ply_vertex_scalars(tmp_path / "mesh.ply")["aesr"], aesr)
    labels, rows = read_dataset_csv(tmp_path / "cohort.csv")
    assert labels == ["S01-L", "S01-R", "S02-L", "S02-R"]
    assert rows.tolist() == [[1.0, 2.0], [1.5, 2.5], [1.2, 2.1], [1.6, 2.4]]
    with pytest.raises(AssertionError, match="counted"):
        read_dataset_csv(tmp_path / "bad.csv")


def _repr_rows(values, labels=None, sep=" "):
    """The reference writer: one ``repr`` per cell."""
    rows = map(sep.join, (map(repr, row) for row in np.asarray(values).tolist()))
    if labels is not None:
        rows = map(sep.join, zip(map(str, labels), rows))
    return "".join(f"{row}\n" for row in rows)


def _written(columns, labels=None, sep=" ", cells_per_block=textio._SLICE):
    """The text ``write_rows`` writes of ``columns`` in blocks of whole rows
    of about ``cells_per_block`` cells."""
    out = io.StringIO()
    with mock.patch.object(textio, "_SLICE", cells_per_block):
        textio.write_rows(out, columns, labels, sep)
    return out.getvalue()


def _same_text(got, expected, window: int = 40) -> None:
    """Assert that two texts, str or bytes, are equal.  A difference is
    reported by its first offset and a window of each text there: pytest
    would diff whole texts of several hundred kB, once per example that
    hypothesis shrinks."""
    if got == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    lo = max(0, at - window)
    raise AssertionError(f"the texts of {len(got)} and {len(expected)} characters differ at "
                         f"offset {at}: {got[lo:at + window]!r} != {expected[lo:at + window]!r}")


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
               np.uint8, np.uint16, np.uint32, np.uint64]


# 0, and 10**k - 1 and 10**k for k <= 19: each number of decimal digits up
# to uint64's 20, and each join of base-10**4 groups (9999 and 10**4, 10**8
# - 1 and 10**8, ...), where a group after the first keeps its zeros
_POWER_EDGES = [0] + [10 ** k + d for k in range(1, 20) for d in (-1, 0)]


@st.composite
def _int_tables(draw):
    info = np.iinfo(draw(st.sampled_from(_INT_DTYPES)))
    # for an unsigned type, max // 2 is the largest cell of the signed type of
    # its width and max // 2 + 1 the first one past it
    edges = [1, info.max, info.max // 2, info.max // 2 + 1]
    edges += [cell for cell in _POWER_EDGES if cell <= info.max]
    cells = st.sampled_from(edges) | st.integers(0, info.max)
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 5)))
    return draw(hnp.arrays(info.dtype, shape, elements=cells))


@settings(max_examples=300, deadline=None)
@given(values=_int_tables(), sep=st.sampled_from([" ", ",", ", ", "\t", " | "]))
@example(values=np.array([[2 ** 64 - 1, 2 ** 63, 0]], np.uint64), sep=" ")
@example(values=np.array([[10 ** 19, 10 ** 19 - 1, 10 ** 4, 10 ** 8]], np.uint64), sep=" | ")
def test_integer_rows_match_one_repr_per_cell(values, sep):
    _same_text(_written([values], sep=sep), _repr_rows(values, sep=sep))
    # blocks of one row, of a few rows, and of the whole table write the same text
    ncols = values.shape[1]
    for cells_per_block in (ncols, 5 * ncols, textio._SLICE):
        written = _written([values[:, :1], values[:, 1:]], sep=sep, cells_per_block=cells_per_block)
        _same_text(written, _repr_rows(values, sep=sep))


# 0, every power of ten up to 10**6 and the number before each up to 10**7 - 1
_DIGIT_EDGES = [0] + [10 ** k + d for k in range(1, 8) for d in (-1, 0)][:-1]


# rows of four cells: just under, at and just over two blocks of them
@pytest.mark.parametrize("n_rows", [0, 1] + [textio._SLICE // 2 + d for d in (-1, 0, 1)])
@pytest.mark.parametrize("sep", [" ", ","])
def test_integer_write_rows_spell_the_text_of_format_rows(n_rows, sep):
    # faces of a mesh as write_ply writes them, 1 to 7 digits a cell
    draw = np.random.default_rng(n_rows).integers(0, 10 ** 7, 3 * n_rows)
    faces = np.r_[_DIGIT_EDGES, draw][:3 * n_rows].reshape(n_rows, 3)
    columns = [np.broadcast_to(3, n_rows), faces]
    written = _written(columns, sep=sep)
    _same_text(written, _repr_rows(np.column_stack(columns), sep=sep))
    assert written.count("\n") == n_rows


@pytest.mark.parametrize("ncols", [1, 3, 4])
@pytest.mark.parametrize("sep", [" ", ", ", " | "])
def test_integer_tables_across_block_edges_match_repr(ncols, sep):
    # three blocks of _SLICE // ncols rows, whose largest cells take one, five
    # and two base-10**4 groups, the power-of-ten edges ending the second;
    # then a row of zeros
    size = textio._SLICE // ncols * ncols
    tops = np.repeat(np.array([10 ** 4, 2 ** 64 - 1, 10 ** 8], np.uint64), size)
    cells = (np.random.default_rng(52).random(tops.size) * tops).astype(np.uint64)
    cells[2 * size - len(_POWER_EDGES):2 * size] = _POWER_EDGES
    values = np.r_[cells, np.zeros(ncols, np.uint64)].reshape(-1, ncols)
    _same_text(_written([values], sep=sep), _repr_rows(values, sep=sep))


@st.composite
def _float_tables(draw):
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    shape = (draw(st.integers(0, 12)), draw(st.integers(1, 5)))
    values = draw(hnp.arrays(dtype, shape, elements=hnp.from_dtype(np.dtype(dtype))))
    labels = draw(st.none() | st.lists(st.text(max_size=4), min_size=shape[0],
                                       max_size=shape[0]))
    return values, labels


@settings(max_examples=300, deadline=None)
@given(table=_float_tables(), sep=st.sampled_from([" ", ",", "%", "%s"]))
@example(table=(np.array([[-0.0, np.nan, -np.inf, 5e-324, 1e16, 0.1]]), ["a%s"]), sep=",")
def test_float_and_labelled_rows_match_one_repr_per_cell(table, sep):
    values, labels = table
    _same_text(_written([values], labels, sep), _repr_rows(values, labels, sep))
    # blocks of one row, of a few rows, and of the whole table write the same text
    ncols = values.shape[1]
    for cells_per_block in (ncols, 5 * ncols, textio._SLICE):
        written = _written([values[:, :1], values[:, 1:]], labels, sep, cells_per_block)
        _same_text(written, _repr_rows(values, labels, sep))


@pytest.mark.parametrize("columns, labels, sep", [
    ([np.ones((2, 2))], None, "abcd"),
    ([np.ones((2, 2))], None, "\u00e9\u00e9"),
    ([np.ones((2, 2))], None, "\0"),
    ([np.ones((2, 2))], ["a", "b"], "\n"),
    ([np.ones((2, 2))], None, ",\r"),
    ([np.arange(4).reshape(2, 2)], None, "abcd"),
    ([np.arange(4).reshape(2, 2)], None, "\n"),
    ([np.array([[-2 ** 63, 2 ** 63 - 1], [0, -1]], np.int64)], None, " "),
    ([np.r_[np.arange(5000), -1]], None, " "),
    ([np.arange(4).reshape(2, 2)], ["a", "b"], ","),
    ([np.arange(4, dtype=np.uint8).reshape(2, 2)], ["a", "b"], ","),
    ([np.ones((2, 2), object)], None, " "),
    ([np.ones((2, 2)), np.array(["x", "y"], object)], None, " "),
    ([np.ones((2, 0))], ["a", "b"], ","),
], ids=["four-byte-sep", "two-char-four-byte-sep", "nul-sep", "lf-sep", "cr-sep",
        "int-four-byte-sep", "int-lf-sep", "negative-int", "negative-int-past-the-first-block",
        "int-with-labels", "uint8-with-labels", "object-cells", "object-column", "no-columns"])
def test_write_rows_refuses_what_it_cannot_spell_before_writing_a_row(
        columns, labels, sep):
    out = io.StringIO()
    with pytest.raises(ValueError):
        textio.write_rows(out, columns, labels, sep)
    assert out.getvalue() == ""


def _float64(word):
    return float(np.array(word, np.uint64).view(np.float64))


_LARGEST_SUBNORMAL = _float64(2 ** 52 - 1)


@settings(max_examples=500, deadline=None)
@given(cells=st.lists(st.integers(0, 2 ** 64 - 1).map(_float64), min_size=1, max_size=24),
       column=st.booleans(), sep=st.sampled_from([" ", ","]))
@example(cells=[5e-324, -5e-324, _LARGEST_SUBNORMAL, -_LARGEST_SUBNORMAL], column=False, sep=" ")
@example(cells=[2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
         column=False, sep=",")
@example(cells=[0.0, -0.0, math.inf, -math.inf, math.nan], column=True, sep=" ")
@example(cells=[1e16, 9999999999999998.0, math.nextafter(1e16, math.inf)], column=False, sep=" ")
@example(cells=[y for x in (1e-4, 1e-5) for y in (math.nextafter(x, 0), x, math.nextafter(x, 1))],
         column=False, sep=" ")
def test_float64_bit_patterns_match_one_repr_per_cell(cells, column, sep):
    # every sign and exponent, subnormals, infinities and NaNs included
    values = np.array(cells).reshape((-1, 1) if column else (1, -1))
    _same_text(_written([values], sep=sep), _repr_rows(values, sep=sep))
    labels = [f"r{i}" for i in range(len(values))]
    _same_text(_written([values], labels, sep), _repr_rows(values, labels, sep))


def test_every_power_of_two_and_of_ten_and_their_neighbours_match_repr():
    # each binary exponent, the short decimals 10**k and the switches to and
    # from exponent notation at 1e16 and 1e-4, with the float on each side
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    powers += [float(f"1e{k}") for k in range(-323, 309)]
    cells = [y for x in powers for y in (math.nextafter(x, 0), x, math.nextafter(x, math.inf))]
    values = np.array(cells + [-x for x in cells]).reshape(-1, 3)
    _same_text(_written([values]), _repr_rows(values))


def test_a_float_table_longer_than_one_kernel_slice_matches_repr():
    rng = np.random.default_rng(46)
    words = rng.integers(0, 2 ** 64, 2 * textio._SLICE + 12, dtype=np.uint64)
    cells = words.view(np.float64).copy()
    cells[::3] = rng.normal(0.0, 20.0, len(cells[::3])).round(2)  # short decimals too
    # cells that take their repr, and zeros, on each side of the slice edges
    for edge in (textio._SLICE, 2 * textio._SLICE):
        cells[edge - 2:edge + 3] = [np.nan, -0.0, 5e-324, -np.inf, 0.0]
    values = cells.reshape(-1, 4)
    _same_text(_written([values], sep=","), _repr_rows(values, sep=","))


def test_writing_two_float_blocks_holds_under_300_bytes_a_block_cell():
    # the peak holds one block's 48-byte fields and its text, the float
    # kernel's temporaries and the text written so far.  With about 35
    # arrays of a word a cell alive at once in the kernel, it was 3.11 MB
    # at _SLICE = 8192 (380 bytes a block cell); with each dropped once
    # read, 1.90 MB (232 bytes)
    import tracemalloc

    values = np.random.default_rng(54).normal(0.0, 20.0, (2 * textio._SLICE // 4, 4))
    textio.write_rows(io.StringIO(), [values[:1]])  # build the float tables before tracing
    tracemalloc.start()
    try:
        textio.write_rows(io.StringIO(), [values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * textio._SLICE


def test_the_schubfach_table_holds_g_for_every_k():
    # g = floor(10**-k * 2**-r) + 1, r = floor(log2(10**-k)) - 125, from
    # exact rationals; 126 bits, split in two 63-bit halves
    g1, g0 = textio._float_tables()[:2]
    for i, k in enumerate(range(-324, 293)):
        p = Fraction(10) ** -k
        e = p.numerator.bit_length() - p.denominator.bit_length()
        r = (e if Fraction(2) ** e <= p else e - 1) - 125
        g = math.floor(p / Fraction(2) ** r) + 1
        assert 2 ** 125 <= g < 2 ** 126
        assert (int(g1[i]) << 63) + int(g0[i]) == g, k


def test_importing_the_cli_builds_no_float_table():
    # nor the integer writer's group table: both are built on first use
    src = Path(textio.__file__).resolve().parent.parent
    code = ("import aurisense.cli\n"
            "from aurisense import textio\n"
            "print(textio._float_tables.cache_info().currsize,"
            " textio._group_table.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="a\r\n", max_size=12))
@example(text="a\r\n\r\r\n\n")
def test_lines_split_at_every_line_break(text):
    assert textio._split_lines(text) == text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@pytest.mark.parametrize("ncols", [3, 4, 13, textio._SLICE + 1])
def test_float_rows_across_kernel_slices_of_whole_rows_match_repr(ncols):
    # 3 and 13 columns do not divide a slice, and a row wider than a slice
    # takes one slice of its own
    rng = np.random.default_rng(47)
    n_rows = max(3, 3 * textio._SLICE // ncols + 2)
    values = rng.lognormal(2.0, 3.0, (n_rows, ncols)) * rng.choice([-1.0, 1.0], (n_rows, ncols))
    values.ravel()[::97] = np.nan
    labels = [f"r{i}" for i in range(n_rows)]
    _same_text(_written([values], sep=","), _repr_rows(values, sep=","))
    _same_text(_written([values], labels, ","), _repr_rows(values, labels, ","))


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


_JSON_LEAVES = (st.integers(-2 ** 70, 2 ** 70) | st.booleans() | st.none() | st.text(max_size=6)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-0.0, 1e16, 5e-324, 0.1, 1e-7]))
_JSON_KEYS = st.text(max_size=6) | st.sampled_from(["a, ", '", "', "\\", "é", "", '"', ": "])
_JSON = st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=6)), max_leaves=40)
_FLAT_4800 = dict(zip([f"S{i // 2 + 1:02d}-{'LR'[i % 2]}" for i in range(4800)],
                      np.random.default_rng(47).integers(0, 4, 4800).tolist()))


@settings(max_examples=400, deadline=None)
@given(obj=_JSON)
@example(obj={"a, ": 1, '", "': [1.5, None], "\\": {"é": "x, y"}, "": -0.0})
@example(obj={"a, ": "b", '", "': '", "', "\\": "\\", "é": "é", "": ""})
@example(obj=['a", ', "b", 1, 'c", "', 2.5])
@example(obj={"e": {}, "l": [], "t": (), "n": [[], {}, ()]})
@example(obj={})
@example(obj=[])
@example(obj={"truth": _FLAT_4800, "per_point": np.linspace(-1.0, 1.0, 4800).tolist()})
@example(obj=[1e16, 5e-324, -0.0, True, False, None, 2 ** 64, -(2 ** 63)])
def test_report_json_is_the_stdlib_text(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "r.json"
    textio.write_report_json(path, obj)
    _same_text(path.read_bytes(), _stdlib_json(obj).encode())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["top", "list", "dict", "mixed"])
def test_non_finite_floats_raise_value_error_before_the_json_file_is_opened(tmp_path, bad, where):
    obj = {"top": bad, "list": {"x": [1.0, bad]}, "dict": {"x": {"a": 1, "b": bad}},
           "mixed": {"x": [{"a": "s"}, "s", bad]}}[where]
    with pytest.raises(ValueError, match="JSON compliant"):
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError, match="JSON compliant"):
        textio.write_report_json(tmp_path / "r.json", {"a": obj})
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)], ids=repr)
def test_a_key_that_is_not_a_string_raises_type_error_before_the_json_file_is_opened(tmp_path,
                                                                                      key):
    with pytest.raises(TypeError, match="keys must be str"):
        textio.write_report_json(tmp_path / "r.json", {"a": {"b": 1, key: 2}})
    assert not (tmp_path / "r.json").exists()


def test_a_value_json_cannot_encode_raises_its_type_error(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        textio.write_report_json(tmp_path / "r.json", {"a": [1, np.int64(2)]})
    assert not (tmp_path / "r.json").exists()


def _python_calls(fn) -> int:
    """How many Python-level function calls and generator resumptions
    ``fn()`` makes, by a profile hook."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_truth_and_report_lists_take_no_python_call_per_item(tmp_path):
    meta = {"command": "simulate cohort", "seed": 1, "config_digest": "0" * 16,
            "version": "0.1.0"}
    truth = {"_meta": meta, "truth": _FLAT_4800}
    report = {"_meta": meta, "assignments": list(_FLAT_4800.values()),
              "labels": list(_FLAT_4800), "per_point": np.linspace(-1.0, 1.0, 4800).tolist()}
    for obj in (truth, report):
        path = tmp_path / "r.json"
        calls = _python_calls(lambda: textio.write_report_json(path, obj))
        _same_text(path.read_bytes(), _stdlib_json(obj).encode())
        assert calls < 40, calls
        # the stdlib's encoder, which the writer replaced, resumes a
        # generator once per item
        assert _python_calls(lambda: _stdlib_json(obj)) > 4800
