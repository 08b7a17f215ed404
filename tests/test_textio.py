"""Malformed input files: every ASCII reader raises an ``AurisenseError``
whose ``.line`` names the line at fault, and the CLI exits 1 with a
one-line message instead of a traceback."""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from aurisense.geometry.primitives import make_bumpy_plane

PLY = ("ply\nformat ascii 1.0\ncomment by hand\nelement vertex 4\n"
       "property float x\nproperty float y\nproperty float z\nproperty float aesr\n"
       "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
       "0 0 0 0.5\n1 0 0 1.5\n0 1 0 2.5\n0 0 1 3.5\n3 0 1 2\n3 0 1 3\n")
OBJ = ("# tetrahedron corner\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\n"
       "f 1/1/1 2//1 3\nv 0 0 1\nf -4 -3 -1\n")
TEMPLATE = "# layout\nAP1 0.1 0.2 0.3\nAP2 0.5 0.5 0.5\nAP3 0.9 0.2 0.7\n"
DATASET = "# seed=1\nlabel,AP1,AP2\nS01-L,1.0,2.0\nS01-R,1.5,2.5\n"
VALUES = "label,value\nAP1,1.0\nAP2,0.5\nAP3,2.0\n"

# kind: (file name, valid text, lines of its body rows, index of the first
# numeric cell in a body row, cell separator)
KINDS = {
    "obj": ("mesh.obj", OBJ, [2, 3, 4, 6, 7, 8], 1, " "),
    "ply": ("mesh.ply", PLY, [12, 13, 14, 15, 16, 17], 0, " "),
    "template": ("template.txt", TEMPLATE, [2, 3, 4], 1, " "),
    "dataset": ("cohort.csv", DATASET, [3, 4], 1, ","),
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
        return ["analyze", str(path), "--k-range", "2", "3", "--out", out]
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
    "dataset-not-utf8": ("dataset", b"# c\nlabel,AP1\nS01-L,1\r\nS01-R,\xff\n",
                         DatasetFormatError, 4),
    "values-not-utf8": ("values", b"label,value\nAP1,1.0\nAP2,\xff\nAP3,1\n",
                        DatasetFormatError, 3),
    "values-bad-number": ("values", "label,value\nAP1,1.0\nAP2,x\nAP3,1\n",
                          DatasetFormatError, 3),
    "values-three-fields": ("values", "label,value\nAP1,1.0,2\nAP2,1\nAP3,1\n",
                            DatasetFormatError, 2),
}


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
