import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aurisense import acquisition, cli
from aurisense.cli import build_parser, main
from aurisense.electrode import _TOL, DEFAULT_TARGET_AREA
from aurisense.errors import ParameterError
from aurisense.analysis import interpolate_contour, read_dataset_csv, write_dataset_csv
from aurisense.geometry import (
    default_template,
    load_mesh,
    place_aps,
    read_aps_json,
    read_ply_vertex_scalars,
    write_ply,
)
from aurisense.geometry.primitives import make_bumpy_plane


def test_design_command_solves_and_reruns_identically(tmp_path):
    mesh_path = tmp_path / "mesh.ply"
    write_ply(mesh_path, make_bumpy_plane(extent=30.0, spacing=1.0,
                                          amplitude=2.0, wavelength=12.0))
    template_path = tmp_path / "template.txt"
    template_path.write_text("".join(
        label + " " + " ".join(repr(float(c)) for c in xyz) + "\n"
        for label, xyz in default_template(13)[:3]))

    # no tilt and an explicit tilt of 0 are one configuration, with one digest
    outs = [tmp_path / "design_a.json", tmp_path / "design_b.json", tmp_path / "tilt_0.json"]
    for out, option in zip(outs, [[], [], ["--tilt-deg", "0"]]):
        code = main(["design", str(mesh_path), str(template_path),
                     "--out", str(out)] + option)
        assert code == 0

    obj = json.loads(outs[0].read_text())
    assert obj["failed"] == []
    assert len(obj["electrodes"]) == 3
    areas = np.array([e["area_mm2"] for e in obj["electrodes"]])
    # design_array's default solver tolerance is 1e-3 relative
    assert np.abs(areas - DEFAULT_TARGET_AREA).max() / DEFAULT_TARGET_AREA <= 1e-3
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def _design_inputs(tmp_path):
    """A bumpy-plane mesh and the built-in 13-AP template, as files."""
    mesh_path = tmp_path / "mesh.ply"
    write_ply(mesh_path, make_bumpy_plane(extent=30.0, spacing=1.0,
                                          amplitude=2.0, wavelength=12.0))
    template_path = tmp_path / "template.txt"
    template_path.write_text("".join(
        label + " " + " ".join(repr(float(c)) for c in xyz) + "\n"
        for label, xyz in default_template(13)))
    return mesh_path, template_path


@pytest.mark.parametrize("target, reason", [
    ("1e6", "exceeds the patch maximum"),
], ids=["above-patch"])
def test_design_exits_2_and_lists_every_electrode_that_fails(tmp_path, capsys, target, reason):
    mesh_path, template_path = _design_inputs(tmp_path)
    labels = [f"AP{i}" for i in range(1, 14)]
    outs = [tmp_path / "design_a.json", tmp_path / "design_b.json"]
    for out in outs:
        assert main(["design", str(mesh_path), str(template_path), "--target-area", target,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [f"  {lab}" for lab in labels]
        assert all(reason in line for line in err)

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    # no electrode solved, so no deviation exists: null, not the NaN token
    obj = json.loads(outs[0].read_text(), parse_constant=reject)
    assert obj["max_rel_deviation"] is None
    assert obj["electrodes"] == []
    assert [f["ap"] for f in obj["failed"]] == labels
    assert all(reason in f["reason"] for f in obj["failed"])
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_design_meets_a_tiny_target_area(tmp_path):
    # the bracket starts at D = 0, so no diameter is too small to try
    mesh_path, template_path = _design_inputs(tmp_path)
    out = tmp_path / "design.json"
    assert main(["design", str(mesh_path), str(template_path), "--target-area", "1e-7",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["failed"] == []
    areas = np.array([e["area_mm2"] for e in obj["electrodes"]])
    assert areas.size == 13
    assert np.abs(areas / 1e-7 - 1.0).max() <= _TOL


def test_design_aps_out_feeds_a_contour_whose_ply_holds_the_interpolated_field(tmp_path):
    mesh_path, template_path = _design_inputs(tmp_path)
    aps_path = tmp_path / "aps.json"
    assert main(["design", str(mesh_path), str(template_path), "--out",
                 str(tmp_path / "design.json"), "--aps-out", str(aps_path)]) == 0
    mesh = load_mesh(mesh_path)
    aps = read_aps_json(aps_path)
    placed = place_aps(mesh, template_path)
    assert aps.labels == placed.labels
    assert np.array_equal(aps.positions(), placed.positions())
    values = 0.5 + 0.1 * np.arange(len(aps))
    (tmp_path / "values.csv").write_text("label,value\n" + "".join(
        f"{lab},{v!r}\n" for lab, v in zip(aps.labels, values.tolist())))
    out = tmp_path / "contour.ply"
    assert main(["contour", str(mesh_path), str(aps_path), str(tmp_path / "values.csv"),
                 "--out", str(out)]) == 0
    assert np.array_equal(read_ply_vertex_scalars(out)["aesr"],
                          interpolate_contour(mesh, aps, values).values)


@pytest.mark.parametrize("option", [
    ["--target-area", "nan"], ["--target-area", "0"], ["--target-area", "-1"],
    ["--tilt-deg", "87"], ["--tilt-deg", "nan"],
], ids=["nan-target", "zero-target", "negative-target", "tilt-87", "nan-tilt"])
def test_design_rejects_a_bad_target_or_tilt_with_one_message(tmp_path, capsys, option):
    write_ply(tmp_path / "mesh.ply", make_bumpy_plane(extent=10.0, spacing=1.0,
                                                      amplitude=1.0, wavelength=8.0))
    (tmp_path / "template.txt").write_text("AP1 0.5 0.5 0.5\nAP2 0.3 0.6 0.5\n")
    out = tmp_path / "design.json"
    code = main(["design", str(tmp_path / "mesh.ply"), str(tmp_path / "template.txt"),
                 "--out", str(out)] + option)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_contour_rejects_a_mesh_too_large_to_measure(tmp_path, capsys):
    (tmp_path / "mesh.obj").write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1e200 1 0\nf 1 2 3\nf 2 4 3\n")
    (tmp_path / "aps.json").write_text(json.dumps({"aps": [
        {"label": f"AP{i + 1}", "position": xyz}
        for i, xyz in enumerate([[0, 0, 0], [1, 0, 0], [0, 1, 0]])]}))
    (tmp_path / "values.csv").write_text("label,value\nAP1,1.0\nAP2,2.0\nAP3,3.0\n")
    code = main(["contour", str(tmp_path / "mesh.obj"), str(tmp_path / "aps.json"),
                 str(tmp_path / "values.csv"), "--out", str(tmp_path / "out.ply")])
    assert code == 1
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("config", ["[1, 2]", '"x"'], ids=["list", "string"])
def test_simulate_rejects_a_config_that_is_not_an_object(tmp_path, capsys, config):
    path = tmp_path / "cohort.json"
    path.write_text(config)
    code = main(["simulate", "cohort", str(path), "--seed", "1",
                 "--out", str(tmp_path / "cohort.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config must be a JSON object" in err
    assert "Traceback" not in err


_AP = {"label": "AP1", "position": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("aps_obj, expected", [
    ({"aps": [{}]}, "'aps' record 0"),
    ({"aps": 3}, "'aps' must be a list"),
    # a design file is not an APs file: its electrodes are not read as APs
    ({"electrodes": [{"ap": "AP1", "center": [0.0, 0.0, 0.0]}], "failed": []},
     "'design --aps-out'"),
    ({"aps": [_AP, {**_AP, "label": None}]}, "'aps' record 1: expected an object with a string"),
    ({"aps": [{**_AP, "label": 7}]}, "'aps' record 0: expected an object with a string"),
    # an integer too large for a float
    ({"aps": [{**_AP, "position": [10 ** 400, 0, 0]}]}, "'aps' record 0: expected"),
    ({"aps": [{**_AP, "position": ["1", "2", "3"]}]}, "'aps' record 0: expected"),
    ({"aps": [{**_AP, "face": 2.7}]}, "'aps' record 0: 'face' must be a whole number"),
    ({"aps": [{**_AP, "face": True}]}, "'aps' record 0: 'face' must be a whole number"),
    ({"aps": [{**_AP, "face": "3"}]}, "'aps' record 0: 'face' must be a whole number"),
    ({"aps": [{**_AP, "face": -1}]}, "'aps' record 0: 'face' must be a whole number"),
    ({"aps": [{**_AP, "face": [3]}]}, "'aps' record 0: 'face' must be a whole number"),
    ({"aps": [{**_AP, "barycentric": [1, 2]}]}, "'aps' record 0: 'barycentric' must be three"),
    ({"aps": [{**_AP, "barycentric": [float("nan"), 0, 1]}]},
     "'aps' record 0: 'barycentric' must be three"),
    ({"aps": [{**_AP, "barycentric": [True, False, False]}]},
     "'aps' record 0: 'barycentric' must be three"),
], ids=["no-label", "not-a-list", "design-file", "null-label", "number-label",
        "position-past-float", "string-position", "fractional-face", "bool-face",
        "string-face", "negative-face", "list-face", "two-barycentrics", "nan-barycentric",
        "bool-barycentric"])
def test_contour_rejects_a_malformed_aps_file(tmp_path, capsys, aps_obj, expected):
    write_ply(tmp_path / "mesh.ply", make_bumpy_plane(extent=10.0, spacing=1.0,
                                                      amplitude=1.0, wavelength=8.0))
    (tmp_path / "aps.json").write_text(json.dumps(aps_obj))
    (tmp_path / "values.csv").write_text("label,value\nAP1,1.0\n")
    with pytest.raises(ParameterError, match=expected):
        read_aps_json(tmp_path / "aps.json")
    code = main(["contour", str(tmp_path / "mesh.ply"), str(tmp_path / "aps.json"),
                 str(tmp_path / "values.csv"), "--out", str(tmp_path / "out.ply")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert "Traceback" not in err


def _contour_inputs(tmp_path, aps_labels, values_text):
    write_ply(tmp_path / "mesh.ply", make_bumpy_plane(extent=10.0, spacing=1.0,
                                                      amplitude=1.0, wavelength=8.0))
    (tmp_path / "aps.json").write_text(json.dumps({"aps": [
        {"label": lab, "position": xyz}
        for lab, xyz in zip(aps_labels, [[0, 0, 0], [3, 0, 0], [0, 3, 0]])]}))
    (tmp_path / "values.csv").write_text(values_text)
    return ["contour", str(tmp_path / "mesh.ply"), str(tmp_path / "aps.json"),
            str(tmp_path / "values.csv"), "--out", str(tmp_path / "out.ply")]


def test_contour_rejects_an_aps_file_that_repeats_a_label(tmp_path, capsys):
    argv = _contour_inputs(tmp_path, ["AP1", "AP1", "AP3"],
                           "label,value\nAP1,1.0\nAP1,2.0\nAP3,3.0\n")
    with pytest.raises(ParameterError, match="'aps' record 1 repeats the label 'AP1'"):
        read_aps_json(tmp_path / "aps.json")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'aps' record 1 repeats the label 'AP1'" in err
    assert not (tmp_path / "out.ply").exists()


def test_contour_rejects_a_values_file_that_repeats_a_label(tmp_path, capsys):
    # the comment line counts: the repeated row is on line 5
    argv = _contour_inputs(tmp_path, ["AP1", "AP2", "AP3"],
                           "label,value\nAP1,1.0\n# note\nAP2,2.0\nAP1,3.0\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: the row repeats the label 'AP1' (line 5)\n"
    assert not (tmp_path / "out.ply").exists()


@pytest.mark.parametrize("values_text, message", [
    ("label,value,spare\nAP1,1.0,0\nAP2,2.0,0\nAP3,3.0,0\n",
     "values file has 2 value columns; expected 'label,value'"),
    ("label,value\nAP1,1.0\nAP2,2.0\n", "2 values for 3 APs"),
], ids=["two-columns", "too-few"])
def test_contour_rejects_values_that_do_not_fit_the_aps(tmp_path, capsys, values_text,
                                                        message):
    argv = _contour_inputs(tmp_path, ["AP1", "AP2", "AP3"], values_text)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.ply").exists()


def test_json_inputs_that_are_not_utf8_exit_1(tmp_path, capsys):
    write_ply(tmp_path / "mesh.ply", make_bumpy_plane(extent=10.0, spacing=1.0,
                                                      amplitude=1.0, wavelength=8.0))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff{"aps": []}')
    (tmp_path / "values.csv").write_text("label,value\nAP1,1.0\n")
    for argv in (["simulate", "cohort", str(bad), "--seed", "1",
                  "--out", str(tmp_path / "c.csv")],
                 ["contour", str(tmp_path / "mesh.ply"), str(bad),
                  str(tmp_path / "values.csv"), "--out", str(tmp_path / "c.ply")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_cli_import_leaves_out_the_solver_and_graph_modules():
    # every scipy module is imported where it is used; at start-up it would
    # add to the time and memory of every command, `simulate` included
    src = Path(__import__("aurisense").__file__).resolve().parent.parent
    code = ("import sys, aurisense.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_building_the_set_up_inputs_loads_no_scipy_module(tmp_path):
    # mesh, template and placed APs: the inputs of a design or contour run
    src = Path(__import__("aurisense").__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from aurisense.geometry import default_template, place_aps, write_aps_json, write_ply\n"
        "from aurisense.geometry.primitives import make_bumpy_plane\n"
        "out = Path(sys.argv[1])\n"
        "mesh = make_bumpy_plane(extent=30.0, spacing=1.0)\n"
        "write_ply(out / 'mesh.ply', mesh)\n"
        "write_aps_json(out / 'aps.json', place_aps(mesh, default_template(13)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "aps.json").exists()


def test_design_command_loads_no_scipy_module(tmp_path):
    # the mesh topology is index arrays and the contact patch's component is
    # found by label hooking, both in numpy: a design loads no scipy module
    mesh_path, template_path = _design_inputs(tmp_path)
    src = Path(__import__("aurisense").__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        "from aurisense.cli import main\n"
        "assert main(['design', *sys.argv[1:]]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(mesh_path), str(template_path),
                          "--out", str(tmp_path / "design.json"),
                          "--aps-out", str(tmp_path / "aps.json")], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == []  # after the command's summary line
    assert (tmp_path / "aps.json").exists()


def test_simulate_and_analyze_commands_rerun_identically(tmp_path):
    # a '_'-prefixed key is a comment: the outputs match those of the bare config
    (tmp_path / "plain.json").write_text('{"sizes": [8, 6, 4, 2]}')
    (tmp_path / "noted.json").write_text('{"_note": "small cohort", "sizes": [8, 6, 4, 2]}')
    runs = []
    for config in ("plain.json", "noted.json", "noted.json"):
        out = tmp_path / f"run{len(runs)}"
        out.mkdir()
        argvs = [
            ["simulate", "cohort", str(tmp_path / config), "--seed", "3",
             "--out", str(out / "cohort.csv"), "--truth-out", str(out / "truth.json")],
            ["simulate", "session", "default", "--seed", "4", "--subject", "S02",
             "--test", "A2", "--out", str(out / "session.json")],
            ["analyze", str(out / "cohort.csv"), "--seed", "3",
             "--out", str(out / "report.json")],
        ]
        for argv in argvs:
            assert main(argv) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(runs[0]) == ["cohort.csv", "report.json", "session.json", "truth.json"]
    assert runs[0] == runs[1] == runs[2]
    truth = json.loads(runs[0]["truth.json"])
    assert sorted(truth["truth"].values()).count(0) == 8 and len(truth["truth"]) == 20
    report = json.loads(runs[0]["report.json"])
    assert len(report["assignments"]) == 20 and report["_meta"]["command"] == "analyze"


@pytest.mark.parametrize("second", ["same", "dot-slash", "symlink"])
@pytest.mark.parametrize("command", ["simulate", "design"])
def test_two_outputs_at_one_path_exit_1_before_any_file_is_written(tmp_path, monkeypatch,
                                                                   capsys, command, second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to(tmp_path / "out.json")
    other = {"same": "out.json", "dot-slash": "./out.json", "symlink": "link.json"}[second]
    if command == "simulate":
        argv = ["simulate", "cohort", "default", "--seed", "1", "--out", "out.json",
                "--truth-out", other]
    else:
        mesh_path, template_path = _design_inputs(tmp_path)
        argv = ["design", str(mesh_path), str(template_path), "--out", "out.json",
                "--aps-out", other]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out and --") and "one file" in err[0]
    assert not (tmp_path / "out.json").exists()


def test_simulate_session_ignores_a_truth_out_at_its_out_path(tmp_path):
    # only a cohort writes the truth, so a session has one output
    out = str(tmp_path / "session.json")
    assert main(["simulate", "session", "default", "--seed", "1", "--out", out,
                 "--truth-out", out]) == 0
    assert json.loads((tmp_path / "session.json").read_text())["subject"] == "S01"


def test_simulate_reads_a_config_with_a_leading_byte_order_mark(tmp_path):
    (tmp_path / "config.json").write_text('{"sizes": [8, 6, 4, 2]}')
    (tmp_path / "bom.json").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "config.json").read_bytes())
    for name in ("config", "bom"):
        assert main(["simulate", "cohort", str(tmp_path / f"{name}.json"), "--seed", "3",
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()


def test_analyze_skips_the_concordance_of_labels_that_are_not_ear_pairs(tmp_path, capsys):
    (tmp_path / "config.json").write_text('{"sizes": [8, 6, 4, 2]}')
    assert main(["simulate", "cohort", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "ears.csv")]) == 0
    labels, rows = read_dataset_csv(tmp_path / "ears.csv")
    write_dataset_csv(tmp_path / "rows.csv", [f"row{i}" for i in range(len(labels))], rows)
    reports, errs = {}, {}
    for name in ("ears", "rows"):
        out = tmp_path / f"{name}.json"
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / f"{name}.csv"), "--out", str(out)]) == 0
        reports[name] = json.loads(out.read_text())
        errs[name] = capsys.readouterr().err
    assert errs == {"ears": "",
                    "rows": "analyze: no concordance: label 'row0' is not SUBJECT-SIDE\n"}
    assert "concordance" in reports["ears"]
    assert "concordance" not in reports["rows"]
    assert reports["rows"]["assignments"] == reports["ears"]["assignments"]


def test_analyze_skips_the_concordance_of_a_repeated_ear(tmp_path, capsys):
    (tmp_path / "config.json").write_text('{"sizes": [8, 6, 4, 2]}')
    assert main(["simulate", "cohort", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "ears.csv")]) == 0
    labels, rows = read_dataset_csv(tmp_path / "ears.csv")
    # the first ear once more, its side in lower case: a label of its own
    repeat = labels[0][:-1] + labels[0][-1].lower()
    write_dataset_csv(tmp_path / "repeat.csv", [*labels, repeat], np.vstack([rows, rows[:1]]))
    out = tmp_path / "repeat.json"
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "repeat.csv"), "--out", str(out)]) == 0
    assert capsys.readouterr().err == (f"analyze: no concordance: label '{repeat}' repeats "
                                       f"the ear '{labels[0]}'\n")
    report = json.loads(out.read_text())
    assert len(report["assignments"]) == len(labels) + 1
    assert "concordance" not in report


def test_analyze_rejects_a_dataset_that_repeats_a_label_exactly(tmp_path, capsys):
    (tmp_path / "config.json").write_text('{"sizes": [8, 6, 4, 2]}')
    assert main(["simulate", "cohort", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "ears.csv")]) == 0
    labels, rows = read_dataset_csv(tmp_path / "ears.csv")
    write_dataset_csv(tmp_path / "repeat.csv", [*labels, labels[0]], np.vstack([rows, rows[:1]]),
                      comments=("the first ear once more",))
    out = tmp_path / "repeat.json"
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "repeat.csv"), "--out", str(out)]) == 1
    # a comment, the header, then the rows: the repeat is the last line
    line = 2 + len(labels) + 1
    assert capsys.readouterr().err == (f"error: the row repeats the label '{labels[0]}' "
                                       f"(line {line})\n")
    assert not out.exists()


@pytest.mark.parametrize("m", [4, 8, 9, 20])
def test_analyze_runs_k_from_2_to_the_smaller_of_8_and_m_less_1(tmp_path, m):
    rows = np.random.default_rng(m).uniform(1.0, 2.0, size=(m, 3))
    write_dataset_csv(tmp_path / "rows.csv", [f"S{i // 2:02d}-{'LR'[i % 2]}" for i in range(m)],
                      rows)
    out = tmp_path / "report.json"
    assert main(["analyze", str(tmp_path / "rows.csv"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["sse_by_k"]["k"] == list(range(1, min(8, m - 1) + 1))
    assert report["_meta"] == cli._meta(
        "analyze", 0, {"dataset": cli._file_digest(tmp_path / "rows.csv")})[0]


def test_analyze_rejects_a_dataset_of_3_rows_with_one_message(tmp_path, capsys):
    write_dataset_csv(tmp_path / "rows.csv", ["S01-L", "S01-R", "S02-L"],
                      [[1.0, 2.0], [1.0, 3.0], [2.0, 2.0]])
    out = tmp_path / "report.json"
    assert main(["analyze", str(tmp_path / "rows.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: matrix must be 2-D with at least 4 rows\n"
    assert not out.exists()


def test_analyze_ends_on_a_cohort_whose_clusters_lie_far_beyond_their_spread(tmp_path):
    # at noise 30 the ratios to AP1 span dozens of orders of magnitude: a
    # cluster lies so far beyond its own spread that its centre mean rounds
    # by more than the spread, and the SSE of a Lloyd step rises
    (tmp_path / "config.json").write_text('{"noise": 30}')
    assert main(["simulate", "cohort", str(tmp_path / "config.json"), "--seed", "1",
                 "--out", str(tmp_path / "cohort.csv")]) == 0
    out = tmp_path / "report.json"
    assert main(["analyze", str(tmp_path / "cohort.csv"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k_star"] == 2


def test_analyze_rejects_a_ratio_to_ap1_that_overflows_with_one_message(tmp_path, capsys):
    rows = np.random.default_rng(2).uniform(1.0, 2.0, size=(10, 3))
    rows[0] = [1e-300, 1e300, 3.0]
    write_dataset_csv(tmp_path / "rows.csv", [f"row{i}" for i in range(10)], rows)
    out = tmp_path / "report.json"
    assert main(["analyze", str(tmp_path / "rows.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: a ratio to AP1 is not a finite float64\n"
    assert not out.exists()


@pytest.mark.parametrize("option", [["--normalize", "spatial"], ["--space", "pca"],
                                    ["--k-range", "2", "5"], ["--restarts", "3"]],
                         ids=["normalize", "space", "k-range", "restarts"])
def test_analyze_has_one_pipeline_and_rejects_a_mode_option(tmp_path, capsys, option):
    (tmp_path / "config.json").write_text('{"sizes": [8, 6, 4, 2]}')
    assert main(["simulate", "cohort", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "cohort.csv")]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["analyze", str(tmp_path / "cohort.csv"), *option, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: " + " ".join(option) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "cohort", "default"],
                                     ["simulate", "session", "default"],
                                     ["analyze", "cohort.csv"]],
                         ids=["cohort", "session", "analyze"])
def test_a_negative_seed_exits_1_with_one_message(tmp_path, capsys, command):
    (tmp_path / "config.json").write_text('{"sizes": [8, 6, 4, 2]}')
    assert main(["simulate", "cohort", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "cohort.csv")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be an integer >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, config", [
    ("cohort", "default"), ("cohort", '{"sizes": [8, 6, 4, 2]}'),
    ("session", "default"), ("session", '{"noise": 0}'),
])
def test_simulate_checks_its_config_once(tmp_path, monkeypatch, kind, config):
    calls = []
    checked = acquisition.simulation_config

    def spy(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(acquisition, "simulation_config", spy)
    monkeypatch.setattr(cli, "simulation_config", spy, raising=False)
    if config != "default":
        (tmp_path / "config.json").write_text(config)
        config = str(tmp_path / "config.json")
    assert main(["simulate", kind, config, "--seed", "2", "--out",
                 str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    session = ["simulate", "session", "default", "--seed", "5", "--subject", "S03",
               "--test", "A2", "--out"]
    assert main(["simulate", "session", "default"]) == 1  # --seed and --out missing
    assert main(session + [str(tmp_path / "first.json")]) == 0
    assert main(["--version"]) == 0
    assert main(session + [str(tmp_path / "second.json")]) == 0
    assert capsys.readouterr().out.count("simulate session: S03 A2") == 2
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    assert build_parser() is build_parser()


@pytest.mark.parametrize("kind, config, message", [
    ("session", '{"baseline_range": [-1, 1e6]}', "unknown config field 'baseline_range'"),
    ("session", '{"hr_baseline": NaN}', "unknown config field 'hr_baseline'"),
    ("session", '{"hr_rise": 0.4}', "unknown config field 'hr_rise'"),
    ("session", '{"noise": NaN}', "'noise'"),
    ("cohort", '{"noise": NaN}', "'noise'"),
    ("cohort", '{"sizes": [0, 0, 0, 0]}', "positive, even"),
    ("cohort", '{"sizes": "abc"}', "'sizes'"),
    ("cohort", '{"sizes": [35, 17, 5, -3]}', "'sizes'"),
    ("cohort", '{"sizes": [35.7, 17, 5, 3]}', "'sizes'"),
    ("cohort", '{"scale_sigma_factor": NaN}', "unknown config field 'scale_sigma_factor'"),
    ("cohort", '{"noise": 1000}', "noise 1000 draws an AESR value that is not a finite"),
    ("session", '{"noise": 1000}', "noise 1000 draws an AESR value that is not a finite"),
], ids=["negative-baseline", "nan-hr", "removed-field", "nan-session-noise",
        "nan-cohort-noise", "no-ears", "string-sizes", "negative-size", "fractional-size",
        "nan-scale-sigma", "overflowing-noise", "overflowing-session-noise"])
def test_simulate_rejects_a_bad_config_field_with_one_message(tmp_path, capsys, kind, config,
                                                              message):
    (tmp_path / "config.json").write_text(config)
    out = tmp_path / "out"
    assert main(["simulate", kind, str(tmp_path / "config.json"), "--seed", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()
