import json

import numpy as np
import pytest

from aurisense.cli import main
from aurisense.electrode import DEFAULT_TARGET_AREA
from aurisense.errors import ParameterError
from aurisense.geometry import default_template, read_aps_json, write_ply
from aurisense.geometry.primitives import make_bumpy_plane


def test_design_command_solves_and_reruns_identically(tmp_path):
    mesh_path = tmp_path / "mesh.ply"
    write_ply(mesh_path, make_bumpy_plane(extent=30.0, spacing=1.0,
                                          amplitude=2.0, wavelength=12.0))
    template_path = tmp_path / "template.txt"
    template_path.write_text("".join(
        label + " " + " ".join(repr(float(c)) for c in xyz) + "\n"
        for label, xyz in default_template(13)[:3]))

    outs = [tmp_path / "design_a.json", tmp_path / "design_b.json"]
    for out in outs:
        code = main(["design", str(mesh_path), str(template_path),
                     "--out", str(out)])
        assert code == 0

    obj = json.loads(outs[0].read_text())
    assert obj["failed"] == []
    assert len(obj["electrodes"]) == 3
    areas = np.array([e["area_mm2"] for e in obj["electrodes"]])
    # design_array's default solver tolerance is 1e-3 relative
    assert np.abs(areas - DEFAULT_TARGET_AREA).max() / DEFAULT_TARGET_AREA <= 1e-3
    assert outs[0].read_bytes() == outs[1].read_bytes()


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


@pytest.mark.parametrize("aps_obj, expected", [
    ({"aps": [{}]}, "'aps' record 0"),
    ({"aps": 3}, "'aps' must be a list"),
    ({"electrodes": [{"ap": "AP1"}]}, "'electrodes' record 0"),
], ids=["no-label", "not-a-list", "no-center"])
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
    assert expected in err
    assert "Traceback" not in err
