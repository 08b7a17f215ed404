from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial.transform import Rotation

import aurisense.geometry.curvature as curvature_module
from aurisense.electrode import (
    DEFAULT_TARGET_AREA,
    _brent,
    design_array,
    sensing_area,
    solve_diameter,
)
from aurisense.errors import (
    ParameterError,
    UnreachableTargetError,
)
from aurisense.geometry import curvature_field, place_aps
from aurisense.geometry.aps import AuricularPointSet
from aurisense.geometry.mesh import SurfaceMesh
from aurisense.geometry.primitives import make_cylinder

ORIGIN = np.zeros(3)
Z = np.array([0.0, 0.0, 1.0])


def tilted_axis(theta_deg):
    th = np.radians(theta_deg)
    return np.array([np.sin(th), 0.0, np.cos(th)])


def test_plane_circle_area(plane_fine):
    # the exact triangle-disk clip reproduces the analytic pi r^2 to rounding
    area = sensing_area(plane_fine, ORIGIN, Z, 3.0)
    expected = np.pi * 1.5 ** 2
    assert abs(area - expected) / expected < 1e-12


@pytest.mark.parametrize("theta", [15.0, 30.0])
def test_plane_tilted_ellipse_area(plane_fine, theta):
    area = sensing_area(plane_fine, ORIGIN, tilted_axis(theta), 3.0)
    expected = np.pi * 1.5 ** 2 / np.cos(np.radians(theta))
    assert abs(area - expected) / expected < 1e-12


def test_tilt_monotone_up_to_60deg(plane_fine):
    areas = []
    for theta in (0.0, 15.0, 30.0, 45.0, 60.0):
        a = sensing_area(plane_fine, ORIGIN, tilted_axis(theta), 3.0)
        expected = np.pi * 1.5 ** 2 / np.cos(np.radians(theta))
        assert abs(a - expected) / expected < 1e-12
        areas.append(a)
    assert all(b > a for a, b in zip(areas, areas[1:]))


def test_sphere_cap_area(icosphere_r10):
    v0 = icosphere_r10.vertices[0]
    axis = v0 / np.linalg.norm(v0)
    # the cylinder also grazes the far side of the sphere; only the
    # connected patch around the contact point counts
    with pytest.warns(UserWarning, match="disconnected"):
        area = sensing_area(icosphere_r10, v0, axis, 6.0)
    expected = 2 * np.pi * 10.0 * (10.0 - np.sqrt(100.0 - 9.0))  # 28.94
    assert abs(area - expected) / expected < 5e-3


def test_cylinder_faces_parallel_to_axis_area():
    # with n_theta = 50 the facets at 90 and 270 deg are parallel to the x
    # axis; the 5 mm pathway wraps the whole girth, so the patch only stays
    # connected if those facets are clipped (in their own plane) too
    mesh = make_cylinder(radius=2.0, height=10.0, n_theta=50, n_z=20)
    center = np.array([2.0, 0.0, 0.0])
    axis = np.array([1.0, 0.0, 0.0])
    assert (mesh.face_normals @ axis == 0.0).any()
    r = 2.5
    theta = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    corners = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    expected = 0.0
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        # facet a -> b spans every z; the pathway keeps |z| <= sqrt(r^2 - y^2)
        length = np.linalg.norm(b - a)

        def chord(s):
            y = a[1] + s / length * (b[1] - a[1])
            return 2.0 * np.sqrt(max(r * r - y * y, 0.0))

        expected += quad(chord, 0.0, length, epsabs=1e-14, epsrel=1e-13)[0]
    assert abs(expected - 51.05815) < 1e-5
    area = sensing_area(mesh, center, axis, 2.0 * r)
    assert abs(area - expected) / expected < 1e-8


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
@settings(max_examples=8, deadline=None)
@given(
    point=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
    diameters=st.tuples(st.floats(0.2, 6.0), st.floats(0.2, 6.0)),
    rotvec=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
)
def test_bumpy_area_monotone_and_rigid_invariant(bumpy, point, diameters, rotvec, shift):
    v = int(np.argmin(np.linalg.norm(bumpy.vertices[:, :2] - point, axis=1)))
    center = bumpy.vertices[v]
    axis = bumpy.vertex_normals[v]
    d_small, d_large = sorted(diameters)
    a_small = sensing_area(bumpy, center, axis, d_small)
    a_large = sensing_area(bumpy, center, axis, d_large)
    assert a_small <= a_large * (1.0 + 1e-12)

    rot = Rotation.from_rotvec(rotvec).as_matrix()
    moved = SurfaceMesh(bumpy.vertices @ rot.T + shift, bumpy.faces)
    a_moved = sensing_area(moved, rot @ center + shift, rot @ axis, d_large)
    assert abs(a_moved - a_large) / a_large < 1e-9


@settings(max_examples=12, deadline=None)
@given(
    point=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
    diameter=st.floats(0.5, 6.0),
    s=st.floats(0.5, 4.0),
)
def test_bumpy_area_scales_as_s_squared(bumpy, point, diameter, s):
    v = int(np.argmin(np.linalg.norm(bumpy.vertices[:, :2] - point, axis=1)))
    center = bumpy.vertices[v]
    axis = bumpy.vertex_normals[v]
    area = sensing_area(bumpy, center, axis, diameter)
    scaled = SurfaceMesh(bumpy.vertices * s, bumpy.faces)
    a_scaled = sensing_area(scaled, center * s, axis, diameter * s)
    assert abs(a_scaled - s * s * area) <= 1e-12 * s * s * area


def test_scale_covariance(plane_fine):
    a1 = sensing_area(plane_fine, ORIGIN, Z, 3.0)
    s = 2.5
    scaled = SurfaceMesh(plane_fine.vertices * s, plane_fine.faces)
    a2 = sensing_area(scaled, ORIGIN, Z, 3.0 * s)
    assert abs(a2 - s ** 2 * a1) / (s ** 2 * a1) < 1e-9


def test_center_off_surface_rejected(plane_fine):
    with pytest.raises(ParameterError, match="surface"):
        sensing_area(plane_fine, np.array([0.0, 0.0, 5.0]), Z, 3.0)


def test_tangent_axis_rejected(plane_fine):
    with pytest.raises(ParameterError, match="deg"):
        sensing_area(plane_fine, ORIGIN, tilted_axis(88.0), 3.0)


def test_bad_diameter(plane_fine):
    with pytest.raises(ParameterError):
        sensing_area(plane_fine, ORIGIN, Z, -1.0)


NAN3 = np.array([np.nan, 0.0, 0.0])


@pytest.mark.parametrize("center, axis, diameter", [
    (NAN3, Z, 3.0),
    (ORIGIN, NAN3, 3.0),
    (ORIGIN, np.zeros(3), 3.0),
    (ORIGIN, Z, np.nan),
    (ORIGIN, Z, np.inf),
    (ORIGIN, Z, 0.0),
], ids=["nan-center", "nan-axis", "zero-axis", "nan-diameter", "inf-diameter",
        "zero-diameter"])
def test_sensing_area_rejects_every_bad_argument(plane_fine, center, axis, diameter):
    with pytest.raises(ParameterError):
        sensing_area(plane_fine, center, axis, diameter)


@pytest.mark.parametrize("target", [np.nan, np.inf, 0.0, -1.0])
def test_solve_diameter_rejects_a_bad_target(plane_fine, target):
    with pytest.raises(ParameterError, match="target_area"):
        solve_diameter(plane_fine, ORIGIN, Z, target)


def test_solve_diameter_plane(plane_fine):
    d = solve_diameter(plane_fine, ORIGIN, Z, np.pi * 1.5 ** 2)
    assert abs(d - 3.0) / 3.0 < 1e-3
    d = solve_diameter(plane_fine, ORIGIN, Z, 12.566)
    assert abs(d - 4.0) / 4.0 < 1e-3


def test_solve_diameter_sphere(icosphere_r10):
    v0 = icosphere_r10.vertices[0]
    axis = v0 / np.linalg.norm(v0)
    target = 28.94
    with pytest.warns(UserWarning, match="disconnected"):
        d = solve_diameter(icosphere_r10, v0, axis, target)
        area = sensing_area(icosphere_r10, v0, axis, d)
    assert abs(area - target) / target <= 1e-3


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: np.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: abs(x - 0.3) + 2.0 * x - 1.0, 0.0, 1.0),  # a kink, as where faces join
], ids=["cubic", "cos", "exp", "kink"])
def test_brent_matches_scipy_brentq(f, a, b):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root = _brent(counted, a, b, f(a), f(b))
    expected, info = brentq(f, a, b, full_output=True)
    assert abs(root - expected) <= 2e-12  # brentq's default xtol
    assert root in calls  # the solver reuses the area at the returned point
    assert len(calls) <= info.function_calls - 2  # the bracket ends are not re-evaluated


def test_solver_monotone_in_target(plane_fine):
    d_small = solve_diameter(plane_fine, ORIGIN, Z, 5.0)
    d_large = solve_diameter(plane_fine, ORIGIN, Z, 9.0)
    assert d_small < d_large


def test_unreachable_target(plane_coarse):
    # the 20x20 mm plane holds 400 mm^2 at most
    with pytest.raises(UnreachableTargetError):
        solve_diameter(plane_coarse, ORIGIN, Z, 5000.0)


def test_design_array_plane_all_three_mm(plane_fine):
    template = [(f"AP{i+1}", np.array(xyz)) for i, xyz in enumerate([
        (0.3, 0.3, 0.5), (0.7, 0.3, 0.5), (0.3, 0.7, 0.5), (0.7, 0.7, 0.5),
        (0.5, 0.5, 0.5), (0.4, 0.6, 0.5), (0.6, 0.4, 0.5), (0.35, 0.5, 0.5),
        (0.5, 0.35, 0.5), (0.65, 0.6, 0.5),
    ])]
    aps = place_aps(plane_fine, template)
    design = design_array(plane_fine, aps, target_area=DEFAULT_TARGET_AREA)
    assert not design.failed
    diam = np.array([e.diameter_mm for e in design.electrodes])
    np.testing.assert_allclose(diam, 3.0, rtol=5e-3)
    assert design.max_rel_deviation <= 1e-3


def test_design_array_curved_equalizes_area(bumpy):
    template = [(f"AP{i+1}", np.array(xyz)) for i, xyz in enumerate([
        (0.25, 0.25, 0.5), (0.5, 0.3, 0.5), (0.75, 0.25, 0.5),
        (0.3, 0.55, 0.5), (0.6, 0.5, 0.5), (0.8, 0.6, 0.5),
        (0.25, 0.8, 0.5), (0.5, 0.75, 0.5), (0.7, 0.8, 0.5), (0.45, 0.45, 0.5),
    ])]
    aps = place_aps(bumpy, template)
    solved = design_array(bumpy, aps, target_area=DEFAULT_TARGET_AREA)
    assert not solved.failed
    areas = np.array([e.sensing_area_mm2 for e in solved.electrodes])
    assert np.max(np.abs(areas - DEFAULT_TARGET_AREA)) / DEFAULT_TARGET_AREA <= 1e-3
    diameters = np.array([e.diameter_mm for e in solved.electrodes])
    assert np.ptp(diameters) > 1e-3  # curvature varies, so diameters must too

    # a constant-diameter array on the same APs spreads far more
    const_areas = []
    for p in aps:
        n = bumpy.normal_at(p.face, p.barycentric)
        const_areas.append(sensing_area(bumpy, p.position, n, 3.0))
    const_spread = np.ptp(const_areas) / DEFAULT_TARGET_AREA
    solved_spread = np.ptp(areas) / DEFAULT_TARGET_AREA
    assert const_spread > solved_spread * 5


def test_design_partial_failure(plane_coarse):
    template = [("AP1", np.array([0.5, 0.5, 0.5])), ("AP2", np.array([0.4, 0.4, 0.5]))]
    aps = place_aps(plane_coarse, template)
    design = design_array(plane_coarse, aps, target_area=10000.0)
    assert len(design.failed) == 2
    assert design.failed[0][0] == "AP1"


@pytest.mark.parametrize("kwargs, match", [
    ({"target_area": np.nan}, "target area"),
    ({"target_area": 0.0}, "target area"),
    ({"target_area": -1.0}, "target area"),
    ({"tilt_deg": 87.0}, "tilt"),
    ({"tilt_deg": 85.0}, "tilt"),
    ({"tilt_deg": -1.0}, "tilt"),
    ({"tilt_deg": np.nan}, "tilt"),
], ids=["nan-target", "zero-target", "negative-target", "tilt-87", "tilt-85",
        "negative-tilt", "nan-tilt"])
def test_design_array_rejects_bad_parameters_before_any_solve(plane_coarse, kwargs, match):
    aps = place_aps(plane_coarse, [("AP1", np.array([0.5, 0.5, 0.5]))])
    with pytest.raises(ParameterError, match=match):
        design_array(plane_coarse, aps, **kwargs)


def test_design_array_rejects_an_ap_off_its_face(plane_coarse):
    aps = place_aps(plane_coarse, [("AP1", np.array([0.5, 0.5, 0.5])),
                                   ("AP2", np.array([0.3, 0.3, 0.5]))])
    p = aps.points[1]
    for bad in (replace(p, face=-1), replace(p, face=plane_coarse.n_faces),
                replace(p, position=p.position + [0.0, 0.0, 0.5]),
                replace(p, face=aps.points[0].face),
                replace(p, barycentric=np.full(3, np.nan))):
        with pytest.raises(ParameterError, match="AP2"):
            design_array(plane_coarse, AuricularPointSet((aps.points[0], bad)))


def test_design_array_makes_no_closest_point_search(bumpy, monkeypatch):
    template = [(f"AP{i+1}", np.array(xyz)) for i, xyz in enumerate([
        (0.25, 0.25, 0.5), (0.6, 0.5, 0.5), (0.5, 0.75, 0.5), (0.8, 0.6, 0.5),
    ])]
    aps = place_aps(bumpy, template)
    calls = []
    search = SurfaceMesh.closest_point

    def spy(self, point):
        calls.append(point)
        return search(self, point)

    monkeypatch.setattr(SurfaceMesh, "closest_point", spy)
    design = design_array(bumpy, aps, tilt_deg=20.0)
    monkeypatch.undo()
    assert not design.failed
    assert calls == []
    # each electrode matches the public solve, which finds the face itself
    for e, p in zip(design.electrodes, aps):
        assert e.diameter_mm == solve_diameter(bumpy, p.position, e.axis,
                                               DEFAULT_TARGET_AREA)


def test_design_json_fields(tmp_path, plane_coarse):
    import json
    from aurisense.electrode import write_design_json

    aps = place_aps(plane_coarse, [("AP1", np.array([0.5, 0.5, 0.5]))])
    design = design_array(plane_coarse, aps)
    out = tmp_path / "design.json"
    write_design_json(out, design, meta={"seed": None})
    obj = json.loads(out.read_text())
    assert set(obj) == {"target_area_mm2", "max_rel_deviation", "electrodes",
                        "failed", "_meta"}
    e = obj["electrodes"][0]
    assert set(e) == {"ap", "center", "axis", "diameter_mm", "tilt_deg",
                      "area_mm2", "mean_curvature_per_mm"}


def test_design_array_fits_curvature_only_at_ap_vertices(bumpy, monkeypatch):
    template = [(f"AP{i+1}", np.array(xyz)) for i, xyz in enumerate([
        (0.25, 0.25, 0.5), (0.6, 0.5, 0.5), (0.5, 0.75, 0.5), (0.8, 0.6, 0.5),
    ])]
    aps = place_aps(bumpy, template)
    fitted = []
    fit = curvature_module._fit_coeffs

    def spy(vertices, t1, t2, normals, query, indptr, indices):
        fitted.append(query.shape[0])
        return fit(vertices, t1, t2, normals, query, indptr, indices)

    monkeypatch.setattr(curvature_module, "_fit_coeffs", spy)
    design = design_array(bumpy, aps)
    monkeypatch.undo()
    assert not design.failed
    ap_vertices = np.unique(bumpy.faces[[p.face for p in aps]])
    assert fitted == [ap_vertices.size]

    full = curvature_field(bumpy).mean
    for e, p in zip(design.electrodes, aps):
        assert e.mean_curvature_per_mm == float(full[bumpy.faces[p.face]] @ p.barycentric)
