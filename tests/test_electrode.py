import collections
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial import Delaunay
from scipy.spatial.transform import Rotation

import aurisense.electrode as electrode_module
import aurisense.geometry.curvature as curvature_module
import aurisense.geometry.mesh as mesh_module
from aurisense.electrode import (
    DEFAULT_TARGET_AREA,
    _connected_patch,
    _disk_clip_areas,
    _Pathway,
    _solve,
    design_array,
    sensing_area,
    solve_diameter,
)
from aurisense.errors import (
    AurisenseError,
    ParameterError,
    UnreachableTargetError,
    ZeroAreaError,
)
from aurisense.geometry import curvature_field, default_template, place_aps
from aurisense.geometry.aps import AuricularPointSet
from aurisense.geometry.mesh import SurfaceMesh
from aurisense.geometry.primitives import _square_grid
from meshes import make_cylinder

ORIGIN = np.zeros(3)
X = np.array([1.0, 0.0, 0.0])
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


def _clipped_area_by_quadrature(mesh, faces, center, axis, radius):
    """Area of ``faces`` within ``radius`` of the axis line through ``center``.

    Face (a, b, c) is swept by the segments from a + s (b - a) to
    a + s (c - a), s in [0, 1], of length s |c - b| and spaced h ds apart,
    h |c - b| = 2 area; the cylinder cuts each segment in one interval, so
    the clipped area is 2 area * integral of s * (inside fraction) ds.  The
    integrand is smooth between the s where an end of the segment crosses
    the cylinder or the segment's line touches it, which are the breakpoints.
    """

    def perp(w):
        return w - np.multiply.outer(w @ axis, axis)

    def breaks(*coeffs):  # real roots in (0, 1) of quadratics in s
        roots = np.concatenate([np.roots(c) for c in coeffs])
        return [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]

    total = 0.0
    for a, b, c in mesh.vertices[mesh.faces[faces]] - center:
        pa, pb, pc = perp(np.stack([a, b, c]))
        double_area = np.linalg.norm(np.cross(b - a, c - a))
        if max(np.linalg.norm(pa), np.linalg.norm(pb), np.linalg.norm(pc)) <= radius:
            total += 0.5 * double_area  # convex, so wholly inside
            continue
        eb, ec, w = pb - pa, pc - pa, pc - pb
        m0, m1, ww, r2 = pa @ w, eb @ w, w @ w, pa @ pa - radius * radius
        points = breaks([eb @ eb, 2.0 * (pa @ eb), r2], [ec @ ec, 2.0 * (pa @ ec), r2],
                        [m1 * m1 - ww * (eb @ eb), 2.0 * (m0 * m1 - ww * (pa @ eb)),
                         m0 * m0 - ww * r2])

        def inside_fraction(s):
            start, step = pa + s * eb, s * w
            alpha, beta = step @ step, start @ step
            gamma = start @ start - radius * radius
            if alpha == 0.0:
                return float(gamma <= 0.0)
            disc = beta * beta - alpha * gamma
            if disc <= 0.0:
                return 0.0
            root = np.sqrt(disc)
            return max(0.0, min(1.0, (-beta + root) / alpha) - max(0.0, (-beta - root) / alpha))

        total += double_area * quad(lambda s: s * inside_fraction(s), 0.0, 1.0,
                                    points=points or None, epsabs=1e-15, epsrel=1e-13,
                                    limit=200)[0]
    return total


def test_sphere_cap_area(icosphere_r10):
    v0 = icosphere_r10.vertices[0]
    axis = v0 / np.linalg.norm(v0)
    # the cylinder also grazes the far side of the sphere; only the
    # connected patch around the contact point counts
    with pytest.warns(UserWarning, match="disconnected"):
        area = sensing_area(icosphere_r10, v0, axis, 6.0)
    # exact for the polyhedron: the near half's faces, each clipped by quadrature
    corners = icosphere_r10.vertices[icosphere_r10.faces]
    near = corners.mean(axis=1) @ axis > 0.0
    within = (np.linalg.norm(np.cross(corners, axis), axis=2) < 3.0 + 1.0).any(axis=1)
    exact = _clipped_area_by_quadrature(icosphere_r10, np.flatnonzero(near & within),
                                        v0, axis, 3.0)
    assert abs(area - exact) / exact < 1e-8
    # the discretization: the smooth cap
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


def test_a_cylinder_too_thin_to_clip_any_area_raises(plane_fine):
    # the squared radius underflows to 0, so no face clips a positive area
    with pytest.raises(ZeroAreaError):
        sensing_area(plane_fine, ORIGIN, Z, 1e-200)


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
    # the plane's area is pi D^2 / (4 cos theta); along the normal the first
    # trial, the flat disk's diameter, is the root, while a tilt leaves
    # Brent's method a root to find, to its 2e-12 mm stop
    for theta, target in itertools.product((0.0, 30.0), (np.pi * 1.5 ** 2, 12.566)):
        d = solve_diameter(plane_fine, ORIGIN, tilted_axis(theta), target)
        expected = 2.0 * np.sqrt(target * np.cos(np.radians(theta)) / np.pi)
        assert abs(d - expected) / expected < 1e-12


def test_solve_diameter_sphere(icosphere_r10):
    v0 = icosphere_r10.vertices[0]
    axis = v0 / np.linalg.norm(v0)
    target = 28.94
    with pytest.warns(UserWarning, match="disconnected"):
        d = solve_diameter(icosphere_r10, v0, axis, target)
        area = sensing_area(icosphere_r10, v0, axis, d)
    assert abs(area - target) / target <= 1e-3


@pytest.fixture
def area_calls(monkeypatch):
    """(pathway, diameter, (area, slope)) of every ``_Pathway.area`` call, in order."""
    calls = []
    area = _Pathway.area

    def spy(self, d):
        calls.append((self, d, area(self, d)))
        return calls[-1][2]

    monkeypatch.setattr(_Pathway, "area", spy)
    return calls


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
def test_newton_in_d_squared_takes_few_area_evaluations(plane_fine, bumpy, area_calls):
    # the plane's area is linear in D^2, so one Newton step from the first
    # trial lands on the root, and the next step is below the stop
    for theta, target in itertools.product((0.0, 30.0), (np.pi * 1.5 ** 2, 12.566)):
        area_calls.clear()
        solve_diameter(plane_fine, ORIGIN, tilted_axis(theta), target)
        assert len(area_calls) <= 2
    aps = place_aps(bumpy, default_template(13))
    for tilt in (0.0, 20.0):
        area_calls.clear()
        assert not design_array(bumpy, aps, tilt_deg=tilt).failed
        per_ap = collections.Counter(pathway for pathway, _, _ in area_calls)
        assert len(per_ap) == len(aps) and max(per_ap.values()) <= 5


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
def test_the_solve_returns_a_pair_it_evaluated(bumpy, area_calls):
    aps = place_aps(bumpy, default_template(13))
    design = design_array(bumpy, aps, tilt_deg=20.0)
    assert not design.failed
    evaluated = {(d, result[0]) for _, d, result in area_calls}
    for e in design.electrodes:
        assert (e.diameter_mm, e.sensing_area_mm2) in evaluated


def test_solver_monotone_in_target(plane_fine):
    d_small = solve_diameter(plane_fine, ORIGIN, Z, 5.0)
    d_large = solve_diameter(plane_fine, ORIGIN, Z, 9.0)
    assert d_small < d_large


def test_unreachable_target(plane_coarse, area_calls):
    # the 20x20 mm plane holds 400 mm^2 at most, all of it inside the
    # cylinder as wide as twice the bounding diagonal, where doubling stops
    with pytest.raises(UnreachableTargetError,
                       match=r"exceeds the patch maximum \(400 mm\^2\)"):
        solve_diameter(plane_coarse, ORIGIN, Z, 5000.0)
    d_max = 2.0 * plane_coarse.bounding_diagonal()
    tried = [d for _, d, _ in area_calls]
    assert tried[-1] == d_max
    assert max(tried) == d_max


def test_design_array_plane_all_three_mm(plane_fine):
    template = [(f"AP{i+1}", np.array(xyz)) for i, xyz in enumerate([
        (0.3, 0.3, 0.5), (0.7, 0.3, 0.5), (0.3, 0.7, 0.5), (0.7, 0.7, 0.5),
        (0.5, 0.5, 0.5), (0.4, 0.6, 0.5), (0.6, 0.4, 0.5), (0.35, 0.5, 0.5),
        (0.5, 0.35, 0.5), (0.65, 0.6, 0.5),
    ])]
    aps = place_aps(plane_fine, template)
    # a tilt turns the disk into an ellipse of area pi D^2 / (4 cos theta)
    for tilt in (0.0, 20.0):
        design = design_array(plane_fine, aps, target_area=DEFAULT_TARGET_AREA,
                              tilt_deg=tilt)
        assert not design.failed
        diam = np.array([e.diameter_mm for e in design.electrodes])
        np.testing.assert_allclose(diam, 3.0 * np.sqrt(np.cos(np.radians(tilt))),
                                   rtol=1e-12, atol=0.0)
        assert design.max_rel_deviation <= 2e-12


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


def _two_sheets(plane):
    """``plane`` and a copy of it 40 mm below, the top sheet's faces first."""
    v = plane.vertices
    return SurfaceMesh(np.concatenate([v, v - [0.0, 0.0, 40.0]]),
                       np.concatenate([plane.faces, plane.faces + len(v)]))


def test_prefilter_keeps_the_faces_far_along_the_axis(plane_fine):
    # a second sheet 40 mm below: the cylinder, infinite along the axis,
    # still meets it, though no face of it is near the contact point
    two = _two_sheets(plane_fine)
    lone_area = sensing_area(plane_fine, ORIGIN, Z, 3.0)
    with pytest.warns(UserWarning, match="disconnected"):
        area = sensing_area(two, ORIGIN, Z, 3.0)
    assert abs(area - lone_area) <= 1e-12 * lone_area

    # the top sheet's faces keep their indices, so the APs are valid on both
    aps = place_aps(plane_fine, default_template(10))
    with pytest.warns(UserWarning, match="disconnected"):
        design = design_array(two, aps)
    assert design.to_json_obj() == design_array(plane_fine, aps).to_json_obj()


def _folded_sheet(gap=1.0, bend_x=2.5, length=7.5):
    """A sheet at z = 0 for x <= bend_x, folded back under itself at z = -gap
    by a half-cylinder bend."""
    r = gap / 2.0
    total = 2.0 * length + np.pi * r
    s, y, faces = _square_grid(total, 0.25)
    s = s + total / 2.0  # arc length from the top sheet's far edge
    phi = np.clip((s - length) / r, 0.0, np.pi)
    x = np.where(s < length, bend_x - length + s,
                 np.where(phi < np.pi, bend_x + r * np.sin(phi),
                          bend_x + length + np.pi * r - s))
    z = np.where(s < length, 0.0, r * np.cos(phi) - r)
    return SurfaceMesh(np.stack([x, y, z], axis=1), faces)


def test_a_fold_beyond_the_radius_stays_disconnected():
    # a pathway built out to radius 4 holds the bend's faces, which clip
    # nothing at radius 1.5: the patch must not run round the fold through them
    mesh = _folded_sheet()
    _, face, _, _ = mesh.closest_point(ORIGIN)
    pathway = _Pathway(mesh, ORIGIN, face, Z)
    pathway.area(8.0)
    with pytest.warns(UserWarning, match="disconnected"):
        area = pathway.area(3.0)[0]
    assert pathway.built == 4.0
    assert abs(area - np.pi * 1.5 ** 2) <= 1e-12 * area


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
def test_a_target_inside_an_area_jump_fails_at_the_jump(area_calls):
    # the pathway through the top sheet reaches the sheet folded 1 mm below
    # it at D = 5.90 mm, where the patch grows at once from 27.5 to 55.0 mm^2;
    # a Newton step that barely shrinks the bracket bisects instead, so the
    # bracket shrinks onto the jump within the 43 evaluations of Brent's method
    mesh = _folded_sheet()
    _, face, _, _ = mesh.closest_point(ORIGIN)
    with pytest.raises(AurisenseError, match="the area jumps there"):
        _solve(_Pathway(mesh, ORIGIN, face, Z), 41.2)
    assert len(area_calls) <= 43


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
def test_design_works_only_on_the_faces_near_each_ap(bumpy, monkeypatch):
    # the design command's path, placement and solves, counted in faces: no
    # search, clip or pathway build may take more than a tenth of the mesh
    sizes = []
    search = mesh_module.closest_point_on_triangles
    clip = electrode_module._disk_clip_areas
    build = _Pathway._build

    def spy_search(p, a, b, c):
        sizes.append(("closest_point_on_triangles", a.shape[0]))
        return search(p, a, b, c)

    def spy_clip(x, y, radius):
        sizes.append(("_disk_clip_areas", x.shape[0]))
        return clip(x, y, radius)

    def spy_build(self, radius):
        build(self, radius)
        sizes.append(("_Pathway._build", self.faces.size))

    monkeypatch.setattr(mesh_module, "closest_point_on_triangles", spy_search)
    monkeypatch.setattr(electrode_module, "_disk_clip_areas", spy_clip)
    monkeypatch.setattr(_Pathway, "_build", spy_build)
    for tilt in (0.0, 20.0):
        design = design_array(bumpy, place_aps(bumpy, default_template(13)), tilt_deg=tilt)
        assert not design.failed
    assert {name for name, _ in sizes} == {
        "closest_point_on_triangles", "_disk_clip_areas", "_Pathway._build"}
    assert max(n for _, n in sizes) <= bumpy.n_faces // 10


def _every_face(mesh, center, face, axis):
    """The pathway with every face of the mesh built."""
    full = _Pathway(mesh, center, face, axis)
    full._build(np.inf)
    return full


def _clipped_areas(full, diameter):
    """Each built face's clipped area at ``diameter``, in face-index order."""
    radius = diameter / 2.0
    per_face = _disk_clip_areas(full.x, full.y, radius)[0] * full.ratio
    parallel = np.flatnonzero(full.parallel)
    per_face[parallel] = full._strip_areas(parallel, radius)[0]
    return per_face


def _area_over_every_face(mesh, center, face, axis, diameter):
    """The contact-patch area with every face of the mesh clipped, the seed's
    component taken over the pairs among all its faces, summed in face-index order."""
    per_face = _clipped_areas(_every_face(mesh, center, face, axis), diameter)
    positive = np.flatnonzero(per_face > 0.0)
    if positive.size == 0:
        return 0.0
    patch = _connected_patch(mesh.face_pairs_among(np.arange(mesh.n_faces)), mesh.n_faces,
                             positive, face)
    return float(per_face[patch].sum())


def _component_by_csgraph(pairs, n_faces, positive, seed):
    """The seed's component among the faces ``positive`` and the seed, by
    scipy's ``connected_components`` on the adjacency among those faces, a
    CSR array of the (2, E) face ``pairs``."""
    import scipy.sparse as sp  # the reference only
    from scipy.sparse.csgraph import connected_components

    u, v = pairs
    adjacency = sp.csr_array((np.ones(2 * u.size, dtype=bool), (np.r_[u, v], np.r_[v, u])),
                             shape=(n_faces, n_faces))
    faces = np.union1d(positive, [seed])
    _, label = connected_components(adjacency[faces][:, faces], directed=False)
    return faces[label == label[np.searchsorted(faces, seed)]]


@pytest.mark.parametrize("name", ["folded", "two-sheets"])
def test_connected_patch_matches_csgraph_on_the_sheet_meshes(request, name):
    # the cylinder meets both sheets, or both layers of the fold, so the
    # positive faces split into several components
    split = 0
    for mesh, center, face, axis in _pathway_cases(request, name, np.random.default_rng(38)):
        pairs = mesh.face_adjacency()
        full = _every_face(mesh, center, face, axis)
        for diameter in (0.2, 1.0, 3.0, 6.0, 8.0):
            positive = np.flatnonzero(_clipped_areas(full, diameter) > 0.0)
            patch = _connected_patch(pairs, mesh.n_faces, positive, face)
            np.testing.assert_array_equal(
                patch, _component_by_csgraph(pairs, mesh.n_faces, positive, face))
            split += patch.size < positive.size
    assert split > 0


@settings(max_examples=60, deadline=None)
@given(sphere=st.booleans(), rng_seed=st.integers(0, 2 ** 32 - 1),
       radius=st.floats(0.5, 12.0), density=st.floats(0.05, 1.0),
       seed_near=st.booleans(), seed_positive=st.booleans())
def test_connected_patch_matches_csgraph_on_drawn_subsets(
        bumpy, icosphere_r10, sphere, rng_seed, radius, density, seed_near, seed_positive):
    # a random share of the faces within ``radius`` of one face: a sparse
    # share splits into many components, and the seed may lie anywhere,
    # positive or not
    mesh = icosphere_r10 if sphere else bumpy
    pairs = mesh.face_adjacency()
    rng = np.random.default_rng(rng_seed)
    centroids = mesh.face_spheres()[0]
    near = np.linalg.norm(centroids - centroids[rng.integers(mesh.n_faces)], axis=1) <= radius
    positive = np.flatnonzero(near & (rng.random(mesh.n_faces) < density))
    seed = int(rng.choice(np.flatnonzero(near)) if seed_near else rng.integers(mesh.n_faces))
    positive = np.union1d(positive, [seed]) if seed_positive else positive[positive != seed]
    np.testing.assert_array_equal(_connected_patch(pairs, mesh.n_faces, positive, seed),
                                  _component_by_csgraph(pairs, mesh.n_faces, positive, seed))


def _graded_plane():
    """The plane z = 0, triangulated 40 x finer within 1 mm of the origin
    than beyond 1.5 mm, as a scan decimated away from a feature.  Its face
    areas lie 1600 x apart, so a patch that dropped the faces small beside
    the largest one clipped would shrink as the cylinder reaches the coarse
    faces."""

    def grid(half, n):
        return np.stack(np.meshgrid(*[np.linspace(-half, half, n)] * 2), axis=-1).reshape(-1, 2)

    coarse = grid(10.0, 11)
    xy = np.concatenate([grid(1.0, 41), coarse[np.abs(coarse).max(axis=1) > 1.5]])
    faces = Delaunay(xy).simplices
    a, b, c = xy[faces].transpose(1, 0, 2)
    cw = (b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0] < 0.0
    faces[cw] = faces[cw][:, ::-1]  # every face CCW seen from +z
    return SurfaceMesh(np.column_stack([xy, np.zeros(len(xy))]), faces)


def _pathway_cases(request, name, rng):
    """(mesh, center, face, axis) of four pathways of the case ``name``, drawn
    from ``rng`` one after another."""
    if name.startswith("bumpy"):
        mesh = request.getfixturevalue("bumpy")
        centers = rng.uniform(-8.0, 8.0, size=(4, 3))
    elif name == "icosphere":
        mesh = request.getfixturevalue("icosphere_r10")
        centers = rng.normal(size=(4, 3))
    elif name == "graded":
        mesh = _graded_plane()
        centers = np.column_stack([rng.uniform(-0.8, 0.8, size=(4, 2)), np.zeros(4)])
    elif name == "folded":
        # on the top sheet, which bends at x = 2.5 to run back 1 mm below itself
        mesh = _folded_sheet()
        centers = np.column_stack([rng.uniform(-4.0, 2.0, 4), rng.uniform(-3.0, 3.0, 4),
                                   np.zeros(4)])
    elif name == "two-sheets":
        mesh = _two_sheets(request.getfixturevalue("plane_fine"))
        centers = np.column_stack([rng.uniform(-5.0, 5.0, size=(4, 2)), np.zeros(4)])
    else:
        # along the x axis, its facets at 90 and 270 deg are clipped as strips
        mesh = make_cylinder(radius=2.0, height=10.0, n_theta=50, n_z=20)
        centers = np.column_stack([np.full(4, 2.0), np.zeros(4), rng.uniform(-3.0, 3.0, 4)])
    for target in centers:
        center, face, bary, _ = mesh.closest_point(target)
        axis = X if name == "cylinder" else mesh.normal_at(face, bary)
        if name == "bumpy-tilted":
            # up to 40 deg off the normal, in a random direction
            turn = rng.normal(size=3)
            turn -= (turn @ axis) * axis
            tilt = np.radians(rng.uniform(0.0, 40.0))
            axis = np.cos(tilt) * axis + np.sin(tilt) * turn / np.linalg.norm(turn)
        yield mesh, center, face, axis


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
@pytest.mark.parametrize("name", ["bumpy", "bumpy-tilted", "folded", "two-sheets", "cylinder"])
def test_pruned_area_equals_the_area_over_every_face(request, name):
    rng = np.random.default_rng(24)
    for mesh, center, face, axis in _pathway_cases(request, name, rng):
        pathway = _Pathway(mesh, center, face, axis)
        # random order: builds, rebuilds and calls inside the built radius interleave
        for diameter in rng.permutation(np.concatenate([rng.uniform(0.2, 8.0, 13),
                                                        [0.2, 8.0]])):
            assert pathway.area(diameter)[0] == _area_over_every_face(
                mesh, center, face, axis, diameter)


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
@pytest.mark.parametrize("name", ["bumpy", "bumpy-tilted", "folded", "two-sheets", "cylinder",
                                  "icosphere", "graded"])
def test_area_never_decreases_with_the_diameter(request, name):
    # the solve's exact bracket rests on this, with no slack: each face's
    # share is >= 0 and grows with the radius, so the positive faces and the
    # seed's component of them only grow
    rng = np.random.default_rng(31)
    for mesh, center, face, axis in _pathway_cases(request, name, rng):
        pathway = _Pathway(mesh, center, face, axis)
        diameters = np.sort(np.concatenate([rng.uniform(0.01, 1.0, 20),
                                            rng.uniform(1.0, 20.0, 20)]))
        areas = np.array([pathway.area(d)[0] for d in diameters])
        assert (np.diff(areas) >= 0.0).all()


@pytest.mark.filterwarnings("ignore:cylinder intersects a disconnected")
@pytest.mark.parametrize("name", ["bumpy", "bumpy-tilted", "cylinder"])
def test_area_slope_matches_central_differences(request, name):
    # the cylinder's diameters keep its strip faces' half-width w away from 0,
    # where dw/dr = r / w has no bound
    low, high = (4.3, 7.7) if name == "cylinder" else (0.5, 6.0)
    h = 1e-6
    rng = np.random.default_rng(26)
    for mesh, center, face, axis in _pathway_cases(request, name, rng):
        pathway = _Pathway(mesh, center, face, axis)
        for diameter in rng.uniform(low, high, 6):
            slope = pathway.area(diameter)[1]
            numeric = (pathway.area(diameter + h)[0] - pathway.area(diameter - h)[0]) / (2.0 * h)
            assert abs(slope - numeric) <= 1e-7 * slope


@pytest.mark.parametrize("theta", [0.0, 30.0])
def test_plane_area_slope(plane_fine, theta):
    # area pi D^2 / (4 cos theta), slope pi D / (2 cos theta)
    _, face, _, _ = plane_fine.closest_point(ORIGIN)
    pathway = _Pathway(plane_fine, ORIGIN, face, tilted_axis(theta))
    for diameter in (0.7, 3.0, 5.5):
        expected = np.pi * diameter / (2.0 * np.cos(np.radians(theta)))
        assert abs(pathway.area(diameter)[1] - expected) <= 1e-12 * expected


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


def test_a_curvature_not_fitted_is_written_as_null(tmp_path, plane_coarse):
    import json
    from aurisense.electrode import write_design_json

    aps = place_aps(plane_coarse, [("AP1", np.array([0.5, 0.5, 0.5]))])
    design = design_array(plane_coarse, aps)
    unfitted = replace(design, electrodes=(replace(design.electrodes[0],
                                                   mean_curvature_per_mm=float("nan")),))
    write_design_json(tmp_path / "design.json", unfitted)
    obj = json.loads((tmp_path / "design.json").read_text())
    assert obj["electrodes"][0]["mean_curvature_per_mm"] is None
    # any other NaN or infinity is refused rather than written as a non-JSON token
    with pytest.raises(ValueError):
        write_design_json(tmp_path / "bad.json", replace(design, target_area_mm2=np.inf))
    assert not (tmp_path / "bad.json").exists()


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
