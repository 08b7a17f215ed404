"""Electrode sensing-area computation and per-point diameter scaling.

The sensing area of an electrode pathway is the true contact patch: the
area of the mesh surface inside the infinite cylinder of diameter D around
the pathway axis, restricted to the connected patch containing the contact
point.  Each face's share is exact.  Projected along the axis onto the
cross-section plane, a planar face becomes a triangle and its part inside
the cylinder becomes the triangle's intersection with the disk of radius
D/2, whose area has a closed form: summed over the three edges, a signed
chord triangle where the edge runs inside the disk and signed circular
sectors where it runs outside.  Multiplying by face area / projected area
undoes the projection.  A face parallel to the axis projects to a segment;
it is clipped in its own plane against the strip |distance to axis| <= D/2.

Everything that does not depend on D (the projected vertices, the
per-face area ratios and a face prefilter ordered by distance from the
axis) is built once per pathway by ``_Pathway``, from the contact face it
is given.  ``solve_diameter`` inverts the area with a bracketed Brent
solve (the area is continuous and monotone in D but only piecewise
smooth), and ``design_array`` runs the solve point by point so every
electrode of an array reaches one target area regardless of local
curvature.

``_Pathway`` checks nothing; every input is checked once where it enters
(NaN fails every check): by ``_checked_pathway`` for ``sensing_area`` and
``solve_diameter``, which finds the face by one ``closest_point`` search,
and by ``design_array`` before its loop, which takes each AP's own face.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AurisenseError,
    NonMonotoneAreaError,
    ParameterError,
    UnreachableTargetError,
    ZeroAreaError,
)
from .geometry.aps import AuricularPointSet
from .geometry.curvature import curvature_field
from .geometry.mesh import SurfaceMesh
from .textio import write_report_json

DEFAULT_TARGET_AREA = float(np.pi * 1.5 ** 2)  # flat-case area of a 3 mm pathway
MAX_TILT_DEG = 85.0      # beyond this the pathway is nearly tangent
# |face normal . axis| below which a face is clipped as parallel to the axis:
# the projected-area division loses about 1e-16 / cos relative, the strip
# clip errs by about cos; the two meet near 1e-8.
_PARALLEL_COS = 1e-8
_BRACKET_LOW = 0.1  # mm, the first diameter the solve tries
_TOL = 1e-3         # relative area error the solve accepts where the area jumps


# ----------------------------------------------------------------------
# clipping kernels
# ----------------------------------------------------------------------

def _disk_clip_areas(x, y, radius):
    """Signed area inside the disk |p| <= radius of each triangle.

    ``x``, ``y`` are (K, 3) corner coordinates.  Each edge P -> Q adds the
    signed area of the disk within triangle (0, P, Q): with S1, S2 the ends
    of the edge's part inside the disk (both P when it misses the disk),
    that is sector(P, S1) + triangle(0, S1, S2) + sector(S2, Q).  A triangle
    that no edge enters and that does not contain the center is exactly 0,
    not the rounding left of its sectors cancelling.
    """
    xq = np.roll(x, -1, axis=1)
    yq = np.roll(y, -1, axis=1)
    dx = xq - x
    dy = yq - y
    dd = dx * dx + dy * dy
    pd = x * dx + y * dy
    disc = pd * pd - dd * (x * x + y * y - radius * radius)
    hit = (disc > 0.0) & (dd > 0.0)
    root = np.sqrt(np.where(hit, disc, 0.0))
    dd = np.where(hit, dd, 1.0)
    t1 = np.where(hit, np.clip((-pd - root) / dd, 0.0, 1.0), 0.0)
    t2 = np.where(hit, np.clip((-pd + root) / dd, 0.0, 1.0), 0.0)
    # S1 = P at t1 = 0 and S2 = Q at t2 = 1 exactly: a sector between two
    # copies of a corner at the center would otherwise take an arbitrary angle
    x1 = x + t1 * dx
    y1 = y + t1 * dy
    x2 = xq - (1.0 - t2) * dx
    y2 = yq - (1.0 - t2) * dy
    sectors = (np.arctan2(x * y1 - y * x1, x * x1 + y * y1)
               + np.arctan2(x2 * yq - y2 * xq, x2 * xq + y2 * yq))
    chords = x1 * y2 - y1 * x2
    area = 0.5 * (radius * radius * sectors + chords).sum(axis=1)
    cross = x * yq - y * xq
    inside = (cross >= 0.0).all(axis=1) | (cross <= 0.0).all(axis=1)
    enters = (hit & (t2 > t1)).any(axis=1)
    return np.where(enters | inside, area, 0.0)


def _strip_clip_fraction(s, half_width):
    """Fraction of each triangle whose coordinate ``s`` lies in [-w, w].

    ``s`` is (K, 3): the corners' coordinates along one in-plane direction.
    The triangle's width across s is a tent over [s0, s2] peaking at s1, so
    the fraction with coordinate <= x is piecewise quadratic in x.
    """
    s0, s1, s2 = np.sort(s, axis=1).T
    rise = (s1 - s0) * (s2 - s0)
    fall = (s2 - s1) * (s2 - s0)
    rise = np.where(rise > 0.0, rise, 1.0)  # a zero-width side: its term is 0 / 1
    fall = np.where(fall > 0.0, fall, 1.0)

    def below(x):
        x = np.clip(x, s0, s2)
        return np.where(x <= s1, (x - s0) ** 2 / rise, 1.0 - (s2 - x) ** 2 / fall)

    return below(half_width) - below(-half_width)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

class _Pathway:
    """The D-independent part of the contact-patch area of one pathway
    through ``center`` on ``face``: the mesh projected onto the plane
    perpendicular to the axis, so that ``area(d)`` only clips a disk."""

    def __init__(self, mesh: SurfaceMesh, center, face: int, axis):
        axis = axis / np.linalg.norm(axis)
        e1 = _perpendicular(axis)
        e2 = np.cross(axis, e1)
        rel = mesh.vertices - center
        x = (rel @ e1)[mesh.faces]
        y = (rel @ e2)[mesh.faces]
        proj = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
        self.parallel = np.abs(mesh.face_normals @ axis) < _PARALLEL_COS
        self.ratio = mesh.face_areas / np.where(self.parallel, 1.0, proj)
        # a face's projection lies within its corners' circle about their mean,
        # so |mean| - circle radius bounds its distance from the axis from below
        cx = x.mean(axis=1)
        cy = y.mean(axis=1)
        reach = np.hypot(cx, cy) - np.sqrt(
            ((x - cx[:, None]) ** 2 + (y - cy[:, None]) ** 2).max(axis=1))
        self.order = np.argsort(reach, kind="stable")
        self.reach = reach[self.order]
        self.mesh = mesh
        self.seed = face
        self.x = x
        self.y = y
        self.plane = np.stack([e1, e2])

    def area(self, diameter: float) -> float:
        """Contact-patch area (mm^2) at ``diameter``; warns on a disconnected hit."""
        radius = diameter / 2.0
        cand = self.order[:np.searchsorted(self.reach, radius, side="right")]
        per_face = np.zeros(cand.size)
        par = self.parallel[cand]
        disk = cand[~par]
        per_face[~par] = (_disk_clip_areas(self.x[disk], self.y[disk], radius)
                          * self.ratio[disk])
        if par.any():
            per_face[par] = self._strip_areas(cand[par], radius)
        positive = cand[per_face > 0.0]
        if positive.size == 0:
            raise ZeroAreaError("cylinder does not intersect the mesh")
        patch = _connected_patch(self.mesh, positive, self.seed)
        total = float(per_face.sum())
        patch_area = float(per_face[np.isin(cand, patch)].sum())
        if total > patch_area * (1.0 + 1e-9) + 1e-12:
            warnings.warn(
                "cylinder intersects a disconnected surface region; "
                "returning the contact-patch area only",
                stacklevel=3,
            )
        return patch_area

    def _strip_areas(self, faces, radius):
        """Exact clipped areas of faces parallel to the axis.

        Such a face projects to a segment on the line {q : q . m = h}, with m
        the face normal in the cross-section plane; its points lie within the
        cylinder where |q . u| <= sqrt(r^2 - h^2), u = m turned by 90 deg.
        In the face plane u and the axis are orthonormal, so that is a strip.
        """
        m = self.mesh.face_normals[faces] @ self.plane.T
        m /= np.linalg.norm(m, axis=1)[:, None]
        x = self.x[faces]
        y = self.y[faces]
        h = x[:, 0] * m[:, 0] + y[:, 0] * m[:, 1]
        s = y * m[:, :1] - x * m[:, 1:]
        half_width = np.sqrt(np.maximum(radius * radius - h * h, 0.0))
        return self.mesh.face_areas[faces] * _strip_clip_fraction(s, half_width)


def _checked_pathway(mesh: SurfaceMesh, center, axis, name: str, size) -> _Pathway:
    """The pathway of a public call, its arguments checked: ``size`` (the
    diameter or target, ``name`` in the message) finite and positive, a
    finite center on the surface, a finite nonzero axis below
    ``MAX_TILT_DEG`` from the normal there."""
    if not (np.isfinite(size) and size > 0.0):
        raise ParameterError(f"{name} must be finite and positive")
    center = np.asarray(center, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    nrm = np.linalg.norm(axis)  # NaN or inf for a non-finite axis
    if not (np.isfinite(center).all() and 0.0 < nrm < np.inf):
        raise ParameterError("center must be finite and axis a finite nonzero vector")
    _, face, bary, dist = mesh.closest_point(center)
    if not dist <= _surface_tol(mesh):
        raise ParameterError(f"center is {dist:.3g} mm off the surface; it must lie on it")
    cos = abs(float(axis @ mesh.normal_at(face, bary))) / nrm
    tilt = np.degrees(np.arccos(min(cos, 1.0)))
    if not tilt < MAX_TILT_DEG:
        raise ParameterError(
            f"axis is {tilt:.1f} deg from the surface normal (>= {MAX_TILT_DEG} deg)")
    return _Pathway(mesh, center, face, axis)


def _surface_tol(mesh: SurfaceMesh) -> float:
    """Distance (mm) within which a point counts as on the surface."""
    return 1e-6 * max(mesh.bounding_diagonal(), 1.0)


def sensing_area(mesh: SurfaceMesh, center, axis, diameter: float) -> float:
    """Contact-patch area (mm^2) of a cylindrical pathway against the mesh.

    Only the connected component of the clipped surface that contains
    ``center`` counts; a cylinder grazing the far side of a fold does not
    inflate the area.  Raises ``ZeroAreaError`` when the cylinder misses
    the mesh and warns when it also hits a disconnected region.
    """
    return _checked_pathway(mesh, center, axis, "diameter", diameter).area(diameter)


def _connected_patch(mesh, positive_faces, seed_face):
    """Faces of the positive-area component containing the seed face."""
    # imported on use: only design needs csgraph, which adds 14 ms and 2.3 MB to start-up
    from scipy.sparse.csgraph import connected_components

    faces = np.union1d(positive_faces, seed_face)
    _, label = connected_components(mesh.face_adjacency()[faces][:, faces], directed=False)
    return faces[label == label[np.searchsorted(faces, seed_face)]]


def solve_diameter(mesh: SurfaceMesh, center, axis, target_area: float) -> float:
    """Diameter whose sensing area matches ``target_area``.

    Brent's method on a bracket found by halving and doubling from
    ``_BRACKET_LOW``, run to machine precision in the diameter; ``_TOL``
    bounds the relative area error it accepts where the area jumps (a face
    joining the patch with a region behind it).  Every evaluation is
    checked against the others for monotonicity, and a decrease beyond
    numerical slack raises ``NonMonotoneAreaError`` naming the violating
    sub-bracket.  ``UnreachableTargetError`` signals a target beyond the
    local patch.
    """
    return _solve(_checked_pathway(mesh, center, axis, "target_area", target_area),
                  target_area)[0]


def _solve(pathway, target_area):
    """(diameter, area) of ``solve_diameter`` on a prepared pathway."""
    evals: list = []

    def area_at(d):
        try:
            a = pathway.area(d)
        except ZeroAreaError:
            a = 0.0
        evals.append((d, a))
        _check_monotone(evals)
        return a

    lo = _BRACKET_LOW
    a_lo = area_at(lo)
    while a_lo > target_area and lo > 1e-3:
        lo /= 2.0
        a_lo = area_at(lo)
    if a_lo >= target_area:
        if a_lo <= target_area * (1.0 + _TOL):
            return float(lo), a_lo
        raise UnreachableTargetError(
            f"target {target_area:.6g} mm^2 is below the area at the "
            f"minimum diameter {lo:.3g} mm ({a_lo:.6g} mm^2)"
        )

    hi = max(2.0 * lo, 1.0)
    a_hi = area_at(hi)
    prev_hi = a_hi
    expansions = 0
    while a_hi < target_area:
        hi *= 2.0
        a_hi = area_at(hi)
        expansions += 1
        if expansions > 60:
            raise UnreachableTargetError("bracket expansion exhausted")
        if abs(a_hi - prev_hi) <= 1e-9 * max(target_area, a_hi):
            # the cylinder swallowed the whole patch: the area has plateaued
            raise UnreachableTargetError(
                f"target {target_area:.6g} mm^2 exceeds the patch maximum "
                f"(~{a_hi:.6g} mm^2)"
            )
        prev_hi = a_hi

    d = _brent(lambda d: area_at(d) - target_area, lo, hi,
               a_lo - target_area, a_hi - target_area)
    area = dict(evals)[d]
    if abs(area - target_area) > _TOL * target_area:
        raise AurisenseError(
            f"diameter solve stopped at {d:.6g} mm with {area:.6g} mm^2, off the "
            f"target {target_area:.6g} mm^2 (the area jumps there)"
        )
    return float(d), area


def _brent(f, a, b, fa, fb):
    """Root of ``f`` in [a, b], where fa = f(a) and fb = f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4), step for step as in
    ``scipy.optimize.brentq``: inverse quadratic or secant steps while they
    shrink the bracket fast enough, bisection otherwise.  Returns a point
    at which ``f`` was evaluated.  Importing ``scipy.optimize`` for this
    alone would add about 10 MB of resident memory to a process running
    the CLI.
    """
    xtol, rtol = 2e-12, 4 * np.finfo(float).eps  # brentq's defaults
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk, fblk, spre, scur = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    return xcur


def _check_monotone(evals):
    if len(evals) < 2:
        return
    by_d = sorted(evals)
    for (d0, a0), (d1, a1) in zip(by_d, by_d[1:]):
        slack = 5e-4 * max(a0, a1) + 1e-12
        if a1 < a0 - slack:
            raise NonMonotoneAreaError(
                f"sensing area decreased from {a0:.6g} to {a1:.6g} mm^2 "
                f"on diameters [{d0:.6g}, {d1:.6g}] mm",
                bracket=(d0, d1),
            )


@dataclass(frozen=True)
class ElectrodeSpec:
    ap_label: str
    center: np.ndarray
    axis: np.ndarray
    diameter_mm: float
    tilt_deg: float
    sensing_area_mm2: float
    mean_curvature_per_mm: float = float("nan")

    def to_json_obj(self) -> dict:
        return {
            "ap": self.ap_label,
            "center": [float(x) for x in self.center],
            "axis": [float(x) for x in self.axis],
            "diameter_mm": float(self.diameter_mm),
            "tilt_deg": float(self.tilt_deg),
            "area_mm2": float(self.sensing_area_mm2),
            "mean_curvature_per_mm": float(self.mean_curvature_per_mm),
        }


@dataclass(frozen=True)
class ArrayDesign:
    electrodes: tuple
    target_area_mm2: float
    max_rel_deviation: float
    failed: tuple = field(default_factory=tuple)

    def to_json_obj(self) -> dict:
        return {
            "target_area_mm2": float(self.target_area_mm2),
            "max_rel_deviation": float(self.max_rel_deviation),
            "electrodes": [e.to_json_obj() for e in self.electrodes],
            "failed": [{"ap": ap, "reason": reason} for ap, reason in self.failed],
        }


def _perpendicular(n):
    """A deterministic unit vector perpendicular to the unit vector ``n``."""
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t = ref - (ref @ n) * n
    return t / np.linalg.norm(t)


def _tilt_axis(normal, tilt_deg):
    """Rotate the normal by tilt_deg around a deterministic tangent direction."""
    n = normal / np.linalg.norm(normal)
    th = np.radians(tilt_deg)
    return np.cos(th) * n + np.sin(th) * _perpendicular(n)


def design_array(mesh: SurfaceMesh, aps: AuricularPointSet,
                 target_area: float = DEFAULT_TARGET_AREA,
                 tilt_deg: float = 0.0) -> ArrayDesign:
    """One equal-sensing-area electrode per AP, ``tilt_deg`` off the normal.

    ``ParameterError`` before any solve for a target that is not finite and
    positive, a tilt outside [0, MAX_TILT_DEG), or an AP off its ``face``;
    per-AP solver failures leave a partial design listed in ``failed``.
    """
    if not (np.isfinite(target_area) and target_area > 0.0):
        raise ParameterError("target area must be finite and positive")
    if not 0.0 <= tilt_deg < MAX_TILT_DEG:
        raise ParameterError(f"tilt must be in [0, {MAX_TILT_DEG:g}) deg")
    tol = _surface_tol(mesh)
    for p in aps:
        if not (0 <= p.face < mesh.n_faces and np.linalg.norm(
                p.position - p.barycentric @ mesh.vertices[mesh.faces[p.face]]) <= tol):
            raise ParameterError(f"{p.label}: position is not on face {p.face} of the mesh")
    # curvature is reported only at the contact points, so fit only the
    # corners of their faces
    ap_vertices = np.unique(mesh.faces[[p.face for p in aps]])
    curv = curvature_field(mesh, vertices=ap_vertices)
    electrodes = []
    failed = []
    for p in aps:
        normal = mesh.normal_at(p.face, p.barycentric)
        axis = _tilt_axis(normal, tilt_deg) if tilt_deg else normal
        try:
            d, area = _solve(_Pathway(mesh, p.position, p.face, axis), target_area)
        except AurisenseError as exc:
            failed.append((p.label, str(exc)))
            continue
        h_vals = curv.mean[np.searchsorted(ap_vertices, mesh.faces[p.face])]
        h_here = float(h_vals @ p.barycentric)
        electrodes.append(ElectrodeSpec(
            ap_label=p.label, center=p.position, axis=axis,
            diameter_mm=d, tilt_deg=tilt_deg, sensing_area_mm2=area,
            mean_curvature_per_mm=h_here,
        ))
    deviation = max((abs(e.sensing_area_mm2 - target_area) / target_area
                     for e in electrodes), default=float("nan"))
    return ArrayDesign(
        electrodes=tuple(electrodes),
        target_area_mm2=target_area,
        max_rel_deviation=deviation,
        failed=tuple(failed),
    )


def write_design_json(path, design: ArrayDesign, meta: dict | None = None) -> None:
    obj = design.to_json_obj()
    if meta:
        obj["_meta"] = meta
    write_report_json(path, obj)
