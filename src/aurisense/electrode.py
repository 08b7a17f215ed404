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

Everything that does not depend on D (the projected corners, the per-face
area ratios and the adjacency among the built faces, from those faces'
rows of the face-vertex incidence alone) is built by ``_Pathway``, from
the contact face it is given, for the faces near the axis only: no
mesh-wide adjacency is built.  One bound prunes: a face lies at least its
bounding sphere's distance from the axis line less the sphere's radius
(``SurfaceMesh.face_spheres``) from the axis.  A build takes the faces whose bound is within its radius, a larger
radius rebuilds at least twice as wide, and each area clips the built
faces whose bound is within its own radius, in face-index order, so it
equals the area over every face bit for bit.  A solve projects its own
neighbourhood a few times at most, and the whole mesh only when its
bracket grows that wide.  ``solve_diameter`` inverts the area by
Newton's method in D^2, in which the area is near-linear, on the exact
slope dA/dD that the clipping returns with the area (the transport
theorem), inside an exact bracket: the area is 0 at D = 0, the first trial
is the flat disk's diameter 2 sqrt(target / pi), and doubling stops at
twice the mesh's bounding diagonal, where the cylinder holds the whole patch.
``design_array`` runs the solve point by point so every electrode of an
array reaches one target area regardless of local curvature.

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
    ParameterError,
    UnreachableTargetError,
    ZeroAreaError,
)
from .geometry.aps import AuricularPointSet
from .geometry.curvature import _tangent_frames, curvature_field
from .geometry.mesh import SurfaceMesh
from .textio import write_report_json

DEFAULT_TARGET_AREA = float(np.pi * 1.5 ** 2)  # flat-case area of a 3 mm pathway
MAX_TILT_DEG = 85.0      # beyond this the pathway is nearly tangent
# |face normal . axis| below which a face is clipped as parallel to the axis:
# the projected-area division loses about 1e-16 / cos relative, the strip
# clip errs by about cos; the two meet near 1e-8.
_PARALLEL_COS = 1e-8
_TOL = 1e-3         # relative area error the solve accepts where the area jumps


# ----------------------------------------------------------------------
# clipping kernels
# ----------------------------------------------------------------------

def _disk_clip_areas(x, y, radius):
    """Signed area inside the disk |p| <= radius of each triangle, and its
    derivative in the radius.

    ``x``, ``y`` are (K, 3) corner coordinates.  Each edge P -> Q adds the
    signed area of the disk within triangle (0, P, Q): with S1, S2 the ends
    of the edge's part inside the disk (both P when it misses the disk),
    that is sector(P, S1) + triangle(0, S1, S2) + sector(S2, Q).  A triangle
    that no edge enters and that does not contain the center is exactly 0,
    not the rounding left of its sectors cancelling.  By the transport
    theorem the derivative is the length of the circle inside the triangle,
    radius x the sectors' angles.
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
    clips = (hit & (t2 > t1)).any(axis=1) | inside
    return np.where(clips, area, 0.0), np.where(clips, radius * sectors.sum(axis=1), 0.0)


def _strip_clip_fraction(s, half_width):
    """Fraction of each triangle whose coordinate ``s`` lies in [-w, w], and
    its derivative in w.

    ``s`` is (K, 3): the corners' coordinates along one in-plane direction.
    The triangle's width across s is a tent over [s0, s2] peaking at s1, so
    the fraction with coordinate <= x is piecewise quadratic in x, and its
    derivative is the tent's density at x.
    """
    s0, s1, s2 = np.sort(s, axis=1).T
    rise = (s1 - s0) * (s2 - s0)
    fall = (s2 - s1) * (s2 - s0)
    rise = np.where(rise > 0.0, rise, 1.0)  # a zero-width side: its term is 0 / 1
    fall = np.where(fall > 0.0, fall, 1.0)

    def below(x):
        x = np.clip(x, s0, s2)
        return np.where(x <= s1, (x - s0) ** 2 / rise, 1.0 - (s2 - x) ** 2 / fall)

    def density(x):
        tent = np.where(x <= s1, 2.0 * (x - s0) / rise, 2.0 * (s2 - x) / fall)
        return np.where((s0 < x) & (x < s2), tent, 0.0)

    return (below(half_width) - below(-half_width),
            density(half_width) + density(-half_width))


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

class _Pathway:
    """The D-independent part of the contact-patch area of one pathway
    through ``center`` on ``face``: the faces near the axis projected onto
    the plane perpendicular to it, so that ``area(d)`` only clips a disk.

    A face lies at least (its bounding sphere's distance from the axis
    line) - (the sphere's radius) from the axis.  That bound alone prunes:
    a build projects the faces whose bound is within its radius, with their
    own adjacency, and a call at a larger radius rebuilds at max(radius,
    2 x built); each call clips the built faces whose bound is within its
    radius, in face-index order.  A face it leaves out clips exactly 0, so
    every area equals the one over all faces, bit for bit.
    """

    def __init__(self, mesh: SurfaceMesh, center, face: int, axis):
        axis = axis / np.linalg.norm(axis)
        (e1,), (e2,) = _tangent_frames(axis[None])
        self.plane = np.stack([e1, e2])
        centroids, radii = mesh.face_spheres()
        self.bound = np.hypot(*((centroids - center) @ self.plane.T).T) - radii
        self.center = center
        self.axis = axis
        self.mesh = mesh
        self.seed = face
        self.built = -np.inf

    def _project(self, w):
        """(..., 3) vectors in plane coordinates (..., 2), term by term: a
        BLAS product may round a row differently with the number of rows."""
        e = self.plane
        return w[..., :1] * e[:, 0] + w[..., 1:2] * e[:, 1] + w[..., 2:] * e[:, 2]

    def _build(self, radius):
        """Project the faces within ``radius`` of the axis, and the seed face."""
        keep = self.bound <= radius
        keep[self.seed] = True
        self.faces = np.flatnonzero(keep)
        x, y = np.moveaxis(
            self._project(self.mesh.vertices[self.mesh.faces[self.faces]] - self.center), -1, 0)
        proj = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
        self.parallel = np.abs(self.mesh.face_normals[self.faces] @ self.axis) < _PARALLEL_COS
        self.ratio = self.mesh.face_areas[self.faces] / np.where(self.parallel, 1.0, proj)
        self.x = x
        self.y = y
        # a face parallel to the axis projects to a segment on the line
        # {q : q . m = h}, m its normal in the plane, and s holds its
        # corners' coordinates along m turned by 90 deg (0 for other faces)
        par = np.flatnonzero(self.parallel)
        m = self._project(self.mesh.face_normals[self.faces[par]])
        m /= np.linalg.norm(m, axis=1)[:, None]
        self.h = np.zeros(self.faces.size)
        self.s = np.zeros((self.faces.size, 3))
        self.h[par] = x[par, 0] * m[:, 0] + y[par, 0] * m[:, 1]
        self.s[par] = y[par] * m[:, :1] - x[par] * m[:, 1:]
        self.adjacency = self.mesh.face_adjacency_among(self.faces)
        self.seed_local = int(np.searchsorted(self.faces, self.seed))
        self.built = radius

    def area(self, diameter: float) -> tuple[float, float]:
        """Contact-patch area (mm^2) at ``diameter`` and its slope dA/dD
        (mm), summed over the same faces; warns on a disconnected hit."""
        radius = diameter / 2.0
        if radius > self.built:
            self._build(max(radius, 2.0 * self.built))
        cand = np.flatnonzero(self.bound[self.faces] <= radius)
        par = self.parallel[cand]
        disk = cand[~par]
        per_face = np.zeros(self.faces.size)
        per_slope = np.zeros(self.faces.size)  # dA/dr
        area, arc = _disk_clip_areas(self.x[disk], self.y[disk], radius)
        per_face[disk] = area * self.ratio[disk]
        per_slope[disk] = arc * self.ratio[disk]
        if par.any():
            per_face[cand[par]], per_slope[cand[par]] = self._strip_areas(cand[par], radius)
        positive = np.flatnonzero(per_face > 0.0)
        if positive.size == 0:
            return 0.0, 0.0
        patch = _connected_patch(self.adjacency, positive, self.seed_local)
        total = float(per_face.sum())
        patch_area = float(per_face[patch].sum())
        if total > patch_area * (1.0 + 1e-9) + 1e-12:
            warnings.warn(
                "cylinder intersects a disconnected surface region; "
                "returning the contact-patch area only",
                stacklevel=3,
            )
        return patch_area, 0.5 * float(per_slope[patch].sum())

    def _strip_areas(self, faces, radius):
        """Exact clipped areas of faces parallel to the axis, and their
        derivatives in the radius.

        Such a face's points lie within the cylinder where |s| <= sqrt(r^2 -
        h^2), with h and s from ``_build``.  In the face plane the direction
        of s and the axis are orthonormal, so that is a strip.  ``faces``
        are indices into the built faces.
        """
        h = self.h[faces]
        half_width = np.sqrt(np.maximum(radius * radius - h * h, 0.0))
        fraction, density = _strip_clip_fraction(self.s[faces], half_width)
        # dw/dr = r / w, and 0 while w = 0: the cylinder has not reached the face's line
        dw = np.divide(radius, half_width, out=np.zeros_like(half_width), where=half_width > 0.0)
        return self.mesh.face_areas[self.faces[faces]] * np.stack([fraction, density * dw])


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
    inflate the area.  Raises ``ZeroAreaError`` when that area is 0 (a
    diameter too small to clip any face) and warns when the cylinder also
    hits a disconnected region.
    """
    area = _checked_pathway(mesh, center, axis, "diameter", diameter).area(diameter)[0]
    if area == 0.0:
        raise ZeroAreaError(f"a {diameter:.3g} mm cylinder clips no area from the mesh")
    return area


def _connected_patch(adjacency, positive_faces, seed_face):
    """Faces of the positive-area component containing the seed face, all
    of them indices of the CSR face adjacency ``adjacency``."""
    # imported on use: only design needs csgraph, which adds 14 ms and 2.3 MB to start-up
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    # the adjacency's edges between patch faces, renumbered, as a CSR built
    # directly: slicing the adjacency costs scipy far more than the search
    in_patch = np.zeros(adjacency.shape[0], dtype=bool)
    in_patch[positive_faces] = True
    in_patch[seed_face] = True
    rows = np.repeat(np.arange(adjacency.shape[0]), np.diff(adjacency.indptr))
    keep = in_patch[rows] & in_patch[adjacency.indices]
    local = np.cumsum(in_patch) - 1
    faces = np.flatnonzero(in_patch)
    indptr = np.zeros(faces.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(local[rows[keep]], minlength=faces.size), out=indptr[1:])
    graph = csr_array((np.ones(indptr[-1]), local[adjacency.indices[keep]], indptr),
                      shape=(faces.size, faces.size))
    _, label = connected_components(graph, directed=False)
    return faces[label == label[local[seed_face]]]


def solve_diameter(mesh: SurfaceMesh, center, axis, target_area: float) -> float:
    """Diameter whose sensing area matches ``target_area``.

    Newton's method in D^2 on the exact slope dA/dD, in an exact bracket.
    Its lower end is D = 0, where the area is 0.  The first trial is the
    flat disk's diameter 2 sqrt(target_area / pi); while its area is below
    the target it becomes the lower end and is doubled, up to d_max = 2 x
    the mesh's bounding diagonal.  That cylinder holds the whole patch, so
    ``UnreachableTargetError`` is raised exactly when the area at d_max is
    below the target.  Each step starts from the bracket end nearest the
    target in area, and bisects where Newton would leave the bracket or
    would not halve the previous step (the rule of rtsafe).  With
    brentq's delta = (2e-12 + 4 eps D) / 2 mm, the solve stops at a Newton
    step within delta or a bracket 2 delta wide, the latter where the area
    jumps (a face joining the patch with a region behind it); ``_TOL``
    bounds the relative area error it accepts there.

    The bracket is exact because the area never decreases in D.  Each disk
    face's clipped area times its ``ratio`` is >= 0 (both carry the sign of
    the projected area) and grows with the radius r; each strip face grows
    with its half-width w = sqrt(r^2 - h^2).  So the set of positive faces
    only grows, and with it the component that holds the seed face.
    """
    return _solve(_checked_pathway(mesh, center, axis, "target_area", target_area),
                  target_area)[0]


def _solve(pathway, target_area):
    """(diameter, area) of ``solve_diameter`` on a prepared pathway: a pair it evaluated."""
    # a cylinder of radius = the bounding diagonal around a point on the
    # mesh holds every face, so the area is largest there
    d_max = 2.0 * pathway.mesh.bounding_diagonal()
    lo = (0.0, 0.0, 0.0)
    # the first trial is the flat disk's diameter
    d = min(2.0 * np.sqrt(target_area / np.pi), d_max)
    hi = (d, *pathway.area(d))
    while hi[1] < target_area and d < d_max:
        d = min(2.0 * d, d_max)
        lo, hi = hi, (d, *pathway.area(d))
    if hi[1] < target_area:
        raise UnreachableTargetError(
            f"target {target_area:.6g} mm^2 exceeds the patch maximum ({hi[1]:.6g} mm^2)")

    def off(e):
        return abs(e[1] - target_area)

    d, a, slope = min(lo, hi, key=off)
    step = hi[0] - lo[0]  # the step before the first: the whole bracket
    for _ in range(100):
        delta = (2e-12 + 4.0 * np.finfo(float).eps * d) / 2.0  # brentq's stop
        if a == target_area or hi[0] - lo[0] <= 2.0 * delta:
            break
        d_new = 0.5 * (lo[0] + hi[0])
        if slope > 0.0:
            # Newton in D^2, in which the area is near-linear: dA/d(D^2) = slope / 2D
            newton = float(np.sqrt(max(d * d + 2.0 * d * (target_area - a) / slope, 0.0)))
            if abs(newton - d) <= delta:
                break
            # rtsafe's rule: a step that leaves the bracket or does not
            # halve the previous step bisects instead
            if lo[0] < newton < hi[0] and abs(newton - d) <= 0.5 * step:
                d_new = newton
        step = abs(d_new - d)
        e = (d_new, *pathway.area(d_new))
        if e[1] < target_area:
            lo = e
        else:
            hi = e
        d, a, slope = min(lo, hi, key=off)
    if abs(a - target_area) > _TOL * target_area:
        raise AurisenseError(
            f"diameter solve stopped at {d:.6g} mm with {a:.6g} mm^2, off the "
            f"target {target_area:.6g} mm^2 (the area jumps there)"
        )
    return float(d), a


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


def _tilt_axis(normal, tilt_deg):
    """Rotate the normal by tilt_deg toward the first axis of its tangent frame."""
    n = normal / np.linalg.norm(normal)
    th = np.radians(tilt_deg)
    return np.cos(th) * n + np.sin(th) * _tangent_frames(n[None])[0][0]


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
