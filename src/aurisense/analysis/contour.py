"""Scattered-AP interpolation over the full mesh by natural neighbors.

AP positions and mesh vertices are mapped into a 2D parameterization of
the surface (best-fit plane of the APs by default; an azimuthal projection
when the AP set is strongly non-planar).  Inside the convex hull of the
projected APs, per-vertex Sibson weights are computed exactly via
Bowyer-Watson virtual insertion: the weight of each natural neighbor is
the Voronoi area the query point would steal from it.  Outside the hull
the query is projected to the nearest hull edge and interpolated linearly
along it, which is the boundary limit of the natural-neighbor field, so
the combined field is continuous, exact at the APs, bounded by the input
values, and linearly precise inside the hull.

Queries are weighted in groups, not one by one: queries whose cavity (the
triangles whose circumcircle holds them) is the same share its boundary
edges and each neighbor's fan of old circumcenters, so a group needs one
array pass for its new circumcenters and one batched shoelace for every
stolen polygon.  A dozen APs give a few dozen groups for a whole mesh.

Every query takes Sibson's weights or one of their two exact limits.  A
Delaunay triangle less than ``FLAT`` of its longest edge high, a sliver
between nearly collinear sites, joins no cavity; a query in it, or one
whose weights do not hold, is linear in its triangle.  APs that qhull
rejects as collinear take the hull-edge limit along their line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..geometry.aps import AuricularPointSet
from ..geometry.mesh import SurfaceMesh

# a Delaunay triangle whose height is below FLAT of its longest edge is
# flat: its circumcircle is too wide to weigh, so it joins no cavity
FLAT = 1e-6


@dataclass(frozen=True)
class ContourField:
    """Per-vertex scalar field over a mesh (dimensionless normalized AESR)."""

    mesh: SurfaceMesh
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False


def interpolate_contour(mesh: SurfaceMesh, aps: AuricularPointSet, values) -> ContourField:
    """Interpolate AP values onto every mesh vertex.

    The APs are mapped to 2D by their best-fit plane, or azimuthally when
    strongly non-planar; ``ParameterError`` if that folds two onto one site.
    APs on one line, as in a thread array, need no other method: the field
    is then piecewise linear along the line and constant across it.
    """
    sites3d = aps.positions()
    vals = np.asarray(values, dtype=np.float64)
    if sites3d.shape[0] < 3:
        raise ParameterError("need at least 3 APs")
    if vals.shape != (sites3d.shape[0],):
        raise ParameterError(
            f"{vals.size} values for {sites3d.shape[0]} APs"
        )
    if not np.isfinite(vals).all():
        raise ParameterError("AP values must be finite")

    sites2d, queries2d = _parameterize(sites3d, mesh.vertices)
    # every two APs must stay apart by interpolate_2d's site tolerance
    tol = 1e-9 * max(np.ptp(sites2d[:, 0]), np.ptp(sites2d[:, 1]), 1e-12)
    folded = np.argwhere(np.triu(np.linalg.norm(sites2d[:, None] - sites2d, axis=2) <= tol, 1))
    if folded.size:
        i, j = folded[0]
        raise ParameterError(f"{aps.labels[i]} and {aps.labels[j]} fold onto one "
                             f"point of the contour parameterization")
    field = interpolate_2d(sites2d, vals, queries2d)
    return ContourField(mesh=mesh, values=field)


def _parameterize(sites3d, queries3d):
    center = sites3d.mean(axis=0)
    u, s, vt = np.linalg.svd(sites3d - center, full_matrices=False)
    b1, b2 = vt[0], vt[1]
    # out-of-plane spread comparable to the in-plane minor axis means
    # a plane projection would fold the surface over itself
    flat = s[2] / s[1] if s.size > 2 and s[1] > 0 else 0.0
    if not flat > 0.9:
        basis = np.stack([b1, b2], axis=1)
        return (sites3d - center) @ basis, (queries3d - center) @ basis
    w = vt[2]
    radius = max(np.linalg.norm(sites3d - center, axis=1).max(), 1e-9)
    origin = center - 2.0 * radius * w

    def project(points):
        d = points - origin
        d = d / np.linalg.norm(d, axis=1)[:, None]
        theta = np.arccos(np.clip(d @ w, -1.0, 1.0))
        phi = np.arctan2(d @ b2, d @ b1)
        return np.stack([theta * np.cos(phi), theta * np.sin(phi)], axis=1)

    return project(sites3d), project(queries3d)


def interpolate_2d(sites, values, queries) -> np.ndarray:
    """Natural-neighbor interpolation of (site, value) pairs at 2D queries."""
    # imported on use: `import aurisense.cli` loads no scipy module
    from scipy.spatial import Delaunay, QhullError

    sites = np.asarray(sites, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    scale = max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]), 1e-12)
    site_tol = 1e-9 * scale

    out = np.empty(queries.shape[0])
    # coincident with a site: exact
    dqs = sites[None, :, :] - queries[:, None, :]
    d2s = np.einsum("qsj,qsj->qs", dqs, dqs)  # (Q, S)
    nearest = np.argmin(d2s, axis=1)
    at_site = d2s[np.arange(queries.shape[0]), nearest] <= site_tol * site_tol
    out[at_site] = values[nearest[at_site]]

    try:
        tri = Delaunay(sites)
    except QhullError:
        # collinear sites: the hull is the chain of consecutive sites,
        # ordered along the line to the site farthest from the first
        d = sites - sites[0]
        order = np.argsort(d @ d[np.argmax((d * d).sum(axis=1))], kind="stable")
        chain = np.stack([order[:-1], order[1:]], axis=1)
        out[~at_site] = _hull_edge_interp(sites, values, chain, queries[~at_site])
        return out

    simplices = tri.simplices
    a, b, c = sites[simplices].transpose(1, 0, 2)
    ab, ac = b - a, c - a
    longest2 = np.max([(e * e).sum(axis=1) for e in (ab, ac, c - b)], axis=0)
    flat = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]) < FLAT * longest2
    keep = np.flatnonzero(~flat)
    cc, _ = _circumcenters(a[keep], b[keep], c[keep])
    r2 = ((a[keep] - cc) ** 2).sum(axis=1)

    located = tri.find_simplex(queries)
    outside = (located < 0) & ~at_site
    if outside.any():
        out[outside] = _hull_edge_interp(sites, values, tri.convex_hull,
                                         queries[outside])
    fallback = (located >= 0) & flat[located] & ~at_site
    inside = np.flatnonzero((located >= 0) & ~flat[located] & ~at_site)

    # Bowyer-Watson cavities as rows of a (Q, T) matrix, grouped by row
    r2tol = r2 * (1.0 + 1e-12) + (1e-12 * scale) ** 2
    dq = cc[None, :, :] - queries[inside, None, :]
    cavity = np.einsum("qtj,qtj->qt", dq, dq) < r2tol
    patterns, group = np.unique(cavity, axis=0, return_inverse=True)
    group = group.reshape(-1)
    for g, pattern in enumerate(patterns):
        members = inside[group == g]
        weights, valid = _sibson_weights(sites, simplices[keep[pattern]],
                                         cc[pattern], queries[members])
        out[members[valid]] = weights[valid] @ values
        fallback[members[~valid]] = True
    # flat triangles and the cocircular/collinear edge case: linear in the simplex
    out[fallback] = _simplex_interp(tri, values, located[fallback],
                                    queries[fallback])
    return out


def _circumcenters(a, b, c):
    """Circumcenters of triangles (a, b, c), broadcast over leading axes,
    and the mask of triangles that are not degenerate."""
    bx, by = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    cx, cy = c[..., 0] - a[..., 0], c[..., 1] - a[..., 1]
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ok = ~(np.abs(d) < 1e-12 * np.maximum(b2, c2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (cy * b2 - by * c2) / d
        uy = (bx * c2 - cx * b2) / d
    return np.stack([a[..., 0] + ux, a[..., 1] + uy], axis=-1), ok


def _sibson_weights(sites, tris, tri_cc, q):
    """Stolen-area weights (G, S) of queries q (G, 2) whose cavity is the
    triangles ``tris`` (C, 3), and the mask of queries whose weights hold
    (no degenerate new circumcenter, a positive finite total)."""
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, count = np.unique(edges, axis=0, return_counts=True)
    boundary = edges[count == 1]  # (E, 2)
    new_cc, ok = _circumcenters(q[:, None, :], sites[boundary[:, 0]],
                                sites[boundary[:, 1]])  # (G, E, 2)
    # neighbor v's stolen polygon: the old circumcenters of its cavity
    # triangles and the new circumcenters of its boundary edges
    points = np.concatenate(
        [np.broadcast_to(tri_cc, (q.shape[0],) + tri_cc.shape), new_cc], axis=1)
    corners = np.concatenate([tris, boundary[:, [0, 1, 1]]])  # (C + E, 3)
    nbrs = np.unique(tris)
    member = (corners[None, :, :] == nbrs[:, None, None]).any(axis=2)
    size = member.sum(axis=1)
    # pad each polygon to the largest with copies of its first point, which
    # sort next to it and add nothing to the shoelace sum
    real = np.arange(size.max(initial=0)) < size[:, None]  # (N, m)
    cols = np.argsort(~member, axis=1, kind="stable")[:, :real.shape[1]]
    poly = points[:, np.where(real, cols, cols[:, :1])]  # (G, N, m, 2)
    weights = np.zeros((q.shape[0], sites.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        center = (poly * real[..., None]).sum(axis=2) / size[:, None]
        rel = poly - center[:, :, None, :]
        order = np.argsort(np.arctan2(rel[..., 1], rel[..., 0]), axis=2)
        p = np.take_along_axis(rel, order[..., None], axis=2)
        x, y = p[..., 0], p[..., 1]
        area = 0.5 * np.abs((x * np.roll(y, -1, axis=2)).sum(axis=2)
                            - (y * np.roll(x, -1, axis=2)).sum(axis=2))
        weights[:, nbrs] = np.where(size >= 3, area, 0.0)
        total = weights.sum(axis=1)
        weights /= total[:, None]
    return weights, ok.all(axis=1) & (total > 0) & np.isfinite(total)


def _simplex_interp(tri, values, simplex, q):
    """Barycentric interpolation inside the Delaunay triangles ``simplex``."""
    tr = tri.transform[simplex]  # (F, 3, 2)
    b = np.einsum("fij,fj->fi", tr[:, :2], q - tr[:, 2])
    bary = np.stack([b[:, 0], b[:, 1], 1.0 - b.sum(axis=1)], axis=1)
    bary = np.clip(bary, 0.0, 1.0)
    bary /= bary.sum(axis=1, keepdims=True)
    return np.einsum("fk,fk->f", values[tri.simplices[simplex]], bary)


def _hull_edge_interp(sites, values, hull_edges, queries):
    """Project outside queries to the nearest hull edge, interpolate along it."""
    a = sites[hull_edges[:, 0]]  # (H, 2)
    b = sites[hull_edges[:, 1]]
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ab2[ab2 == 0] = 1e-300
    aq = queries[:, None, :] - a[None, :, :]          # (Q, H, 2)
    t = np.einsum("qhj,hj->qh", aq, ab) / ab2[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d2 = np.einsum("qhj,qhj->qh", queries[:, None, :] - proj,
                   queries[:, None, :] - proj)
    best = np.argmin(d2, axis=1)
    rows = np.arange(queries.shape[0])
    tb = t[rows, best]
    va = values[hull_edges[best, 0]]
    vb = values[hull_edges[best, 1]]
    return (1.0 - tb) * va + tb * vb
