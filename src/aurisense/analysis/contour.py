"""Scattered-AP interpolation over the full mesh by natural neighbors.

AP positions and mesh vertices are mapped into a 2D parameterization of
the surface (best-fit plane of the APs by default; an azimuthal projection
when the AP set is strongly non-planar).  The field is linear in the AP
values: it is ``W @ values`` for one (Q, S) weight matrix W of the Q
vertices on the S APs.  Rows of W are non-negative and sum to 1, so the
field is bounded by the AP values; four branches write them:

- a vertex on an AP takes that AP's unit row: the field is exact there;
- inside the convex hull of the APs, Sibson's weights, exact by
  Bowyer-Watson virtual insertion: each natural neighbor weighs the
  Voronoi area the vertex would steal from it, so the field is linearly
  precise;
- outside the hull, ``1 - t`` and ``t`` at the ends of the nearest hull
  edge, the boundary limit of Sibson's field, so the field is continuous.
  APs that qhull rejects as collinear take these rows along their line;
- in a Delaunay triangle less than ``FLAT`` of its longest edge high (a
  sliver between nearly collinear sites, which joins no cavity), or where
  Sibson's weights do not hold, the triangle's barycentrics.

Sibson rows are weighted in one array pass.  Vertices whose cavity (the
triangles whose circumcircle holds them) is the same share its topology:
its boundary edges, its neighbors and the corners of each neighbor's
stolen polygon (the old circumcenters of its cavity triangles and the new
ones of its boundary edges).  A dozen APs give a few dozen cavity
patterns for a whole mesh; their topology is worked out once, as index
arrays padded to the largest pattern, and every vertex's new
circumcenters, polygon areas and row are then a fixed number of array
passes over query blocks of at most ``_BLOCK`` polygon corners (or cavity
cells).  The at-site and hull-edge passes run over query blocks of at
most ``_BLOCK`` query-site or query-edge pairs, so the temporaries of all
three passes are bounded whatever the mesh size, and a row does not depend
on the block it is computed in.
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
# entries (query-site pairs, query-edge pairs, cavity cells or polygon
# corners) per block of a pass over the queries
_BLOCK = 2 ** 14


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
        raise ParameterError(f"{vals.size} values for {sites3d.shape[0]} APs")
    if not np.isfinite(vals).all():
        raise ParameterError("AP values must be finite")

    sites2d, queries2d = _parameterize(sites3d, mesh.vertices)
    # no two APs may be one site: a vertex on them gets one unit row
    d = sites2d[None, :, :] - sites2d[:, None, :]
    folded = np.argwhere(np.triu(np.einsum("ijk,ijk->ij", d, d) <= _site_tol2(sites2d), 1))
    if folded.size:
        i, j = folded[0]
        raise ParameterError(f"{aps.labels[i]} and {aps.labels[j]} fold onto one "
                             f"point of the contour parameterization")
    return ContourField(mesh=mesh, values=interpolation_weights(sites2d, queries2d) @ vals)


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


def interpolation_weights(sites, queries) -> np.ndarray:
    """The (Q, S) natural-neighbor weights of 2D queries on sites: the
    field of any site values ``v`` at the queries is ``W @ v``."""
    # imported on use: `import aurisense.cli` loads no scipy module
    from scipy.spatial import Delaunay, QhullError

    sites = np.asarray(sites, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    scale = max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]), 1e-12)

    # coincident with a site: a unit row.  W holds the squared distances
    # first, formed over query blocks of at most _BLOCK entries
    w = np.empty((queries.shape[0], sites.shape[0]))  # (Q, S)
    step = max(1, _BLOCK // sites.shape[0])
    for s in range(0, queries.shape[0], step):
        block = w[s:s + step]
        np.subtract(queries[s:s + step, :1], sites[:, 0], out=block)
        block *= block
        block += (queries[s:s + step, 1:] - sites[:, 1]) ** 2
    rows = np.arange(queries.shape[0])
    nearest = np.argmin(w, axis=1)
    at_site = w[rows, nearest] <= _site_tol2(sites)
    w.fill(0.0)
    w[rows[at_site], nearest[at_site]] = 1.0

    try:
        tri = Delaunay(sites)
    except QhullError:
        # collinear sites: the hull is the chain of consecutive sites,
        # ordered along the line to the site farthest from the first
        d = sites - sites[0]
        order = np.argsort(d @ d[np.argmax((d * d).sum(axis=1))], kind="stable")
        chain = np.stack([order[:-1], order[1:]], axis=1)
        _hull_edge_weights(w, rows[~at_site], sites, chain, queries)
        return w

    simplices = tri.simplices
    a, b, c = sites[simplices].transpose(1, 0, 2)
    ab, ac = b - a, c - a
    longest2 = np.max([(e * e).sum(axis=1) for e in (ab, ac, c - b)], axis=0)
    flat = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]) < FLAT * longest2
    keep = np.flatnonzero(~flat)
    cc, _ = _circumcenters(a[keep], b[keep], c[keep])
    r2 = ((a[keep] - cc) ** 2).sum(axis=1)

    located = tri.find_simplex(queries)
    _hull_edge_weights(w, rows[(located < 0) & ~at_site], sites, tri.convex_hull, queries)
    fallback = (located >= 0) & flat[located] & ~at_site
    inside = np.flatnonzero((located >= 0) & ~flat[located] & ~at_site)

    # a triangle is in a query's Bowyer-Watson cavity when its circumcircle holds the query
    r2tol = r2 * (1.0 + 1e-12) + (1e-12 * scale) ** 2
    holds = _sibson_rows(w, inside, sites, simplices[keep], cc, r2tol, queries)
    fallback[inside[~holds]] = True
    # flat triangles and the cocircular/collinear edge case: linear in the
    # simplex, by its barycentrics clipped to it
    fallback = np.flatnonzero(fallback)
    tr = tri.transform[located[fallback]]  # (F, 3, 2)
    bary = np.einsum("fij,fj->fi", tr[:, :2], queries[fallback] - tr[:, 2])
    bary = np.clip(np.column_stack([bary, 1.0 - bary.sum(axis=1)]), 0.0, 1.0)
    w[fallback[:, None], simplices[located[fallback]]] = bary / bary.sum(axis=1, keepdims=True)
    return w


def _site_tol2(sites):
    """Squared distance within which a point is on one of the 2D sites:
    (1e-9 of the larger coordinate spread of the sites)^2."""
    tol = 1e-9 * max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]), 1e-12)
    return tol * tol


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


def _sibson_rows(w, rows, sites, tris, cc, r2tol, queries):
    """Write Sibson's stolen-area weights into the ``rows`` of W and return
    the mask of rows whose weights hold (no degenerate new circumcenter, a
    positive finite total).  ``tris`` (T, 3) are the triangles that may join
    a cavity, ``cc`` their circumcenters and ``r2tol`` their squared radii
    with slack."""
    q = queries[rows]
    n_sites, n_tris = sites.shape[0], tris.shape[0]
    if q.shape[0] == 0:
        return np.zeros(0, dtype=bool)

    # grouping: each query's cavity as a row of bits, packed into a byte
    # string, so that one 1-D unique finds the patterns
    packed = np.empty((q.shape[0], (n_tris + 7) // 8), dtype=np.uint8)
    step = max(1, _BLOCK // n_tris)
    for s in range(0, q.shape[0], step):
        dq = cc[None, :, :] - q[s:s + step, None, :]
        packed[s:s + step] = np.packbits(np.einsum("qtj,qtj->qt", dq, dq) < r2tol, axis=1)
    _, first, group = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                return_index=True, return_inverse=True)
    cavity = np.unpackbits(packed[first], axis=1, count=n_tris).astype(bool)  # (P, T)

    # per-pattern topology, padded to the largest pattern: boundary edges
    # (edges of one cavity triangle), neighbors (corners of the cavity) and
    # each neighbor's polygon, as indices into [old circumcenters (T),
    # new circumcenters of the pattern's boundary edges]
    tri_edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, edge_of = np.unique(tri_edges[:, 0] * n_sites + tri_edges[:, 1], return_inverse=True)
    edges = np.stack(np.divmod(keys, n_sites), axis=1)  # (E, 2), in lexicographic order
    tri_edge = np.zeros((n_tris, edges.shape[0]), dtype=np.intp)
    tri_edge[np.repeat(np.arange(n_tris), 3), edge_of.reshape(-1)] = 1
    tri_site = np.zeros((n_tris, n_sites), dtype=np.intp)
    tri_site[np.arange(n_tris)[:, None], tris] = 1
    counts = cavity.astype(np.intp)
    boundary, edge_real = _padded(counts @ tri_edge == 1)  # (P, K)
    boundary = edges[boundary]  # (P, K, 2)
    nbrs, nbr_real = _padded(counts @ tri_site > 0)  # (P, N)
    member = np.concatenate([
        cavity[:, None, :] & (tri_site.T[nbrs] > 0),
        edge_real[:, None, :] & (boundary[:, None] == nbrs[:, :, None, None]).any(axis=3),
    ], axis=2) & nbr_real[:, :, None]  # (P, N, T + K)
    corners, real = _padded(member)  # (P, N, m)
    # pad each polygon with copies of its first point, which sort next to
    # it and add nothing to the shoelace sum
    corners = np.where(real, corners, corners[..., :1])
    size = real.sum(axis=2)
    nbrs = np.where(nbr_real, nbrs, n_sites)  # padding weighs a spare column

    # per-query pass over blocks of at most _BLOCK polygon corners
    holds = np.empty(q.shape[0], dtype=bool)
    step = max(1, _BLOCK // max(corners.shape[1] * corners.shape[2], 1))
    for s in range(0, q.shape[0], step):
        g = group[s:s + step]
        qb = q[s:s + step]
        bnd = boundary[g]
        new_cc, ok = _circumcenters(qb[:, None, :], sites[bnd[..., 0]], sites[bnd[..., 1]])
        points = np.concatenate([np.broadcast_to(cc, (qb.shape[0],) + cc.shape), new_cc], axis=1)
        poly = points[np.arange(qb.shape[0])[:, None, None], corners[g]]  # (G, N, m, 2)
        n = size[g]
        weights = np.zeros((qb.shape[0], n_sites + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            poly -= ((poly * real[g][..., None]).sum(axis=2) / n[..., None])[:, :, None, :]
            order = np.argsort(np.arctan2(poly[..., 1], poly[..., 0]), axis=2)
            p = np.take_along_axis(poly, order[..., None], axis=2)
            x, y = p[..., 0], p[..., 1]
            # the shoelace term by term: a repeated point's term is exactly 0
            area = 0.5 * np.abs((x * np.roll(y, -1, axis=2)
                                 - y * np.roll(x, -1, axis=2)).sum(axis=2))
            weights[np.arange(qb.shape[0])[:, None], nbrs[g]] = np.where(n >= 3, area, 0.0)
            weights = weights[:, :n_sites]
            total = weights.sum(axis=1)
            weights /= total[:, None]
        valid = (ok | ~edge_real[g]).all(axis=1) & (total > 0) & np.isfinite(total)
        w[rows[s:s + step][valid]] = weights[valid]
        holds[s:s + step] = valid
    return holds


def _padded(mask):
    """The indices of the True entries of each row of ``mask``, in order and
    padded to the longest row, and the mask of the real ones."""
    size = mask.sum(axis=-1)
    real = np.arange(size.max(initial=0)) < size[..., None]
    return np.argsort(~mask, axis=-1, kind="stable")[..., :real.shape[-1]], real


def _hull_edge_weights(w, rows, sites, hull_edges, queries):
    """Write the rows of W for outside queries: each is projected to its
    nearest hull edge and weighs the edge's two ends linearly along it."""
    a, b = sites[hull_edges].transpose(1, 0, 2)  # (H, 2) each
    ab = b - a
    ab2 = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    step = max(1, _BLOCK // hull_edges.shape[0])
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        q = queries[r][:, None, :]
        t = np.clip(np.einsum("qhj,hj->qh", q - a, ab) / ab2, 0.0, 1.0)  # (G, H)
        off = q - (a + t[:, :, None] * ab)
        best = np.argmin(np.einsum("qhj,qhj->qh", off, off), axis=1)
        tb = t[np.arange(r.size), best]
        w[r[:, None], hull_edges[best]] = np.column_stack([1.0 - tb, tb])
