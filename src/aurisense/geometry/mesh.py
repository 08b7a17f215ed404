"""Triangle surface mesh container and geometric queries.

Coordinates are millimeters throughout; no unit autodetection is done.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import EmptyMeshError, MeshFormatError, ParameterError
from ..seeding import is_whole, whole_indices

DEGENERATE_AREA = 1e-12  # mm^2; faces below this are dropped with a warning
# relative pad of the face bounding spheres and of closest_point's upper
# bound: rounding moves a distance computed from the mesh by about 1e-16 of
# the largest coordinate or of the distance itself, far below the pad
_SPHERE_PAD = 1e-9
_TOO_LARGE = "face areas or normals are not finite; the coordinates are too large"


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the int64 array ``keys``, sorted, by sorting it in
    place and masking each value equal to the one before (``np.unique`` is slower)."""
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _corner_column(vertices, faces, k: int, c: int) -> np.ndarray:
    """(F,) coordinate c of corner k of every face."""
    return vertices[:, c][faces[:, k]]


def _face_cross(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) of each face (a, b, c): its normal times twice its area.

    Built one component at a time from (F,) coordinate differences, so no
    (F, 3) array but the result is made.  Component j is ``ab[p] * ac[q] -
    ab[q] * ac[p]`` with (p, q) = (j + 1, j + 2) mod 3, in the order
    ``np.cross`` takes, so the result equals ``np.cross(ab, ac)`` bit for bit.
    """
    def diff(k, c):  # coordinate c of corner k less that of corner 0
        d = _corner_column(vertices, faces, k, c)
        d -= _corner_column(vertices, faces, 0, c)
        return d

    cross = np.empty((faces.shape[0], 3))
    for j in range(3):
        p, q = (j + 1) % 3, (j + 2) % 3
        np.multiply(diff(1, p), diff(2, q), out=cross[:, j])
        cross[:, j] -= diff(1, q) * diff(2, p)
    return cross


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """(N,) Euclidean norms of the rows of an (N, 3) array, summed as
    ``(x² + y²) + z²``, which is how ``np.linalg.norm(rows, axis=1)`` sums
    them, without its (N, 3) array of squares."""
    norm = np.square(rows[:, 0])
    for j in (1, 2):
        norm += np.square(rows[:, j])
    return np.sqrt(norm, out=norm)


class SurfaceMesh:
    """Validated triangle mesh; its per-vertex unit normals are built on
    first read and cached.

    Immutable after construction: the vertex/face arrays are marked
    read-only so instances can be shared freely across threads.  The
    topology is numpy index arrays: the faces of each vertex, an (indptr,
    face) pair cached on first use, O(F).  ``k_rings`` hops from vertices to
    their faces and back, and ``face_pairs_among`` pairs the given faces
    that share an edge from their corners alone, so the curvature fit and
    the electrode solve touch only the faces they use.  ``vertex_adjacency()``
    and ``face_adjacency()`` do so for every vertex and face, on each call.

    Parameters
    ----------
    vertices : (V, 3) float array, mm
    faces : (F, 3) int array of vertex indices

    Faces with area < 1e-12 mm^2 are dropped with a warning: scan-derived
    meshes commonly contain slivers.  Face indices that are not whole
    numbers raise ``MeshFormatError``.

    The mesh takes over C-contiguous float64 ``vertices`` and int64
    ``faces``: it keeps such an array without a copy and marks it
    read-only, so the caller can no longer write it (the base of such a
    view stays writable, and writing it would change the mesh).  Any other
    input (another dtype or layout, a list) is copied, and the caller's
    array left writable; so are faces from which degenerate ones were
    dropped.  The face normals and areas, which the constructor builds to
    find the degenerate faces, and the ``vertex_normals`` and
    ``face_spheres``, built on first use, come from (F,) coordinate columns
    into the arrays they keep, with the arithmetic of ``np.cross``,
    ``np.linalg.norm`` and a per-coordinate ``bincount``.  Coordinates too
    large for these to be finite raise ``MeshFormatError``: in the
    constructor for the face quantities, at the first read of the vertex
    normals for those.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflow is caught below
    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        faces = np.asarray(faces)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshFormatError("vertices must be an (V, 3) array")
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshFormatError("faces must be an (F, 3) array")
        if vertices.shape[0] == 0 or faces.shape[0] == 0:
            raise EmptyMeshError("mesh has no vertices or no faces")
        faces = np.ascontiguousarray(whole_indices(faces, MeshFormatError, "face indices"))
        if not np.isfinite(vertices).all():
            raise MeshFormatError("non-finite vertex coordinates")
        if faces.min() < 0 or faces.max() >= vertices.shape[0]:
            raise MeshFormatError("face references an out-of-range vertex index")

        cross = _face_cross(vertices, faces)
        norm = _row_norms(cross)
        areas = 0.5 * norm
        degenerate = areas < DEGENERATE_AREA
        if degenerate.any():
            warnings.warn(
                f"dropping {int(degenerate.sum())} degenerate faces "
                f"(area < {DEGENERATE_AREA} mm^2)",
                stacklevel=2,
            )
            faces, areas = faces[~degenerate], areas[~degenerate]
            cross, norm = cross[~degenerate], norm[~degenerate]
            if faces.shape[0] == 0:
                raise EmptyMeshError("all faces were degenerate")

        self.vertices = vertices
        self.faces = faces
        self.face_areas = areas
        cross /= norm[:, None]
        self.face_normals = cross
        if not (np.isfinite(areas).all() and np.isfinite(cross).all()):
            raise MeshFormatError(_TOO_LARGE)
        for arr in (self.vertices, self.faces, self.face_areas, self.face_normals):
            arr.flags.writeable = False
        self._vertex_normals = None
        self._faces_of = None
        self._spheres = None
        self._box = None

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def bounding_box(self):
        """(lo, hi) corners of the axis-aligned bounding box, read-only; cached."""
        if self._box is None:
            lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
            lo.flags.writeable = hi.flags.writeable = False
            self._box = lo, hi
        return self._box

    def bounding_diagonal(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    @property
    def vertex_normals(self) -> np.ndarray:
        """(V, 3) unit vertex normals, read-only: ``_compute_vertex_normals``,
        built on first read and cached.  Normals that are not finite raise
        ``MeshFormatError``."""
        if self._vertex_normals is None:
            with np.errstate(over="ignore", invalid="ignore"):
                normals = self._compute_vertex_normals()
            if not np.isfinite(normals).all():
                raise MeshFormatError(_TOO_LARGE)
            normals.flags.writeable = False
            self._vertex_normals = normals
        return self._vertex_normals

    def _compute_vertex_normals(self) -> np.ndarray:
        """Area-weighted average of incident face normals, unit length.

        Vertices not referenced by any face (possible after degenerate-face
        dropping) get an arbitrary unit normal so the unit-length invariant
        holds everywhere.
        """
        corners = self.faces.T.ravel()  # every face's first corners, then seconds, thirds
        vn = np.empty((self.n_vertices, 3))
        weighted = np.empty((3, self.n_faces))  # one coordinate's face weights, tiled
        for j in range(3):
            np.multiply(self.face_normals[:, j], self.face_areas, out=weighted[0])
            weighted[1:] = weighted[0]
            vn[:, j] = np.bincount(corners, weighted.ravel(), self.n_vertices)
        norm = _row_norms(vn)
        huge = np.isinf(norm)  # a square overflows past about 1.3e154
        if huge.any():
            vn[huge] /= np.abs(vn[huge]).max(axis=1, keepdims=True)
            norm[huge] = _row_norms(vn[huge])
        orphan = norm < 1e-300
        vn[orphan] = (0.0, 0.0, 1.0)
        norm[orphan] = 1.0
        vn /= norm[:, None]
        return vn

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def vertex_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``k_rings`` of every vertex at k = 1: row i holds the sorted 1-ring of vertex i."""
        return self.k_rings(np.arange(self.n_vertices), 1)

    def face_adjacency(self) -> np.ndarray:
        """``face_pairs_among`` every face: the (2, E) pairs of faces that share an edge."""
        return self.face_pairs_among(np.arange(self.n_faces))

    def face_pairs_among(self, faces) -> np.ndarray:
        """(2, E) array of the pairs (u, v), u < v, of positions in the R
        distinct face indices ``faces`` whose faces share an edge, on a
        non-manifold edge too; each pair once, in sorted order.  In the sorted
        3R edge keys ``lo * V + hi`` of those faces alone an edge's faces sit
        side by side: keys d places apart and equal, for d = 1, 2, ... while
        any are, pair them.  Duplicate faces share three edges: repeats go."""
        corners = self.faces[faces]
        n_pos = corners.shape[0]
        turned = np.roll(corners, -1, axis=1)  # each corner's successor: the edges
        keys = (np.minimum(corners, turned) * self.n_vertices + np.maximum(corners, turned)).ravel()
        order = np.argsort(keys, kind="stable")  # an edge's faces stay in order: u < v
        keys, owner = keys[order], order // 3
        pairs = [np.empty(0, dtype=np.int64)]  # as u * R + v
        for d in range(1, keys.size):
            same = np.flatnonzero(keys[d:] == keys[:-d])
            if not same.size:
                break
            pairs.append(owner[same] * n_pos + owner[same + d])
        return np.stack(np.divmod(_distinct(np.concatenate(pairs)), n_pos))

    def k_rings(self, vertices, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: ``indices[indptr[r]:indptr[r + 1]]`` holds
        the sorted vertices within k edge hops of ``vertices[r]``, itself
        excluded.  Each hop adds the corners of every face on a reached
        vertex, as the distinct keys ``r * V + vertex``, and the hops stop
        once one reaches no new vertex."""
        if not is_whole(k):
            raise ParameterError("k must be an integer >= 0")
        query = whole_indices(vertices, ParameterError, "vertex indices").reshape(-1)
        if query.size and (query.min() < 0 or query.max() >= self.n_vertices):
            raise ParameterError("vertex indices must lie in [0, n_vertices)")
        n = self.n_vertices
        if self._faces_of is None:  # vertex i lies on face[indptr[i]:indptr[i + 1]], in order
            corners = self.faces.ravel()
            face = np.argsort(corners, kind="stable") // 3
            indptr = np.r_[0, np.cumsum(np.bincount(corners, minlength=n))]
            indptr.flags.writeable = face.flags.writeable = False
            self._faces_of = indptr, face
        indptr, face = self._faces_of
        rows, reach = np.arange(query.size), query  # reach[i] is reached from query[rows[i]]
        for _ in range(k):
            count = indptr[reach + 1] - indptr[reach]
            # where in ``face`` the faces of each reached vertex lie
            at = np.repeat(indptr[reach] - np.cumsum(count) + count, count) + np.arange(count.sum())
            hit = self.faces[face[at]]
            hit += np.repeat(rows * n, count)[:, None]
            keys = _distinct(hit.ravel())
            # a vertex is a corner of its own faces: keys for those alone means none is new
            if keys.size == np.count_nonzero(count):
                break
            rows, reach = np.divmod(keys, n)
        ring = reach != query[rows]
        return np.searchsorted(rows[ring], np.arange(query.size + 1)), reach[ring]

    def k_ring(self, vertex: int, k: int) -> np.ndarray:
        """Sorted vertex indices within k edge hops of ``vertex`` (itself excluded)."""
        return self.k_rings([vertex], k)[1]

    # ------------------------------------------------------------------
    # closest-point queries
    # ------------------------------------------------------------------
    def face_spheres(self):
        """Per-face bounding spheres: (F, 3) centroids and (F,) radii, read-only.

        A radius is the largest distance from the centroid to a corner,
        padded by ``_SPHERE_PAD`` of the largest coordinate magnitude, so a
        lower bound computed from it in floating point (the distance to the
        centroid less the radius) never exceeds the face's own computed
        distance.  Built on first use and cached.
        """
        if self._spheres is None:
            v, f = self.vertices, self.faces
            pad = _SPHERE_PAD * np.abs(v).max()
            centroids = np.empty((self.n_faces, 3))
            for c in range(3):
                total = _corner_column(v, f, 0, c)
                total += _corner_column(v, f, 1, c)
                total += _corner_column(v, f, 2, c)
                np.divide(total, 3.0, out=centroids[:, c])
            offset = np.empty((self.n_faces, 3))  # one corner less the centroid
            radii = np.zeros(self.n_faces)  # squared, until the square root
            for k in range(3):
                for c in range(3):
                    np.subtract(_corner_column(v, f, k, c), centroids[:, c], out=offset[:, c])
                np.maximum(radii, np.einsum("ij,ij->i", offset, offset), out=radii)
            np.sqrt(radii, out=radii)
            radii += pad
            for arr in (centroids, radii):
                arr.flags.writeable = False
            self._spheres = centroids, radii
        return self._spheres

    def closest_point(self, point):
        """Closest point on the surface to ``point``.

        Returns (position, face index, barycentric coords, distance); the
        position and barycentrics own their data.  Exact and equal, bit for bit,
        to ``closest_point_on_triangles`` over every face with ties to the
        lowest face index, but the kernel runs only on the faces the bounding
        spheres cannot rule out: every face lies at least |point - centroid| -
        radius away, and at most |point - centroid| since the centroid lies on
        it, so only the faces whose lower bound is within the nearest
        centroid's distance (padded for rounding) are searched, in index order.
        A point that is not finite raises ``ParameterError``.
        """
        p = np.asarray(point, dtype=np.float64)
        if not np.isfinite(p).all():
            raise ParameterError("closest_point needs a finite point")
        centroids, radii = self.face_spheres()
        offset = centroids - p
        dist = np.sqrt(np.einsum("ij,ij->i", offset, offset))
        faces = np.flatnonzero(dist - radii <= dist.min() * (1.0 + _SPHERE_PAD))
        tri = self.faces[faces]
        pts, bary = closest_point_on_triangles(
            p, self.vertices[tri[:, 0]], self.vertices[tri[:, 1]], self.vertices[tri[:, 2]])
        d2 = np.einsum("ij,ij->i", pts - p, pts - p)
        i = int(np.argmin(d2))
        return pts[i].copy(), int(faces[i]), bary[i].copy(), float(np.sqrt(d2[i]))

    def normal_at(self, face_index: int, bary) -> np.ndarray:
        """Unit surface normal interpolated from vertex normals."""
        tri = self.faces[face_index]
        n = (self.vertex_normals[tri] * np.asarray(bary)[:, None]).sum(axis=0)
        return n / np.linalg.norm(n)


def closest_point_on_triangles(p, a, b, c):
    """Closest points to ``p`` on each triangle (a_i, b_i, c_i).

    Returns the closest points (F, 3) and their barycentric coordinates
    (F, 3).  The plane's foot a + u ab + v ac is taken from triple products
    with the normal n = ab x ac: u = ((p - a) x ac).n / n.n and v = (ab x
    (p - a)).n / n.n, which keep their accuracy on slivers, where Ericson's
    differences of dot products cancel.  Where u > 0, v > 0 and u + v < 1,
    ``p`` projects inside the triangle and the closest point is the foot.
    Elsewhere it is the nearest of the closest points of the edges ab, ac
    and bc, each at its parameter ab.ap / |ab|^2, ac.ap / |ac|^2 and
    bc.bp / |bc|^2 clipped to [0, 1] (Ericson, *Real-Time Collision
    Detection*, 2004, §5.1.5); a tie goes to the first edge.
    """
    ab, ac, bc, ap = b - a, c - a, c - b, p - a
    n = np.cross(ab, ac)

    def dot(x, y):
        return np.einsum("ij,ij->i", x, y)

    # the foot is used only inside, which needs n.n > 0; an edge short
    # against the distances to p can round its parameter to 0/0, which
    # fmax/fmin, unlike np.clip, send to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        nn = dot(n, n)
        foot_u, foot_v = dot(np.cross(ap, ac), n) / nn, dot(np.cross(ab, ap), n) / nn
        t = np.array([dot(ab, ap) / dot(ab, ab), dot(ac, ap) / dot(ac, ac),
                      dot(bc, p - b) / dot(bc, bc)])
    t = np.fmin(np.fmax(t, 0.0), 1.0)
    zero = np.zeros_like(nn)
    edge_u, edge_v = np.array([t[0], zero, 1.0 - t[2]]), np.array([zero, t[1], t[2]])
    gap = a + ab * edge_u[..., None] + ac * edge_v[..., None] - p
    nearest = np.argmin(np.einsum("eij,eij->ei", gap, gap), axis=0), np.arange(len(nn))
    inside = (foot_u > 0) & (foot_v > 0) & (foot_u + foot_v < 1)
    u = np.where(inside, foot_u, edge_u[nearest])
    v = np.where(inside, foot_v, edge_v[nearest])
    pts = a + ab * u[:, None] + ac * v[:, None]
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    return pts, bary
