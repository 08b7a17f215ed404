"""Triangle surface mesh container and geometric queries.

Coordinates are millimeters throughout; no unit autodetection is done.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

import numpy as np

from ..errors import EmptyMeshError, MeshFormatError, ParameterError
from ..seeding import is_whole, whole_indices

if TYPE_CHECKING:
    import scipy.sparse as sp

DEGENERATE_AREA = 1e-12  # mm^2; faces below this are dropped with a warning
# relative pad of the face bounding spheres and of closest_point's upper
# bound: rounding moves a distance computed from the mesh by about 1e-16 of
# the largest coordinate or of the distance itself, far below the pad
_SPHERE_PAD = 1e-9


def _ones(cols: np.ndarray, n_cols: int) -> sp.csr_array:
    """(R, n_cols) boolean CSR array with a True in row r at each column of
    ``cols[r]``; ``cols`` is (R, c) and holds no repeat within a row."""
    # imported on use: `import aurisense.cli` loads no scipy module
    import scipy.sparse as sp

    return sp.csr_array((np.ones(cols.size, dtype=bool), cols.ravel(),
                         np.arange(0, cols.size + 1, cols.shape[1])),
                        shape=(cols.shape[0], n_cols))


def _without_own(a, own: np.ndarray) -> sp.csr_array:
    """Sorted boolean CSR pattern of the true entries of ``a``, entry
    (r, own[r]) of each row r left out.  May modify ``a`` in place."""
    a = a.tocsr()
    a.data = a.data.astype(bool, copy=False) & (a.indices != np.repeat(own, np.diff(a.indptr)))
    a.eliminate_zeros()
    a.sort_indices()
    return a


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
    """Validated triangle mesh with cached per-vertex unit normals.

    Immutable after construction: the vertex/face arrays are marked
    read-only so instances can be shared freely across threads.  The
    topology is derived from the boolean (F, V) face-vertex incidence Inc,
    which is built on first use and cached with its transpose, both O(F).
    A k-ring is k hops from vertices to their faces and back, ``reach +
    (reach @ Inc.T) @ Inc``; ``face_pairs_among`` pairs the given faces
    that share two corners, from ``Inc[faces]`` alone.  So the curvature
    fit and the electrode solve touch only the incidence rows they use.
    The mesh-wide (V, V) and (F, F) adjacencies, boolean
    ``scipy.sparse.csr_array`` patterns with sorted indices, are the
    1-rings of every vertex and the pairs among every face, built anew on
    each call.

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
    dropped.  The face and vertex normals, the areas and
    ``face_spheres`` are built from (F,) coordinate columns into the arrays
    they keep, with the arithmetic of ``np.cross``, ``np.linalg.norm`` and a
    per-coordinate ``bincount``.
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
        del norm  # one (F,) column less while the vertex normals are summed
        self.face_normals = cross
        self.vertex_normals = self._compute_vertex_normals()
        if not all(np.isfinite(a).all() for a in (areas, self.face_normals,
                                                   self.vertex_normals)):
            raise MeshFormatError("face areas or normals are not finite; "
                                  "the coordinates are too large")
        for arr in (self.vertices, self.faces, self.face_areas,
                    self.face_normals, self.vertex_normals):
            arr.flags.writeable = False
        self._incidence = None
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
        orphan = norm < 1e-300
        vn[orphan] = (0.0, 0.0, 1.0)
        norm[orphan] = 1.0
        vn /= norm[:, None]
        return vn

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _incidences(self):
        """The (F, V) boolean face-vertex incidence, row f holding a True at
        each corner of face f, and its (V, F) transpose, both CSR; cached."""
        if self._incidence is None:
            inc = _ones(self.faces, self.n_vertices)
            self._incidence = inc, inc.T.tocsr()
        return self._incidence

    def vertex_adjacency(self) -> sp.csr_array:
        """(V, V) boolean CSR array; row i holds the sorted 1-ring of vertex i."""
        return self.k_rings(np.arange(self.n_vertices), 1)

    def face_adjacency(self) -> sp.csr_array:
        """(F, F) boolean CSR array; row f holds the sorted faces sharing an edge with f."""
        import scipy.sparse as sp

        u, v = self.face_pairs_among(np.arange(self.n_faces))
        return sp.csr_array((np.ones(2 * u.size, dtype=bool), (np.r_[u, v], np.r_[v, u])),
                            shape=(self.n_faces, self.n_faces))

    def face_pairs_among(self, faces) -> np.ndarray:
        """(2, E) array of the pairs (u, v), u < v, of positions in the R
        distinct face indices ``faces`` whose faces share two corners, an
        edge, on a non-manifold edge too: the upper triangle of
        ``face_adjacency()[faces][:, faces]``, from those faces' incidence
        rows alone."""
        # counts fit int8, as two faces share at most 3 corners
        inc = self._incidences()[0][faces].astype(np.int8)
        shared = (inc @ inc.T).tocoo()
        upper = (shared.data >= 2) & (shared.row < shared.col)
        return np.stack([shared.row[upper], shared.col[upper]])

    def k_rings(self, vertices, k: int) -> sp.csr_array:
        """(Q, V) boolean CSR array; row r holds the sorted vertices within k
        edge hops of ``vertices[r]``, that vertex itself excluded."""
        if not is_whole(k):
            raise ParameterError("k must be an integer >= 0")
        query = whole_indices(vertices, ParameterError, "vertex indices").reshape(-1)
        if query.size and (query.min() < 0 or query.max() >= self.n_vertices):
            raise ParameterError("vertex indices must lie in [0, n_vertices)")
        inc, inc_t = self._incidences()
        reach = _ones(query[:, None], self.n_vertices)
        for _ in range(k):  # each hop adds the corners of every face touching what is reached
            reach = reach + (reach @ inc_t) @ inc
        return _without_own(reach, query)

    def k_ring(self, vertex: int, k: int) -> np.ndarray:
        """Sorted vertex indices within k edge hops of ``vertex`` (itself excluded)."""
        return self.k_rings([vertex], k).indices

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
    (F, 3).  The dot products d1..d6 and the signed areas va, vb, vc are
    Ericson's (*Real-Time Collision Detection*, 2004, §5.1.5).  Where all
    three areas are positive, ``p`` projects inside the triangle and the
    closest point is the plane's foot.  Elsewhere it is the nearest of the
    closest points of the edges ab, ac and bc, each at Ericson's edge
    parameter clipped to [0, 1]; a tie goes to the first edge.
    """
    ab, ac = b - a, c - a
    d1, d2, d3, d4, d5, d6 = (np.einsum("ij,ij->i", edge, off)
                              for off in (p - a, p - b, p - c) for edge in (ab, ac))
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    # the foot is used only inside, where va + vb + vc > 0; an edge short
    # against the distances to p can round its parameter to 0/0, which
    # fmax/fmin, unlike np.clip, send to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        foot_u, foot_v = vb / (va + vb + vc), vc / (va + vb + vc)
        t = np.array([d1 / (d1 - d3), d2 / (d2 - d6), (d4 - d3) / ((d4 - d3) + (d5 - d6))])
    t = np.fmin(np.fmax(t, 0.0), 1.0)
    zero = np.zeros_like(d1)
    edge_u, edge_v = np.array([t[0], zero, 1.0 - t[2]]), np.array([zero, t[1], t[2]])
    gap = a + ab * edge_u[..., None] + ac * edge_v[..., None] - p
    nearest = np.argmin(np.einsum("eij,eij->ei", gap, gap), axis=0), np.arange(len(d1))
    inside = (va > 0) & (vb > 0) & (vc > 0)
    u = np.where(inside, foot_u, edge_u[nearest])
    v = np.where(inside, foot_v, edge_v[nearest])
    pts = a + ab * u[:, None] + ac * v[:, None]
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    return pts, bary
