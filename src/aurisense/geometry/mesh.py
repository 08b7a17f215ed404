"""Triangle surface mesh container and geometric queries.

Coordinates are millimeters throughout; no unit autodetection is done.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

import numpy as np

from ..errors import EmptyMeshError, MeshFormatError, ParameterError
from ..seeding import is_whole

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


def _edge_sharing(inc) -> sp.csr_array:
    """(R, R) boolean CSR pattern of the rows of the (R, V) face-vertex
    incidence ``inc`` that share two corners, an edge, on a non-manifold
    edge too; the diagonal is left out."""
    # counts fit int8, as two faces share at most 3 corners
    inc = inc.astype(np.int8)
    shared = inc @ inc.T
    # in place: `shared >= 2` would sort every entry first; dropping the
    # pairs with one shared corner shrinks what `_without_own` scans
    shared.data = shared.data >= 2
    shared.eliminate_zeros()
    return _without_own(shared, np.arange(inc.shape[0]))


def _face_cross(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) of each face (a, b, c): its normal times twice its area."""
    a = vertices[faces[:, 0]]
    ab = vertices[faces[:, 1]]
    ab -= a
    ac = vertices[faces[:, 2]]
    ac -= a
    return np.cross(ab, ac)


class SurfaceMesh:
    """Validated triangle mesh with cached per-vertex unit normals.

    Immutable after construction: the vertex/face arrays are marked
    read-only so instances can be shared freely across threads.  The
    topology queries return boolean ``scipy.sparse.csr_array`` patterns
    with sorted indices, all derived from the boolean (F, V) face-vertex
    incidence Inc, which is built on first use and cached with its
    transpose, both O(F).  A k-ring is k hops from vertices to their faces
    and back, ``reach + (reach @ Inc.T) @ Inc``; ``face_adjacency_among`` pairs
    the given faces that share two corners, from ``Inc[faces]`` alone.  So
    the curvature fit and the electrode solve touch only the incidence rows
    they use.  The mesh-wide (V, V) and (F, F) adjacencies are built on
    first use and cached, for callers that want the whole mesh.

    Parameters
    ----------
    vertices : (V, 3) float array, mm
    faces : (F, 3) int array of vertex indices

    Faces with area < 1e-12 mm^2 are dropped with a warning: scan-derived
    meshes commonly contain slivers.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflow is caught below
    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshFormatError("vertices must be an (V, 3) array")
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshFormatError("faces must be an (F, 3) array")
        if vertices.shape[0] == 0 or faces.shape[0] == 0:
            raise EmptyMeshError("mesh has no vertices or no faces")
        if not np.isfinite(vertices).all():
            raise MeshFormatError("non-finite vertex coordinates")
        if faces.min() < 0 or faces.max() >= vertices.shape[0]:
            raise MeshFormatError("face references an out-of-range vertex index")

        cross = _face_cross(vertices, faces)
        norm = np.linalg.norm(cross, axis=1)
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
        self.face_normals = cross / norm[:, None]
        self.vertex_normals = self._compute_vertex_normals()
        if not all(np.isfinite(a).all() for a in (areas, self.face_normals,
                                                   self.vertex_normals)):
            raise MeshFormatError("face areas or normals are not finite; "
                                  "the coordinates are too large")
        for arr in (self.vertices, self.faces, self.face_areas,
                    self.face_normals, self.vertex_normals):
            arr.flags.writeable = False
        self._incidence = None
        self._adjacency = None
        self._face_adjacency = None
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
        weighted = self.face_normals * self.face_areas[:, None]
        vn = np.stack([np.bincount(corners, np.tile(weighted[:, j], 3), self.n_vertices)
                       for j in range(3)], axis=1)
        norm = np.linalg.norm(vn, axis=1)
        orphan = norm < 1e-300
        vn[orphan] = (0.0, 0.0, 1.0)
        norm[orphan] = 1.0
        return vn / norm[:, None]

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
        if self._adjacency is None:
            # two vertices are adjacent when some face holds both
            inc, inc_t = self._incidences()
            self._adjacency = _without_own(inc_t @ inc, np.arange(self.n_vertices))
        return self._adjacency

    def face_adjacency(self) -> sp.csr_array:
        """(F, F) boolean CSR array; row f holds the sorted faces sharing an edge with f."""
        if self._face_adjacency is None:
            self._face_adjacency = _edge_sharing(self._incidences()[0])
        return self._face_adjacency

    def face_adjacency_among(self, faces) -> sp.csr_array:
        """(R, R) boolean CSR array over the R distinct face indices
        ``faces``: row r holds the sorted positions in ``faces`` of the faces
        sharing an edge with ``faces[r]``.  The pattern of
        ``face_adjacency()[faces][:, faces]``, built from those faces'
        incidence rows alone."""
        return _edge_sharing(self._incidences()[0][faces])

    def k_rings(self, vertices, k: int) -> sp.csr_array:
        """(Q, V) boolean CSR array; row r holds the sorted vertices within k
        edge hops of ``vertices[r]``, that vertex itself excluded."""
        if not is_whole(k):
            raise ParameterError("k must be an integer >= 0")
        query = np.asarray(vertices, dtype=np.int64).reshape(-1)
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
            corners = [self.vertices[self.faces[:, j]] for j in range(3)]
            centroids = sum(corners) / 3.0
            radii = np.sqrt(np.maximum.reduce(
                [np.einsum("ij,ij->i", q - centroids, q - centroids) for q in corners]))
            radii += _SPHERE_PAD * np.abs(self.vertices).max()
            for arr in (centroids, radii):
                arr.flags.writeable = False
            self._spheres = centroids, radii
        return self._spheres

    def closest_point(self, point):
        """Closest point on the surface to ``point``.

        Returns (position, face index, barycentric coords, distance); the
        position and barycentrics own their data.  Exact and equal, bit for bit,
        to the Ericson kernel over every face with ties to the lowest face
        index, but the kernel runs only on the faces the bounding spheres
        cannot rule out: every face lies at least |point - centroid| - radius
        away, and at most |point - centroid| since the centroid lies on it,
        so only the faces whose lower bound is within the nearest centroid's
        distance (padded for rounding) are searched, in index order.
        """
        p = np.asarray(point, dtype=np.float64)
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

    Vectorized form of the classic Ericson region test.  Returns the
    closest points (F, 3) and their barycentric coordinates (F, 3).
    """
    ab = b - a
    ac = c - a
    ap = p - a

    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    n = a.shape[0]
    u = np.empty(n)
    v = np.empty(n)
    # interior case by default
    denom = va + vb + vc
    safe = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    u[:] = vb / safe
    v[:] = vc / safe

    # vertex regions
    reg_a = (d1 <= 0) & (d2 <= 0)
    reg_b = (d3 >= 0) & (d4 <= d3)
    reg_c = (d6 >= 0) & (d5 <= d6)
    # edge regions
    denom_ab = np.where(np.abs(d1 - d3) < 1e-300, 1.0, d1 - d3)
    t_ab = d1 / denom_ab
    reg_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom_ac = np.where(np.abs(d2 - d6) < 1e-300, 1.0, d2 - d6)
    t_ac = d2 / denom_ac
    reg_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom_bc = np.where(np.abs((d4 - d3) + (d5 - d6)) < 1e-300, 1.0, (d4 - d3) + (d5 - d6))
    t_bc = (d4 - d3) / denom_bc
    reg_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    u = np.where(reg_bc, 1.0 - t_bc, u)
    v = np.where(reg_bc, t_bc, v)
    u = np.where(reg_ac, 0.0, u)
    v = np.where(reg_ac, t_ac, v)
    u = np.where(reg_ab, t_ab, u)
    v = np.where(reg_ab, 0.0, v)
    u = np.where(reg_c, 0.0, u)
    v = np.where(reg_c, 1.0, v)
    u = np.where(reg_b, 1.0, u)
    v = np.where(reg_b, 0.0, v)
    u = np.where(reg_a, 0.0, u)
    v = np.where(reg_a, 0.0, v)

    u = np.clip(u, 0.0, 1.0)
    v = np.clip(v, 0.0, 1.0)
    over = u + v > 1.0
    scale = np.where(over, u + v, 1.0)
    u = u / scale
    v = v / scale

    pts = a + ab * u[:, None] + ac * v[:, None]
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    return pts, bary
