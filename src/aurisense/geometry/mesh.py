"""Triangle surface mesh container and geometric queries.

Coordinates are millimeters throughout; no unit autodetection is done.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from ..errors import EmptyMeshError, MeshFormatError, ParameterError

DEGENERATE_AREA = 1e-12  # mm^2; faces below this are dropped with a warning


def _pattern(rows, cols, n_rows, n_cols=None) -> sp.csr_array:
    """Boolean CSR array with entries (rows[i], cols[i]), sorted by row, then column."""
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    return sp.csr_array((np.ones(cols.size, dtype=bool), cols.astype(np.int64), indptr),
                        shape=(n_rows, n_rows if n_cols is None else n_cols))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort; on int64 keys numpy 2.4's hash-based
    unique is about 20 times slower."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


class SurfaceMesh:
    """Validated triangle mesh with cached per-vertex unit normals.

    Immutable after construction: the vertex/face arrays are marked
    read-only so instances can be shared freely across threads.  The
    topology queries return boolean ``scipy.sparse.csr_array`` patterns
    with sorted indices; the vertex and face adjacencies are built from
    the face edges on first use and cached.

    Parameters
    ----------
    vertices : (V, 3) float array, mm
    faces : (F, 3) int array of vertex indices

    Faces with area < 1e-12 mm^2 are dropped with a warning: scan-derived
    meshes commonly contain slivers.
    """

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

        areas = _face_areas(vertices, faces)
        degenerate = areas < DEGENERATE_AREA
        if degenerate.any():
            warnings.warn(
                f"dropping {int(degenerate.sum())} degenerate faces "
                f"(area < {DEGENERATE_AREA} mm^2)",
                stacklevel=2,
            )
            faces = faces[~degenerate]
            areas = areas[~degenerate]
            if faces.shape[0] == 0:
                raise EmptyMeshError("all faces were degenerate")

        self.vertices = vertices
        self.faces = faces
        self.face_areas = areas
        self.face_normals = self._compute_face_normals()
        self.vertex_normals = self._compute_vertex_normals()
        for arr in (self.vertices, self.faces, self.face_areas,
                    self.face_normals, self.vertex_normals):
            arr.flags.writeable = False
        self._adjacency = None
        self._face_adjacency = None

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
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bounding_diagonal(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def _compute_face_normals(self) -> np.ndarray:
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        n = np.cross(b - a, c - a)
        norm = np.linalg.norm(n, axis=1)
        return n / norm[:, None]

    def _compute_vertex_normals(self) -> np.ndarray:
        """Area-weighted average of incident face normals, unit length.

        Vertices not referenced by any face (possible after degenerate-face
        dropping) get an arbitrary unit normal so the unit-length invariant
        holds everywhere.
        """
        vn = np.zeros_like(self.vertices)
        weighted = self.face_normals * self.face_areas[:, None]
        for k in range(3):
            np.add.at(vn, self.faces[:, k], weighted)
        norm = np.linalg.norm(vn, axis=1)
        orphan = norm < 1e-300
        vn[orphan] = (0.0, 0.0, 1.0)
        norm[orphan] = 1.0
        return vn / norm[:, None]

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _edge_keys(self) -> np.ndarray:
        """Key ``lo * V + hi`` of each face's three edges, in face order."""
        i, j = self.faces.ravel(), self.faces[:, [1, 2, 0]].ravel()
        return np.minimum(i, j) * self.n_vertices + np.maximum(i, j)

    def vertex_adjacency(self) -> sp.csr_array:
        """(V, V) boolean CSR array; row i holds the sorted 1-ring of vertex i."""
        if self._adjacency is None:
            n = self.n_vertices
            lo, hi = np.divmod(self._edge_keys(), n)
            keys = _sorted_unique(np.concatenate([lo * n + hi, hi * n + lo]))
            self._adjacency = _pattern(*np.divmod(keys, n), n)
        return self._adjacency

    def face_adjacency(self) -> sp.csr_array:
        """(F, F) boolean CSR array; row f holds the sorted faces sharing an edge with f."""
        if self._face_adjacency is None:
            nf = self.n_faces
            edge = self._edge_keys()
            order = np.argsort(edge, kind="stable")
            edge, face = edge[order], order // 3
            # the faces of one edge are adjacent in edge order; pairing each
            # with the ones d places on pairs them all (d > 1 on non-manifold edges)
            src, dst = [face[:0]], [face[:0]]
            for d in range(1, edge.size):
                same = edge[d:] == edge[:-d]
                if not same.any():
                    break
                src += [face[:-d][same], face[d:][same]]
                dst += [face[d:][same], face[:-d][same]]
            keys = _sorted_unique(np.concatenate(src) * nf + np.concatenate(dst))
            self._face_adjacency = _pattern(*np.divmod(keys, nf), nf)
        return self._face_adjacency

    def k_rings(self, vertices, k: int) -> sp.csr_array:
        """(Q, V) boolean CSR array; row r holds the sorted vertices within k
        edge hops of ``vertices[r]``, that vertex itself excluded."""
        query = np.asarray(vertices, dtype=np.int64).reshape(-1)
        if query.size and (query.min() < 0 or query.max() >= self.n_vertices):
            raise ParameterError("vertex indices must lie in [0, n_vertices)")
        adj = self.vertex_adjacency()
        n = self.n_vertices
        rows, cols = np.arange(query.size), query
        keys = rows * n + cols
        # each hop adds the neighbours of everything reached so far, kept
        # as sorted unique keys row * V + vertex
        for _ in range(k):
            lo = adj.indptr[cols]
            count = adj.indptr[cols + 1] - lo
            nbr = adj.indices[np.repeat(lo - np.cumsum(count) + count, count)
                              + np.arange(count.sum())]
            keys = _sorted_unique(np.concatenate([keys, np.repeat(rows, count) * n + nbr]))
            rows, cols = np.divmod(keys, n)
        keep = cols != query[rows]
        return _pattern(rows[keep], cols[keep], query.size, n)

    def k_ring(self, vertex: int, k: int) -> np.ndarray:
        """Sorted vertex indices within k edge hops of ``vertex`` (itself excluded)."""
        return self.k_rings([vertex], k).indices

    # ------------------------------------------------------------------
    # closest-point queries
    # ------------------------------------------------------------------
    def closest_point(self, point):
        """Closest point on the surface to ``point``.

        Returns (position, face index, barycentric coords, distance).
        Brute force over faces, fully vectorized; fine for the mesh sizes
        this package targets.
        """
        p = np.asarray(point, dtype=np.float64)
        pts, bary = closest_point_on_triangles(
            p,
            self.vertices[self.faces[:, 0]],
            self.vertices[self.faces[:, 1]],
            self.vertices[self.faces[:, 2]],
        )
        d2 = np.einsum("ij,ij->i", pts - p, pts - p)
        fi = int(np.argmin(d2))
        return pts[fi], fi, bary[fi], float(np.sqrt(d2[fi]))

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
