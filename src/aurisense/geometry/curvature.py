"""Per-vertex principal curvature by local quadric fitting.

At each vertex the k-ring neighborhood is expressed in the tangent frame
and a height field h(u, w) = a u^2 + b u w + c w^2 + d u + e w is fitted
by least squares (ridge-stabilized normal equations).  Principal
curvatures come from the shape operator of that Monge patch; the sign
convention makes a sphere with outward normals convex-positive
(H = 1/R > 0).

The fit needs at least 5 distinct neighbors; vertices below that are
retried with progressively larger rings and flagged if they never reach
5.  Each vertex's neighborhood is a row of ``SurfaceMesh.k_rings``, and one
batched solve fits every vertex of a ring size at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..seeding import is_whole
from .mesh import SurfaceMesh

_RIDGE = 1e-10  # relative Tikhonov weight on the normal equations
_MIN_NEIGHBORS = 5
_MAX_RING_GROWTH = 3


@dataclass(frozen=True)
class CurvatureField:
    """Per-vertex curvatures in 1/mm; ``flagged`` lists unfit vertices."""

    kappa1: np.ndarray
    kappa2: np.ndarray
    mean: np.ndarray
    flagged: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        for arr in (self.kappa1, self.kappa2, self.mean, self.flagged):
            arr.flags.writeable = False


def _tangent_frames(normals: np.ndarray):
    """Orthonormal (t1, t2) spanning each tangent plane."""
    n = normals
    ref = np.zeros_like(n)
    use_x = np.abs(n[:, 0]) < 0.9
    ref[use_x, 0] = 1.0
    ref[~use_x, 1] = 1.0
    t1 = ref - (np.einsum("ij,ij->i", ref, n))[:, None] * n
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    return t1, t2


def _principal_from_coeffs(a, b, c, d, e):
    """Shape-operator eigenvalues of the Monge patch, convex-positive."""
    s = np.sqrt(1.0 + d * d + e * e)
    L = 2.0 * a / s
    M = b / s
    N = 2.0 * c / s
    E = 1.0 + d * d
    F = d * e
    G = 1.0 + e * e
    det_i = E * G - F * F
    tr = (G * L - 2.0 * F * M + E * N) / det_i
    det = (L * N - M * M) / det_i
    h = 0.5 * tr
    disc = np.sqrt(np.maximum(h * h - det, 0.0))
    # height measured along the outward normal: flip so convex is positive
    k1 = -(h - disc)
    k2 = -(h + disc)
    return k1, k2


# ----------------------------------------------------------------------
# kernel: accumulate + solve the per-vertex 5x5 normal equations
# ----------------------------------------------------------------------

def _fit_coeffs(vertices, t1, t2, normals, query, indptr, indices):
    nq = query.shape[0]
    coeffs = np.zeros((nq, 5))
    counts = np.diff(indptr)
    ok = counts >= _MIN_NEIGHBORS
    if not ok.any():
        return coeffs, ok
    # pair-expanded arrays over every (query, neighbor) edge
    qidx = np.repeat(np.arange(nq), counts)
    keep = ok[qidx]
    qidx = qidx[keep]
    nbr = indices[np.repeat(ok, counts)]
    vq = query[qidx]
    d = vertices[nbr] - vertices[vq]
    uu = np.einsum("ij,ij->i", d, t1[vq])
    ww = np.einsum("ij,ij->i", d, t2[vq])
    hh = np.einsum("ij,ij->i", d, normals[vq])
    rows = (uu * uu, uu * ww, ww * ww, uu, ww)
    # per-entry sums of the symmetric matrix: no (pairs, 5, 5) temporary
    ata = np.empty((nq, 5, 5))
    atb = np.empty((nq, 5))
    for i in range(5):
        atb[:, i] = np.bincount(qidx, weights=rows[i] * hh, minlength=nq)
        for j in range(i, 5):
            ata[:, i, j] = ata[:, j, i] = np.bincount(
                qidx, weights=rows[i] * rows[j], minlength=nq)
    trace = np.trace(ata, axis1=1, axis2=2)
    ridge = _RIDGE * trace / 5.0 + 1e-300
    ata[:, np.arange(5), np.arange(5)] += ridge[:, None]
    # explicit trailing axis: numpy >= 2 reads a 2-D b as a stack of matrices
    coeffs[ok] = np.linalg.solve(ata[ok], atb[ok][..., None])[..., 0]
    return coeffs, ok


def curvature_field(mesh: SurfaceMesh, k_ring: int = 2, vertices=None) -> CurvatureField:
    """Principal and mean curvature at every vertex, or at ``vertices`` only.

    With ``vertices`` (vertex indices) the curvature arrays follow their
    order; each value equals the full-field one, since every vertex is
    fitted on its own.  Vertices whose neighborhood is too small for the
    quadric fit are retried with rings up to ``k_ring + 3``; any survivor
    is reported (by vertex index) in ``flagged`` with curvature set to 0.
    ``SurfaceMesh.k_rings`` raises ``ParameterError`` for indices outside
    the mesh.
    """
    if not (is_whole(k_ring) and k_ring >= 1):
        raise ParameterError("k_ring must be an integer >= 1")
    if vertices is None:
        query = np.arange(mesh.n_vertices, dtype=np.int64)
    else:
        query = np.asarray(vertices, dtype=np.int64).reshape(-1)
    t1, t2 = _tangent_frames(mesh.vertex_normals)
    k1 = np.zeros(query.size)
    k2 = np.zeros(query.size)
    pending = np.arange(query.size)  # positions in query
    ring = k_ring
    while pending.size and ring <= k_ring + _MAX_RING_GROWTH:
        rings = mesh.k_rings(query[pending], ring)
        coeffs, ok = _fit_coeffs(mesh.vertices, t1, t2, mesh.vertex_normals,
                                 query[pending], rings.indptr, rings.indices)
        done = pending[ok]
        ka, kb = _principal_from_coeffs(*(coeffs[ok].T))
        k1[done] = ka
        k2[done] = kb
        pending = pending[~ok]
        ring += 1
    mean = 0.5 * (k1 + k2)
    return CurvatureField(kappa1=k1, kappa2=k2, mean=mean, flagged=query[pending])
