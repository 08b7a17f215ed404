"""Synthetic meshes for the test oracles: plane grids, icospheres and open
cylinders.  All are deterministic and produce outward-consistent winding;
the bumpy relief that the benchmark also builds stays in
``aurisense.geometry.primitives``.
"""

import numpy as np

from aurisense.geometry.mesh import SurfaceMesh
from aurisense.geometry.primitives import _quads, _square_grid


def make_plane_grid(extent: float = 20.0, spacing: float = 1.0,
                    center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Square grid in the z-plane, normals +z, side length ``extent`` mm."""
    gx, gy, faces = _square_grid(extent, spacing)
    vertices = np.stack([gx, gy, np.zeros(gx.size)], axis=1)
    vertices += np.asarray(center, dtype=np.float64)
    return SurfaceMesh(vertices, faces)


def make_icosphere(subdivisions: int = 3, radius: float = 1.0,
                   center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Unit icosahedron subdivided ``subdivisions`` times, projected to the sphere.

    Vertex/face counts: V = 10 * 4^s + 2, F = 20 * 4^s.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    midpoint_cache: dict = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint_cache:
            m = np.asarray(verts[i]) + np.asarray(verts[j])
            m /= np.linalg.norm(m)
            verts.append(tuple(m))
            midpoint_cache[key] = len(verts) - 1
        return midpoint_cache[key]

    for _ in range(subdivisions):
        new_faces = []
        for i, j, k in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces

    vertices = np.asarray(verts) * radius + np.asarray(center, dtype=np.float64)
    return SurfaceMesh(vertices, np.asarray(faces, dtype=np.int64))


def make_cylinder(radius: float = 2.0, height: float = 10.0,
                  n_theta: int = 48, n_z: int = 20) -> SurfaceMesh:
    """Open cylinder about the z axis (no caps), outward normals."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    zs = np.linspace(-height / 2, height / 2, n_z + 1)
    th = np.tile(thetas, n_z + 1)
    vertices = np.stack([radius * np.cos(th), radius * np.sin(th),
                         np.repeat(zs, n_theta)], axis=1)
    ring = n_theta * np.arange(n_z)[:, None]
    v00 = ring + np.arange(n_theta)
    v01 = ring + (np.arange(n_theta) + 1) % n_theta
    return SurfaceMesh(vertices, _quads(v00, v01, v01 + n_theta, v00 + n_theta))
