"""Synthetic meshes: plane grids, icospheres, cylinders, bumpy reliefs.

Used by the test-suite oracles and by the benchmark's set-up, which builds
its ears with ``make_bumpy_plane``; all generators are deterministic and
produce outward-consistent winding.
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh


def make_plane_grid(extent: float = 20.0, spacing: float = 1.0,
                    center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Square grid in the z-plane, normals +z, side length ``extent`` mm."""
    gx, gy, faces = _square_grid(extent, spacing)
    vertices = np.stack([gx, gy, np.zeros(gx.size)], axis=1)
    vertices += np.asarray(center, dtype=np.float64)
    return SurfaceMesh(vertices, faces)


def make_bumpy_plane(extent: float = 30.0, spacing: float = 0.5,
                     amplitude: float = 2.0, wavelength: float = 12.0) -> SurfaceMesh:
    """Plane with a smooth sinusoidal relief; curvature varies across it."""
    gx, gy, faces = _square_grid(extent, spacing)
    k = 2.0 * np.pi / wavelength
    gz = amplitude * np.sin(k * gx) * np.cos(k * gy)
    return SurfaceMesh(np.stack([gx, gy, gz], axis=1), faces)


def _square_grid(extent: float, spacing: float):
    """x and y of the vertices, x-major, and the faces of a square grid of
    side ``extent`` mm about the origin; faces are CCW seen from +z."""
    n = max(int(round(extent / spacing)), 1)
    xs = np.linspace(-extent / 2, extent / 2, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    v00 = np.arange(n)[:, None] * (n + 1) + np.arange(n)
    return gx.ravel(), gy.ravel(), _quads(v00, v00 + n + 1, v00 + n + 2, v00 + 1)


def _quads(a, b, c, d) -> np.ndarray:
    """Triangles (a, b, c) and (a, c, d) of each quad with corners a, b, c, d
    in winding order, quad by quad in the order of the corner arrays."""
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


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
