"""Synthetic meshes: the bumpy relief that the benchmark's set-up builds its
ears with, on a square grid of split quads that the test-suite's plane
grids and cylinders are built from too.  The generator is deterministic
and produces outward-consistent winding.
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh


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
