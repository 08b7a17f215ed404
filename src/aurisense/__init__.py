"""Auricular sensing toolkit.

Curvature-aware electrode sensing-area design on triangle meshes, a
deterministic simulator of AESR cohorts and exercise sessions, and the
spatiotemporal signal-analysis chain (normalization, contour interpolation,
PCA, k-means with elbow/silhouette, correlation statistics).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
