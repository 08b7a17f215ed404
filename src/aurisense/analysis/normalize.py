"""Spatial (reference-AP) normalization."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def normalize_spatial(rows) -> np.ndarray:
    """Divide an AP vector, or each row of a matrix of them, by AP1."""
    rows = np.asarray(rows, dtype=np.float64)
    if (rows <= 0).any():
        raise DomainError("spatial normalization needs strictly positive entries")
    return rows / rows[..., :1]

