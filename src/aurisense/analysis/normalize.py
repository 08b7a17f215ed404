"""Spatial (reference-AP) normalization."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


@np.errstate(over="ignore")  # an overflowing ratio is caught below
def normalize_spatial(rows) -> np.ndarray:
    """Divide an AP vector, or each row of a matrix of them, by AP1.

    Raises ``DomainError`` for an entry that is not positive or a ratio
    that is not finite."""
    rows = np.asarray(rows, dtype=np.float64)
    if (rows <= 0).any():
        raise DomainError("spatial normalization needs strictly positive entries")
    ratios = rows / rows[..., :1]
    if not np.isfinite(ratios).all():
        raise DomainError("a ratio to AP1 is not a finite float64")
    return ratios

