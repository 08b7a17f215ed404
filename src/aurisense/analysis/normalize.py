"""Spatial (reference-AP) and temporal (baseline-period) normalization."""

from __future__ import annotations

import numpy as np

from ..acquisition import SessionRecord
from ..errors import DomainError


def normalize_spatial(rows) -> np.ndarray:
    """Divide an AP vector, or each row of a matrix of them, by AP1."""
    rows = np.asarray(rows, dtype=np.float64)
    if (rows <= 0).any():
        raise DomainError("spatial normalization needs strictly positive entries")
    return rows / rows[..., :1]


def normalize_temporal(session: SessionRecord) -> np.ndarray:
    """Divide each period's AP vector by period I; returns a (4, N) array."""
    baseline = session.aesr[0]
    if (baseline <= 0).any():
        raise DomainError("temporal normalization needs a positive baseline period")
    return session.aesr / baseline[None, :]
