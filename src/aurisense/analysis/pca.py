"""Principal component analysis via singular value decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError


@dataclass(frozen=True)
class PCAResult:
    scores: np.ndarray            # (M, k) projections of the centered data
    components: np.ndarray        # (k, N) orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,), non-increasing, sum <= 1
    mean: np.ndarray              # (N,) column means removed before the SVD

    def __post_init__(self):
        for arr in (self.scores, self.components,
                    self.explained_variance_ratio, self.mean):
            arr.flags.writeable = False


def pca(matrix, k: int) -> PCAResult:
    """Top-``k`` principal components of the row-datasets in ``matrix``.

    Rows are centered, not scaled: AESR rows arrive already
    ratio-normalized.  Rank-deficient data is fine, trailing components
    just explain zero variance.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise ParameterError("matrix must be 2-D")
    m, n = x.shape
    if m < 2:
        raise ParameterError("need at least 2 rows")
    if not 1 <= k <= min(m - 1, n):
        raise ParameterError(f"k must be in [1, min(M-1, N)] = [1, {min(m - 1, n)}]")
    mean = x.mean(axis=0)
    u, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    # deterministic sign: largest-|.| entry of each component positive
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
            u[:, i] = -u[:, i]
    var = s ** 2
    total = var.sum()
    ratios = var / total if total > 0 else np.zeros_like(var)
    return PCAResult(
        scores=(u[:, :k] * s[:k]),
        components=vt[:k].copy(),
        explained_variance_ratio=ratios[:k].copy(),
        mean=mean,
    )
