"""Correlation and repeatability statistics.

P-values come from a seeded two-sided permutation test rather than the
t-distribution closed form: it needs no special functions and is honest in
the small-sample regime these comparisons live in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ParameterError, UndefinedCorrelationError
from ..seeding import spawn_rng

# verdict rule: uncorrelated iff p > 0.05 or |PCC| < 0.4
P_THRESHOLD = 0.05
PCC_THRESHOLD = 0.4
# permutations drawn and scored per array pass in ``correlation``
PERM_BLOCK = 1024


@dataclass(frozen=True)
class CorrelationResult:
    pcc: float
    p_value: float
    n: int
    correlated: bool

    def to_json_obj(self) -> dict:
        return {
            "pcc": float(self.pcc),
            "p_value": float(self.p_value),
            "n": int(self.n),
            "verdict": "correlated" if self.correlated else "uncorrelated",
        }


def pearson(x, y) -> float:
    """Plain product-moment correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in an input")
    return float((xc * yc).sum() / (sx * sy))


def correlation(x, y, n_perm: int = 10000, seed: int = 0) -> CorrelationResult:
    """PCC with a two-sided seeded permutation p-value.

    p = (1 + #{|r_perm| >= |r_obs|}) / (n_perm + 1); the smallest reachable
    p is therefore 1/(n_perm + 1).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("x and y must be 1-D of equal length")
    if x.size < 3:
        raise ParameterError("need at least 3 samples")
    r_obs = pearson(x, y)
    rng = spawn_rng(seed)
    xc = x - x.mean()
    sx = np.sqrt((xc * xc).sum())
    hits = 0
    for start in range(0, n_perm, PERM_BLOCK):
        # permuting the rows of a tile in turn draws the same stream as
        # repeated rng.permutation(y)
        yp = rng.permuted(np.tile(y, (min(PERM_BLOCK, n_perm - start), 1)),
                          axis=1)
        yc = yp - yp.mean(axis=1, keepdims=True)
        sy = np.sqrt((yc * yc).sum(axis=1))
        r = (xc * yc).sum(axis=1) / (sx * sy)
        hits += int(np.count_nonzero(np.abs(r) >= abs(r_obs) - 1e-12))
    p = (1 + hits) / (n_perm + 1)
    correlated = (p <= P_THRESHOLD) and (abs(r_obs) >= PCC_THRESHOLD)
    return CorrelationResult(pcc=r_obs, p_value=p, n=int(x.size), correlated=correlated)


@dataclass(frozen=True)
class RepeatabilityReport:
    per_ap_cv: np.ndarray
    mean_cv: float

    def __post_init__(self):
        self.per_ap_cv.flags.writeable = False


def repeatability_cv(replicates) -> RepeatabilityReport:
    """Per-AP coefficient of variation over repeated measurements.

    ``replicates`` is (R, N): R repeated scans of N APs.  CV is the sample
    standard deviation (ddof=1) divided by the mean, per column.
    """
    r = np.asarray(replicates, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] < 2:
        raise ParameterError("need an (R, N) matrix with R >= 2 replicates")
    means = r.mean(axis=0)
    if (means == 0).any():
        raise DomainError("zero-mean column; CV undefined")
    cv = r.std(axis=0, ddof=1) / np.abs(means)
    return RepeatabilityReport(per_ap_cv=cv, mean_cv=float(cv.mean()))


def exclude_abnormal(rows, lower: float = 0.05, upper: float = 20.0):
    """Mask of rows whose normalized AESR stays within [lower, upper].

    Rows with any entry outside the band are flagged abnormal and excluded
    from downstream statistics; returns (keep_mask, excluded_indices).
    """
    x = np.asarray(rows, dtype=np.float64)
    bad = (x < lower) | (x > upper) | ~np.isfinite(x)
    keep = ~bad.any(axis=1)
    return keep, np.where(~keep)[0]
