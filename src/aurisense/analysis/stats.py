"""Correlation and repeatability statistics.

P-values come from a seeded two-sided permutation test rather than the
t-distribution closed form: it needs no special functions and is honest in
the small-sample regime these comparisons live in.  The permutations depend
only on the seed and the sample count: every test with the same seed and n
scores the same shuffles, so a process draws them once and reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """Plain product-moment correlation coefficient of finite, 1-D x and y
    of equal length >= 3."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("x and y must be 1-D of equal length")
    if x.size < 3:
        raise ParameterError("need at least 3 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("x and y must be finite")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in an input")
    return float((xc * yc).sum() / (sx * sy))


def _is_whole(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


@lru_cache(maxsize=1)
def _permutations(seed: int, n: int, n_perm: int) -> np.ndarray:
    """Read-only (n_perm, n) array whose rows are the test's index shuffles.

    Permuting the rows of a tile in turn draws the same stream as repeated
    ``rng.permutation(n)``, and a shuffle depends only on that stream and on
    n, so ``y[perms]`` holds the permutations of any y of length n.  The
    indices take the smallest unsigned dtype that holds n - 1: one byte each
    up to n = 256.
    """
    rng = spawn_rng(seed)
    perms = np.empty((n_perm, n), dtype=np.min_scalar_type(n - 1))
    for start in range(0, n_perm, PERM_BLOCK):
        rows = min(PERM_BLOCK, n_perm - start)
        perms[start:start + rows] = rng.permuted(
            np.tile(np.arange(n, dtype=perms.dtype), (rows, 1)), axis=1)
    perms.flags.writeable = False
    return perms


def correlation(x, y, n_perm: int = 10000, seed: int = 0) -> CorrelationResult:
    """PCC with a two-sided seeded permutation p-value.

    p = (1 + #{|r_perm| >= |r_obs|}) / (n_perm + 1); the smallest reachable
    p is therefore 1/(n_perm + 1).  x and y are finite, 1-D and of equal
    length >= 3, as ``pearson`` checks; ``n_perm`` and ``seed`` are
    integers >= 0.
    """
    if not (_is_whole(n_perm) and _is_whole(seed)):
        raise ParameterError("n_perm and seed must be integers >= 0")
    r_obs = pearson(x, y)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    perms = _permutations(int(seed), x.size, int(n_perm))
    xc = x - x.mean()
    sx = np.sqrt((xc * xc).sum())
    hits = 0
    for start in range(0, n_perm, PERM_BLOCK):
        yp = y[perms[start:start + PERM_BLOCK]]
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
