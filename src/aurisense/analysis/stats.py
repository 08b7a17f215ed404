"""Correlation statistics: Pearson's r with a permutation p-value.

P-values come from a seeded two-sided permutation test rather than the
t-distribution closed form: it needs no special functions and is honest in
the small-sample regime these comparisons live in.  The permutations depend
only on the seed and the sample count: every test with the same seed and n
scores the same shuffles, so a process draws them once and reuses them.

A shuffle leaves y's mean and norm unchanged, so only the cross term moves:
y is centred once and permutation pi scores ``yc[pi] @ xc / (sx * sy)``.
``correlation`` scores ``PERM_BLOCK`` shuffles per gather and matrix-vector
product, so its temporaries are bounded by one block, whatever ``n_perm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ParameterError, UndefinedCorrelationError
from ..seeding import is_whole, spawn_rng

# verdict rule: uncorrelated iff p > 0.05 or |PCC| < 0.4
P_THRESHOLD = 0.05
PCC_THRESHOLD = 0.4
# shuffles drawn per tile in ``_permutations`` and scored per gather in
# ``correlation``: a block's intp indices and gathered yc take 8·n bytes per
# row.  In a fresh process on one Xeon core, one n = 80, 10 000-shuffle test
# took 2.1-2.5 ms in blocks of 256 against 6.1-7.9 ms in blocks of 1024
PERM_BLOCK = 256


@dataclass(frozen=True)
class CorrelationResult:
    pcc: float
    p_value: float
    n: int
    correlated: bool


def _centred(x, y):
    """Centred float64 copies of finite, 1-D x and y of equal length >= 3,
    with their Euclidean norms."""
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
    return xc, yc, sx, sy


def pearson(x, y) -> float:
    """Plain product-moment correlation coefficient of finite, 1-D x and y
    of equal length >= 3."""
    xc, yc, sx, sy = _centred(x, y)
    return float((xc * yc).sum() / (sx * sy))


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
    if not (is_whole(n_perm) and is_whole(seed)):
        raise ParameterError("n_perm and seed must be integers >= 0")
    xc, yc, sx, sy = _centred(x, y)
    r_obs = float((xc * yc).sum() / (sx * sy))
    perms = _permutations(int(seed), xc.size, int(n_perm))
    hits = 0
    for start in range(0, n_perm, PERM_BLOCK):
        # intp indices gather about three times faster than the cached uint8
        r = yc[perms[start:start + PERM_BLOCK].astype(np.intp)] @ xc / (sx * sy)
        hits += int(np.count_nonzero(np.abs(r) >= abs(r_obs) - 1e-12))
    p = (1 + hits) / (n_perm + 1)
    correlated = (p <= P_THRESHOLD) and (abs(r_obs) >= PCC_THRESHOLD)
    return CorrelationResult(pcc=r_obs, p_value=p, n=int(xc.size), correlated=correlated)

