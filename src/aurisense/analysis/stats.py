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
# shuffles scored per gather in ``correlation``: a block's intp indices and
# gathered yc take 8·n bytes per row.  On one Xeon core, a fresh process's
# n = 80, 10 000-shuffle test took 2.1-2.5 ms in blocks of 256, 6.1-7.9 in 1024
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


@lru_cache(maxsize=1)
def _permutations(seed: int, n: int, n_perm: int) -> np.ndarray:
    """Read-only (n_perm, n) array whose rows are the test's index shuffles.

    One in-place ``permuted`` of the tiled ``arange(n)`` shuffles its rows
    in turn, as repeated ``rng.permutation(n)`` would, and a shuffle depends
    only on that stream and on n, so ``y[perms]`` holds the permutations of
    any y of length n.  The indices take the smallest unsigned dtype that
    holds n - 1: one byte each up to n = 256.
    """
    perms = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), (n_perm, 1))
    spawn_rng(seed).permuted(perms, axis=1, out=perms)
    perms.flags.writeable = False
    return perms


def correlation(x, y, n_perm: int = 10000, seed: int = 0) -> CorrelationResult:
    """PCC with a two-sided seeded permutation p-value.

    r_obs = sum(xc * yc) / (|xc| |yc|) of the centred inputs, and p = (1 +
    #{|r_perm| >= |r_obs|}) / (n_perm + 1); the smallest reachable p is
    therefore 1/(n_perm + 1).  x and y are finite, 1-D and of equal length
    >= 3, as ``_centred`` checks; ``n_perm`` and ``seed`` are integers >= 0.
    """
    if not (is_whole(n_perm) and is_whole(seed)):
        raise ParameterError("n_perm and seed must be integers >= 0")
    xc, yc, sx, sy = _centred(x, y)
    r_obs = float((xc * yc).sum() / (sx * sy))
    perms = _permutations(int(seed), xc.size, int(n_perm))
    hits = 0
    for start in range(0, n_perm, PERM_BLOCK):
        # take gathers by the cached uint8 indices; on one Xeon core at n = 20
        # it ran 2.5x as fast as yc[...] by them, 1.1x as by an intp copy
        r = yc.take(perms[start:start + PERM_BLOCK]) @ xc / (sx * sy)
        hits += int(np.count_nonzero(np.abs(r) >= abs(r_obs) - 1e-12))
    p = (1 + hits) / (n_perm + 1)
    correlated = (p <= P_THRESHOLD) and (abs(r_obs) >= PCC_THRESHOLD)
    return CorrelationResult(pcc=r_obs, p_value=p, n=int(xc.size), correlated=correlated)

