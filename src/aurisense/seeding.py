"""Deterministic seed derivation, and the integer rules every seed, count and index follows.

All randomness flows from one integer seed.  ``spawn_rng`` names a stream
by an integer path under it (a ``SeedSequence`` spawn key); a path exists
only where one kind of draw must not shift another.  k-means restart r
draws from (r,), the same values whatever other restarts run beside it, and
``cluster_pipeline`` seeds the k-means of each K from (K,); a cohort pairs
its ears from (0,) and draws their noise from (1,); a session draws from
(), and its subject's trait from (7,) under the subject's CRC-32; a
correlation test draws its permutation table from ().
"""

import numpy as np

from .errors import ParameterError


def is_whole(v) -> bool:
    """The package's one integer rule for seeds and counts: a Python or
    numpy integer >= 0.  A bool, a float and a numeric string are not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


def whole_indices(values, error, what: str) -> np.ndarray:
    """``values`` as an int64 array of indices, each of them a whole number:
    an integer dtype, or floats equal to integers.  A fraction, NaN, a
    float past int64, a bool or any other dtype raises ``error``."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and floats past int64 fail the test below
        ints = values.astype(np.int64) if values.dtype.kind == "f" else None
    if ints is None or not np.array_equal(ints, values):
        raise error(f"{what} must be integers")
    return ints


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``path`` under ``seed`` (>= 0)."""
    if not is_whole(seed):
        raise ParameterError("seed must be an integer >= 0")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
