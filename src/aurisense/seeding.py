"""Deterministic seed derivation, and the integer rule every seed and count follows.

All randomness in the simulators flows from one integer seed.  Sub-streams
(per ear, per restart, ...) are derived with a counter-based
``SeedSequence`` split keyed on an integer path, so that work items can be
generated in any order, or in parallel, and still match a sequential run
bit for bit.
"""

import numpy as np

from .errors import ParameterError


def is_whole(v) -> bool:
    """The package's one integer rule for seeds and counts: a Python or
    numpy integer >= 0.  A bool, a float and a numeric string are not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``path`` under ``seed`` (>= 0)."""
    if not is_whole(seed):
        raise ParameterError("seed must be an integer >= 0")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
