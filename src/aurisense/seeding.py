"""Deterministic seed derivation.

All randomness in the simulators flows from one integer seed.  Sub-streams
(per ear, per restart, ...) are derived with a counter-based
``SeedSequence`` split keyed on an integer path, so that work items can be
generated in any order, or in parallel, and still match a sequential run
bit for bit.
"""

import numpy as np

from .errors import ParameterError


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``path`` under ``seed`` (>= 0)."""
    seed = int(seed)
    if seed < 0:
        raise ParameterError("seed must be an integer >= 0")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
