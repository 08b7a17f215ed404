import numpy as np
import pytest
from hypothesis import settings

from aurisense.geometry.primitives import (
    make_bumpy_plane,
    make_cylinder,
    make_icosphere,
    make_plane_grid,
)

# every run draws the same @given examples and stores none, so a failing run
# can be repeated from its test id alone
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def plane_fine():
    # 0.3 mm edges: satisfies edge <= D/10 for the 3 mm pathway oracles
    return make_plane_grid(extent=20.0, spacing=0.3)


@pytest.fixture(scope="session")
def plane_coarse():
    return make_plane_grid(extent=20.0, spacing=1.0)


@pytest.fixture(scope="session")
def icosphere_unit():
    return make_icosphere(subdivisions=3, radius=1.0)


@pytest.fixture(scope="session")
def icosphere_r10():
    return make_icosphere(subdivisions=5, radius=10.0)


@pytest.fixture(scope="session")
def cylinder_r2():
    return make_cylinder(radius=2.0, height=12.0, n_theta=64, n_z=24)


@pytest.fixture(scope="session")
def bumpy():
    return make_bumpy_plane(extent=30.0, spacing=0.4, amplitude=2.0, wavelength=12.0)


def adjusted_rand_index(truth, pred):
    """Independent ARI oracle used only by the tests."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n = truth.size

    def comb2(x):
        return x * (x - 1) / 2.0

    pair_counts = {}
    for t, p in zip(truth, pred):
        pair_counts[(t, p)] = pair_counts.get((t, p), 0) + 1
    sum_ij = sum(comb2(v) for v in pair_counts.values())
    a_counts = {}
    b_counts = {}
    for t in truth:
        a_counts[t] = a_counts.get(t, 0) + 1
    for p in pred:
        b_counts[p] = b_counts.get(p, 0) + 1
    sum_a = sum(comb2(v) for v in a_counts.values())
    sum_b = sum(comb2(v) for v in b_counts.values())
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)
