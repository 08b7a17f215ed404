import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aurisense.acquisition import default_cohort_config, simulate_cohort
from aurisense.analysis import cluster
from aurisense.analysis import (
    cluster_pipeline,
    concordance,
    kmeans,
    select_k_elbow,
    silhouette,
)
from aurisense.errors import LabelError, ParameterError, UndefinedSilhouetteError
from aurisense.seeding import spawn_rng
from conftest import adjusted_rand_index


def brute_force_sse(points, assignments, centers):
    """Independent summation of squared distances, point by point."""
    total = 0.0
    for x, c in zip(points, assignments):
        d = x - centers[c]
        total += float(np.dot(d, d))
    return total


def brute_force_silhouette(points, assignments):
    """Naive double-loop silhouette oracle following the three-case formula."""
    n = len(points)
    labels = list(assignments)
    out = np.zeros(n)
    clusters = sorted(set(labels))
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            out[i] = 0.0
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        b = np.inf
        for c in clusters:
            if c == labels[i]:
                continue
            other = [j for j in range(n) if labels[j] == c]
            b = min(b, np.mean([np.linalg.norm(points[i] - points[j]) for j in other]))
        if a < b:
            out[i] = 1 - a / b
        elif a == b:
            out[i] = 0.0
        else:
            out[i] = b / a - 1
    return out


def per_point_silhouette(points, labels):
    """Silhouette from the full (M, M) distance matrix, one point at a time."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("mnj,mnj->mn", diff, diff))
    s = np.zeros(points.shape[0])
    for i in range(points.shape[0]):
        same = labels == labels[i]
        n_same = int(same.sum())
        if n_same <= 1:
            continue  # singleton-cluster convention
        a = dist[i, same].sum() / (n_same - 1)
        b = min(dist[i, labels == c].mean() for c in uniq if c != labels[i])
        if a < b:
            s[i] = 1.0 - a / b
        elif a > b:
            s[i] = b / a - 1.0
    return s


def reference_kmeanspp_init(points, k, rng):
    """k-means++ seeding as first written, two einsums per center."""
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    d2 = np.einsum("ij,ij->i", points - centers[0], points - centers[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[c] = points[idx]
        alt = np.einsum("ij,ij->i", points - centers[c], points - centers[c])
        np.minimum(d2, alt, out=d2)
    return centers


def reference_assign(points, centers):
    """Assignment through an (M, K, d) difference array and an einsum."""
    diff = points[:, None, :] - centers[None, :, :]
    d2 = np.einsum("mkj,mkj->mk", diff, diff)
    labels = np.argmin(d2, axis=1)
    return labels.astype(np.int64), d2[np.arange(points.shape[0]), labels]


def reference_lloyd(points, k, rng, max_iter=300):
    """Lloyd's loop with np.add.at centre sums and a closing assignment.

    Returns (labels, centers, sse, steps, reseeds): the loop iterations and
    the assignments made to re-seed empty clusters.
    """
    centers = reference_kmeanspp_init(points, k, rng)
    prev_sse = np.inf
    steps = reseeds = 0
    for _ in range(max_iter):
        steps += 1
        labels, d2 = reference_assign(points, centers)
        counts = np.bincount(labels, minlength=k)
        for _attempt in range(k):
            if counts.all():
                break
            for c in np.flatnonzero(counts == 0):
                centers[c] = points[int(np.argmax(d2))]
                labels, d2 = reference_assign(points, centers)
                reseeds += 1
            counts = np.bincount(labels, minlength=k)
        sse = float(d2.sum())
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        new_centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centers)
        if np.array_equal(new_centers, centers) or sse == prev_sse:
            break
        centers = new_centers
        prev_sse = sse
    labels, d2 = reference_assign(points, centers)
    return labels, centers, float(d2.sum()), steps, reseeds


# the empty-cluster reseed input of
# test_kmeans_reseeds_an_empty_cluster_from_the_farthest_point (K = 3)
RESEED_POINTS = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 2)
# K = 3, seed 18079: restart 4 empties a cluster in a Lloyd step, restarts 0-3 never do
MIXED_RESEED_POINTS = np.array([[3.9], [1.21], [3.29], [-0.63], [1.34], [1.12]])


def lloyd_cases():
    """(points, K, seed) over d in {2, 3, 10}, K up to 8, duplicate points
    and the two empty-cluster reseed inputs."""
    rng = np.random.default_rng(21)
    cases = [(RESEED_POINTS, 3, s) for s in range(4)]
    for trial in range(24):
        d = (2, 3, 10)[trial % 3]
        m = int(rng.integers(9, 120))
        points = rng.normal(size=(m, d)) + 4.0 * rng.integers(0, 3, size=(m, 1))
        if trial % 4 == 0:
            points = np.concatenate([points, points[: m // 3]])  # duplicates
        cases.append((points, int(rng.integers(1, 9)), trial))
    cases.append((MIXED_RESEED_POINTS, 3, 18079))
    return cases


# ----------------------------------------------------------------------
# k-means
# ----------------------------------------------------------------------

RESTARTS = 5  # restarts per lockstep group in the comparisons below


def lockstep(points, k, seed, restarts=range(RESTARTS)):
    """(labels, centers, sse) arrays of the given restarts run as one lockstep group."""
    return cluster._lloyd(points, k, [spawn_rng(seed, r) for r in restarts])


@pytest.mark.parametrize("points,k,seed", lloyd_cases())
def test_lloyd_step_matches_the_einsum_and_add_at_reference(points, k, seed):
    labels, centers, sse = lockstep(points, k, seed)
    for r in range(RESTARTS):
        ref_labels, ref_centers, ref_sse, _, _ = reference_lloyd(points, k, spawn_rng(seed, r))
        np.testing.assert_array_equal(labels[r], ref_labels)
        np.testing.assert_array_equal(centers[r], ref_centers)
        assert sse[r] == pytest.approx(ref_sse, rel=1e-12, abs=0.0)


def spy_on_assign(monkeypatch):
    """Record the (a, K, d) centre sets of every _assign call."""
    calls = []
    assign = cluster._assign

    def spy(points, centers):
        calls.append(centers.copy())
        return assign(points, centers)

    monkeypatch.setattr(cluster, "_assign", spy)
    return calls


def test_lloyd_assigns_once_per_step_and_per_reseed(monkeypatch):
    calls = spy_on_assign(monkeypatch)
    mixed = 0  # groups where some restarts re-seed and others do not
    for points, k, seed in lloyd_cases():
        runs = [reference_lloyd(points, k, spawn_rng(seed, r)) for r in range(RESTARTS)]
        steps = [run[3] for run in runs]
        reseeds = [run[4] for run in runs]
        del calls[:]
        labels, centers, _ = lockstep(points, k, seed)
        # one call per lockstep step for the restarts still running, one per
        # reseed for its restart alone
        assert len(calls) == max(steps) + sum(reseeds)
        sizes = sorted(len(c) for c in calls)
        assert sizes == sorted([sum(s > t for s in steps) for t in range(max(steps))]
                               + [1] * sum(reseeds))
        # every restart leaves on the assignment of its final centers
        for r in range(RESTARTS):
            assert any((c == centers[r]).all(axis=(1, 2)).any() for c in calls)
        mixed += 0 < sum(e > 0 for e in reseeds) < RESTARTS
        del calls[:]
        res = lockstep(points, k, seed, [0])
        assert len(calls) == steps[0] + reseeds[0]
        np.testing.assert_array_equal(calls[-1][0], res[1][0])
    assert mixed > 0


def test_a_reseed_takes_the_farthest_point_of_its_own_restart(monkeypatch):
    # restart 0 starts with an empty cluster and its farthest point is 2;
    # restart 1 needs no reseed and is farthest from 22
    points = np.array([[0.0], [1.0], [2.0], [20.0], [21.0], [22.0]])
    starts = [np.array([[0.0], [21.0], [100.0]]), np.array([[0.0], [1.0], [2.0]])]
    monkeypatch.setattr(cluster, "_kmeanspp_init", lambda points, k, start: start.copy())
    calls = spy_on_assign(monkeypatch)
    labels, centers, sse = cluster._lloyd(points, 3, starts)
    assert sorted(len(c) for c in calls)[0] == 1  # the reseeded restart alone
    np.testing.assert_array_equal(labels[0], [0, 0, 2, 1, 1, 1])
    np.testing.assert_array_equal(centers[0], [[0.5], [21.0], [2.0]])
    assert sse[0] == 2.5
    for r, start in enumerate(starts):
        alone = cluster._lloyd(points, 3, [start])
        np.testing.assert_array_equal(alone[0][0], labels[r])
        np.testing.assert_array_equal(alone[1][0], centers[r])
        assert alone[2][0] == sse[r]


def test_lloyd_reassigns_after_running_out_of_iterations(monkeypatch):
    rng = np.random.default_rng(22)
    points = rng.normal(size=(200, 3))
    labels, centers, sse, steps, reseeds = reference_lloyd(points, 6, spawn_rng(4, 0),
                                                           max_iter=2)
    assert steps == 2 and reseeds == 0
    monkeypatch.setattr(cluster, "_MAX_ITER", 2)
    calls = spy_on_assign(monkeypatch)
    res = cluster._lloyd(points, 6, [spawn_rng(4, 0)])
    assert len(calls) == 3  # two steps, then the last centers' assignment
    np.testing.assert_array_equal(res[0][0], labels)
    np.testing.assert_array_equal(res[1][0], centers)
    assert res[2][0] == pytest.approx(sse, rel=1e-12, abs=0.0)


def test_lloyd_leaves_on_an_sse_plateau_while_its_centres_still_move(monkeypatch):
    # start 1e-9 off the left pair's mean: step 1 reads SSE 3752 + 2e-18, which
    # rounds to 3752, and moves that centre to 0; at centres (0, 100) the point
    # 50 ties and joins cluster 0, so the next centres would be (50/3, 125),
    # yet step 2 reads SSE 3752 again and the restart leaves at (0, 100)
    points = np.array([[-1.0], [1.0], [50.0], [125.0], [125.0]])
    start = np.array([[-1e-9], [100.0]])
    monkeypatch.setattr(cluster, "_kmeanspp_init", lambda points, k, start: start.copy())
    calls = spy_on_assign(monkeypatch)
    labels, centers, sse = cluster._lloyd(points, 2, [start])
    assert len(calls) == 2
    np.testing.assert_array_equal(labels[0], [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(centers[0], [[0.0], [100.0]])
    assert sse[0] == 3752.0


def test_lloyd_asserts_that_the_sse_never_rises(monkeypatch):
    # a faulty assignment that scales step t's squared distances by 10**t
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    monkeypatch.setattr(cluster, "_kmeanspp_init", lambda points, k, start: start.copy())
    calls = spy_on_assign(monkeypatch)
    assign = cluster._assign

    def rising(points, centers):
        labels, d2 = assign(points, centers)
        return labels, d2 * 10.0 ** len(calls)

    monkeypatch.setattr(cluster, "_assign", rising)
    with pytest.raises(AssertionError, match="SSE increased within a Lloyd run"):
        cluster._lloyd(points, 2, [np.array([[0.0], [10.0]])])
    assert len(calls) == 2


def test_capped_restarts_match_the_reference_beside_converged_ones(monkeypatch):
    monkeypatch.setattr(cluster, "_MAX_ITER", 2)
    calls = spy_on_assign(monkeypatch)
    mixed = 0  # groups where some restarts converge within 2 steps and others do not
    for points, k, seed in lloyd_cases():
        del calls[:]
        labels, centers, sse = lockstep(points, k, seed)
        capped = []
        for r in range(RESTARTS):
            ref = reference_lloyd(points, k, spawn_rng(seed, r), max_iter=2)
            np.testing.assert_array_equal(labels[r], ref[0])
            np.testing.assert_array_equal(centers[r], ref[1])
            assert sse[r] == pytest.approx(ref[2], rel=1e-12, abs=0.0)
            capped.append(reference_lloyd(points, k, spawn_rng(seed, r), max_iter=3)[3] > 2)
        if any(capped):
            # the capped restarts, and only they, share one closing assignment
            np.testing.assert_array_equal(calls[-1], centers[np.flatnonzero(capped)])
        mixed += 0 < sum(capped) < RESTARTS
    assert mixed > 0


@pytest.mark.parametrize("points,k,seed", lloyd_cases()[::3])
def test_restart_blocks_change_no_result(monkeypatch, points, k, seed):
    restarts = 7
    whole = kmeans(points, k, restarts=restarts, seed=seed)
    # the earliest restart of least SSE, each restart run as a group of one
    alone = [lockstep(points, k, seed, [r]) for r in range(restarts)]
    best = int(np.argmin([run[2][0] for run in alone]))
    # blocks of two restarts: four blocks for seven restarts
    monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", 2 * max(k, points.shape[1]) * len(points) + 1)
    calls = spy_on_assign(monkeypatch)
    blocked = kmeans(points, k, restarts=restarts, seed=seed)
    assert max(len(c) for c in calls) == 2
    for res in (whole, blocked):
        np.testing.assert_array_equal(res.assignments, alone[best][0][0])
        np.testing.assert_array_equal(res.centers, alone[best][1][0])
        assert res.sse == alone[best][2][0]


def test_kmeans_memory_stays_within_blocks_as_restarts_grow(monkeypatch):
    # one (R·K, M) float64 array for all 400 restarts would be 128 MB
    import tracemalloc

    rng = np.random.default_rng(14)
    points = rng.normal(size=(5000, 3))
    monkeypatch.setattr(cluster, "_MAX_ITER", 2)  # memory per step, not convergence
    kmeans(points[:10], 2, restarts=1)  # import scipy before tracing
    tracemalloc.start()
    try:
        kmeans(points, 8, restarts=400, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@given(m=st.integers(1, 30), d=st.integers(1, 4), k=st.integers(1, 6),
       restarts=st.integers(1, 5), seed=st.integers(0, 2 ** 32),
       grid=st.booleans())
@settings(max_examples=60, deadline=None)
def test_best_of_restarts_sse_is_at_most_every_restart(m, d, k, restarts, seed, grid):
    rng = np.random.default_rng(seed)
    # a coarse grid gives duplicate points and tied distances
    points = rng.integers(-3, 4, size=(m, d)).astype(float) if grid else rng.normal(size=(m, d))
    k = min(k, m)
    best = kmeans(points, k, restarts=restarts, seed=seed)
    alone = [lockstep(points, k, seed, [r])[2][0] for r in range(restarts)]
    assert best.sse == min(alone)  # at most every restart, and one of them


def test_kmeans_k_equals_m_zero_sse():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(8, 3))
    res = kmeans(points, 8, restarts=4, seed=0)
    assert res.sse == pytest.approx(0.0, abs=1e-18)


def test_kmeans_two_separated_pairs():
    points = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
    res = kmeans(points, 2, restarts=4, seed=1)
    centers = sorted(res.centers[:, 0])
    assert centers[0] == pytest.approx(0.1)
    assert centers[1] == pytest.approx(10.1)


def test_kmeans_sse_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = int(rng.integers(10, 60))
        k = int(rng.integers(2, 6))
        points = rng.normal(size=(m, 3))
        res = kmeans(points, k, restarts=3, seed=trial)
        oracle = brute_force_sse(points, res.assignments, res.centers)
        assert res.sse == pytest.approx(oracle, abs=1e-9)


def test_kmeans_every_point_at_nearest_center():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(50, 4))
    res = kmeans(points, 5, restarts=3, seed=2)
    d2 = ((points[:, None, :] - res.centers[None]) ** 2).sum(-1)
    np.testing.assert_array_equal(res.assignments, np.argmin(d2, axis=1))


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(40, 3))
    a = kmeans(points, 4, restarts=5, seed=9)
    b = kmeans(points, 4, restarts=5, seed=9)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centers, b.centers)


def test_kmeans_handles_duplicate_points():
    points = np.zeros((6, 2))
    points[3:] = 1.0
    res = kmeans(points, 2, restarts=2, seed=0)
    assert res.sse == pytest.approx(0.0, abs=1e-18)


def test_kmeans_reseeds_an_empty_cluster_from_the_farthest_point():
    # two distinct points for K = 3: k-means++ runs out of spread and some
    # restart must re-seed a cluster that ends up empty
    points = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 2)
    res = kmeans(points, 3, restarts=2, seed=0)
    assert res.sse == 0.0
    assert all((res.centers[c] == points).all(axis=1).any() for c in range(3))


def test_kmeans_validation():
    with pytest.raises(ParameterError):
        kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ParameterError):
        kmeans(np.zeros((3, 2)), 2, restarts=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad,args,kwargs,match", [
    (np.nan, (2,), {}, "finite"),
    (np.inf, (2,), {}, "finite"),
    (None, (2.5,), {}, "integers"),
    (None, (2,), {"restarts": 2.5}, "integers"),
    (None, (True,), {}, "integers"),
    (None, (2,), {"seed": 2.5}, "seed must be an integer >= 0"),
    (None, (2,), {"seed": True}, "seed must be an integer >= 0"),
], ids=["nan-point", "inf-point", "fractional-k", "fractional-restarts", "bool-k",
        "fractional-seed", "bool-seed"])
def test_kmeans_rejects_bad_inputs_with_one_message(bad, args, kwargs, match):
    points = np.random.default_rng(3).normal(size=(10, 2))
    if bad is not None:
        points[4, 1] = bad
    with pytest.raises(ParameterError, match=match):
        kmeans(points, *args, **kwargs)


def test_kmeans_accepts_numpy_integers():
    points = np.random.default_rng(3).normal(size=(10, 2))
    a = kmeans(points, np.int64(3), restarts=np.int32(2), seed=1)
    b = kmeans(points, 3, restarts=2, seed=1)
    np.testing.assert_array_equal(a.assignments, b.assignments)


# ----------------------------------------------------------------------
# silhouette
# ----------------------------------------------------------------------

def test_silhouette_two_coincident_far_clusters():
    points = np.array([[0.0, 0.0]] * 3 + [[100.0, 0.0]] * 3)
    labels = [0, 0, 0, 1, 1, 1]
    s, mean = silhouette(points, labels)
    np.testing.assert_allclose(s, 1.0)
    assert mean == 1.0


def test_silhouette_equal_a_b_is_zero():
    # for the first point: a = 1 (one intra neighbor at distance 1) and
    # b = mean(1, 1) = 1 to the other cluster, so the middle case applies
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    labels = [0, 0, 1, 1]
    s, _ = silhouette(points, labels)
    assert s[0] == 0.0


def test_silhouette_singleton_convention():
    points = np.array([[0.0], [1.0], [50.0]])
    s, _ = silhouette(points, [0, 0, 1])
    assert s[2] == 0.0


def test_silhouette_requires_two_clusters():
    with pytest.raises(UndefinedSilhouetteError):
        silhouette(np.zeros((4, 2)), [0, 0, 0, 0])


@pytest.mark.filterwarnings("error")
def test_silhouette_rejects_bad_inputs_with_one_message():
    points = np.random.default_rng(4).normal(size=(6, 2))
    labels = [0, 0, 0, 1, 1, 1]
    with pytest.raises(ParameterError, match="one assignment per point"):
        silhouette(points, labels[:5])
    with pytest.raises(ParameterError, match="one assignment per point"):
        silhouette(points, [labels])
    points[2, 0] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        silhouette(points, labels)


def test_silhouette_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for trial in range(15):
        m = int(rng.integers(8, 40))
        points = rng.normal(size=(m, 3))
        k = int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=m)
        while len(set(labels.tolist())) < 2:
            labels = rng.integers(0, k, size=m)
        s, _ = silhouette(points, labels)
        oracle = brute_force_silhouette(points, labels)
        np.testing.assert_allclose(s, oracle, atol=1e-12)


def test_silhouette_matches_the_per_point_loop_across_row_blocks():
    # 1500 points need two row blocks; labels are non-contiguous and one
    # cluster is a singleton
    rng = np.random.default_rng(12)
    points = rng.normal(size=(1500, 3)) + rng.integers(0, 3, size=(1500, 1))
    labels = rng.choice([2, 7, 11], size=1500)
    labels[17] = 40
    s, mean = silhouette(points, labels)
    ref = per_point_silhouette(points, labels)
    assert s[17] == 0.0
    np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12)
    assert mean == pytest.approx(ref.mean(), abs=1e-12)


def test_silhouette_memory_grows_slower_than_m_squared():
    # an (M, M) float64 matrix alone would be 72 MB at M = 3000
    import tracemalloc

    rng = np.random.default_rng(13)
    points = rng.normal(size=(3000, 3))
    labels = rng.integers(0, 4, size=3000)
    tracemalloc.start()
    try:
        silhouette(points, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


# ----------------------------------------------------------------------
# elbow
# ----------------------------------------------------------------------

def test_elbow_hand_computed_example():
    res = select_k_elbow([100.0, 20.0, 18.0, 17.0, 16.0])
    assert res.k_star == 2
    assert res.warning is None


def test_elbow_linear_decline_ties_to_smallest_interior():
    res = select_k_elbow([50.0, 40.0, 30.0, 20.0, 10.0])
    assert res.k_star == 2


def test_elbow_non_monotone_warning():
    res = select_k_elbow([100.0, 20.0, 30.0, 10.0])
    assert res.warning is not None
    assert "K=2" in res.warning


def test_elbow_needs_three_points():
    with pytest.raises(ParameterError):
        select_k_elbow([10.0, 5.0])


def test_elbow_custom_ks():
    res = select_k_elbow([100.0, 20.0, 18.0, 17.0], ks=[1, 2, 3, 4])
    assert res.k_star == 2


# ----------------------------------------------------------------------
# pipeline + concordance
# ----------------------------------------------------------------------

def test_pipeline_noiseless_archetypes_perfect():
    cfg = default_cohort_config()
    cfg["noise"] = 0.0
    res = simulate_cohort(cfg, seed=2)
    rep = cluster_pipeline(res.rows, labels=res.labels, k_range=(2, 8),
                           restarts=6, seed=3)
    assert rep.k_star == 4
    assert adjusted_rand_index(res.archetype, rep.assignments) == pytest.approx(1.0)
    assert rep.silhouette_mean == pytest.approx(1.0, abs=1e-9)


def test_pipeline_report_json_deterministic():
    res = simulate_cohort(None, seed=4)
    r1 = cluster_pipeline(res.rows, labels=res.labels, seed=5)
    r2 = cluster_pipeline(res.rows, labels=res.labels, seed=5)
    obj = r1.to_json_obj()
    assert obj == r2.to_json_obj()
    assert set(obj) == {"k_star", "assignments", "centers", "sse_by_k",
                        "silhouette", "ev_ratios", "labels", "elbow_warning"}


def test_pipeline_sse_curve_starts_at_k1():
    res = simulate_cohort(None, seed=6)
    rep = cluster_pipeline(res.rows, labels=res.labels, seed=7)
    assert rep.sse_ks[0] == 1
    assert (np.diff(rep.sse_values) <= 1e-6 * rep.sse_values[0]).all()


def test_pipeline_validation():
    with pytest.raises(ParameterError):
        cluster_pipeline(np.ones((2, 4)))
    with pytest.raises(ParameterError):
        cluster_pipeline(np.ones((10, 4)) * -1.0)
    with pytest.raises(LabelError):
        cluster_pipeline(np.ones((10, 4)) + np.eye(10, 4), labels=["a"])


@pytest.mark.parametrize("kwargs, match", [
    ({"k_range": (2.5, 8)}, "k_range must be two integers"),
    ({"k_range": (2, 8.0)}, "k_range must be two integers"),
    ({"k_range": (True, 8)}, "k_range must be two integers"),
    ({"seed": 2.5}, "seed must be an integer >= 0"),
    ({"seed": "3"}, "seed must be an integer >= 0"),
], ids=["fractional-lo", "float-hi", "bool-lo", "fractional-seed", "string-seed"])
def test_pipeline_takes_only_whole_k_and_seeds(kwargs, match):
    rows = simulate_cohort(None, seed=6).rows
    with pytest.raises(ParameterError, match=match):
        cluster_pipeline(rows, **kwargs)


def test_concordance_counts():
    res = simulate_cohort(None, seed=10)
    rep = cluster_pipeline(res.rows, labels=res.labels, seed=11)
    con = concordance(rep)
    assert con.n_subjects == 30
    assert con.match_matrix.sum() == 30
    assert np.trace(con.match_matrix) == round(con.fraction * 30)


def test_concordance_off_diagonal_subject():
    class FakeReport:
        assignments = np.array([0, 1, 0, 0])
        centers = np.zeros((2, 3))
        labels = ("S1-L", "S1-R", "S2-L", "S2-R")

    con = concordance(FakeReport())
    assert con.fraction == 0.5
    assert con.match_matrix[0, 1] == 1  # S1: left in 0, right in 1


def test_concordance_unpaired_subject_raises():
    class FakeReport:
        assignments = np.array([0, 1, 0])
        centers = np.zeros((2, 3))
        labels = ("S1-L", "S1-R", "S2-L")

    with pytest.raises(LabelError):
        concordance(FakeReport())


@pytest.mark.parametrize("repeat", ["S1-L", "S1-l"], ids=["same-case", "lower-case"])
def test_concordance_repeated_ear_raises(repeat):
    class FakeReport:
        assignments = np.array([0, 1, 0, 0, 1])
        centers = np.zeros((2, 3))
        labels = ("S1-L", "S1-R", "S2-L", "S2-R", repeat)

    with pytest.raises(LabelError, match=f"'{repeat}' repeats the ear 'S1-L'"):
        concordance(FakeReport())
