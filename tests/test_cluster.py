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


@pytest.mark.parametrize("k", [1, 3, 17, 255, 256, 300])
def test_assign_takes_the_lowest_of_tied_centres(k):
    # centres drawn with repeats from 16 grid points: past K = 16 some repeat,
    # and a grid point can be as near to two distinct centres; past K = 255
    # the rank K - c no longer fits one byte
    rng = np.random.default_rng(k)
    points = rng.integers(0, 4, size=(300, 2)).astype(np.float64)
    centers = points[rng.integers(0, 300, size=(3, k))]
    labels, d2 = cluster._assign(points, centers)
    for r in range(3):
        ref_labels, ref_d2 = reference_assign(points, centers[r])
        np.testing.assert_array_equal(labels[r], ref_labels + r * k)  # offset by set
        np.testing.assert_array_equal(d2[r], ref_d2)


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


@pytest.mark.parametrize("points,k,seed", lloyd_cases())
def test_lockstep_seeding_matches_the_reference_on_every_restart(points, k, seed):
    """One block seeded in lockstep equals each restart seeded alone, bit for bit.

    The reference builds d² with ``einsum``, which may add the coordinates in
    another order than ``cdist`` (for d = 3, (x0² + x2²) + x1² against
    (x0² + x1²) + x2²).  The centres still agree because no draw lands within
    rounding of a step of its cdf.
    """
    centers = cluster._kmeanspp_init(points, k, [spawn_rng(seed, r) for r in range(RESTARTS)])
    assert centers.shape == (RESTARTS, k, points.shape[1])
    for r in range(RESTARTS):
        np.testing.assert_array_equal(centers[r],
                                      reference_kmeanspp_init(points, k, spawn_rng(seed, r)))


def duplicate_draws():
    """(points, K) grid draws: repeated points give the cdfs flat runs and
    zero-weight entries; with three distinct points every restart draws its
    fourth to eighth centres by integers(M)."""
    rng = np.random.default_rng(51)
    cases = [(rng.integers(0, 3, size=(60, 2)).astype(np.float64), k) for k in range(1, 9)]
    cases.append((np.repeat([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], [30, 5, 1], axis=0), 8))
    return cases


@pytest.mark.parametrize("points,k", duplicate_draws())
def test_lockstep_seeding_matches_the_reference_on_duplicate_points(points, k):
    rngs = [spawn_rng(k, r) for r in range(8)]
    centers = cluster._kmeanspp_init(points, k, rngs)
    for r, rng in enumerate(rngs):
        ref_rng = spawn_rng(k, r)
        np.testing.assert_array_equal(centers[r], reference_kmeanspp_init(points, k, ref_rng))
        assert rng.random() == ref_rng.random()  # the same draws were made


@given(weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-300]), min_size=1, max_size=30),
       u=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_seeding_searchsorted_counts_the_cdf_at_or_below_the_draw(weights, u):
    """The draw ``_kmeanspp_init`` makes is ``choice``'s count of cdf
    entries <= u, also where u equals an entry or a flat run."""
    d2 = np.array(weights)
    if d2.sum() == 0:
        return
    cdf = np.cumsum(d2 / d2.sum())
    cdf /= cdf[-1]
    for x in (u, *cdf):
        assert np.searchsorted(cdf, x, side="right") == np.count_nonzero(cdf <= x)


@pytest.mark.parametrize("step,picked", [(None, 1.0), (3, 4.0)], ids=["zero", "entry-3"])
def test_seeding_draw_on_a_cdf_entry_takes_the_next_point(step, picked):
    """A draw equal to a cdf entry counts that entry as at or below it, as
    ``choice``'s right-side search does, so a zero-weight point is never drawn."""
    points = np.array([[0.0], [0.0], [1.0], [3.0], [4.0]])  # d² from the first: 0 0 1 9 16
    cdf = np.cumsum(np.array([0.0, 0.0, 1.0, 9.0, 16.0]) / 26.0)
    cdf /= cdf[-1]

    class Draws:
        def integers(self, m):
            return 0

        def random(self):
            return 0.0 if step is None else cdf[step]

    assert cluster._kmeanspp_init(points, 2, [Draws()])[0, 1, 0] == picked


def test_lockstep_seeding_draws_integers_where_every_point_is_a_centre():
    # eps² underflows to 0 and (2 eps)² does not: a restart that starts at the
    # middle point has total d² = 0 at its second centre and draws it by
    # integers(M), while one that starts at an end draws from its cdf
    eps = 1.5e-162
    points = np.array([[0.0], [eps], [2 * eps]])
    assert eps * eps == 0.0 < (2 * eps) ** 2
    rngs = [spawn_rng(0, r) for r in range(8)]
    refs = [reference_kmeanspp_init(points, 3, spawn_rng(0, r)) for r in range(8)]
    spent = [ref[0, 0] == eps for ref in refs]
    assert 0 < sum(spent) < len(spent)
    centers = cluster._kmeanspp_init(points, 3, rngs)
    np.testing.assert_array_equal(centers, np.stack(refs))
    # every generator made the same draws as the reference's: the next ones agree
    for r, rng in enumerate(rngs):
        ref_rng = spawn_rng(0, r)
        reference_kmeanspp_init(points, 3, ref_rng)
        assert rng.random() == ref_rng.random()


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


def test_lloyd_matches_the_reference_through_every_kind_of_step(monkeypatch):
    """1 200 points, K = 8, 8 restarts.  Four blobs with a third of the points
    on the integer grid: the restarts leave between steps 13 and 31, most
    steps end none of them and step 23 ends three.  Five distinct points:
    every restart re-seeds its empty clusters in step 1 and all leave in
    step 2."""
    rng = np.random.default_rng(1)
    blobs = (rng.normal(scale=4.0, size=(4, 3))[rng.integers(0, 4, 1200)]
             + rng.normal(size=(1200, 3)))
    blobs[::3] = np.round(blobs[::3])
    five = rng.normal(size=(5, 2))[rng.integers(0, 5, 1200)]
    calls = spy_on_assign(monkeypatch)
    kinds = set()
    for points in (blobs, five):
        runs = [reference_lloyd(points, 8, spawn_rng(2, r)) for r in range(8)]
        steps = np.array([run[3] for run in runs])
        ends = np.bincount(steps, minlength=steps.max() + 1)[1:]
        kinds |= {"ends none"} if (ends == 0).any() else set()
        kinds |= {"ends several"} if (ends >= 2).any() else set()
        kinds |= {"reseeds"} if any(run[4] for run in runs) else set()
        del calls[:]
        labels, centers, sse = lockstep(points, 8, 2, range(8))
        assert len(calls) == steps.max() + sum(run[4] for run in runs)
        for r, run in enumerate(runs):
            np.testing.assert_array_equal(labels[r], run[0])
            np.testing.assert_array_equal(centers[r], run[1])
            assert sse[r] == pytest.approx(run[2], rel=1e-12, abs=0.0)
    assert kinds == {"ends none", "ends several", "reseeds"}


def test_a_reseed_takes_the_farthest_point_of_its_own_restart(monkeypatch):
    # restart 0 starts with an empty cluster and its farthest point is 2;
    # restart 1 needs no reseed and is farthest from 22
    points = np.array([[0.0], [1.0], [2.0], [20.0], [21.0], [22.0]])
    starts = [np.array([[0.0], [21.0], [100.0]]), np.array([[0.0], [1.0], [2.0]])]
    monkeypatch.setattr(cluster, "_kmeanspp_init", lambda points, k, starts: np.stack(starts))
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
    monkeypatch.setattr(cluster, "_kmeanspp_init", lambda points, k, starts: np.stack(starts))
    calls = spy_on_assign(monkeypatch)
    labels, centers, sse = cluster._lloyd(points, 2, [start])
    assert len(calls) == 2
    np.testing.assert_array_equal(labels[0], [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(centers[0], [[0.0], [100.0]])
    assert sse[0] == 3752.0


def test_lloyd_sse_never_rises_from_one_step_to_the_next(monkeypatch):
    """Each restart's SSE capped at t + 1 steps against capped at t: the
    assignment to the centres of one step against those of the step before,
    with 1e-9 for rounding on these well-scaled points (far from the origin
    against its spread, a cluster's mean can round by more: see the noise-30
    analyze test)."""
    for points, k, seed in lloyd_cases():
        prev = None
        for t in range(1, cluster._MAX_ITER + 1):
            monkeypatch.setattr(cluster, "_MAX_ITER", t)
            sse = lockstep(points, k, seed)[2]
            if prev is not None:
                assert (sse <= prev * (1.0 + 1e-9) + 1e-9).all(), (k, seed, t)
                if (sse == prev).all():  # every restart stops at the next step
                    break
            prev = sse


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
def test_kmeans_keeps_the_best_restart_run_alone(monkeypatch, points, k, seed):
    restarts = 7
    lloyd_rngs = []
    lloyd = cluster._lloyd

    def spy(points, k, rngs):
        lloyd_rngs.append(rngs)
        return lloyd(points, k, rngs)

    monkeypatch.setattr(cluster, "_lloyd", spy)
    res = kmeans(points, k, restarts=restarts, seed=seed)
    # one lockstep pass of every restart
    assert [len(rngs) for rngs in lloyd_rngs] == [restarts]
    # the earliest restart of least SSE, each restart run as a group of one
    alone = [lockstep(points, k, seed, [r]) for r in range(restarts)]
    best = int(np.argmin([run[2][0] for run in alone]))
    np.testing.assert_array_equal(res.assignments, alone[best][0][0])
    np.testing.assert_array_equal(res.centers, alone[best][1][0])
    assert res.sse == alone[best][2][0]


def test_kmeans_memory_grows_linearly_in_the_point_count(monkeypatch):
    # the pipeline's 8 restarts at K = 8 hold (8·8, M) distances at once
    import tracemalloc

    rng = np.random.default_rng(14)
    points = rng.normal(size=(20000, 3))
    monkeypatch.setattr(cluster, "_MAX_ITER", 2)  # memory per step, not convergence
    kmeans(points[:10], 2, restarts=1)  # import scipy before tracing
    peaks = []
    for m in (5000, 20000):
        tracemalloc.start()
        try:
            kmeans(points[:m], 8, restarts=8, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # about 4.1 for four times the points
    assert peaks[1] / peaks[0] <= 4.5


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
    (1e154, (2,), {}, "squared distances overflow"),
], ids=["nan-point", "inf-point", "fractional-k", "fractional-restarts", "bool-k",
        "fractional-seed", "bool-seed", "overflowing-point"])
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
    # 1500 points span five row blocks; labels are non-contiguous and one
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


def euclidean_silhouette(points, labels):
    """Silhouette from one (M, M) ``cdist(..., "euclidean")`` whose columns are
    sorted by cluster, each row's runs summed by ``np.add.reduceat``."""
    from scipy.spatial.distance import cdist

    inv = np.unique(labels, return_inverse=True)[1]
    sizes = np.bincount(inv)
    sums = np.add.reduceat(cdist(points, points[np.argsort(inv, kind="stable")], "euclidean"),
                           np.cumsum(sizes) - sizes, axis=1)
    rows = np.arange(len(points))
    a = sums[rows, inv] / np.maximum(sizes[inv] - 1, 1)
    to_other = sums / sizes
    to_other[rows, inv] = np.inf
    b = to_other.min(axis=1)
    s = np.zeros(len(points))
    s[a < b] = 1.0 - a[a < b] / b[a < b]
    s[a > b] = b[a > b] / a[a > b] - 1.0
    s[sizes[inv] <= 1] = 0.0
    return s


def test_silhouette_equals_the_euclidean_cdist_reference_bit_for_bit(monkeypatch):
    # a distance kernel that rounds any distance unlike cdist's "euclidean"
    # (say, one built on a matrix product) would show in some s(i); 700
    # points span eleven row blocks of 64 rows
    monkeypatch.setattr(cluster, "_SILHOUETTE_ELEMENTS", 64 * 700)
    rng = np.random.default_rng(14)
    base = rng.normal(size=(700, 3)) + rng.integers(0, 3, size=(700, 1))
    labels = rng.choice([4, 1, 9], size=700)
    labels[5] = 30
    for scale in (1e-8, 1.0, 1e8):
        s, mean = silhouette(base * scale, labels)
        ref = euclidean_silhouette(base * scale, labels)
        assert s[5] == 0.0
        np.testing.assert_array_equal(s, ref)
        assert mean == float(ref.mean())


def silhouette_memory_case():
    """3000 points in three dimensions with labels 0-3."""
    rng = np.random.default_rng(13)
    return rng.normal(size=(3000, 3)), rng.integers(0, 4, size=3000)


def test_silhouette_memory_grows_slower_than_m_squared():
    # an (M, M) float64 matrix alone would be 72 MB at M = 3000
    import tracemalloc

    points, labels = silhouette_memory_case()
    silhouette(points[:10], labels[:10])  # import scipy before tracing
    tracemalloc.start()
    try:
        silhouette(points, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.25 MB with 1 MB row blocks; 4.40 MB with 4 MB blocks
    assert peak < 2e6


def test_silhouette_is_the_same_for_every_row_block(monkeypatch):
    # non-contiguous labels and one singleton; per-cluster sums that went
    # through a BLAS product would round each row by the block's row count
    points, labels = silhouette_memory_case()
    labels = np.array([3, 9, 20, 41])[labels]
    labels[123] = 77
    runs = []
    for block in (2 ** 12, 2 ** 15, 2 ** 17, 2 ** 19, 2 ** 21):
        monkeypatch.setattr(cluster, "_SILHOUETTE_ELEMENTS", block)
        runs.append(silhouette(points, labels))
    assert runs[0][0][123] == 0.0
    for s, mean in runs[1:]:
        np.testing.assert_array_equal(s, runs[0][0])
        assert mean == runs[0][1]


# ----------------------------------------------------------------------
# elbow
# ----------------------------------------------------------------------

def test_elbow_hand_computed_example():
    res = select_k_elbow([100.0, 20.0, 18.0, 17.0, 16.0], [1, 2, 3, 4, 5])
    assert res.k_star == 2
    assert res.warning is None


def test_elbow_linear_decline_ties_to_smallest_interior():
    res = select_k_elbow([50.0, 40.0, 30.0, 20.0, 10.0], [1, 2, 3, 4, 5])
    assert res.k_star == 2
    flat = select_k_elbow([7.0, 7.0, 7.0, 7.0], [1, 2, 3, 4])  # every point on the chord
    assert flat.k_star == 2 and flat.warning is None


def test_elbow_non_monotone_warning():
    res = select_k_elbow([100.0, 20.0, 30.0, 10.0], [1, 2, 3, 4])
    assert res.warning is not None
    assert "K=2" in res.warning


def test_elbow_needs_three_points():
    with pytest.raises(ParameterError):
        select_k_elbow([10.0, 5.0], [1, 2])


def test_elbow_custom_ks():
    res = select_k_elbow([100.0, 20.0, 18.0, 17.0], ks=[2, 3, 4, 5])
    assert res.k_star == 3
    with pytest.raises(ParameterError, match="lengths differ"):
        select_k_elbow([100.0, 20.0, 18.0, 17.0], ks=[2, 3, 4])


# ----------------------------------------------------------------------
# pipeline + concordance
# ----------------------------------------------------------------------

def test_pipeline_noiseless_archetypes_perfect():
    cfg = default_cohort_config()
    cfg["noise"] = 0.0
    res = simulate_cohort(cfg, seed=2)
    rep = cluster_pipeline(res.rows, labels=res.labels, seed=3)
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
    with pytest.raises(ParameterError, match="at least 4 rows"):
        cluster_pipeline(np.ones((3, 4)) + np.eye(3, 4), labels=["a"] * 3)
    with pytest.raises(ParameterError):
        cluster_pipeline(np.ones((10, 4)) * -1.0, labels=["a"] * 10)
    with pytest.raises(LabelError):
        cluster_pipeline(np.ones((10, 4)) + np.eye(10, 4), labels=["a"])


@pytest.mark.parametrize("kwargs, match", [
    ({"seed": 2.5}, "seed must be an integer >= 0"),
    ({"seed": "3"}, "seed must be an integer >= 0"),
], ids=["fractional-seed", "string-seed"])
def test_pipeline_takes_only_whole_k_and_seeds(kwargs, match):
    res = simulate_cohort(None, seed=6)
    with pytest.raises(ParameterError, match=match):
        cluster_pipeline(res.rows, res.labels, **kwargs)


def test_concordance_counts():
    res = simulate_cohort(None, seed=10)
    rep = cluster_pipeline(res.rows, labels=res.labels, seed=11)
    con = concordance(rep)
    assert con.n_subjects == 30
    assert con.match_matrix.sum() == 30
    assert np.trace(con.match_matrix) == round(con.fraction * 30)


def test_concordance_needs_one_label_per_assignment():
    class FakeReport:
        assignments = np.array([0, 1, 0])
        centers = np.zeros((2, 3))
        labels = ("S1-L", "S1-R", "S2-L", "S2-R")

    with pytest.raises(LabelError, match="label count does not match"):
        concordance(FakeReport())


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


@pytest.mark.parametrize("labels,bad", [
    (("S01-R", "S01-X", "S02-L", "S02-R"), "S01-X"),
    (("S01-L", "S01-R", "S02-L", "S02-LEFT"), "S02-LEFT"),
], ids=["unknown-side", "long-side"])
def test_concordance_takes_only_l_and_r_sides(labels, bad):
    class FakeReport:
        assignments = np.array([0, 1, 0, 1])
        centers = np.zeros((2, 3))

    FakeReport.labels = labels
    with pytest.raises(LabelError, match=f"label '{bad}' is not SUBJECT-SIDE"):
        concordance(FakeReport())


def reference_concordance(labels, assignments, k):
    """The per-label loop ``concordance`` ran before it took array passes:
    (fraction, match matrix, subject count), or the LabelError it raises."""
    by_subject: dict = {}
    for lab, cluster_ in zip(labels, assignments):
        subject, dash, side = lab.rpartition("-")
        side = side.upper()
        if not dash or side not in ("L", "R"):
            raise LabelError(f"label '{lab}' is not SUBJECT-SIDE")
        ears = by_subject.setdefault(subject, {})
        if side in ears:
            raise LabelError(f"label '{lab}' repeats the ear '{subject}-{side}'")
        ears[side] = int(cluster_)
    matrix = np.zeros((k, k), dtype=np.int64)
    matched = 0
    for subject, ears in sorted(by_subject.items()):
        if len(ears) != 2:
            raise LabelError(f"subject '{subject}' has {len(ears)} ears; need 2")
        left, right = ears["L"], ears["R"]
        matrix[left, right] += 1
        if left == right:
            matched += 1
    n = len(by_subject)
    return matched / n if n else 0.0, matrix, n


@st.composite
def concordance_inputs(draw):
    """Paired SUBJECT-SIDE labels in any case and order, then up to three
    faults: a dropped label, a repeated ear, a label that is not SUBJECT-SIDE
    (a bad side, no dash, or a bare side)."""
    names = st.text(alphabet="Sab-0\x00ſ", max_size=3)
    subjects = draw(st.lists(names, unique=True, max_size=8))
    labels = [f"{s}-{draw(st.sampled_from(side))}" for s in subjects for side in ("Ll", "Rr")]
    labels = draw(st.permutations(labels))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["drop", "repeat", "bad"]))
        at = draw(st.integers(0, len(labels)))
        if fault == "drop" and labels:
            del labels[at % len(labels)]
        elif fault == "repeat" and labels:
            labels.insert(at, draw(st.sampled_from(labels)).swapcase())
        elif fault == "bad":
            side = draw(st.sampled_from(["X", "", "LL", "l-", "ſ", "Left"]))
            bare = draw(st.sampled_from("LlRr"))  # a side without a dash
            labels.insert(at, draw(st.sampled_from([f"{draw(names)}-{side}", draw(names), bare])))
    k = draw(st.integers(1, 4))
    assignments = draw(st.lists(st.integers(0, k - 1), min_size=len(labels),
                                max_size=len(labels)))
    return labels, np.array(assignments, dtype=np.int64), k


@given(concordance_inputs())
@settings(max_examples=300, deadline=None)
def test_concordance_equals_the_per_label_loop(case):
    labels, assignments, k = case

    class FakeReport:
        pass

    FakeReport.labels, FakeReport.assignments = tuple(labels), assignments
    FakeReport.centers = np.zeros((k, 2))
    try:
        expected = reference_concordance(labels, assignments, k)
    except LabelError as exc:
        with pytest.raises(LabelError) as got:
            concordance(FakeReport())
        assert str(got.value) == str(exc)
        return
    con = concordance(FakeReport())
    assert (con.fraction, con.n_subjects) == (expected[0], expected[2])
    np.testing.assert_array_equal(con.match_matrix, expected[1])
    assert con.match_matrix.dtype == expected[1].dtype
