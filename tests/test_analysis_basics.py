import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aurisense.acquisition import default_cohort_config, simulate_cohort
from aurisense.analysis import stats
from aurisense.analysis import normalize_spatial, pca
from aurisense.errors import DomainError, ParameterError, UndefinedCorrelationError
from aurisense.analysis.stats import correlation
from aurisense.seeding import spawn_rng

positive_rows = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), min_size=2, max_size=16)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalize_spatial_basic():
    np.testing.assert_allclose(normalize_spatial([2.0, 4.0, 6.0]), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(normalize_spatial([5.0, 5.0, 5.0]), 1.0)


@given(positive_rows)
@settings(max_examples=50, deadline=None)
def test_normalize_spatial_reference_entry_is_one(row):
    out = normalize_spatial(row)
    assert out[0] == 1.0


def test_normalize_spatial_matrix_matches_rows():
    rows = np.random.default_rng(0).uniform(0.1, 5.0, size=(40, 10))
    expected = np.stack([normalize_spatial(r) for r in rows])
    assert np.array_equal(normalize_spatial(rows), expected)


def test_normalize_spatial_rejects_nonpositive():
    with pytest.raises(DomainError):
        normalize_spatial([1.0, 0.0, 2.0])


# ----------------------------------------------------------------------
# PCA
# ----------------------------------------------------------------------

def test_pca_line_explains_everything():
    t = np.linspace(-1, 1, 40)
    direction = np.array([1.0, -2.0, 0.5, 3.0])
    data = np.outer(t, direction) + 7.0
    res = pca(data, k=1)
    assert res.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30, 8))
    res = pca(data, k=4)
    gram = res.components @ res.components.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)


def test_pca_ev_ratios_non_increasing_and_bounded():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(25, 6))
    res = pca(data, k=5)
    ev = res.explained_variance_ratio
    assert (np.diff(ev) <= 1e-12).all()
    assert ev.sum() <= 1.0 + 1e-9
    assert (ev >= 0).all()


def test_pca_reconstruction_error_non_increasing_in_k():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(20, 7))
    errs = []
    for k in range(1, 7):
        res = pca(data, k=k)
        recon = res.scores @ res.components + res.mean
        errs.append(np.linalg.norm(data - recon))
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


def test_pca_full_rank_ev_sums_to_one():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(12, 5))
    res = pca(data, k=5)
    assert res.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)


def test_pca_noiseless_cohort_rank_three():
    cfg = default_cohort_config()
    cfg["noise"] = 0.0
    res = simulate_cohort(cfg, seed=0)
    rows = np.stack([normalize_spatial(r) for r in res.rows])
    p = pca(rows, k=3)
    assert p.explained_variance_ratio.sum() >= 0.999


def test_pca_parameter_errors():
    data = np.eye(4)
    with pytest.raises(ParameterError):
        pca(data, k=4)  # k > M-1
    with pytest.raises(ParameterError):
        pca(data[:1], k=1)
    with pytest.raises(ParameterError, match="2-D"):
        pca(data[0], k=1)


def test_pca_deterministic_sign():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(15, 5))
    a = pca(data, k=3)
    b = pca(data, k=3)
    np.testing.assert_array_equal(a.components, b.components)


# ----------------------------------------------------------------------
# correlation
# ----------------------------------------------------------------------

def test_pcc_identity():
    x = np.arange(10.0)
    res = correlation(x, x, n_perm=500, seed=0)
    assert res.pcc == pytest.approx(1.0, abs=1e-12)
    assert res.p_value == pytest.approx(1 / 501)
    assert res.correlated


def test_pcc_affine_anticorrelation():
    x = np.linspace(0, 5, 12)
    y = -2.0 * x + 7.0
    assert correlation(x, y, n_perm=0).pcc == pytest.approx(-1.0, abs=1e-12)


def test_pcc_matches_direct_formula_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        num = np.sum((x - x.mean()) * (y - y.mean()))
        den = np.sqrt(np.sum((x - x.mean()) ** 2) * np.sum((y - y.mean()) ** 2))
        assert correlation(x, y, n_perm=0).pcc == pytest.approx(num / den, abs=1e-12)


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0),
       st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_pcc_invariant_under_positive_affine_maps(a, b, c, d):
    rng = np.random.default_rng(11)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    r0 = correlation(x, y, n_perm=0).pcc
    r1 = correlation(a * x + b, c * y + d, n_perm=0).pcc
    assert r1 == pytest.approx(r0, abs=1e-12)


def test_permutation_p_is_seed_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=15)
    y = x + rng.normal(size=15)
    p1 = correlation(x, y, n_perm=2000, seed=5).p_value
    p2 = correlation(x, y, n_perm=2000, seed=5).p_value
    p3 = correlation(x, y, n_perm=2000, seed=6).p_value
    assert p1 == p2
    assert p1 != p3 or p1 <= 1 / 2001  # different seed may differ unless at floor


def _loop_p_value(x, y, n_perm, seed):
    """Per-permutation reference: one rng.permutation(y) per test statistic."""
    rng = spawn_rng(seed)
    xc = x - x.mean()
    sx = np.sqrt((xc * xc).sum())
    yc = y - y.mean()
    r_obs = (xc * yc).sum() / (sx * np.sqrt((yc * yc).sum()))
    hits = 0
    for _ in range(n_perm):
        yp = rng.permutation(y)
        yc = yp - yp.mean()
        r = (xc * yc).sum() / (sx * np.sqrt((yc * yc).sum()))
        if abs(r) >= abs(r_obs) - 1e-12:
            hits += 1
    return (1 + hits) / (n_perm + 1)


@pytest.mark.parametrize("n", [3, 15, 80])
@pytest.mark.parametrize("n_perm", [0, 2500, 10000])
def test_blocked_permutations_match_per_permutation_loop(n, n_perm):
    # 2500 and 10000 are not multiples of PERM_BLOCK: the last block is short
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = 0.3 * x + rng.normal(size=n)
    for seed in (0, 17):
        res = correlation(x, y, n_perm=n_perm, seed=seed)
        assert res.p_value == _loop_p_value(x, y, n_perm, seed)
    if n_perm == 0:
        assert res.p_value == 1.0


def _exact_hits(x, y, n_perm, seed):
    """(hits, exact ties) of the loop's shuffles in integer arithmetic.

    A shuffle keeps both norms, so for integer samples |r_perm| >= |r_obs|
    iff |n·sum(x·y_perm) - sum(x)·sum(y)| >= |n·sum(x·y) - sum(x)·sum(y)|.
    """
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    rng = spawn_rng(seed)

    def cross(yp):
        return abs(x.size * int(x @ yp) - int(x.sum()) * int(y.sum()))

    obs = cross(y)
    crosses = [cross(rng.permutation(y)) for _ in range(n_perm)]
    return sum(c >= obs for c in crosses), sum(c == obs for c in crosses)


# repeated values: many shuffles score exactly |r_obs|; the means of n = 6
# are not binary fractions, so those ties differ from r_obs by rounding
TIED = {4: ([0, 1, 1, 2], [1, 1, 3, 3]), 6: ([1, 1, 2, 2, 2, 5], [0, 3, 3, 7, 7, 8])}


@pytest.mark.parametrize("n", sorted(TIED))
@pytest.mark.parametrize("n_perm", [2500] + [k * stats.PERM_BLOCK + d
                                             for k in (1, 4) for d in (-1, 0, 1)])
def test_tied_samples_count_exact_ties_at_block_edges(n, n_perm):
    # one short of, on and one past the end of the first and of the fourth
    # block; 4! and 6! are below 2500, so every shuffle recurs
    x, y = (np.array(v, dtype=np.float64) for v in TIED[n])
    for seed in (0, 17):
        hits, ties = _exact_hits(x, y, n_perm, seed)
        assert 0 < ties and hits < n_perm
        p = correlation(x, y, n_perm=n_perm, seed=seed).p_value
        assert p == _loop_p_value(x, y, n_perm, seed) == (1 + hits) / (n_perm + 1)


def test_interleaved_tests_each_match_the_per_permutation_loop():
    # the cached shuffles of one (seed, n, n_perm) must not leak into the
    # next; n <= 256 draws uint8 indices, n = 300 uint16 and n = 70000 uint32
    for seed, n, n_perm in [(0, 15, 2500), (17, 300, 2500), (0, 15, 2500), (0, 15, 0),
                            (17, 80, 2500), (0, 300, 2500), (17, 80, 0), (17, 80, 2500),
                            (5, 70000, 3)]:
        rng = np.random.default_rng(n + seed)
        x = rng.normal(size=n)
        y = 0.1 * x + rng.normal(size=n)
        assert correlation(x, y, n_perm=n_perm, seed=seed).p_value == \
            _loop_p_value(x, y, n_perm, seed)


def test_cached_permutations_are_read_only_and_drawn_once(monkeypatch):
    for n, dtype in ((256, np.uint8), (257, np.uint16), (65537, np.uint32)):
        perms = stats._permutations(3, n, 10)
        assert perms.dtype == dtype and not perms.flags.writeable
        with pytest.raises(ValueError):
            perms[0, 0] = 0
    draws = []

    def spy(*args):
        draws.append(args)
        return spawn_rng(*args)

    monkeypatch.setattr(stats, "spawn_rng", spy)
    stats._permutations.cache_clear()
    x = np.arange(20.0)
    y = np.sin(x)
    first = correlation(x, y, n_perm=300, seed=4)
    assert correlation(x, y, n_perm=300, seed=4) == first
    assert draws == [(4,)]
    correlation(x[:19], y[:19], n_perm=300, seed=4)
    assert draws == [(4,), (4,)]


@pytest.mark.parametrize("x, n_perm, seed", [
    (np.arange(6.0), -5, 0),
    (np.arange(6.0), -1, 0),
    (np.arange(6.0), 2.5, 0),
    (np.arange(6.0), True, 0),
    (np.arange(6.0), 100, -1),
    (np.arange(6.0), 100, 1.5),
    (np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0]), 100, 0),
    (np.array([0.0, 1.0, np.inf, 3.0, 4.0, 5.0]), 100, 0),
], ids=["n-perm-minus-5", "n-perm-minus-1", "fractional-n-perm", "bool-n-perm",
        "negative-seed", "fractional-seed", "nan-x", "inf-x"])
def test_correlation_rejects_bad_inputs_at_its_boundary(x, n_perm, seed):
    with pytest.raises(ParameterError):
        correlation(x, np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0]), n_perm=n_perm, seed=seed)
    with pytest.raises(ParameterError):
        correlation(np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0]), x, n_perm=n_perm, seed=seed)


@pytest.mark.parametrize("seed", ["3", 2.5, True, -1],
                         ids=["string", "fractional", "bool", "negative"])
def test_spawn_rng_takes_only_a_whole_seed(seed):
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        spawn_rng(seed)
    assert spawn_rng(np.uint8(3), 1).random() == spawn_rng(3, 1).random()


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, np.nan, 3.0], [1.0, 2.0, 3.0, 5.0]),
    ([0.0, 1.0, 2.0, 3.0], [1.0, -np.inf, 3.0, 5.0]),
    ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 5.0]]),
    ([0.0, 1.0], [1.0, 2.0]),
], ids=["nan-x", "inf-y", "unequal-lengths", "two-d", "two-samples"])
def test_pearson_rejects_bad_inputs(x, y):
    with pytest.raises(ParameterError):
        correlation(x, y, n_perm=0)


def test_correlation_zero_variance():
    with pytest.raises(UndefinedCorrelationError):
        correlation(np.ones(5), np.arange(5.0), n_perm=0)


def test_verdict_rule():
    rng = np.random.default_rng(9)
    x = rng.normal(size=40)
    res = correlation(x, rng.normal(size=40), n_perm=500, seed=0)
    assert not res.correlated  # independent noise: p large or |r| < 0.4
