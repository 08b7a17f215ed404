from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aurisense.acquisition import (
    SCALE_SIGMA_FACTOR,
    SessionRecord,
    default_archetypes,
    default_cohort_config,
    default_session_config,
    simulate_cohort,
    simulate_exercise_session,
    simulation_config,
)
from aurisense.acquisition import _pairs
from aurisense.analysis import concordance as cluster_concordance
from aurisense.errors import ParameterError
from aurisense.seeding import spawn_rng


# ----------------------------------------------------------------------
# cohort generator
# ----------------------------------------------------------------------

def test_default_cohort_counts():
    res = simulate_cohort(None, seed=7)
    assert res.rows.shape == (60, 10)
    counts = np.bincount(res.archetype, minlength=4)
    np.testing.assert_array_equal(counts, [35, 17, 5, 3])
    assert len(set(res.labels)) == 60
    assert (res.rows > 0).all()


def test_default_archetype_trends_stay_positive():
    # every AP of every default trend keeps a resistance well above 0
    trends = default_archetypes()
    assert trends.shape == (4, 10)
    assert trends.min() > 0.05


def test_cohort_matched_subject_count_is_exact():
    res = simulate_cohort(None, seed=3)
    by_subject = {}
    for s, a in zip(res.subjects, res.archetype):
        by_subject.setdefault(s, []).append(a)
    matched = sum(1 for ears in by_subject.values() if ears[0] == ears[1])
    assert matched == 24  # round(0.8 * 30)


@lru_cache(maxsize=None)
def _mismatch_pairable(counts):
    """Whether ears with these per-archetype counts pair up with no pair of
    one archetype: the first ear left tries every other archetype."""
    if not any(counts):
        return True
    a = next(i for i, c in enumerate(counts) if c)
    return any(_mismatch_pairable(tuple(c - (i in (a, b)) for i, c in enumerate(counts)))
               for b in range(a + 1, len(counts)) if counts[b])


def _pairing_exists(sizes, k):
    """Brute force: some matched counts m with sum k leave pairable ears."""
    return any(sum(m) == k and _mismatch_pairable(tuple(s - 2 * q for s, q in zip(sizes, m)))
               for m in product(*(range(s // 2 + 1) for s in sizes)))


@given(st.lists(st.integers(0, 12), min_size=1, max_size=4), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_cohort_raises_iff_no_pairing_exists_else_sizes_and_matched_count_are_exact(
        sizes, concordance, seed):
    sizes[0] += sum(sizes) % 2
    if sum(sizes) == 0:
        sizes[0] = 2
    cfg = {"archetypes": [[1.0 + a, 2.0, 3.0] for a in range(len(sizes))],
           "sizes": sizes, "concordance": concordance}
    n_subjects = sum(sizes) // 2
    matched = round(concordance * n_subjects)
    if not _pairing_exists(sizes, matched):
        with pytest.raises(ParameterError, match="concordance unreachable"):
            simulate_cohort(cfg, seed)
        return
    res = simulate_cohort(cfg, seed)
    np.testing.assert_array_equal(np.bincount(res.archetype, minlength=len(sizes)), sizes)

    class TruthReport:  # the true archetypes as cluster assignments
        assignments = res.archetype
        centers = np.zeros((len(sizes), 3))
        labels = res.labels

    con = cluster_concordance(TruthReport())
    assert con.n_subjects == n_subjects
    assert np.trace(con.match_matrix) == matched
    assert con.fraction == matched / n_subjects


@pytest.mark.parametrize("sizes, seed", [([35, 17, 5, 3], 4), ([6, 0, 9, 1], 13)],
                         ids=["default-sizes", "an-empty-archetype"])
def test_cohort_ears_follow_the_documented_stream(sizes, seed):
    """Subject i holds pair order[i] of the shuffle, sides swapped by the
    i-th draw, both from spawn_rng(seed, 0); ear e's AP noises and then its
    scale are row e of one standard-normal draw from spawn_rng(seed, 1),
    whose rows do not depend on how many follow them."""
    cfg = dict(default_cohort_config(), sizes=sizes)
    cfg["archetypes"] = cfg["archetypes"][:len(sizes)]
    res = simulate_cohort(cfg, seed)
    trends = np.asarray(cfg["archetypes"])
    n_aps = trends.shape[1]
    pairs = _pairs(sizes, cfg["concordance"])
    rng = spawn_rng(seed, 0)
    order = rng.permutation(len(pairs))
    swaps = [rng.random() < 0.5 for _ in pairs]
    z = spawn_rng(seed, 1).standard_normal((4 * len(pairs), n_aps + 1))
    sigma = cfg["noise"] * SCALE_SIGMA_FACTOR
    assert len(res.labels) == 2 * len(pairs) and (pairs[:, 0] != pairs[:, 1]).any()
    for e in range(2 * len(pairs)):
        subject, side = divmod(e, 2)
        arch = pairs[order[subject], side ^ swaps[subject]]
        row = trends[arch] * np.exp(cfg["noise"] * z[e, :n_aps])
        row *= np.exp(sigma * z[e, n_aps])
        assert res.labels[e] == f"S{subject + 1:02d}-{'LR'[side]}"
        assert res.archetype[e] == arch
        assert res.rows[e].tobytes() == row.tobytes()


@pytest.mark.parametrize("scale", [1, 80], ids=["60-ears", "4800-ears"])
def test_cohort_draws_from_two_streams_whatever_its_size(monkeypatch, scale):
    calls = []

    def counting_spawn_rng(seed, *path):
        calls.append(path)
        return spawn_rng(seed, *path)

    monkeypatch.setattr("aurisense.acquisition.spawn_rng", counting_spawn_rng)
    cfg = dict(default_cohort_config(), sizes=[35 * scale, 17 * scale, 5 * scale, 3 * scale])
    assert simulate_cohort(cfg, seed=2).rows.shape[0] == 60 * scale
    assert len(calls) <= 2


@pytest.mark.parametrize("scale", [20, 80], ids=["1200-ears", "4800-ears"])
def test_pairs_balance_the_relative_shortfall_of_the_movable_archetypes(scale):
    """The box lifts the largest archetype's matched count above its quota,
    so the others step down; each step goes where step * (quota - m) / quota
    is largest, which leaves those shortfalls within one step, 1 / quota."""
    sizes = np.array([35, 17, 5, 3]) * scale
    concordance = default_cohort_config()["concordance"]
    pairs = _pairs(sizes, concordance)
    m = np.bincount(pairs[pairs[:, 0] == pairs[:, 1], 0], minlength=sizes.size)
    n = sizes.sum() // 2
    k = round(concordance * n)
    lo = np.maximum(0, -((n - k - sizes) // 2))
    quota = k * sizes / sizes.sum()
    step = int(np.sign(k - np.clip(np.floor(quota), lo, sizes // 2).sum()))
    assert m.sum() == k and step == -1
    movable = (m + step >= lo) & (m + step <= sizes // 2)
    assert movable.tolist() == [False, True, True, True]
    short = step * (quota - m) / quota
    assert np.ptp(short[movable]) <= (1.0 / quota[movable]).max() + 1e-12


def test_cohort_noise_zero_single_archetype_identical_rows():
    cfg = default_cohort_config()
    cfg.update({"archetypes": [cfg["archetypes"][0]], "sizes": [10],
                "concordance": 1.0, "noise": 0.0})
    res = simulate_cohort(cfg, seed=1)
    assert np.ptp(res.rows, axis=0).max() == 0.0


def test_cohort_full_concordance_with_even_sizes():
    cfg = default_cohort_config()
    cfg.update({"sizes": [20, 16, 14, 10], "concordance": 1.0})
    res = simulate_cohort(cfg, seed=5)
    by_subject = {}
    for s, a in zip(res.subjects, res.archetype):
        by_subject.setdefault(s, []).append(a)
    assert all(e[0] == e[1] for e in by_subject.values())


def test_cohort_determinism():
    a = simulate_cohort(None, seed=11)
    b = simulate_cohort(None, seed=11)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert a.labels == b.labels


def test_cohort_odd_sizes_full_concordance_unreachable():
    cfg = default_cohort_config()
    cfg["concordance"] = 1.0  # sizes 35/17/5/3 are odd: no perfect pairing
    with pytest.raises(ParameterError):
        simulate_cohort(cfg, seed=0)


# ----------------------------------------------------------------------
# simulation configs
# ----------------------------------------------------------------------

def test_config_merges_partial_dicts_and_drops_comment_keys():
    changed = default_cohort_config()
    changed["archetypes"][0][0] = -1.0  # each call returns its own lists
    assert default_cohort_config()["archetypes"] == default_archetypes().tolist()
    assert simulation_config("cohort", None) == default_cohort_config()
    cfg = simulation_config("cohort", {"sizes": [70, 34, 10, 6], "_note": "x"})
    assert cfg == dict(default_cohort_config(), sizes=[70, 34, 10, 6])
    assert simulation_config("session", {"noise": 0}) == dict(default_session_config(), noise=0)


@pytest.mark.parametrize("kind, config, message", [
    ("cohort", {"noize": 0.1}, "unknown config field 'noize'"),
    ("cohort", {"sizes": [0, 0, 0, 0]}, "positive, even"),
    ("cohort", {"sizes": [35, 17, 5, -3]}, "'sizes'"),
    ("cohort", {"sizes": [35.7, 17, 5, 3]}, "'sizes'"),
    ("cohort", {"sizes": "abc"}, "'sizes'"),
    ("cohort", {"noise": float("nan")}, "'noise'"),
    ("cohort", {"scale_sigma_factor": float("nan")}, "unknown config field 'scale_sigma_factor'"),
    ("cohort", {"archetypes": [[1.0, 2.0], [3.0]], "sizes": [2, 2]}, "'archetypes'"),
    ("cohort", {"concordance": True}, "'concordance'"),
    ("cohort", {"archetypes": [[], [], [], []]}, "at least one AP"),
    ("session", {"baseline_range": [-1, 1e6]}, "unknown config field 'baseline_range'"),
    ("session", {"hr_baseline": float("nan")}, "unknown config field 'hr_baseline'"),
    ("session", {"hr_rise": 0.4}, "unknown config field 'hr_rise'"),
    ("session", {"noise": float("nan")}, "'noise'"),
    ("session", [1, 2], "config must be a JSON object"),
], ids=["misspelt", "no-ears", "negative-size", "fractional-size", "string-sizes",
        "nan-cohort-noise", "nan-scale-sigma", "ragged-archetypes", "bool-concordance", "no-aps",
        "negative-baseline", "nan-hr", "removed-field", "nan-session-noise", "list-config"])
def test_simulators_reject_a_bad_config_field(kind, config, message):
    with pytest.raises(ParameterError, match=message):
        simulation_config(kind, config)
    with pytest.raises(ParameterError, match=message):
        if kind == "cohort":
            simulate_cohort(config, 1)
        else:
            simulate_exercise_session(config, "S01", "A1", 1)


# ----------------------------------------------------------------------
# exercise sessions
# ----------------------------------------------------------------------

def noise_free():
    cfg = default_session_config()
    cfg["noise"] = 0.0
    return cfg


def test_control_session_noise_zero_identical_periods():
    rec = simulate_exercise_session(noise_free(), "S01", "B1", seed=4)
    for p in range(1, 4):
        np.testing.assert_array_equal(rec.aesr[p], rec.aesr[0])
    np.testing.assert_array_equal(rec.hr, rec.hr[0] * np.ones(4))


def test_cycling_noise_zero_exact_multipliers():
    rec = simulate_exercise_session(noise_free(), "S01", "A1", seed=4)
    ratios = rec.aesr[1] / rec.aesr[0]
    # period II at AP1-6: the configured drops
    np.testing.assert_allclose(
        ratios[:6], [0.392, 0.332, 0.446, 0.351, 0.422, 0.487], rtol=1e-12)
    # AP7-13 dropped by less than 23.5%
    assert (ratios[6:] >= 0.765).all()
    # period III: back to 67.7% of the initial level at the active APs
    np.testing.assert_allclose(rec.aesr[2][:6] / rec.aesr[0][:6], 0.677, rtol=1e-12)
    # period IV: exactly the baseline
    np.testing.assert_array_equal(rec.aesr[3], rec.aesr[0])


def test_cycling_hr_bp_multipliers():
    rec = simulate_exercise_session(noise_free(), "S01", "A2", seed=4)
    assert rec.hr[1] / rec.hr[0] == pytest.approx(1.429, rel=1e-12)
    assert rec.bp[1] / rec.bp[0] == pytest.approx(1.16, rel=1e-12)
    assert rec.hr[3] == rec.hr[0]
    assert rec.hr[0] < rec.hr[2] < rec.hr[1]  # decaying back toward baseline


def test_session_determinism():
    a = simulate_exercise_session(None, "S09", "A3", seed=21)
    b = simulate_exercise_session(None, "S09", "A3", seed=21)
    np.testing.assert_array_equal(a.aesr, b.aesr)
    assert a.to_json_obj() == b.to_json_obj()


def test_session_shape_validation():
    with pytest.raises(ParameterError):
        SessionRecord("s", "t", np.ones((3, 5)), np.ones(4), np.ones(4))
    with pytest.raises(ParameterError):
        SessionRecord("s", "t", -np.ones((4, 5)), np.ones(4), np.ones(4))
