import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aurisense.acquisition import (
    CalibrationReport,
    ChannelModel,
    MuxState,
    SessionRecord,
    calibrate,
    default_archetypes,
    default_cohort_config,
    default_session_config,
    impedance_sweep,
    measure_resistance,
    repeat_readings,
    scan_all,
    simulate_cohort,
    simulate_exercise_session,
    simulation_config,
    sped_model,
)
from aurisense.acquisition import _matched_pair_quota
from aurisense.analysis import concordance as cluster_concordance
from aurisense.errors import (
    CapacityError,
    MuxSequenceError,
    ParameterError,
)
from aurisense.seeding import spawn_rng

MegOhm = 1.0e6


def channel_of(total, sigma=0.0):
    return ChannelModel(r_skin=total, r_contact=0.0, r_series=0.0,
                        noise_sigma=sigma)


# ----------------------------------------------------------------------
# resistance readings
# ----------------------------------------------------------------------

def test_noiseless_reading_at_reference_temperature():
    assert measure_resistance(channel_of(MegOhm), 25.0, seed=0) == MegOhm


def test_temperature_coefficient():
    # 2.6 ohm per degC over a 10 degC rise
    assert measure_resistance(channel_of(MegOhm), 35.0, seed=0) == 1_000_026.0


def test_temperature_linearity():
    ch = channel_of(MegOhm)
    r1 = measure_resistance(ch, 28.0, seed=5)
    r2 = measure_resistance(ch, 41.0, seed=5)
    assert r2 - r1 == pytest.approx(2.6 * 13.0, abs=1e-9)


def test_reading_determinism():
    ch = channel_of(MegOhm, sigma=0.02)
    assert measure_resistance(ch, 25.0, 42) == measure_resistance(ch, 25.0, 42)
    assert measure_resistance(ch, 25.0, 42) != measure_resistance(ch, 25.0, 43)


def test_temperature_domain():
    with pytest.raises(ParameterError):
        measure_resistance(channel_of(MegOhm), 75.0, seed=0)


def test_repeat_readings_deterministic():
    ch = channel_of(MegOhm, sigma=0.05)
    a = repeat_readings(ch, 100, 25.0, seed=9)
    b = repeat_readings(ch, 100, 25.0, seed=9)
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# impedance sweep
# ----------------------------------------------------------------------

def test_sweep_endpoints_exact():
    sweep = impedance_sweep(ChannelModel(), 4.0, 4000.0, 37)
    assert sweep[0, 0] == 4.0
    assert sweep[-1, 0] == 4000.0
    assert sweep.shape == (37, 2)


def test_sweep_monotone_non_increasing():
    sweep = impedance_sweep(ChannelModel(), 4.0, 4000.0, 64)
    assert (np.diff(sweep[:, 1]) <= 1e-9).all()


def test_sweep_negligible_capacitance_limit():
    ch = ChannelModel(r_skin=7e5, r_contact=1e5, r_series=4e4, capacitance=1e-15)
    sweep = impedance_sweep(ch, 4.0, 4000.0, 16)
    np.testing.assert_allclose(sweep[:, 1], 7e5 + 1e5 + 4e4, rtol=1e-4)


def test_sweep_validation():
    with pytest.raises(ParameterError):
        impedance_sweep(ChannelModel(), 0.0, 100.0)
    with pytest.raises(ParameterError):
        impedance_sweep(ChannelModel(), 4.0, 4000.0, 1)


def test_noisy_readings_follow_their_seeded_streams():
    ch = ChannelModel(noise_sigma=0.05)
    base = ch.r_total + ch.alpha * (31.0 - ch.t_ref)
    eps = spawn_rng(8).standard_normal(5)
    assert measure_resistance(ch, 31.0, 8) == base * (1.0 + 0.05 * eps[0])
    np.testing.assert_array_equal(repeat_readings(ch, 5, 31.0, 8), base * (1.0 + 0.05 * eps))
    scan = scan_all(MuxState(), [ch] * 3, 31.0, 8)
    expected = [base * (1.0 + 0.05 * spawn_rng(8, i).standard_normal()) for i in range(3)]
    np.testing.assert_array_equal(scan, expected)


# ----------------------------------------------------------------------
# multiplexer
# ----------------------------------------------------------------------

def test_scan_all_noiseless_values_in_order():
    channels = [channel_of((i + 1) * 1e5) for i in range(13)]
    mux = MuxState()
    readings = scan_all(mux, channels, 25.0, seed=0)
    np.testing.assert_allclose(readings, [(i + 1) * 1e5 for i in range(13)])


def test_scan_log_is_disjoint_per_channel():
    channels = [channel_of(1e5)] * 13
    mux = MuxState()
    scan_all(mux, channels, 25.0, seed=0)
    assert len(mux.log) == 13
    for (c1, on1, off1), (c2, on2, off2) in zip(mux.log, mux.log[1:]):
        assert on1 < off1 <= on2 < off2


def test_capacity_error_on_17_channels():
    channels = [channel_of(1e5)] * 17
    with pytest.raises(CapacityError):
        scan_all(MuxState(n_channels=16), channels, 25.0, seed=0)


def test_scan_all_bad_temperature_leaves_mux_usable():
    channels = [channel_of((i + 1) * 1e5) for i in range(3)]
    mux = MuxState()
    with pytest.raises(ParameterError):
        scan_all(mux, channels, 75.0, seed=0)
    assert mux.active is None and mux.log == []
    readings = scan_all(mux, channels, 25.0, seed=0)
    np.testing.assert_allclose(readings, [1e5, 2e5, 3e5])


def test_mux_single_active_invariant_random_schedule():
    rng = np.random.default_rng(123)
    mux = MuxState(n_channels=16)
    for _ in range(300):
        ch = int(rng.integers(16))
        if mux.active is None:
            mux.activate(ch)
            if rng.random() < 0.2:
                with pytest.raises(MuxSequenceError):
                    mux.activate(int(rng.integers(16)))
        else:
            mux.deactivate(dwell=float(rng.uniform(0.01, 0.5)))
    intervals = [(on, off) for _, on, off in mux.log]
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        assert a1 <= b0 and a0 < a1


def test_mux_rejects_out_of_range_channel():
    with pytest.raises(CapacityError):
        MuxState(n_channels=4).activate(4)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

def test_calibrate_noiseless_exact():
    report = calibrate([0.5e6, 1e6, 5e6, 10e6], 0.0, seed=0)
    assert report.max_rel_error == 0.0
    assert len(report.points) == 4


def test_calibrate_monte_carlo_over_seeds():
    # sigma = 0.01: a 5% error would be a 5-sigma event per point
    for seed in range(10):
        report = calibrate([0.5e6, 1e6, 5e6, 10e6], 0.01, seed=seed)
        assert report.max_rel_error < 0.05


def test_calibrate_empty():
    report = calibrate([], 0.0, seed=0)
    assert report == CalibrationReport(points=(), max_rel_error=0.0)


def test_calibrate_requires_sorted_positive():
    with pytest.raises(ParameterError):
        calibrate([2e6, 1e6], 0.0, seed=0)
    with pytest.raises(ParameterError):
        calibrate([-1.0], 0.0, seed=0)


@pytest.mark.parametrize("sigma", [-0.01, float("nan")], ids=["negative", "nan"])
def test_noise_spreads_must_be_non_negative_numbers(sigma):
    # noise 0 takes no branch of its own, so a bad spread cannot pass for it
    with pytest.raises(ParameterError):
        calibrate([1e6], sigma, seed=0)
    with pytest.raises(ParameterError):
        sped_model(sigma, 5, 1e6, seed=0)
    with pytest.raises(ParameterError):
        ChannelModel(noise_sigma=sigma)


# ----------------------------------------------------------------------
# SPED pressure model
# ----------------------------------------------------------------------

def test_sped_zero_cv_constant():
    readings = sped_model(0.0, 50, 1e6, seed=0)
    assert (readings == 1e6).all()


def test_sped_cv_matches_target():
    readings = sped_model(0.35, 2000, 1e6, seed=1)
    cv = readings.std(ddof=1) / readings.mean()
    assert abs(cv - 0.35) <= 0.05


def test_sped_low_cv_regime():
    readings = sped_model(0.049, 2000, 1e6, seed=2)
    cv = readings.std(ddof=1) / readings.mean()
    assert abs(cv - 0.049) <= 0.01


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


def test_cohort_matched_subject_count_is_exact():
    res = simulate_cohort(None, seed=3)
    by_subject = {}
    for s, a in zip(res.subjects, res.archetype):
        by_subject.setdefault(s, []).append(a)
    matched = sum(1 for ears in by_subject.values() if ears[0] == ears[1])
    assert matched == 24  # round(0.8 * 30)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=5), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_cohort_sizes_and_matched_count_are_exact_for_feasible_configs(sizes, concordance,
                                                                       seed):
    sizes[0] += sum(sizes) % 2
    assume(sum(sizes) > 0)
    try:
        _matched_pair_quota(sizes, concordance)
    except ParameterError:
        assume(False)  # concordance unreachable for these sizes
    cfg = {"archetypes": [[1.0 + a, 2.0, 3.0] for a in range(len(sizes))],
           "sizes": sizes, "concordance": concordance}
    res = simulate_cohort(cfg, seed)
    np.testing.assert_array_equal(np.bincount(res.archetype, minlength=len(sizes)), sizes)
    n_subjects = sum(sizes) // 2
    matched = round(concordance * n_subjects)

    class TruthReport:  # the true archetypes as cluster assignments
        assignments = res.archetype
        centers = np.zeros((len(sizes), 3))
        labels = res.labels

    con = cluster_concordance(TruthReport())
    assert con.n_subjects == n_subjects
    assert np.trace(con.match_matrix) == matched
    assert con.fraction == matched / n_subjects


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
    ("cohort", {"scale_sigma_factor": float("nan")}, "'scale_sigma_factor'"),
    ("cohort", {"archetypes": [[1.0, 2.0], [3.0]], "sizes": [2, 2]}, "'archetypes'"),
    ("cohort", {"concordance": True}, "'concordance'"),
    ("cohort", {"archetypes": [[], [], [], []]}, "at least one AP"),
    ("session", {"baseline_range": [-1, 1e6]}, "'baseline_range'"),
    ("session", {"baseline_range": [1e6]}, "baseline_range must be"),
    ("session", {"hr_baseline": float("nan")}, "'hr_baseline'"),
    ("session", {"noise": float("nan")}, "'noise'"),
    ("session", {"n_aps": 3}, "n_aps must be"),
    ("session", [1, 2], "config must be a JSON object"),
], ids=["misspelt", "no-ears", "negative-size", "fractional-size", "string-sizes",
        "nan-cohort-noise", "nan-scale-sigma", "ragged-archetypes", "bool-concordance", "no-aps",
        "negative-baseline", "one-baseline", "nan-hr", "nan-session-noise", "few-aps",
        "list-config"])
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


def test_session_determinism_and_json_roundtrip():
    a = simulate_exercise_session(None, "S09", "A3", seed=21)
    b = simulate_exercise_session(None, "S09", "A3", seed=21)
    np.testing.assert_array_equal(a.aesr, b.aesr)
    back = SessionRecord.from_json_obj(json.loads(json.dumps(a.to_json_obj())))
    np.testing.assert_allclose(back.aesr, a.aesr)
    assert back.subject == "S09"
    assert back.test == "A3"


def test_session_shape_validation():
    with pytest.raises(ParameterError):
        SessionRecord("s", "t", np.ones((3, 5)), np.ones(4), np.ones(4))
    with pytest.raises(ParameterError):
        SessionRecord("s", "t", -np.ones((4, 5)), np.ones(4), np.ones(4))
