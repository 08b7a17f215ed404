"""Deterministic simulation of the multiplexed AESR/AESI acquisition chain.

Everything here is a pure function of (config, seed): channel resistance
readings, frequency sweeps, multiplexed scans, calibration runs, synthetic
population cohorts and exercise sessions.  Sub-streams are derived with
``aurisense.seeding.spawn_rng`` so parallel generation would match a
sequential run exactly.

Noise is multiplicative lognormal on the total resistance: the reported
repeatability statistics are coefficients of variation, which a
multiplicative model reproduces independently of the resistance scale.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, MuxSequenceError, ParameterError
from .seeding import spawn_rng

PERIODS = ("I", "II", "III", "IV")


# ----------------------------------------------------------------------
# channel model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelModel:
    """Series resistance chain of one electrode channel.

    ``alpha`` is the temperature coefficient in ohm per degC around
    ``t_ref``; ``noise_sigma`` is the relative standard deviation of the
    multiplicative measurement noise; ``capacitance`` is the parallel skin
    capacitance used by the impedance sweep.
    """

    r_skin: float = 8.0e5
    r_contact: float = 1.5e5
    r_series: float = 5.0e4
    alpha: float = 2.6
    t_ref: float = 25.0
    noise_sigma: float = 0.0
    capacitance: float = 20e-9

    def __post_init__(self):
        if min(self.r_skin, self.r_contact, self.r_series) < 0:
            raise ParameterError("resistances must be >= 0")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        if self.capacitance <= 0:
            raise ParameterError("capacitance must be > 0")

    @property
    def r_total(self) -> float:
        return self.r_skin + self.r_contact + self.r_series


def _check_temperature(temperature: float) -> None:
    if not 0.0 <= temperature <= 60.0:
        raise ParameterError("temperature must be within [0, 60] degC")


def _readings(channel: ChannelModel, temperature: float, n: int, *stream: int) -> np.ndarray:
    """``n`` readings (ohm), their noise drawn from ``spawn_rng(*stream)``."""
    _check_temperature(temperature)
    base = channel.r_total + channel.alpha * (temperature - channel.t_ref)
    eps = spawn_rng(*stream).standard_normal(n) if channel.noise_sigma > 0 else np.zeros(n)
    return base * (1.0 + channel.noise_sigma * eps)


def measure_resistance(channel: ChannelModel, temperature: float, seed: int) -> float:
    """One noisy resistance reading (ohm) at the given temperature."""
    return float(_readings(channel, temperature, 1, seed)[0])


def repeat_readings(channel: ChannelModel, n: int, temperature: float,
                    seed: int) -> np.ndarray:
    """``n`` independent readings from one seeded stream."""
    return _readings(channel, temperature, n, seed)


def impedance_sweep(channel: ChannelModel, f_min: float = 4.0,
                    f_max: float = 4000.0, n_points: int = 50) -> np.ndarray:
    """|Z|(f) of the series + parallel-RC skin model, log-uniform in f.

    Returns an (n, 2) array of (frequency Hz, |Z| ohm) including both
    endpoints exactly.
    """
    if not 0.0 < f_min < f_max:
        raise ParameterError("need 0 < f_min < f_max")
    if n_points < 2:
        raise ParameterError("need at least 2 sweep points")
    f = np.exp(np.linspace(np.log(f_min), np.log(f_max), n_points))
    f[0] = f_min
    f[-1] = f_max
    r_p = channel.r_skin + channel.r_contact
    mag = channel.r_series + r_p / np.sqrt(1.0 + (2.0 * np.pi * f * r_p * channel.capacitance) ** 2)
    return np.stack([f, mag], axis=1)


# ----------------------------------------------------------------------
# multiplexer
# ----------------------------------------------------------------------

@dataclass
class MuxState:
    """Single-owner state machine for an n-way analog multiplexer.

    At most one channel is active at any time; the switch log is a list of
    non-overlapping, strictly time-ordered (channel, t_on, t_off) tuples.
    """

    n_channels: int = 16
    dwell: float = 0.1
    active: int | None = None
    t: float = 0.0
    log: list = field(default_factory=list)

    def activate(self, channel: int) -> None:
        if not 0 <= channel < self.n_channels:
            raise CapacityError(
                f"channel {channel} outside the {self.n_channels}-channel mux"
            )
        if self.active is not None:
            raise MuxSequenceError(
                f"channel {self.active} is still active; deactivate first"
            )
        self.active = channel
        self._t_on = self.t

    def deactivate(self, dwell: float | None = None) -> None:
        if self.active is None:
            raise MuxSequenceError("no active channel")
        dt = self.dwell if dwell is None else float(dwell)
        if dt <= 0:
            raise MuxSequenceError("dwell must be positive")
        t_off = self._t_on + dt
        self.log.append((self.active, self._t_on, t_off))
        self.t = t_off
        self.active = None


def scan_all(mux: MuxState, channels, temperature: float, seed: int) -> np.ndarray:
    """One reading per channel, each taken while that channel alone is active."""
    if len(channels) > mux.n_channels:
        raise CapacityError(
            f"{len(channels)} channels exceed the {mux.n_channels}-channel mux"
        )
    _check_temperature(temperature)
    readings = np.empty(len(channels))
    for i, ch in enumerate(channels):
        mux.activate(i)
        readings[i] = _readings(ch, temperature, 1, seed, i)[0]
        mux.deactivate()
    return readings


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationReport:
    points: tuple  # (reference ohm, measured ohm, relative error)
    max_rel_error: float


def calibrate(references, noise_sigma: float, seed: int) -> CalibrationReport:
    """Measure each reference resistor and report relative errors."""
    refs = [float(r) for r in references]
    if any(r <= 0 for r in refs):
        raise ParameterError("references must be positive")
    if refs != sorted(refs):
        raise ParameterError("references must be sorted ascending")
    points = []
    for i, ref in enumerate(refs):
        # per-reference sub-stream so the report does not depend on list length
        eps = float(spawn_rng(seed, i).standard_normal()) if noise_sigma > 0 else 0.0
        measured = ref * (1.0 + noise_sigma * eps)
        points.append((ref, measured, abs(measured - ref) / ref))
    max_err = max((p[2] for p in points), default=0.0)
    return CalibrationReport(points=tuple(points), max_rel_error=max_err)


# ----------------------------------------------------------------------
# SPED baseline (pressure-sensitive probe)
# ----------------------------------------------------------------------

def sped_model(pressure_cv: float, n_readings: int, true_r: float,
               seed: int) -> np.ndarray:
    """Readings of a hand-held probe whose contact term varies with pressure.

    The contact resistance is scaled by a mean-one lognormal factor whose
    spread is chosen so the reading CV equals ``pressure_cv``.
    """
    if pressure_cv < 0:
        raise ParameterError("pressure_cv must be >= 0")
    if pressure_cv == 0:
        return np.full(n_readings, float(true_r))
    sigma = np.sqrt(np.log1p(pressure_cv ** 2))
    z = spawn_rng(seed).standard_normal(n_readings)
    return true_r * np.exp(sigma * z - 0.5 * sigma * sigma)


# ----------------------------------------------------------------------
# simulation configs
# ----------------------------------------------------------------------

_COUNTS = {"sizes", "n_aps"}
_POSITIVE = {"archetypes", "hr_baseline", "bp_baseline", "baseline_range"}
_FRACTIONS = {"concordance", "active_drops", "inactive_drop_max", "recovery_level",
              "vital_recovery_remainder"}


def simulation_config(kind: str, config: dict | None = None) -> dict:
    """The default ``kind`` config ('cohort' or 'session') updated by ``config``.

    Each field holds finite numbers nested like its default: whole numbers in
    ``_COUNTS``, > 0 in ``_POSITIVE``, in [0, 1] in ``_FRACTIONS``, else >= 0.
    Keys starting with '_' are comments and drop out; other unknown keys are
    errors.  Values are kept as given, so the digest is of what was written.
    """
    defaults = default_cohort_config() if kind == "cohort" else default_session_config()
    config = {} if config is None else config
    if not isinstance(config, dict):
        raise ParameterError("config must be a JSON object")
    unknown = [k for k in config if k not in defaults and not str(k).startswith("_")]
    if unknown:
        raise ParameterError(f"unknown config field '{unknown[0]}'")
    cfg = {**defaults, **{k: v for k, v in config.items() if k in defaults}}
    for key, value in cfg.items():
        ndim = np.asarray(defaults[key]).ndim
        hi = 1.0 if key in _FRACTIONS else np.inf
        try:
            a = np.asarray(value)
        except ValueError:  # ragged nesting
            a = np.asarray(None)
        if not (a.dtype.kind in "iuf" and a.ndim == ndim and all(
                0 <= x < np.inf and x <= hi and (x > 0 or key not in _POSITIVE)
                and (x % 1 == 0 or key not in _COUNTS) for x in a.ravel().tolist())):
            rule = "in [0, 1]" if hi == 1.0 else "> 0" if key in _POSITIVE else ">= 0"
            shape = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]
            raise ParameterError(f"config field '{key}' must be {shape} "
                                 f"({'whole, ' if key in _COUNTS else ''}finite, {rule})")
    if kind == "cohort":
        total = sum(int(s) for s in cfg["sizes"])
        if total == 0 or total % 2:
            raise ParameterError("sizes must add up to a positive, even ear count")
        if len(cfg["archetypes"]) != len(cfg["sizes"]) or not len(cfg["archetypes"][0]):
            raise ParameterError("need one archetype trend of at least one AP per size entry")
    elif int(cfg["n_aps"]) < max(len(cfg["active_drops"]), 1):
        raise ParameterError("n_aps must be at least 1 and at least the active-drop count")
    elif len(cfg["baseline_range"]) != 2 or cfg["baseline_range"][0] > cfg["baseline_range"][1]:
        raise ParameterError("baseline_range must be [low, high] with low <= high")
    return cfg


# ----------------------------------------------------------------------
# population cohort generator
# ----------------------------------------------------------------------

def default_archetypes(n_aps: int = 10, separation: float = 0.9) -> np.ndarray:
    """Four AESR trend vectors, mutually separated, positive everywhere.

    The trends share a common profile and differ by offsets placed at the
    corners of a (stretched) tetrahedron inside a 3-dimensional subspace of
    smooth AP patterns, so that four clusters of unequal size still elbow
    at K = 4.  Illustrative defaults, not measured data.
    """
    j = np.arange(1, n_aps, dtype=np.float64)
    t = (j - 1) / max(n_aps - 2, 1)
    p1 = np.cos(np.pi * t)
    p2 = np.sin(2.0 * np.pi * t)
    p3 = np.cos(3.0 * np.pi * t)
    basis = []
    for p in (p1, p2, p3):
        q = p.copy()
        for b in basis:
            q -= (q @ b) * b
        basis.append(q / np.linalg.norm(q))
    u1, u2, u3 = basis
    # equilateral triangle plus one vertex pulled away (1.6x the side)
    side = separation
    coords = np.array([
        [0.0, 0.0, 0.0],
        [side, 0.0, 0.0],
        [0.5 * side, np.sqrt(3.0) / 2.0 * side, 0.0],
        [0.5 * side, np.sqrt(3.0) / 6.0 * side, 1.4922 * side],
    ])
    base = np.full(n_aps, 1.2)
    base[0] = 1.0
    trends = np.tile(base, (4, 1))
    for k in range(4):
        trends[k, 1:] += coords[k, 0] * u1 + coords[k, 1] * u2 + coords[k, 2] * u3
    if trends.min() <= 0.05:
        raise ParameterError("archetype trends must stay positive")
    return trends


_DEFAULT_ARCHETYPES = default_archetypes()


def default_cohort_config() -> dict:
    return {
        "archetypes": _DEFAULT_ARCHETYPES.tolist(),
        "sizes": [35, 17, 5, 3],
        "concordance": 0.8,
        "noise": 0.045,
        "scale_sigma_factor": 3.0,
    }


@dataclass(frozen=True)
class CohortResult:
    labels: tuple          # "S01-L" style, one per ear
    rows: np.ndarray       # (M, N) AESR trends x noise
    archetype: np.ndarray  # (M,) true archetype index per ear
    subjects: tuple
    sides: tuple
    config: dict           # the checked config the cohort was drawn from

    def __post_init__(self):
        self.rows.flags.writeable = False
        self.archetype.flags.writeable = False


def _matched_pair_quota(sizes, concordance):
    """Pairs-per-archetype so totals are exact and mismatches can be paired.

    Deterministic largest-remainder allocation with a feasibility fix-up:
    a leftover pool is pairable iff its largest entry does not exceed the
    sum of the others (and the total is even).
    """
    total = sum(sizes)
    n_subjects = total // 2
    k_matched = int(round(concordance * n_subjects))
    quotas = [k_matched * s / total for s in sizes]
    m = [min(int(np.floor(q)), s // 2) for q, s in zip(quotas, sizes)]
    # distribute the remainder by largest fractional part, capacity permitting
    order = sorted(range(len(sizes)), key=lambda a: quotas[a] - np.floor(quotas[a]),
                   reverse=True)
    i = 0
    while sum(m) < k_matched and i < 4 * len(sizes):
        a = order[i % len(sizes)]
        if m[a] + 1 <= sizes[a] // 2:
            m[a] += 1
        i += 1
    if sum(m) < k_matched:
        raise ParameterError(
            "concordance unreachable for these archetype sizes"
        )

    def leftovers():
        return [s - 2 * q for s, q in zip(sizes, m)]

    guard = 0
    while True:
        lo = leftovers()
        big = int(np.argmax(lo))
        if lo[big] * 2 <= sum(lo):
            break
        # pair two ears of the dominant archetype; release a pair elsewhere
        if m[big] + 1 > sizes[big] // 2:
            raise ParameterError("concordance unreachable for these archetype sizes")
        m[big] += 1
        candidates = [a for a in range(len(sizes)) if a != big and m[a] > 0]
        if not candidates:
            raise ParameterError("concordance unreachable for these archetype sizes")
        donor = min(candidates, key=lambda a: leftovers()[a])
        m[donor] -= 1
        guard += 1
        if guard > 10 * total:
            raise ParameterError("concordance quota fix-up did not converge")
    return m


def simulate_cohort(config: dict | None, seed: int) -> CohortResult:
    """Synthetic two-ears-per-subject AESR cohort with labeled ground truth.

    Archetype sizes are met exactly; the number of subjects whose two ears
    share an archetype equals round(concordance * n_subjects).  Which
    subjects are which, the side assignment, and the multiplicative noise
    all come from the seed.
    """
    cfg = simulation_config("cohort", config)
    trends = np.asarray(cfg["archetypes"], dtype=np.float64)
    sizes = [int(s) for s in cfg["sizes"]]
    concordance = float(cfg["concordance"])
    noise = float(cfg["noise"])
    scale_sigma = noise * float(cfg["scale_sigma_factor"])

    m = _matched_pair_quota(sizes, concordance)
    pairs = []  # (archetype_left_candidate, archetype_right_candidate)
    for a, q in enumerate(m):
        pairs.extend([(a, a)] * q)
    lo = [s - 2 * q for s, q in zip(sizes, m)]
    pool = {a: l for a, l in enumerate(lo)}
    while sum(pool.values()) > 0:
        ranked = sorted(pool, key=lambda a: (-pool[a], a))
        a, b = ranked[0], ranked[1]
        if pool[b] == 0:
            raise ParameterError("mismatch pairing failed")  # guarded by quota
        pairs.append((a, b))
        pool[a] -= 1
        pool[b] -= 1

    rng = spawn_rng(seed, 0)
    order = rng.permutation(len(pairs))
    labels, rows, truth, subjects, sides = [], [], [], [], []
    ear_index = 0
    for subj_i, pi in enumerate(order):
        a, b = pairs[pi]
        if rng.random() < 0.5:
            a, b = b, a
        sid = f"S{subj_i + 1:02d}"
        for side, arch in (("L", a), ("R", b)):
            ear_rng = spawn_rng(seed, 1, ear_index)
            row = trends[arch].copy()
            if noise > 0:
                row = row * np.exp(noise * ear_rng.standard_normal(row.size))
                row *= np.exp(scale_sigma * ear_rng.standard_normal())
            labels.append(f"{sid}-{side}")
            rows.append(row)
            truth.append(arch)
            subjects.append(sid)
            sides.append(side)
            ear_index += 1
    return CohortResult(
        labels=tuple(labels),
        rows=np.asarray(rows),
        archetype=np.asarray(truth, dtype=np.int64),
        subjects=tuple(subjects),
        sides=tuple(sides),
        config=cfg,
    )


# ----------------------------------------------------------------------
# exercise sessions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SessionRecord:
    """AESR/HR/BP for one test over the four measurement periods."""

    subject: str
    test: str
    aesr: np.ndarray  # (4, N) ohm
    hr: np.ndarray    # (4,) bpm
    bp: np.ndarray    # (4,) mmHg
    config: dict | None = None  # the checked config it was simulated from; None when read

    def __post_init__(self):
        if self.aesr.shape[0] != 4 or self.hr.shape != (4,) or self.bp.shape != (4,):
            raise ParameterError("a session has exactly 4 periods")
        if (self.aesr <= 0).any() or (self.hr <= 0).any() or (self.bp <= 0).any():
            raise ParameterError("all session values must be positive")
        self.aesr.flags.writeable = False
        self.hr.flags.writeable = False
        self.bp.flags.writeable = False

    def to_json_obj(self) -> dict:
        return {
            "subject": self.subject,
            "test": self.test,
            "periods": [
                {
                    "period": PERIODS[p],
                    "aesr": [float(v) for v in self.aesr[p]],
                    "hr": float(self.hr[p]),
                    "bp": float(self.bp[p]),
                }
                for p in range(4)
            ],
        }

    @staticmethod
    def from_json_obj(obj) -> "SessionRecord":
        periods = sorted(obj["periods"], key=lambda r: PERIODS.index(r["period"]))
        return SessionRecord(
            subject=str(obj["subject"]),
            test=str(obj["test"]),
            aesr=np.asarray([r["aesr"] for r in periods], dtype=np.float64),
            hr=np.asarray([r["hr"] for r in periods], dtype=np.float64),
            bp=np.asarray([r["bp"] for r in periods], dtype=np.float64),
        )


def default_session_config() -> dict:
    return {
        "n_aps": 13,
        # fraction of the period-I level lost at period II, AP1..AP6
        "active_drops": [0.608, 0.668, 0.554, 0.649, 0.578, 0.513],
        # AP7+ drop drawn uniform in [0, inactive_drop_max]
        "inactive_drop_max": 0.235,
        # period III climbs back to this fraction of the period-I level
        "recovery_level": 0.677,
        "hr_baseline": 75.0,
        "bp_baseline": 118.0,
        "hr_rise": 0.429,
        "bp_rise": 0.16,
        # fraction of the period-II excursion still present at period III
        "vital_recovery_remainder": 0.543,
        "baseline_range": [2.0e5, 1.2e6],
        "noise": 0.027,
        # test-to-test exertion coupling: one latent factor scales the AESR
        # drop depth and the HR/BP rise, so their changes correlate
        "exertion_sd": 0.07,
        "drop_jitter": 0.045,
        "hr_jitter": 0.07,
        "bp_jitter": 0.08,
    }


def simulate_exercise_session(config: dict | None, subject: str, test: str,
                              seed: int) -> SessionRecord:
    """One test (cycling 'A*' or control 'B*') over periods I-IV.

    Cycling tests drop the active-AP resistances at period II, recover to
    the configured fraction of baseline at period III and to baseline at
    period IV; HR and BP rise at period II and decay back by period IV.
    Controls hold every multiplier at one.  A shared per-test exertion
    factor (when ``exertion_sd`` > 0) couples the AESR drop depth with the
    HR/BP rise so their changes correlate across tests.
    """
    cfg = simulation_config("session", config)
    n = int(cfg["n_aps"])
    drops = np.asarray(cfg["active_drops"], dtype=np.float64)
    noise = float(cfg["noise"])
    is_cycling = test.upper().startswith("A")

    rng = spawn_rng(seed)
    lo, hi = cfg["baseline_range"]
    baseline = np.exp(rng.uniform(np.log(lo), np.log(hi), n))

    mult = np.ones((4, n))
    hr_mult = np.ones(4)
    bp_mult = np.ones(4)
    if is_cycling:
        # noise == 0 is a master switch: the response multipliers become
        # exactly the configured values, with no exertion or jitter terms
        stochastic = noise > 0
        e_sd, d_jit, h_jit, b_jit = (float(cfg[k]) if stochastic else 0.0 for k in (
            "exertion_sd", "drop_jitter", "hr_jitter", "bp_jitter"))
        z = float(np.clip(1.0 + e_sd * rng.standard_normal(), 0.2, 1.8))
        drop_eff = np.empty(n)
        jit = d_jit * rng.standard_normal(drops.size)
        drop_eff[:drops.size] = drops * np.clip(z + jit, 0.1, 1.9)
        # the inactive-AP response is a stable per-subject trait, so it is
        # drawn from a stream keyed on the subject id, not on the session
        subject_rng = spawn_rng(zlib.crc32(subject.encode("utf-8")), 7)
        drop_eff[drops.size:] = subject_rng.uniform(
            0.0, float(cfg["inactive_drop_max"]), n - drops.size)
        drop_eff = np.clip(drop_eff, 0.0, 0.95)
        m2 = 1.0 - drop_eff
        recovery = float(cfg["recovery_level"])
        m3 = np.maximum(m2, recovery)  # APs that never dropped that far stay put
        mult[1] = m2
        mult[2] = m3
        rem = float(cfg["vital_recovery_remainder"])
        hr_peak = float(cfg["hr_rise"]) * max(z + h_jit * rng.standard_normal(), 0.05)
        bp_peak = float(cfg["bp_rise"]) * max(z + b_jit * rng.standard_normal(), 0.05)
        hr_mult[1] = 1.0 + hr_peak
        hr_mult[2] = 1.0 + hr_peak * rem
        bp_mult[1] = 1.0 + bp_peak
        bp_mult[2] = 1.0 + bp_peak * rem

    aesr = baseline[None, :] * mult
    if noise > 0:
        aesr = aesr * np.exp(noise * rng.standard_normal(aesr.shape))
    hr = float(cfg["hr_baseline"]) * hr_mult
    bp = float(cfg["bp_baseline"]) * bp_mult
    return SessionRecord(subject=subject, test=test, aesr=aesr, hr=hr, bp=bp, config=cfg)
