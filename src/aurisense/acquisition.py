"""Deterministic simulation of the AESR acquisition: cohorts and sessions.

Everything here is a pure function of (config, seed): synthetic population
cohorts with labeled archetypes, and exercise sessions over the four
measurement periods.  Each kind of draw has its own ``spawn_rng`` stream
(listed in ``aurisense.seeding``), so draws of one kind never shift another.

Noise is multiplicative lognormal, so its relative spread does not depend
on the resistance scale.  A session's only config field is its noise; its
response model (drops, recovery, HR and BP) is fixed by module constants.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .seeding import spawn_rng

PERIODS = ("I", "II", "III", "IV")


# ----------------------------------------------------------------------
# simulation configs
# ----------------------------------------------------------------------

_COUNTS = {"sizes"}
_POSITIVE = {"archetypes"}
_FRACTIONS = {"concordance"}


def simulation_config(kind: str, config: dict | None = None) -> dict:
    """The default ``kind`` config ('cohort' or 'session') updated by ``config``.

    Each field holds finite numbers nested like its default: whole numbers in
    ``_COUNTS``, > 0 in ``_POSITIVE``, in [0, 1] in ``_FRACTIONS``, else >= 0.
    Keys starting with '_' are comments and drop out; other unknown keys are
    errors.  Values are kept as given, so the digest is of what was written.
    """
    if kind not in ("cohort", "session"):
        raise ParameterError(f"config kind must be 'cohort' or 'session', not {kind!r}")
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
    return cfg


# ----------------------------------------------------------------------
# population cohort generator
# ----------------------------------------------------------------------

# APs per default archetype trend, and the side of the offsets' tetrahedron
ARCHETYPE_APS = 10
ARCHETYPE_SEPARATION = 0.9
# an ear's overall resistance scale spreads this many times the AP noise:
# ears differ more in level than in pattern (illustrative)
SCALE_SIGMA_FACTOR = 3.0


def default_archetypes() -> np.ndarray:
    """Four AESR trend vectors, mutually separated, positive everywhere.

    The trends share a common profile and differ by offsets placed at the
    corners of a (stretched) tetrahedron inside a 3-dimensional subspace of
    smooth AP patterns, so that four clusters of unequal size still elbow
    at K = 4.  Illustrative defaults, not measured data.
    """
    n_aps = ARCHETYPE_APS
    j = np.arange(1, n_aps, dtype=np.float64)
    t = (j - 1) / (n_aps - 2)
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
    side = ARCHETYPE_SEPARATION
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
    return trends


_DEFAULT_ARCHETYPES = default_archetypes()


def default_cohort_config() -> dict:
    return {
        "archetypes": _DEFAULT_ARCHETYPES.tolist(),
        "sizes": [35, 17, 5, 3],
        "concordance": 0.8,
        "noise": 0.045,
    }


@dataclass(frozen=True)
class CohortResult:
    labels: tuple          # "S01-L" style, one per ear
    rows: np.ndarray       # (M, N) AESR trends x noise
    archetype: np.ndarray  # (M,) true archetype index per ear
    config: dict           # the checked config the cohort was drawn from

    def __post_init__(self):
        self.rows.flags.writeable = False
        self.archetype.flags.writeable = False


def _aesr_draw(noise: float, draw) -> np.ndarray:
    """``draw()``, run with float overflow allowed; raises ``ParameterError``
    if an AESR value it returns is not a finite positive float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = draw()
    if not (np.isfinite(values) & (values > 0)).all():
        raise ParameterError(f"noise {noise:g} draws an AESR value that is not a "
                             f"finite positive float64")
    return values


def _pairs(sizes, concordance) -> np.ndarray:
    """(n, 2) archetype pairs of n = sum(sizes) / 2 subjects: k =
    round(concordance * n) matched pairs first, then the mismatched ones.

    The leftover ears pair across archetypes iff no archetype keeps more
    than n - k of them, so the matched counts m form a box with sum k:
    lo_a = max(0, ceil((s_a - (n - k)) / 2)) <= m_a <= floor(s_a / 2) = hi_a.
    m starts at the size-proportional quota floor(k s / sum(s)), clipped to
    the box, and steps by 1 at the movable archetype with the largest
    relative shortfall step * (quota - m) / quota until it sums to k.  The
    leftover ears, sorted by archetype, pair ear i with ear i + n - k, which
    never puts one archetype on both sides.
    """
    s = np.asarray(sizes, dtype=np.int64)
    n = int(s.sum()) // 2
    k = round(concordance * n)
    lo = np.maximum(0, -((n - k - s) // 2))
    hi = s // 2
    if lo.sum() > k or hi.sum() < k:
        raise ParameterError("concordance unreachable for these archetype sizes")
    quota = k * s / s.sum()
    m = np.clip(np.floor(quota).astype(np.int64), lo, hi)
    while step := int(np.sign(k - m.sum())):
        movable = (m + step >= lo) & (m + step <= hi)
        short = np.divide(step * (quota - m), quota, out=np.zeros_like(quota), where=quota > 0)
        m[np.argmax(np.where(movable, short, -np.inf))] += step
    arch = np.arange(s.size)
    left = np.repeat(arch, s - 2 * m)
    return np.concatenate([np.repeat(arch, m)[:, None].repeat(2, axis=1),
                           np.stack([left[:n - k], left[n - k:]], axis=1)])


def simulate_cohort(config: dict | None, seed: int) -> CohortResult:
    """Synthetic two-ears-per-subject AESR cohort with labeled ground truth.

    Archetype sizes are met exactly; the number of subjects whose two ears
    share an archetype equals k = round(concordance * n_subjects).  That is
    possible iff the matched counts fit the box of ``_pairs``: the sum over
    archetypes of max(0, ceil((s_a - (n - k)) / 2)) is at most k and that
    of floor(s_a / 2) at least k; otherwise it raises ``ParameterError``, as
    it does when a drawn value is not a finite positive float64.

    Two streams: ``spawn_rng(seed, 0)`` shuffles the pairs into subjects and
    then swaps each subject's sides with probability 1/2; row e of one
    (M, N + 1) standard-normal draw from ``spawn_rng(seed, 1)`` holds ear
    e's N AP noises and then its scale, whatever M is (the fill is row-major).
    """
    cfg = simulation_config("cohort", config)
    trends = np.asarray(cfg["archetypes"], dtype=np.float64)
    noise = float(cfg["noise"])
    scale_sigma = noise * SCALE_SIGMA_FACTOR

    pairs = _pairs(cfg["sizes"], cfg["concordance"])
    rng = spawn_rng(seed, 0)
    pairs = pairs[rng.permutation(len(pairs))]
    swap = rng.random(len(pairs)) < 0.5
    pairs[swap] = pairs[swap, ::-1]
    arch = pairs.ravel()
    n_aps = trends.shape[1]
    z = spawn_rng(seed, 1).standard_normal((arch.size, n_aps + 1))
    rows = _aesr_draw(noise, lambda: trends[arch] * np.exp(noise * z[:, :n_aps])
                      * np.exp(scale_sigma * z[:, n_aps:]))
    subjects = np.arange(1, len(pairs) + 1).repeat(2).tolist()
    return CohortResult(
        labels=tuple(("S%02d-L\nS%02d-R\n" * len(pairs) % tuple(subjects)).split("\n")[:-1]),
        rows=rows,
        archetype=arch,
        config=cfg,
    )


# ----------------------------------------------------------------------
# exercise sessions
# ----------------------------------------------------------------------

# The session response model.  Illustrative values that reproduce the
# pattern the paper reports after cycling, not measured data.
SESSION_APS = 13  # APs per session, as in the built-in 13-AP template
# fraction of the period-I level lost at period II at the active APs AP1..AP6
ACTIVE_DROPS = (0.608, 0.668, 0.554, 0.649, 0.578, 0.513)
INACTIVE_DROP_MAX = 0.235  # the inactive APs AP7+ drop by a uniform draw in [0, this]
RECOVERY_LEVEL = 0.677  # period III climbs back to this fraction of the period-I level
HR_BASELINE = 75.0  # bpm at rest: a typical adult resting heart rate
BP_BASELINE = 118.0  # mmHg at rest: a typical adult resting systolic pressure
HR_RISE = 0.429  # fractional HR rise at period II, right after cycling
BP_RISE = 0.16  # fractional BP rise at period II
VITAL_RECOVERY_REMAINDER = 0.543  # fraction of the HR/BP rise still there at period III
BASELINE_RANGE = (2.0e5, 1.2e6)  # ohm: per-AP baselines drawn log-uniform in this range
# test-to-test exertion coupling: one latent factor with this spread scales
# the AESR drop depth and the HR/BP rise, so their changes correlate
EXERTION_SD = 0.07
DROP_JITTER = 0.045  # per-AP spread of the drop around the shared exertion factor
HR_JITTER = 0.07  # spread of the HR rise around the shared exertion factor
BP_JITTER = 0.08  # spread of the BP rise around the shared exertion factor


@dataclass(frozen=True)
class SessionRecord:
    """AESR/HR/BP for one test over the four measurement periods."""

    subject: str
    test: str
    aesr: np.ndarray  # (4, N) ohm
    hr: np.ndarray    # (4,) bpm
    bp: np.ndarray    # (4,) mmHg
    config: dict | None = None  # the checked config it was simulated from, if any

    def __post_init__(self):
        if self.aesr.shape[0] != 4 or self.hr.shape != (4,) or self.bp.shape != (4,):
            raise ParameterError("a session has exactly 4 periods")
        if not all(np.isfinite(v).all() and (v > 0).all() for v in (self.aesr, self.hr, self.bp)):
            raise ParameterError("all session values must be finite and positive")
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


def default_session_config() -> dict:
    """The session's one config field, the noise; the response model is
    fixed by the module constants above."""
    return {"noise": 0.027}


def simulate_exercise_session(config: dict | None, subject: str, test: str,
                              seed: int) -> SessionRecord:
    """One test (cycling 'A*' or control 'B*') over periods I-IV.

    Cycling tests drop the active-AP resistances at period II, recover to
    ``RECOVERY_LEVEL`` of baseline at period III and to baseline at period
    IV; HR and BP rise at period II and decay back by period IV.  Controls
    hold every multiplier at one.  A shared per-test exertion factor (when
    the noise is > 0) couples the AESR drop depth with the HR/BP rise so
    their changes correlate across tests.  A drawn AESR value that is not
    a finite positive float64 raises ``ParameterError``.
    """
    cfg = simulation_config("session", config)
    n = SESSION_APS
    drops = np.asarray(ACTIVE_DROPS)
    noise = float(cfg["noise"])
    is_cycling = test.upper().startswith("A")

    rng = spawn_rng(seed)
    lo, hi = BASELINE_RANGE
    baseline = np.exp(rng.uniform(np.log(lo), np.log(hi), n))

    mult = np.ones((4, n))
    hr_mult = np.ones(4)
    bp_mult = np.ones(4)
    if is_cycling:
        # noise == 0 is a master switch: the response multipliers become
        # exactly the model's values, with no exertion or jitter terms
        e_sd, d_jit, h_jit, b_jit = ((EXERTION_SD, DROP_JITTER, HR_JITTER, BP_JITTER)
                                     if noise > 0 else (0.0,) * 4)
        z = float(np.clip(1.0 + e_sd * rng.standard_normal(), 0.2, 1.8))
        drop_eff = np.empty(n)
        jit = d_jit * rng.standard_normal(drops.size)
        drop_eff[:drops.size] = drops * np.clip(z + jit, 0.1, 1.9)
        # the inactive-AP response is a stable per-subject trait, so it is
        # drawn from a stream keyed on the subject id, not on the session
        subject_rng = spawn_rng(zlib.crc32(subject.encode("utf-8")), 7)
        drop_eff[drops.size:] = subject_rng.uniform(0.0, INACTIVE_DROP_MAX, n - drops.size)
        drop_eff = np.clip(drop_eff, 0.0, 0.95)
        m2 = 1.0 - drop_eff
        m3 = np.maximum(m2, RECOVERY_LEVEL)  # APs that never dropped that far stay put
        mult[1] = m2
        mult[2] = m3
        rem = VITAL_RECOVERY_REMAINDER
        hr_peak = HR_RISE * max(z + h_jit * rng.standard_normal(), 0.05)
        bp_peak = BP_RISE * max(z + b_jit * rng.standard_normal(), 0.05)
        hr_mult[1] = 1.0 + hr_peak
        hr_mult[2] = 1.0 + hr_peak * rem
        bp_mult[1] = 1.0 + bp_peak
        bp_mult[2] = 1.0 + bp_peak * rem

    aesr = _aesr_draw(noise, lambda: baseline[None, :] * mult
                      * np.exp(noise * rng.standard_normal(mult.shape)))
    hr = HR_BASELINE * hr_mult
    bp = BP_BASELINE * bp_mult
    return SessionRecord(subject=subject, test=test, aesr=aesr, hr=hr, bp=bp, config=cfg)
