"""End-to-end ops: each calls ``aurisense.cli.main`` in-process, then gates its output.

An op is one requested electrode, or one contour, simulate, analyze or
correlation test.  An op *fails* when it raises, exits non-zero, is missing
from a partial design, or fails its gate.  It is also *incorrect* when it
reported success but its output fails the gate or differs byte for byte
from the first repetition's output for the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import (COHORTS, N_APS, cohort_seed, cohort_sizes, mesh_vertex_count,
                    sessions)

TARGET_AREA = math.pi * 1.5 ** 2  # the CLI's default: flat area of a 3 mm pathway
AREA_TOL = 1e-3
MIN_ARI = 0.99
N_PERM = 10000                    # stats.correlation's default permutation count
P_THRESHOLD, PCC_THRESHOLD = 0.05, 0.4  # its verdict: correlated iff p <= 0.05 and |pcc| >= 0.4
PERIODS = ("I", "II", "III", "IV")


class RefClock:
    """Converts wall seconds into reference-seconds, in which the host's speed cancels.

    On a shared host the same op runs up to about 2 times slower for
    seconds to minutes at a time, and CPU time slows with it.  So the clock
    times a fixed reference kernel after every timed segment and, on an
    interval timer, every ``INTERVAL`` seconds inside it.  Each stretch of
    the segment between two kernel runs counts ``NOMINAL / r`` reference-
    seconds per wall second, where ``r`` is the mean of those two kernel
    times; the kernel runs themselves are not counted.  A reference-second
    is a wall second on a host where the kernel takes ``NOMINAL`` seconds.
    """

    NOMINAL = 0.012  # s; near the kernel's time on the 2-core Xeon VM the bounds were set on
    INTERVAL = 0.5   # s between kernel runs inside a long segment

    def __init__(self):
        self._before = self.reference()
        self._inside: list = []

    @staticmethod
    def reference() -> float:
        """Wall seconds of the reference kernel.

        A quarter of it is a tight arithmetic loop, which slows less than the
        ops when the host is busy; the rest does what the ops do, in small
        (seeded random numbers, repr formatting and parsing of floats, JSON,
        dict churn, broadcast numpy), which slows more than some of them.
        The blend tracked every op kind better than either part alone.
        """
        t0 = time.perf_counter()
        total = 0
        for i in range(15000):
            total += i * i % 7
        a = np.arange(2048.0)
        for _ in range(200):
            a = np.sqrt(a * a + 1.0)
        rows = np.random.default_rng(7).standard_normal((48, 64))
        text = json.dumps([",".join(repr(float(v)) for v in r) for r in rows])
        table = {f"{line[:12]}{i}": [float(v) for v in line.split(",")]
                 for i, line in enumerate(json.loads(text))}
        b = np.array([table[k] for k in sorted(table)])
        diff = b[:, None, :] - b[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self._inside.append((time.perf_counter(), self.reference()))

    def timed(self, fn, sample_inside: bool = True):
        """(result of ``fn()``, wall seconds, reference-seconds).

        ``sample_inside`` must be false while ``fn`` waits for a child
        process on the same CPU: the kernel would compete with the child.
        """
        self._inside = []
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        after = self.reference()
        starts = [t0] + [t + r for t, r in self._inside]   # kernel runs are not counted
        ends = [t for t, _ in self._inside] + [t1]
        kernel = [self._before] + [r for _, r in self._inside] + [after]
        ref_seconds = sum((end - start) * self.NOMINAL / (0.5 * (k0 + k1))
                          for start, end, k0, k1 in zip(starts, ends, kernel, kernel[1:]))
        self._before = after
        return out, sum(e - s for s, e in zip(starts, ends)), ref_seconds


@dataclass
class OpResult:
    kind: str
    attempted: int
    seconds: float = 0.0     # wall
    ref_seconds: float = 0.0  # reference-seconds, see RefClock
    units: float = 0.0       # work that passed its gate: electrodes, vertices, ears, tests
    cohort: int = 0          # which of the run's cohorts a simulate or analyze op used
    failed: int = 0
    incorrect: bool = False
    errors: list = field(default_factory=list)
    digest: str | None = None

    def timed(self, clock: RefClock, fn):
        out, seconds, ref_seconds = clock.timed(fn)
        self.seconds += seconds
        self.ref_seconds += ref_seconds
        return out

    def fail(self, n: int, why: str, incorrect: bool = False):
        self.failed += n
        self.incorrect = self.incorrect or incorrect
        self.errors.append(why)


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def adjusted_rand_index(truth, pred) -> float:
    """ARI of two labelings, from the contingency table."""
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1))
    np.add.at(table, (t, p), 1.0)

    def pairs(x):
        return float((x * (x - 1) / 2.0).sum())

    sum_ij = pairs(table)
    sum_a = pairs(table.sum(axis=1))
    sum_b = pairs(table.sum(axis=0))
    expected = sum_a * sum_b / pairs(np.array([t.size]))
    top = 0.5 * (sum_a + sum_b)
    return 1.0 if top == expected else (sum_ij - expected) / (top - expected)


def read_ply_scalar(path, name: str):
    """(vertex count from the header, values of the per-vertex property ``name``)."""
    with open(path, encoding="utf-8") as fh:
        props, n_vertex, element = [], 0, None
        for line in fh:
            parts = line.split()
            if parts[:1] == ["element"]:
                element = parts[1]
                if element == "vertex":
                    n_vertex = int(parts[2])
            elif parts[:1] == ["property"] and element == "vertex":
                props.append(parts[-1])
            elif parts[:1] == ["end_header"]:
                break
        col = props.index(name)
        values = [float(next(fh).split()[col]) for _ in range(n_vertex)]
    return n_vertex, np.asarray(values)


def read_values_csv(path) -> np.ndarray:
    """The AP values of a 'label,value' file, in file order (AP1 first)."""
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        return np.asarray([float(line.split(",")[1]) for line in fh])


def session_changes(records):
    """Per-session AP drop from period I to II, and the HR and BP rises."""
    aesr = np.array([r["aesr"] for r in records])  # (sessions, 4, APs)
    hr = np.array([r["hr"] for r in records])
    bp = np.array([r["bp"] for r in records])
    drop = (aesr[:, 0] - aesr[:, 1]) / aesr[:, 0]
    return drop, (hr[:, 1] - hr[:, 0]) / hr[:, 0], (bp[:, 1] - bp[:, 0]) / bp[:, 0]


def read_session(path) -> dict:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    periods = sorted(obj["periods"], key=lambda r: PERIODS.index(r["period"]))
    return {"aesr": [r["aesr"] for r in periods],
            "hr": [r["hr"] for r in periods],
            "bp": [r["bp"] for r in periods]}


class OpRunner:
    """Runs the workload's ops on its inputs and gates every output."""

    def __init__(self, spec: dict, inputs: Path, work: Path, clock: RefClock):
        import aurisense.cli
        from aurisense.analysis import correlation

        self._main = aurisense.cli.main
        self._correlation = correlation
        self.spec = spec
        self.clock = clock
        self.inp = inputs
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.kinds = list(spec["repeats"])  # in the CLI's order
        self.attempts = {"design": N_APS, "contour": 1, "simulate": 1, "analyze": 1,
                         "correlate": 2 * len(spec["corr_aps"])}
        self._first_digest: dict = {}
        self._runs: Counter = Counter()
        self.ap_values = read_values_csv(inputs / "values.csv")

    def run(self, kind: str) -> OpResult:
        res = OpResult(kind, self.attempts[kind])
        if kind in ("simulate", "analyze"):
            res.cohort = self._runs[kind] % COHORTS
            self._runs[kind] += 1
        try:
            getattr(self, "_" + kind)(res)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            res.units = 0.0
            res.fail(res.attempted - res.failed,
                     f"unreadable output ({type(exc).__name__})", incorrect=True)
            return res
        if res.digest is not None:
            first = self._first_digest.setdefault((kind, res.cohort), res.digest)
            if res.digest != first:
                res.units = 0.0
                res.fail(res.attempted - res.failed,
                         "output differs from the first repetition", incorrect=True)
        return res

    def _cli(self, argv, res: OpResult):
        """Run the CLI; returns its exit code, or None after recording an exception."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self._main([str(a) for a in argv])
        except Exception as exc:  # the op fails; the benchmark goes on
            rc = None
            res.fail(res.attempted, type(exc).__name__)
        # exit 2 is a partial design; any other non-zero exit fails the whole op
        if rc is not None and rc != 0 and not (rc == 2 and res.kind == "design"):
            res.fail(res.attempted, f"exit {rc}")
            return None
        return rc

    def _design(self, res: OpResult) -> None:
        out = self.work / "design.json"
        out.unlink(missing_ok=True)
        argv = ["design", self.inp / "mesh.ply", self.inp / "ap13.txt", "--out", out]
        if self.spec["tilt_deg"] is not None:
            argv += ["--tilt-deg", self.spec["tilt_deg"]]
        rc = res.timed(self.clock, lambda: self._cli(argv, res))
        if rc is None:
            return
        electrodes = json.loads(out.read_text(encoding="utf-8"))["electrodes"]
        good = [e for e in electrodes
                if abs(e["area_mm2"] / TARGET_AREA - 1.0) <= AREA_TOL]
        labels = {e["ap"] for e in electrodes}
        if len(good) < len(electrodes) or len(labels) < len(electrodes):
            res.fail(len(electrodes) - len(good), "electrode area off target or duplicated",
                     incorrect=True)
        if rc == 2 or len(electrodes) < N_APS:
            res.fail(N_APS - len(electrodes), "partial design (exit 2)",
                     incorrect=(rc == 0))
        res.units = len(good) if len(labels) == len(electrodes) else 0
        res.digest = _sha256(out)

    def _contour(self, res: OpResult) -> None:
        out = self.work / "contour.ply"
        argv = ["contour", self.inp / "mesh.ply", self.inp / "aps.json",
                self.inp / "values.csv", "--out", out]
        rc = res.timed(self.clock, lambda: self._cli(argv, res))
        if rc is None:
            return
        n, aesr = read_ply_scalar(out, "aesr")
        lo, hi = self.ap_values.min(), self.ap_values.max()
        slack = 1e-12 * max(abs(lo), abs(hi))
        if (n != mesh_vertex_count(self.spec) or aesr.size != n
                or not np.isfinite(aesr).all()
                or aesr.min() < lo - slack or aesr.max() > hi + slack):
            res.fail(1, "contour values missing, non-finite or outside the AP range",
                     incorrect=True)
            return
        res.units = n
        res.digest = _sha256(out)

    def _simulate(self, res: OpResult) -> None:
        csv = self.work / f"cohort{res.cohort}.csv"
        truth = self.work / f"truth{res.cohort}.json"
        argv = ["simulate", "cohort", self.inp / "cohort.json", "--seed",
                cohort_seed(self.spec, res.cohort), "--out", csv, "--truth-out", truth]
        rc = res.timed(self.clock, lambda: self._cli(argv, res))
        if rc is None:
            return
        arch = list(json.loads(truth.read_text(encoding="utf-8"))["truth"].values())
        sizes = cohort_sizes(self.spec)
        if [arch.count(a) for a in range(len(sizes))] != sizes or len(arch) != sum(sizes):
            res.fail(1, "archetype counts differ from the configured sizes", incorrect=True)
            return
        res.units = len(arch)
        res.digest = _sha256(csv, truth)

    def _analyze(self, res: OpResult) -> None:
        report = self.work / f"report{res.cohort}.json"
        argv = ["analyze", self.work / f"cohort{res.cohort}.csv",
                "--seed", cohort_seed(self.spec, res.cohort), "--out", report]
        rc = res.timed(self.clock, lambda: self._cli(argv, res))
        if rc is None:
            return
        obj = json.loads(report.read_text(encoding="utf-8"))
        truth = json.loads((self.work / f"truth{res.cohort}.json").read_text(
            encoding="utf-8"))["truth"]
        ari = adjusted_rand_index([truth[lab] for lab in obj["labels"]], obj["assignments"])
        if obj["k_star"] != 4 or ari < MIN_ARI:
            res.fail(1, f"K*={obj['k_star']}, ARI={ari:.4f}", incorrect=True)
            return
        res.units = len(obj["assignments"])
        res.digest = _sha256(report)

    def _correlate(self, res: OpResult) -> None:
        """The session simulations, then each AP's drop against the HR and BP rise.

        The sessions are one timed segment and each test is one more.
        """
        paths = [self.work / f"session{i:03d}.json" for i in range(len(sessions(self.spec)))]

        def simulate_sessions():
            for path, (subject, test, seed) in zip(paths, sessions(self.spec)):
                if self._cli(["simulate", "session", "default", "--seed", seed,
                              "--subject", subject, "--test", test, "--out", path],
                             res) is None:
                    return None
            return session_changes([read_session(p) for p in paths])

        changes = res.timed(self.clock, simulate_sessions)
        if changes is None:
            return
        drop, hr_rise, bp_rise = changes
        results = []
        for ap in self.spec["corr_aps"]:
            for against, y in (("HR", hr_rise), ("BP", bp_rise)):
                x = drop[:, ap - 1]
                try:
                    r = res.timed(self.clock, lambda: self._correlation(
                        x, y, seed=self.spec["seed"]))
                except Exception as exc:
                    res.fail(1, type(exc).__name__)
                    continue
                results.append((ap, against, r.pcc, r.p_value, r.correlated))
                verdict = r.p_value <= P_THRESHOLD and abs(r.pcc) >= PCC_THRESHOLD
                # the active APs AP1-AP6 drop with exertion, so their drop rises
                # with HR; |pcc| >= 0.4 is not reached on every seed (AP6: 0.32)
                if (abs(r.pcc - np.corrcoef(x, y)[0, 1]) > 1e-12
                        or not 1.0 / (N_PERM + 1) <= r.p_value <= 1.0
                        or r.correlated != verdict
                        or (ap <= 6 and against == "HR"
                            and not (r.pcc > 0 and r.p_value <= P_THRESHOLD))):
                    res.fail(1, f"AP{ap} vs {against}: pcc={r.pcc:.6f} p={r.p_value:.6f} "
                                f"correlated={r.correlated}", incorrect=True)
        res.units = res.attempted - res.failed
        res.digest = hashlib.sha256(
            (_sha256(*paths) + repr(results)).encode()).hexdigest()
