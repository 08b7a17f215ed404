"""Traced run: replays each CLI op from its public layers and times every layer call.

The replay follows the CLI's own order.  Spans stay in memory (name,
start, end, parent, error) and are written out when the run ends.  A layer
call that raises records the exception in its span; the replay of that op
goes on where later layers do not need the failed result (the solver
layers do not need curvature), and stops otherwise.

Fixed-input probes time the topology, closest-point and D = 3 mm area
layers apart from the replays.  A memory pass with ``tracemalloc`` runs
after all spans, because tracemalloc slows allocation-heavy layers many
times over.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from inputs import cohort_seed, sessions
from ops import TARGET_AREA, read_values_csv, session_changes

PROBE_DIAMETER = 3.0  # mm
K_RING = 2
K_RANGE = range(2, 9)  # the analyze CLI defaults: K 2-8, 8 restarts, 3 PCA components
RESTARTS = 8
N_COMPONENTS = 3

# per-call medians (``<span>_s``) and calls per replay (``<span>_calls``)
TIMED_SPANS = (
    "meshio.load_mesh", "meshio.write_ply",
    "mesh.vertex_adjacency", "mesh.k_ring_all", "mesh.face_adjacency", "mesh.closest_point",
    "aps.place_aps", "curvature.curvature_field",
    "electrode.sensing_area", "electrode.solve_diameter",
    "contour.interpolate_contour",
    "datasets.write_dataset_csv", "datasets.read_dataset_csv", "datasets.write_report_json",
    "acquisition.simulate_cohort", "acquisition.simulate_exercise_session",
    "normalize.normalize_spatial", "pca.pca",
    "cluster.kmeans", "cluster.silhouette", "cluster.concordance",
    "stats.correlation",
)
KMEANS_PER_K = tuple(f"cluster.kmeans_k{k}" for k in K_RANGE)
LAYERS = ("meshio", "mesh", "aps", "curvature", "electrode", "contour", "datasets",
          "acquisition", "normalize", "pca", "cluster", "stats")
OPS = ("design", "contour", "simulate", "analyze", "correlate")
COUNTS = ("curvature.flagged", "curvature.failed", "electrode.solve_failed",
          "electrode.disconnected_warnings", "contour.fallback_warnings")
PEAKS = ("curvature.curvature_field_peak_mb", "electrode.sensing_area_peak_mb",
         "contour.interpolate_contour_peak_mb", "cluster.silhouette_peak_mb")


def metric_units() -> dict:
    """name -> (unit, better) of every per-layer metric."""
    units = {}
    for name in TIMED_SPANS:
        units[f"{name}_s"] = ("s", "lower")
        units[f"{name}_calls"] = ("count", "lower")
    for name in KMEANS_PER_K:
        units[f"{name}_s"] = ("s", "lower")
    units["meshio.load_mb_per_s"] = ("MB/s", "higher")
    for name in COUNTS:
        units[name] = ("count", "lower")
    for name in PEAKS:
        units[name] = ("MB", "lower")
    for layer in LAYERS + ("replay",):
        units[f"{layer}.self_s"] = ("s", "lower")
    for op in OPS:
        units[f"coverage.{op}"] = ("fraction", "higher")
    return units


class LayerFailed(Exception):
    """A traced layer call raised; its span holds the exception."""


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str, suppress: bool = False):
        rec = {"name": name, "start": time.perf_counter() - self.t0, "end": None,
               "parent": self._open[-1] if self._open else None, "error": None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
            if not suppress:
                raise
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception as exc:
            raise LayerFailed(name) from exc


def tilt_axis(normal, tilt_deg: float):
    """The normal turned by ``tilt_deg`` toward a fixed tangent, as ``design --tilt-deg``.

    Kept here rather than imported so the benchmark depends on public names only.
    """
    n = normal / np.linalg.norm(normal)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t = ref - (ref @ n) * n
    t /= np.linalg.norm(t)
    th = np.radians(tilt_deg)
    return np.cos(th) * n + np.sin(th) * t


class Replay:
    """The workload's ops, replayed layer by layer into their own directory."""

    def __init__(self, spec: dict, inputs: Path, out: Path):
        from aurisense.geometry import load_mesh, read_aps_json

        self.spec = spec
        self.inp = inputs
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.mesh = load_mesh(inputs / "mesh.ply")
        self.aps = read_aps_json(inputs / "aps.json")
        self.values = read_values_csv(inputs / "values.csv")
        self.cluster_input = None  # (points, assignments) for the memory pass

    def axis(self, mesh, p):
        normal = mesh.normal_at(p.face, p.barycentric)
        tilt = self.spec["tilt_deg"]
        return tilt_axis(normal, tilt) if tilt else normal

    def design(self, t: Tracer) -> None:
        from aurisense.electrode import (ArrayDesign, ElectrodeSpec, sensing_area,
                                         solve_diameter, write_design_json)
        from aurisense.geometry import curvature_field, load_mesh, place_aps

        mesh = t.call("meshio.load_mesh", load_mesh, self.inp / "mesh.ply")
        aps = t.call("aps.place_aps", place_aps, mesh, self.inp / "ap13.txt")
        try:
            curv = t.call("curvature.curvature_field", curvature_field, mesh)
            t.counts["curvature.flagged"] += len(curv.flagged)
        except LayerFailed:
            curv = None  # the solver layers below do not need curvature
            t.counts["curvature.failed"] += 1
        electrodes, failed = [], []
        for p in aps:
            axis = self.axis(mesh, p)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    d = t.call("electrode.solve_diameter", solve_diameter,
                               mesh, p.position, axis, TARGET_AREA)
                    area = t.call("electrode.final_area", sensing_area,
                                  mesh, p.position, axis, d)
                except LayerFailed as exc:
                    t.counts["electrode.solve_failed"] += 1
                    failed.append((p.label, str(exc)))
                    continue
                finally:
                    if any("disconnected" in str(w.message) for w in caught):
                        t.counts["electrode.disconnected_warnings"] += 1
            h = float("nan") if curv is None else float(
                curv.mean[mesh.faces[p.face]] @ p.barycentric)
            electrodes.append(ElectrodeSpec(
                ap_label=p.label, center=p.position, axis=axis, diameter_mm=d,
                tilt_deg=self.spec["tilt_deg"] or 0.0, sensing_area_mm2=area,
                mean_curvature_per_mm=h))
        deviation = max((abs(e.sensing_area_mm2 / TARGET_AREA - 1.0) for e in electrodes),
                        default=float("nan"))
        design = ArrayDesign(electrodes=tuple(electrodes), target_area_mm2=TARGET_AREA,
                             max_rel_deviation=deviation, failed=tuple(failed))
        t.call("electrode.write_design_json", write_design_json,
               self.out / "design.json", design)

    def contour(self, t: Tracer) -> None:
        from aurisense.analysis import interpolate_contour
        from aurisense.geometry import load_mesh, read_aps_json, write_ply

        mesh = t.call("meshio.load_mesh", load_mesh, self.inp / "mesh.ply")
        aps = t.call("aps.read_aps_json", read_aps_json, self.inp / "aps.json")
        values = read_values_csv(self.inp / "values.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            field = t.call("contour.interpolate_contour", interpolate_contour,
                           mesh, aps, values)
        t.counts["contour.fallback_warnings"] += len(caught)
        t.call("meshio.write_ply", write_ply, self.out / "contour.ply", mesh,
               scalars={"aesr": field.values})

    def simulate(self, t: Tracer) -> None:
        from aurisense.acquisition import simulate_cohort
        from aurisense.analysis import write_dataset_csv, write_report_json

        cfg = json.loads((self.inp / "cohort.json").read_text(encoding="utf-8"))
        res = t.call("acquisition.simulate_cohort", simulate_cohort, cfg,
                     cohort_seed(self.spec, 0))
        t.call("datasets.write_dataset_csv", write_dataset_csv,
               self.out / "cohort.csv", res.labels, res.rows)
        t.call("datasets.write_report_json", write_report_json, self.out / "truth.json",
               {"truth": {lab: int(a) for lab, a in zip(res.labels, res.archetype)}})

    def analyze(self, t: Tracer) -> None:
        """cluster_pipeline's steps, each through its public layer."""
        from aurisense.analysis import (ClusterReport, concordance, kmeans, normalize_spatial,
                                        pca, read_dataset_csv, select_k_elbow, silhouette,
                                        write_report_json)
        from aurisense.seeding import spawn_rng

        seed = cohort_seed(self.spec, 0)
        labels, x = t.call("datasets.read_dataset_csv", read_dataset_csv,
                           self.out / "cohort.csv")
        rows = t.call("normalize.normalize_spatial",
                      lambda: np.stack([normalize_spatial(r) for r in x]))
        p = t.call("pca.pca", pca, rows, k=min(N_COMPONENTS, x.shape[0] - 1, x.shape[1]))
        points = p.scores
        centered = points - points.mean(axis=0)
        ks, sses, runs = [1], [float(np.einsum("ij,ij->", centered, centered))], {}
        with t.span("cluster.kmeans"):
            for k in K_RANGE:
                runs[k] = t.call(f"cluster.kmeans_k{k}", kmeans, points, k,
                                 restarts=RESTARTS,
                                 seed=int(spawn_rng(seed, k).integers(2 ** 63)))
                ks.append(k)
                sses.append(runs[k].sse)
        elbow = t.call("cluster.select_k_elbow", select_k_elbow, sses, ks)
        final = runs.get(elbow.k_star, runs[K_RANGE[0]])
        self.cluster_input = (points, final.assignments)
        sil, sil_mean = t.call("cluster.silhouette", silhouette, points, final.assignments)
        report = ClusterReport(
            k_star=elbow.k_star if elbow.k_star in runs else K_RANGE[0],
            assignments=final.assignments, centers=final.centers,
            sse_ks=np.asarray(ks), sse_values=np.asarray(sses),
            silhouette_values=sil, silhouette_mean=sil_mean,
            ev_ratios=p.explained_variance_ratio, labels=tuple(labels),
            elbow_warning=elbow.warning)
        obj = report.to_json_obj()
        obj["concordance"] = t.call("cluster.concordance", concordance, report).to_json_obj()
        t.call("datasets.write_report_json", write_report_json, self.out / "report.json", obj)

    def correlate(self, t: Tracer) -> None:
        from aurisense.acquisition import simulate_exercise_session
        from aurisense.analysis import correlation, write_report_json

        records = []
        for i, (subject, test, seed) in enumerate(sessions(self.spec)):
            rec = t.call("acquisition.simulate_exercise_session", simulate_exercise_session,
                         None, subject, test, seed)
            t.call("datasets.write_report_json", write_report_json,
                   self.out / f"session{i:03d}.json", rec.to_json_obj())
            records.append({"aesr": rec.aesr, "hr": rec.hr, "bp": rec.bp})
        drop, hr_rise, bp_rise = session_changes(records)
        for ap in self.spec["corr_aps"]:
            for y in (hr_rise, bp_rise):
                t.call("stats.correlation", correlation, drop[:, ap - 1], y,
                       seed=self.spec["seed"])

    def probes(self, t: Tracer) -> None:
        """Layers timed on fixed inputs: fresh topology, closest point, D = 3 mm areas."""
        from aurisense.electrode import sensing_area
        from aurisense.geometry import SurfaceMesh

        def attempt(name, fn, *args):
            with contextlib.suppress(LayerFailed):
                t.call(name, fn, *args)

        fresh = SurfaceMesh(self.mesh.vertices, self.mesh.faces)
        attempt("mesh.vertex_adjacency", fresh.vertex_adjacency)
        attempt("mesh.k_ring_all",
                lambda: [fresh.k_ring(v, K_RING) for v in range(fresh.n_vertices)])
        fresh = SurfaceMesh(self.mesh.vertices, self.mesh.faces)
        attempt("mesh.face_adjacency", fresh.face_adjacency)
        for p in self.aps:
            attempt("mesh.closest_point", fresh.closest_point, p.position)
        for p in self.aps:  # face adjacency is warm from above
            attempt("electrode.sensing_area", sensing_area, fresh, p.position,
                    self.axis(fresh, p), PROBE_DIAMETER)

    def memory_pass(self) -> dict:
        """tracemalloc peak (MB) of each listed layer call, apart from the spans."""
        from aurisense.analysis import interpolate_contour, silhouette
        from aurisense.electrode import sensing_area
        from aurisense.geometry import SurfaceMesh, curvature_field

        def peak_mb(fn, *args) -> float:
            tracemalloc.start()
            try:
                fn(*args)
            except Exception:  # the peak up to the failure; the spans hold the error
                pass
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return peak / 2 ** 20

        warm = SurfaceMesh(self.mesh.vertices, self.mesh.faces)
        warm.face_adjacency()
        return {
            "curvature.curvature_field_peak_mb": peak_mb(
                curvature_field, SurfaceMesh(self.mesh.vertices, self.mesh.faces)),
            "electrode.sensing_area_peak_mb": max(
                peak_mb(sensing_area, warm, p.position, self.axis(warm, p), PROBE_DIAMETER)
                for p in self.aps),
            "contour.interpolate_contour_peak_mb": peak_mb(
                interpolate_contour, self.mesh, self.aps, self.values),
            "cluster.silhouette_peak_mb": (
                peak_mb(silhouette, *self.cluster_input) if self.cluster_input else 0.0),
        }


def traced_run(spec: dict, inputs: Path, out: Path, seconds: float,
               kinds: list, untraced_seconds: dict):
    """Replay the workload's ops (and the probes) until ``seconds`` pass; returns
    (per-layer metrics, spans)."""
    replay = Replay(spec, inputs, out)
    t = Tracer()
    iterations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while iterations == 0 or time.perf_counter() - t.t0 < seconds:
            for kind in kinds:
                with t.span(f"replay.{kind}", suppress=True):
                    getattr(replay, kind)(t)
            if "design" not in kinds:  # layer numbers only; this workload runs no design op
                with t.span("probe.design", suppress=True):
                    replay.design(t)
            with t.span("probe.layers", suppress=True):
                replay.probes(t)
            iterations += 1
        peaks = replay.memory_pass()
    mesh_mb = (inputs / "mesh.ply").stat().st_size / 2 ** 20
    return layer_metrics(t, iterations, untraced_seconds, mesh_mb, peaks), t.spans


def layer_metrics(t: Tracer, iterations: int, untraced_seconds: dict,
                  mesh_mb: float, peaks: dict) -> dict:
    def dur(s):
        return s["end"] - s["start"]

    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in t.spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += dur(s)

    def median_s(name):
        spans = by_name.get(name)
        return statistics.median(dur(s) for s in spans) if spans else 0.0

    m = {}
    for name in TIMED_SPANS:
        m[f"{name}_s"] = median_s(name)
        m[f"{name}_calls"] = len(by_name.get(name, ())) / iterations
    for name in KMEANS_PER_K:
        m[f"{name}_s"] = median_s(name)
    loads = by_name.get("meshio.load_mesh")
    m["meshio.load_mb_per_s"] = statistics.median(mesh_mb / dur(s) for s in loads) if loads else 0.0
    for name in COUNTS:
        m[name] = t.counts[name] / iterations
    m.update(peaks)
    self_time = Counter()
    for i, s in enumerate(t.spans):
        self_time[s["name"].split(".")[0]] += dur(s) - child_time[i]
    for layer in LAYERS + ("replay",):
        m[f"{layer}.self_s"] = self_time[layer] / iterations
    for op in OPS:
        spans = [i for i, s in enumerate(t.spans) if s["name"] == f"replay.{op}"]
        base = untraced_seconds.get(op, 0.0) * iterations
        m[f"coverage.{op}"] = sum(child_time[i] for i in spans) / base if base else 0.0
    return m
