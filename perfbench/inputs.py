"""Workload definitions and the seeded input files each workload feeds the CLI.

A workload spec is a plain dict so it can be handed to a fresh process as
JSON.  Run as a script, this module builds one workload's inputs; the
benchmark times such runs as the set-up cost (``setup_s``):

    python3 perfbench/inputs.py '<spec JSON>' OUT_DIR

The seed in the spec drives everything the program later reads: the relief
of the synthetic ear, the AP values of the contour, the cohort, the sessions
and the analysis seed.  The program itself receives only the files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N_APS = 13          # the built-in ap13 template
MESH_EXTENT = 30.0  # mm, side of the synthetic ear patch
DEFAULT_SIZES = (35, 17, 5, 3)  # default cohort archetype sizes (60 ears)
CYCLING_TESTS = ("A1", "A2", "A3", "A4")
COHORTS = 3  # cohorts per run: k-means work varies from cohort to cohort

# Each workload runs every op kind, so every end-to-end metric has a value
# on every workload; the sizes decide which layers do most of the work.
# "repeats" lists the workload's ops and how often each runs in one cycle:
# short ops run more often so that every rate is a median of many samples.
# A run makes max(1, round(seconds / cycle_s)) cycles; "cycle_s" is near the
# wall time of one cycle on the 2-core Xeon VM the benchmark was tuned on.
# study-4800 has no design op: at 1 mm its mesh only serves the contour op.
WORKLOADS = {
    "ear-fine": {
        "mesh_spacing": 0.2,        # 22 801 vertices, 45 000 faces
        "tilt_deg": None,           # pathways along the surface normal
        "cohort_scale": 20,         # 1 200 ears
        "subjects": 20,             # 80 sessions
        "corr_aps": [1],            # AP1 vs HR and BP: 2 tests
        "repeats": {"design": 1, "contour": 1, "simulate": 8, "analyze": 4, "correlate": 2},
        "cycle_s": 7.5,
    },
    "ear-coarse-tilt": {
        "mesh_spacing": 0.4,        # 5 776 vertices, 11 250 faces
        "tilt_deg": 20.0,           # oblique pathways: elliptical footprints
        "cohort_scale": 20,
        "subjects": 20,
        "corr_aps": [1],
        "repeats": {"design": 1, "contour": 2, "simulate": 8, "analyze": 3, "correlate": 2},
        "cycle_s": 5.0,
    },
    "study-4800": {
        "mesh_spacing": 1.0,        # 961 vertices
        "tilt_deg": None,
        "cohort_scale": 80,         # 4 800 ears
        "subjects": 20,
        "corr_aps": list(range(1, N_APS + 1)),  # 26 tests
        "repeats": {"contour": 8, "simulate": 4, "analyze": 2, "correlate": 1},
        "cycle_s": 10.0,
    },
}

# Sizes for the smoke test: every workload's code path on tiny inputs.
TINY = {
    "mesh_spacing": 2.5,
    "cohort_scale": 4,
    "subjects": 5,
    "corr_aps": [1],
}


def workload_spec(name: str, seed: int, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name], seed=int(seed))
    if tiny:
        spec.update(TINY)
    return spec


def cohort_sizes(spec) -> list:
    return [s * spec["cohort_scale"] for s in DEFAULT_SIZES]


def cohort_seed(spec, k: int) -> int:
    """``simulate --seed`` and ``analyze --seed`` of the run's k-th cohort."""
    return spec["seed"] * COHORTS + k


def mesh_vertex_count(spec) -> int:
    return (round(MESH_EXTENT / spec["mesh_spacing"]) + 1) ** 2


def sessions(spec) -> list:
    """(subject, test, seed) of every session of the correlation stage."""
    out = []
    for s in range(1, spec["subjects"] + 1):
        for test in CYCLING_TESTS:
            out.append((f"S{s:02d}", test, spec["seed"] * 1000 + len(out)))
    return out


def relief(seed: int):
    """Amplitude in [1.8, 2.2] mm and wavelength in [11, 13] mm of the ear."""
    import numpy as np

    rng = np.random.default_rng([int(seed), 2107])
    return float(rng.uniform(1.8, 2.2)), float(rng.uniform(11.0, 13.0))


def build(spec: dict, out: Path) -> None:
    """Write mesh.ply, ap13.txt, aps.json, values.csv and cohort.json."""
    import aurisense.cli  # noqa: F401  (the CLI import is part of set-up)
    from aurisense.acquisition import simulate_exercise_session
    from aurisense.geometry import default_template, place_aps, write_aps_json, write_ply
    from aurisense.geometry.primitives import make_bumpy_plane

    out.mkdir(parents=True, exist_ok=True)
    amplitude, wavelength = relief(spec["seed"])
    mesh = make_bumpy_plane(extent=MESH_EXTENT, spacing=spec["mesh_spacing"],
                            amplitude=amplitude, wavelength=wavelength)
    write_ply(out / "mesh.ply", mesh)

    template = default_template(N_APS)
    with open(out / "ap13.txt", "w", encoding="utf-8") as fh:
        for label, xyz in template:
            fh.write(f"{label} " + " ".join(repr(float(c)) for c in xyz) + "\n")
    # the contour input comes from set-up, not from 'design --aps-out',
    # so the contour op runs even where design fails
    write_aps_json(out / "aps.json", place_aps(mesh, template))

    session = simulate_exercise_session(None, "S01", "A1", spec["seed"])
    period_two = session.aesr[1]
    with open(out / "values.csv", "w", encoding="utf-8") as fh:
        fh.write("label,value\n")
        for i, v in enumerate(period_two / period_two[0]):
            fh.write(f"AP{i + 1},{float(v)!r}\n")

    with open(out / "cohort.json", "w", encoding="utf-8") as fh:
        json.dump({"sizes": cohort_sizes(spec)}, fh)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    build(json.loads(sys.argv[1]), Path(sys.argv[2]))
