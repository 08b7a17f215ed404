"""Command-line interface: design / simulate / analyze / contour.

One binary with four subcommands, flat JSON configs, no environment
variables.  All machine output goes to files; stdout carries a one-line
summary and stderr the diagnostics.  Every output file embeds the seed and
a digest of the resolved configuration, both stamped by ``_meta``, and
re-running a command with identical inputs reproduces byte-identical files.
A command only connects readers, pipelines and writers: the readers own
every input rule, such as the unique labels of a values file.

Each command runs one pipeline on one format per input.  ``analyze``
divides each row of the dataset by its AP1, clusters the rows' PCA scores
with k-means over K = 2 .. min(8, M - 1), 8 restarts each, picks K* by the
elbow, and scores the result by silhouette and left/right concordance.
``contour`` reads its APs from the ``{"aps": [...]}`` file that
``design --aps-out`` writes, and writes the field as the ``aesr`` vertex
property of an ASCII PLY.

Exit codes: 0 success, 1 input/configuration error, 2 partial numeric
failure (e.g. some electrodes could not reach the target area).

Start-up pays only for what every command needs: the package imports each
scipy module where it is used, so ``import aurisense.cli`` loads none, and
one process builds the argument parser once, however often it calls
``main``.  ``design`` and ``simulate`` load no scipy module: the mesh
topology is numpy index arrays.  ``contour`` and ``analyze`` load
``scipy.spatial`` (Delaunay, ``cdist``), which brings ``scipy.sparse``,
``scipy.linalg`` and ``scipy.special`` along.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .acquisition import simulate_cohort, simulate_exercise_session
from .analysis import (
    cluster_pipeline,
    concordance,
    interpolate_contour,
    read_dataset_csv,
    write_dataset_csv,
    write_report_json,
)
from .electrode import DEFAULT_TARGET_AREA, MAX_TILT_DEG, design_array, write_design_json
from .errors import AurisenseError, DatasetFormatError, LabelError
from .geometry import load_mesh, place_aps, read_aps_json, write_ply
from .geometry.aps import write_aps_json


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _meta(command: str, seed, config: dict, **files) -> tuple[dict, str]:
    """The provenance of one output: the ``_meta`` object of a JSON file and
    the ``seed=... config=... version=...`` comment of a CSV or PLY file.
    The digest covers ``config`` and the bytes of each input of ``files``."""
    config = {**config, **{key: _file_digest(path) for key, path in files.items()}}
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()[:16]
    meta = {"command": command, "seed": seed, "config_digest": digest,
            "version": __version__}
    return meta, f"seed={'none' if seed is None else seed} config={digest} version={__version__}"


def _second_output(args, option: str) -> None:
    """Raise ``AurisenseError`` before anything is written if the output of
    ``option`` (``aps_out`` or ``truth_out``) names the file of ``--out``."""
    path = getattr(args, option)
    if path is not None and os.path.realpath(path) == os.path.realpath(args.out):
        raise AurisenseError(f"--out and --{option.replace('_', '-')} name one file: {path}")


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------

def cmd_design(args) -> int:
    _second_output(args, "aps_out")
    mesh = load_mesh(args.mesh)
    aps = place_aps(mesh, args.template)
    design = design_array(mesh, aps, target_area=args.target_area, tilt_deg=args.tilt_deg)
    meta, _ = _meta("design", None, {"target_area": args.target_area, "tilt_deg": args.tilt_deg},
                    mesh=args.mesh, template=args.template)
    write_design_json(args.out, design, meta=meta)
    if args.aps_out:
        write_aps_json(args.aps_out, aps, meta=meta)
    n_ok = len(design.electrodes)
    if design.failed:
        print(f"design: {n_ok} electrodes solved, {len(design.failed)} failed "
              f"-> {args.out}")
        for ap, reason in design.failed:
            print(f"  {ap}: {reason}", file=sys.stderr)
        return 2
    print(f"design: {n_ok} electrodes at {args.target_area:.4g} mm^2 "
          f"(max deviation {design.max_rel_deviation:.2e}) -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.kind == "cohort":
        _second_output(args, "truth_out")
    config = None
    if args.config != "default":
        # a leading byte-order mark is dropped, as every table reader drops it
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            config = json.load(fh)
    if args.kind == "cohort":
        res = simulate_cohort(config, args.seed)
    else:
        res = simulate_exercise_session(config, args.subject, args.test, args.seed)
    meta, stamp = _meta(f"simulate {args.kind}", args.seed, res.config)
    if args.kind == "cohort":
        write_dataset_csv(args.out, res.labels, res.rows, comments=(stamp,))
        if args.truth_out:
            truth = dict(zip(res.labels, res.archetype.tolist()))
            write_report_json(args.truth_out, {"_meta": meta, "truth": truth})
        print(f"simulate cohort: {res.rows.shape[0]} ears x "
              f"{res.rows.shape[1]} APs -> {args.out}")
        return 0
    write_report_json(args.out, {**res.to_json_obj(), "_meta": meta})
    print(f"simulate session: {res.subject} {res.test} "
          f"({res.aesr.shape[1]} APs x 4 periods) -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def cmd_analyze(args) -> int:
    labels, rows = read_dataset_csv(args.dataset)
    report = cluster_pipeline(rows, labels, seed=args.seed)
    obj = report.to_json_obj()
    try:
        obj["concordance"] = concordance(report).to_json_obj()
    except LabelError as exc:  # labels are not SUBJECT-SIDE pairs
        print(f"analyze: no concordance: {exc}", file=sys.stderr)
    obj["_meta"], _ = _meta("analyze", args.seed, {}, dataset=args.dataset)
    write_report_json(args.out, obj)
    print(f"analyze: {rows.shape[0]} datasets -> K*={report.k_star}, "
          f"mean silhouette {report.silhouette_mean:.3f} -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# contour
# ----------------------------------------------------------------------

def cmd_contour(args) -> int:
    mesh = load_mesh(args.mesh)
    aps = read_aps_json(args.aps)
    labels, values = read_dataset_csv(args.values)
    if values.shape[1] != 1:
        raise DatasetFormatError(
            f"values file has {values.shape[1]} value columns; expected 'label,value'")
    if len(values) != len(aps):
        raise AurisenseError(f"{len(values)} values for {len(aps)} APs")
    row = dict(zip(labels, range(len(labels))))
    missing = [lab for lab in aps.labels if lab not in row]
    if missing:
        raise AurisenseError(f"values file lacks AP '{missing[0]}'")
    field = interpolate_contour(mesh, aps, values[[row[lab] for lab in aps.labels], 0])
    _, stamp = _meta("contour", None, {}, mesh=args.mesh, aps=args.aps, values=args.values)
    write_ply(args.out, mesh, scalars={"aesr": field.values}, comments=(stamp,))
    print(f"contour: {mesh.n_vertices} vertices, scalar range "
          f"[{field.values.min():.4g}, {field.values.max():.4g}] -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

@functools.cache  # parse_args keeps no state: each call returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aurisense",
        description="Auricular electrode design, acquisition simulation and "
                    "AESR analysis pipeline",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("design", help="equal-area electrode array from a mesh")
    d.add_argument("mesh", help="ASCII OBJ or PLY mesh (mm)")
    d.add_argument("template", help="AP template file: 'label x y z' lines")
    d.add_argument("--target-area", type=float, default=DEFAULT_TARGET_AREA,
                   help="sensing area per electrode, mm^2")
    d.add_argument("--tilt-deg", type=float, default=0.0,
                   help=f"fixed tilt from the surface normal, deg in "
                        f"[0, {MAX_TILT_DEG:g}) (default: 0, along the normal)")
    d.add_argument("--out", required=True, help="design JSON output")
    d.add_argument("--aps-out", default=None, help="also write the placed APs")
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("simulate", help="deterministic cohort/session generator")
    s.add_argument("kind", choices=["cohort", "session"])
    s.add_argument("config", help="JSON config path, or 'default'; a cohort config "
                                  "takes archetypes, sizes, concordance and noise, "
                                  "a session config takes noise")
    s.add_argument("--seed", type=int, required=True,
                   help="integer seed (required; no wall-clock seeding)")
    s.add_argument("--out", required=True)
    s.add_argument("--truth-out", default=None,
                   help="cohort only: write ground-truth archetypes JSON")
    s.add_argument("--subject", default="S01", help="session subject id")
    s.add_argument("--test", default="A1",
                   help="session test label (A* cycling, B* control)")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("analyze", help="ratios to AP1, PCA, k-means over K = 2 .. "
                                       "min(8, M - 1) with 8 restarts and the elbow, "
                                       "silhouette and left/right concordance")
    a.add_argument("dataset", help="CSV: label,AP1,...,APN, at least 4 rows")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True, help="report JSON output")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("contour", help="interpolate AP values over the mesh into "
                                       "the 'aesr' vertex property of an ASCII PLY")
    c.add_argument("mesh", help="ASCII OBJ or PLY mesh (mm)")
    c.add_argument("aps", help="APs JSON written by 'design --aps-out'")
    c.add_argument("values", help="CSV: a 'label,value' header, then one "
                                  "'label,value' line per AP")
    c.add_argument("--out", required=True, help="contour PLY output")
    c.set_defaults(func=cmd_contour)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; in this tool exit 2 means a
        # partial numeric failure, so remap usage problems to 1
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (AurisenseError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
