"""Command-line interface: design / simulate / analyze / contour.

One binary with four subcommands, flat JSON configs, no environment
variables.  All machine output goes to files; stdout carries a one-line
summary and stderr the diagnostics.  Every output file embeds the seed and
a digest of the resolved configuration, and re-running a command with
identical inputs reproduces byte-identical files.

Each command runs one pipeline on one format per input.  ``analyze``
divides each row of the dataset by its AP1, clusters the rows' PCA scores
with k-means and the elbow, and scores the result by silhouette and
left/right concordance.  ``contour`` reads its APs from the
``{"aps": [...]}`` file that ``design --aps-out`` writes.

Exit codes: 0 success, 1 input/configuration error, 2 partial numeric
failure (e.g. some electrodes could not reach the target area).

Start-up pays only for what every command needs: the package imports each
scipy module where it is used, so ``import aurisense.cli`` loads none, and
one process builds the argument parser once, however often it calls
``main``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
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
from .geometry import load_mesh, place_aps, read_aps_json, write_ply, write_vtk
from .geometry.aps import write_aps_json
from .textio import read_lines


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------

def cmd_design(args) -> int:
    mesh = load_mesh(args.mesh)
    aps = place_aps(mesh, args.template)
    design = design_array(mesh, aps, target_area=args.target_area, tilt_deg=args.tilt_deg)
    meta = {
        "command": "design",
        "seed": None,
        "config_digest": _digest({
            "mesh": _file_digest(args.mesh),
            "template": _file_digest(args.template),
            "target_area": args.target_area,
            "tilt_deg": args.tilt_deg,
        }),
        "version": __version__,
    }
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
    config = None
    if args.config != "default":
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if args.kind == "cohort":
        res = simulate_cohort(config, args.seed)
    else:
        res = simulate_exercise_session(config, args.subject, args.test, args.seed)
    meta = {"command": f"simulate {args.kind}", "seed": args.seed,
            "config_digest": _digest(res.config), "version": __version__}
    if args.kind == "cohort":
        write_dataset_csv(args.out, res.labels, res.rows, comments=(
            f"seed={args.seed} config={meta['config_digest']} version={__version__}",))
        if args.truth_out:
            write_report_json(args.truth_out, {
                "_meta": meta,
                "truth": {lab: int(a) for lab, a in zip(res.labels, res.archetype)},
            })
        print(f"simulate cohort: {res.rows.shape[0]} ears x "
              f"{res.rows.shape[1]} APs -> {args.out}")
        return 0
    obj = res.to_json_obj()
    obj["_meta"] = meta
    write_report_json(args.out, obj)
    print(f"simulate session: {res.subject} {res.test} "
          f"({res.aesr.shape[1]} APs x 4 periods) -> {args.out}")
    return 0


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def cmd_analyze(args) -> int:
    labels, rows = read_dataset_csv(args.dataset)
    report = cluster_pipeline(rows, labels=labels, k_range=tuple(args.k_range),
                              restarts=args.restarts, seed=args.seed)
    obj = report.to_json_obj()
    try:
        obj["concordance"] = concordance(report).to_json_obj()
    except LabelError:
        pass  # labels are not SUBJECT-SIDE pairs; skip the pairing analysis
    obj["_meta"] = {
        "command": "analyze",
        "seed": args.seed,
        "config_digest": _digest({
            "dataset": _file_digest(args.dataset),
            "k_range": list(args.k_range),
            "restarts": args.restarts,
        }),
        "version": __version__,
    }
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
    values = values[:, 0]
    order = {}
    for i, lab in enumerate(labels):
        if order.setdefault(lab, i) != i:
            # only a faulty file is read again, for the line of its row
            lines = read_lines(args.values, DatasetFormatError, comment="#")[1]
            raise DatasetFormatError(f"values file repeats the label '{lab}'",
                                     line=int(lines[1 + i]))
    if len(values) != len(aps):
        raise AurisenseError(f"{len(values)} values for {len(aps)} APs")
    missing = [lab for lab in aps.labels if lab not in order]
    if missing:
        raise AurisenseError(f"values file lacks AP '{missing[0]}'")
    values = values[[order[lab] for lab in aps.labels]]
    field = interpolate_contour(mesh, aps, values)
    stamp = _digest({
        "mesh": _file_digest(args.mesh),
        "aps": _file_digest(args.aps),
        "values": _file_digest(args.values),
        "format": args.format,
    })
    note = f"seed=none config={stamp} version={__version__}"
    if args.format == "ply":
        write_ply(args.out, mesh, scalars={"aesr": field.values},
                  comments=(note,))
    else:
        write_vtk(args.out, mesh, scalars={"aesr": field.values}, title=note)
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
    s.add_argument("config", help="JSON config path, or 'default'")
    s.add_argument("--seed", type=int, required=True,
                   help="integer seed (required; no wall-clock seeding)")
    s.add_argument("--out", required=True)
    s.add_argument("--truth-out", default=None,
                   help="cohort only: write ground-truth archetypes JSON")
    s.add_argument("--subject", default="S01", help="session subject id")
    s.add_argument("--test", default="A1",
                   help="session test label (A* cycling, B* control)")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("analyze", help="ratios to AP1, PCA, k-means with the elbow, "
                                       "silhouette and left/right concordance")
    a.add_argument("dataset", help="CSV: label,AP1,...,APN")
    a.add_argument("--k-range", type=int, nargs=2, default=(2, 8),
                   metavar=("LO", "HI"))
    a.add_argument("--restarts", type=int, default=8)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True, help="report JSON output")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("contour", help="interpolate AP values over the mesh")
    c.add_argument("mesh")
    c.add_argument("aps", help="APs JSON written by 'design --aps-out'")
    c.add_argument("values", help="CSV: a 'label,value' header, then one "
                                  "'label,value' line per AP")
    c.add_argument("--format", choices=["ply", "vtk"], default="ply")
    c.add_argument("--out", required=True)
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
