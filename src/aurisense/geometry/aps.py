"""Auricular point (AP) placement from a normalized template layout.

A template is a list of labeled points in the unit cube of the canonical
ear bounding box.  Placement maps each template point through the target
mesh's axis-aligned bounding box and projects it to the nearest surface
point, which makes the layout proportionally scaled: the same template on
a uniformly scaled mesh lands on the correspondingly scaled positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import ParameterError, PlacementError
from ..seeding import whole_indices
from ..textio import read_lines, require, require_unique, table, write_report_json
from .mesh import SurfaceMesh

# Fraction of the bounding-box diagonal beyond which a projection is
# considered ambiguous and rejected.
PROJECTION_TOLERANCE = 0.20


@dataclass(frozen=True)
class AuricularPoint:
    label: str
    position: np.ndarray  # (3,) mm, on the surface
    face: int
    barycentric: np.ndarray  # (3,), nonnegative, sums to 1


@dataclass(frozen=True)
class AuricularPointSet:
    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def labels(self):
        return [p.label for p in self.points]

    def positions(self) -> np.ndarray:
        return np.asarray([p.position for p in self.points])

    def to_json_obj(self) -> dict:
        return {
            "aps": [
                {
                    "label": p.label,
                    "position": [float(x) for x in p.position],
                    "face": int(p.face),
                    "barycentric": [float(x) for x in p.barycentric],
                }
                for p in self.points
            ]
        }


def load_template(path) -> list:
    """Parse a template file: one ``label x y z`` line per AP, xyz in [0,1].

    Blank and ``#`` lines are skipped; a bad line, or one that repeats an
    earlier label, raises ``ParameterError`` with ``.line`` set to it.
    """
    rows, lines = read_lines(path, ParameterError, comment="#")
    if not rows:
        raise ParameterError("template file contains no points")
    labels, xyz = table(rows, lines, 3, np.float64, ParameterError, label=True)
    require(((xyz >= 0.0) & (xyz <= 1.0)).all(axis=1), lines, ParameterError,
            "template coordinates must be in [0, 1]")
    require_unique(labels, lines, ParameterError)
    return list(zip(labels, xyz))


def default_template(n: int = 13) -> list:
    """Built-in illustrative layout with 13 (or the derived 10) APs.

    The 10-point variant drops the 3rd, 7th and 11th entries of the full
    layout and relabels the remainder AP1..AP10.
    """
    name = {13: "ap13.txt", 10: "ap10.txt"}.get(n)
    if name is None:
        raise ParameterError("default templates exist for n in {10, 13}")
    ref = resources.files("aurisense.geometry").joinpath("templates", name)
    with resources.as_file(ref) as path:
        return load_template(path)


def place_aps(mesh: SurfaceMesh, template) -> AuricularPointSet:
    """Project a normalized template onto the mesh surface.

    ``template`` may be a path or a parsed list of ``(label, xyz01)``.
    Raises ``PlacementError`` if any projection lands farther than 20% of
    the bounding-box diagonal from its template position.
    """
    if isinstance(template, (str, bytes)) or hasattr(template, "__fspath__"):
        template = load_template(template)
    lo, hi = mesh.bounding_box()
    diag = mesh.bounding_diagonal()
    points = []
    for label, unit in template:
        target = lo + np.asarray(unit) * (hi - lo)
        pos, face, bary, dist = mesh.closest_point(target)
        if dist > PROJECTION_TOLERANCE * diag:
            raise PlacementError(
                f"{label}: nearest surface point is {dist:.3g} mm away "
                f"(> {PROJECTION_TOLERANCE:.0%} of the bounding diagonal)"
            )
        points.append(AuricularPoint(
            label=label, position=pos, face=face, barycentric=bary,
        ))
    return AuricularPointSet(points=tuple(points))


def write_aps_json(path, aps: AuricularPointSet, meta: dict | None = None) -> None:
    obj = aps.to_json_obj()
    if meta:
        obj["_meta"] = meta
    write_report_json(path, obj)


def _three_finite(value) -> np.ndarray | None:
    """``value`` as a (3,) float64 array if it is a list of three finite JSON
    numbers (a bool or a numeric string is not one), else None."""
    if not (isinstance(value, list) and len(value) == 3
            and all(type(x) in (int, float) for x in value)):
        return None
    try:
        arr = np.array(value, dtype=np.float64)
    except OverflowError:  # an integer past the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _face_index(value) -> int | None:
    """``value`` as an int if it is one whole number >= 0, else None."""
    try:
        face = whole_indices(value, ValueError, "face")
    except ValueError:
        return None
    return int(face) if face.shape == () and face >= 0 else None


def read_aps_json(path) -> AuricularPointSet:
    """APs from an APs JSON file, ``{"aps": [...]}`` as ``design --aps-out``
    writes it.  Each record needs a string ``label`` and a ``position`` of
    three finite numbers; ``face`` (a whole number >= 0) and ``barycentric``
    (three finite numbers) are optional.  Raises ``ParameterError`` naming
    the first bad record, or the first that repeats a label."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    recs = obj.get("aps") if isinstance(obj, dict) else None
    if not isinstance(recs, list):
        raise ParameterError("'aps' must be a list of records "
                             "(an APs file as 'design --aps-out' writes it)")
    pts, seen = [], set()
    for i, rec in enumerate(recs):
        rec = rec if isinstance(rec, dict) else {}
        label, position = rec.get("label"), _three_finite(rec.get("position"))
        if not isinstance(label, str) or position is None:
            raise ParameterError(f"'aps' record {i}: expected an object with a string 'label' "
                                 f"and 'position' (three finite numbers)")
        face = _face_index(rec["face"]) if "face" in rec else -1
        if face is None:
            raise ParameterError(f"'aps' record {i}: 'face' must be a whole number >= 0")
        barycentric = _three_finite(rec.get("barycentric", [1.0, 0.0, 0.0]))
        if barycentric is None:
            raise ParameterError(f"'aps' record {i}: 'barycentric' must be three finite numbers")
        if label in seen:
            raise ParameterError(f"'aps' record {i} repeats the label '{label}'")
        seen.add(label)
        pts.append(AuricularPoint(label=label, position=position, face=face,
                                  barycentric=barycentric))
    return AuricularPointSet(points=tuple(pts))
