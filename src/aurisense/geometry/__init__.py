from .mesh import SurfaceMesh
from .meshio import load_mesh, read_ply_vertex_scalars, write_ply
from .curvature import CurvatureField, curvature_field
from .aps import (
    AuricularPoint,
    AuricularPointSet,
    default_template,
    load_template,
    place_aps,
    read_aps_json,
    write_aps_json,
)
from . import primitives

__all__ = [
    "SurfaceMesh",
    "load_mesh",
    "read_ply_vertex_scalars",
    "write_ply",
    "CurvatureField",
    "curvature_field",
    "AuricularPoint",
    "AuricularPointSet",
    "default_template",
    "load_template",
    "place_aps",
    "read_aps_json",
    "write_aps_json",
    "primitives",
]
