import numpy as np
import pytest

from aurisense.errors import ParameterError
from aurisense.geometry import curvature_field
from aurisense.geometry.curvature import (
    _MIN_NEIGHBORS,
    _RIDGE,
    _fit_coeffs,
    _tangent_frames,
)
from aurisense.geometry.mesh import SurfaceMesh
from aurisense.geometry.primitives import _square_grid, make_icosphere, make_plane_grid


def interior_mask(mesh, margin):
    lo, hi = mesh.bounding_box()
    v = mesh.vertices
    return ((v[:, 0] > lo[0] + margin) & (v[:, 0] < hi[0] - margin)
            & (v[:, 1] > lo[1] + margin) & (v[:, 1] < hi[1] - margin))


def test_plane_curvature_zero(plane_coarse):
    field = curvature_field(plane_coarse)
    inner = interior_mask(plane_coarse, 2.0)
    assert np.abs(field.mean[inner]).max() < 1e-6
    assert np.abs(field.kappa1[inner]).max() < 1e-6
    assert np.abs(field.kappa2[inner]).max() < 1e-6
    assert field.flagged.size == 0


def test_unit_icosphere_mean_curvature(icosphere_unit):
    field = curvature_field(icosphere_unit)
    # analytic H = 1/R = 1, convex-positive for outward normals
    rel = np.abs(field.mean - 1.0)
    assert rel.max() < 0.05
    assert (field.mean > 0).all()


def test_mean_is_half_sum(icosphere_unit):
    field = curvature_field(icosphere_unit)
    np.testing.assert_allclose(
        field.mean, 0.5 * (field.kappa1 + field.kappa2), atol=1e-12)


def test_cylinder_mean_curvature(cylinder_r2):
    field = curvature_field(cylinder_r2)
    z = cylinder_r2.vertices[:, 2]
    away = np.abs(z) < 3.0  # away from the open rims
    rel = np.abs(field.mean[away] - 0.25) / 0.25
    assert rel.max() < 0.05


@pytest.mark.parametrize("a, b, c", [
    (0.3, 0.1, -0.2), (0.05, 0.2, 0.15), (-0.4, 0.0, -0.1), (1.0, 0.5, 0.25),
])
def test_exact_quadric_curvature_at_the_apex(a, b, c):
    # the grid and the surface z = a x^2 + b xy + c y^2 are both symmetric
    # under (x, y) -> (-x, -y), so the apex normal is +z and its 2-ring lies
    # on the fitted quadric: only the ridge term separates the fit from the
    # sign-flipped eigenvalues of the Hessian [[2a, b], [b, 2c]]
    x, y, faces = _square_grid(4.0, 0.5)
    mesh = SurfaceMesh(np.stack([x, y, a * x * x + b * x * y + c * y * y], axis=1), faces)
    apex = int(np.flatnonzero((x == 0.0) & (y == 0.0))[0])
    field = curvature_field(mesh, vertices=[apex])
    k1, k2 = -np.linalg.eigvalsh([[2.0 * a, b], [b, 2.0 * c]])  # k1 >= k2
    assert abs(field.kappa1[0] - k1) < 1e-8
    assert abs(field.kappa2[0] - k2) < 1e-8


def test_icosphere_convergence_monotone():
    errs = []
    for s in (2, 3, 4):
        mesh = make_icosphere(subdivisions=s, radius=1.0)
        field = curvature_field(mesh)
        errs.append(np.abs(field.mean - 1.0).max())
    assert errs[0] > errs[1] > errs[2]


def test_scale_invariance_of_relative_error():
    # curvature scales as 1/length under uniform scaling
    small = make_icosphere(subdivisions=3, radius=1.0)
    big = make_icosphere(subdivisions=3, radius=25.0)
    f_small = curvature_field(small)
    f_big = curvature_field(big)
    np.testing.assert_allclose(f_big.mean * 25.0, f_small.mean, rtol=1e-6)


def _fan_mesh(n):
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    verts = np.vstack([[0, 0, 0],
                       np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=1)])
    faces = [[0, 1 + i, 1 + (i + 1) % n] for i in range(n)]
    return SurfaceMesh(verts, np.asarray(faces))


def _strip_mesh(n):
    """Flat 2 x n vertex strip of 2(n - 1) triangles."""
    x = np.tile(np.arange(n, dtype=np.float64), 2)
    y = np.repeat([0.0, 1.0], n)
    i = np.arange(n - 1)
    faces = np.concatenate([np.stack([i, i + 1, n + i + 1], axis=1),
                            np.stack([i, n + i + 1, n + i], axis=1)])
    return SurfaceMesh(np.stack([x, y, np.zeros(2 * n)], axis=1), faces)


def test_underdetermined_vertex_falls_back_to_larger_ring():
    # the strip's end vertices 5 and 6 have 4 neighbors in their 2-ring and
    # 6 in their 3-ring, so the grown ring fits them and nothing is flagged
    mesh = _strip_mesh(6)
    assert np.diff(mesh.k_rings(np.array([5, 6]), 2)[0]).tolist() == [4, 4]
    assert np.diff(mesh.k_rings(np.array([5, 6]), 3)[0]).tolist() == [6, 6]
    field = curvature_field(mesh)
    assert field.flagged.size == 0
    assert np.abs(field.mean).max() < 1e-12


def test_unfittable_vertices_are_flagged():
    # 4-fan: even the full mesh offers at most 4 neighbors per vertex
    field = curvature_field(_fan_mesh(4))
    assert field.flagged.size == 5
    assert np.isfinite(field.mean).all()


def test_vertex_subset_follows_the_given_order(icosphere_unit):
    full = curvature_field(icosphere_unit)
    subset = np.array([40, 3, 97])
    part = curvature_field(icosphere_unit, vertices=subset)
    np.testing.assert_array_equal(part.kappa1, full.kappa1[subset])
    np.testing.assert_array_equal(part.mean, full.mean[subset])
    with pytest.raises(ParameterError):
        curvature_field(icosphere_unit, vertices=[icosphere_unit.n_vertices])


@pytest.mark.parametrize("vertices", [[0.5], [3, np.nan], [True]], ids=["fraction", "nan", "bool"])
def test_vertex_subset_takes_only_whole_indices(icosphere_unit, vertices):
    # 0.5 once fitted vertex 0
    with pytest.raises(ParameterError, match="vertex indices must be integers"):
        curvature_field(icosphere_unit, vertices=vertices)
    full = curvature_field(icosphere_unit, vertices=[40, 3])
    np.testing.assert_array_equal(curvature_field(icosphere_unit, vertices=[40.0, 3.0]).mean,
                                  full.mean)


# per-vertex reference for the batched kernel: one 5x5 system at a time
def _fit_coeffs_loop(vertices, t1, t2, normals, query, indptr, indices):
    nq = query.shape[0]
    coeffs = np.zeros((nq, 5))
    ok = np.zeros(nq, dtype=np.bool_)
    ata = np.zeros((5, 5))
    atb = np.zeros(5)
    row = np.zeros(5)
    for qi in range(nq):
        v = query[qi]
        lo = indptr[qi]
        hi = indptr[qi + 1]
        if hi - lo < _MIN_NEIGHBORS:
            continue
        for i in range(5):
            atb[i] = 0.0
            for j in range(5):
                ata[i, j] = 0.0
        for p in range(lo, hi):
            u = indices[p]
            dx = vertices[u, 0] - vertices[v, 0]
            dy = vertices[u, 1] - vertices[v, 1]
            dz = vertices[u, 2] - vertices[v, 2]
            uu = dx * t1[v, 0] + dy * t1[v, 1] + dz * t1[v, 2]
            ww = dx * t2[v, 0] + dy * t2[v, 1] + dz * t2[v, 2]
            hh = dx * normals[v, 0] + dy * normals[v, 1] + dz * normals[v, 2]
            row[0] = uu * uu
            row[1] = uu * ww
            row[2] = ww * ww
            row[3] = uu
            row[4] = ww
            for i in range(5):
                atb[i] += row[i] * hh
                for j in range(5):
                    ata[i, j] += row[i] * row[j]
        trace = ata[0, 0] + ata[1, 1] + ata[2, 2] + ata[3, 3] + ata[4, 4]
        ridge = _RIDGE * trace / 5.0 + 1e-300
        for i in range(5):
            ata[i, i] += ridge
        coeffs[qi] = np.linalg.solve(ata, atb)
        ok[qi] = True
    return coeffs, ok


@pytest.mark.parametrize("query", [
    np.array([7]),
    np.array([0, 11, 40, 97, 161]),
    np.arange(162),
], ids=["one", "five", "all"])
def test_numpy_fit_matches_loop_kernel(query):
    # a (1, 5) or (5, 5) right-hand side is what numpy >= 2 would misread
    # as one matrix if the batched solve lacked its trailing axis
    mesh = make_icosphere(subdivisions=2)
    assert mesh.n_vertices == 162
    t1, t2 = _tangent_frames(mesh.vertex_normals)
    rings = mesh.k_rings(query, 2)
    # the kernel takes the frames of the queried vertices, one row each; the
    # loop reads them from the whole mesh's by vertex index
    coeffs, ok = _fit_coeffs(mesh.vertices, t1[query], t2[query],
                             mesh.vertex_normals[query], query, *rings)
    ref_coeffs, ref_ok = _fit_coeffs_loop(mesh.vertices, t1, t2, mesh.vertex_normals,
                                          query, *rings)
    np.testing.assert_array_equal(ok, ref_ok)
    assert ok.all()
    np.testing.assert_allclose(coeffs, ref_coeffs, rtol=0, atol=1e-12)
