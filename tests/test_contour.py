import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError

from aurisense.analysis import interpolate_contour
import aurisense.analysis.contour as contour
from aurisense.analysis.contour import _parameterize, interpolation_weights
from aurisense.errors import ParameterError
from aurisense.cli import main
from aurisense.geometry import (
    default_template,
    place_aps,
    read_ply_vertex_scalars,
    write_ply,
)
from aurisense.geometry.aps import AuricularPoint, AuricularPointSet, write_aps_json
from aurisense.geometry.primitives import make_bumpy_plane, make_icosphere


def _ap_sites(n=13, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-10.0, 10.0, size=(n, 2)), rng.uniform(0.5, 2.0, size=n)


def _inside_grid(sites, step=0.37):
    g = np.arange(-12.0, 12.0, step)
    q = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return q[Delaunay(sites).find_simplex(q) >= 0]


def _clip(poly, a, b):
    """Sutherland-Hodgman clip of a convex polygon to the half-plane a.x <= b."""
    out = []
    for p, r in zip(poly, np.roll(poly, -1, axis=0)):
        fp, fr = a @ p - b, a @ r - b
        if fp <= 0:
            out.append(p)
        if fp * fr < 0:
            out.append(p + fp / (fp - fr) * (r - p))
    return np.array(out).reshape(-1, 2)


def _voronoi_cell(center, others, box):
    cell = box
    for s in others:
        # points nearer to center than to s
        cell = _clip(cell, 2.0 * (s - center), s @ s - center @ center)
    return cell


def _area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def _sibson_reference(sites, values, q):
    """Sibson value at one query: the area its Voronoi cell takes from each
    site's cell, by half-plane clipping with no triangulation."""
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    new_cell = _voronoi_cell(q, sites, 1e4 * square)
    reach = np.abs(new_cell).max()
    assert reach < 1e3  # bounded, not cut by the box
    # clip again from a box just around the cell: far box corners cost digits
    new_cell = _voronoi_cell(q, sites, 2.0 * reach * square)
    stolen = np.array([
        _area(_voronoi_cell(s, np.delete(sites, i, axis=0), new_cell))
        for i, s in enumerate(sites)
    ])
    return stolen @ values / stolen.sum()


def test_exact_at_aps():
    sites, values = _ap_sites()
    assert np.array_equal(interpolation_weights(sites, sites) @ values, values)
    # within the coincidence tolerance counts as the AP itself
    np.testing.assert_array_equal(
        interpolation_weights(sites, sites + 1e-12) @ values, values)


def test_linear_precision_inside_hull():
    sites, _ = _ap_sites(seed=1)
    q = _inside_grid(sites)
    assert q.shape[0] > 500

    def plane(p):
        return 0.7 - 0.3 * p[:, 0] + 0.45 * p[:, 1]

    np.testing.assert_allclose(interpolation_weights(sites, q) @ plane(sites),
                               plane(q), rtol=0, atol=1e-12)


@given(st.floats(0.0, 2.0 * np.pi), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
       st.booleans(), st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_linear_precision_under_a_rigid_motion(angle, dx, dy, mirror, seed):
    sites, _ = _ap_sites(seed=seed)
    q = _inside_grid(sites, step=0.9)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if mirror else 1.0])

    def move(p):
        return p @ rot.T + [dx, dy]

    def plane(p):
        return 0.7 - 0.3 * p[:, 0] + 0.45 * p[:, 1]

    np.testing.assert_allclose(interpolation_weights(move(sites), move(q)) @ plane(sites),
                               plane(q), rtol=0, atol=1e-11)


def test_matches_per_query_sibson_reference():
    sites, values = _ap_sites(seed=2)
    q = _inside_grid(sites, step=0.9)
    expected = np.array([_sibson_reference(sites, values, p) for p in q])
    np.testing.assert_allclose(interpolation_weights(sites, q) @ values, expected,
                               rtol=0, atol=1e-12)


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                          st.floats(-5.0, 5.0)),
                min_size=3, max_size=12, unique_by=lambda t: t[:2]))
@settings(max_examples=60, deadline=None)
def test_bounded_by_ap_values(aps):
    sites = np.array([(x, y) for x, y, _ in aps], dtype=np.float64) / 4.0
    values = np.array([v for _, _, v in aps])
    g = np.linspace(-1.0, 11.0, 25)
    q = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    # any warning fails the example; a mark would also turn hypothesis's own
    # failure report into errors and abort the session
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = interpolation_weights(sites, q) @ values
    slack = 1e-12 * max(1.0, np.abs(values).max())
    assert np.isfinite(out).all()
    assert (out >= values.min() - slack).all()
    assert (out <= values.max() + slack).all()


@pytest.mark.filterwarnings("error")
def test_collinear_aps_interpolate_along_their_line():
    # qhull rejects the sites: every query takes the chain of consecutive
    # sites, in whatever order they are given, as the hull
    x = np.array([3.0, 0.0, 4.0, 1.0, 2.0])
    sites = np.stack([x, np.zeros(5)], axis=1)
    q = np.array([[1.0, 0.0], [2.5, 1.0], [9.0, -3.0], [-2.0, 5.0]])
    assert np.array_equal(interpolation_weights(sites, q) @ (x ** 2), [1.0, 6.5, 16.0, 0.0])


def _plane(p):
    return 0.7 - 0.3 * p[:, 0] + 0.45 * p[:, 1]


def test_jittered_grid_with_nearly_collinear_hull_sites():
    # sliver hull triangles between nearly collinear sites: their
    # circumcircles reach most queries, and must not weigh them
    grid = np.array([(i, j) for i in range(5) for j in range(3)][:13],
                    dtype=np.float64) * [3.0, 2.0]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sites = grid + rng.normal(0.0, 1e-11, grid.shape)
        q = rng.uniform(sites.min(axis=0), sites.max(axis=0), size=(4000, 2))
        q = q[Delaunay(sites).find_simplex(q) >= 0]
        np.testing.assert_allclose(interpolation_weights(sites, q) @ _plane(sites),
                                   _plane(q), rtol=0, atol=1e-9)


def _in_exact_hull(sites, hull, q):
    """Whether each point of ``q`` lies inside or on the hull of ``sites``
    whose edges are ``hull``, by exact rational orientation tests."""
    exact = [tuple(map(Fraction, p.tolist())) for p in sites]
    cx, cy = sum(p[0] for p in exact) / len(exact), sum(p[1] for p in exact) / len(exact)
    inside = []
    for p in q.tolist():
        x, y = map(Fraction, p)
        ok = True
        for i, j in hull:
            (ax, ay), (bx, by) = exact[i], exact[j]
            side = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            ok &= side * ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) >= 0
        inside.append(ok)
    return np.array(inside, dtype=bool)


def test_jittered_grid_rows_off_linear_precision_are_counted(monkeypatch):
    # 120 grids of 2-6 by 2-6 sites 2 mm apart, jittered by N(0, 1e-11),
    # queried on the 0.25 mm lattice that holds the grid lines.  A located
    # row off W @ sites == q by more than 1e-12 of the spread lies outside
    # the exact hull, where no non-negative weights reproduce q, or is a
    # fallback row: clipped barycentrics within the jitter of nearly
    # collinear hull sites, never a Sibson row.  The counts are pinned so
    # that a change to the rows near the hull shows here
    sibson_rows = contour._sibson_rows
    sibson = []

    def spy(w, rows, *args):
        holds = sibson_rows(w, rows, *args)
        sibson.append(rows[holds])
        return holds

    monkeypatch.setattr(contour, "_sibson_rows", spy)
    rng = np.random.default_rng(0)
    located = off = fallback = outside = 0
    for _ in range(120):
        nx, ny = rng.integers(2, 7, size=2)
        grid = np.stack(np.meshgrid(np.arange(nx) * 2.0, np.arange(ny) * 2.0), -1).reshape(-1, 2)
        sites = grid + rng.normal(0.0, 1e-11, grid.shape)
        xs, ys = np.arange(8 * nx - 7) * 0.25, np.arange(8 * ny - 7) * 0.25
        q = np.stack(np.meshgrid(xs, ys), -1).reshape(-1, 2)
        tri = Delaunay(sites)
        q = q[tri.find_simplex(q) >= 0]
        sibson.clear()
        w = interpolation_weights(sites, q)
        spread = max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]))
        bad = np.flatnonzero(np.abs(w @ sites - q).max(axis=1) > 1e-12 * spread)
        inside = _in_exact_hull(sites, tri.convex_hull, q[bad])
        assert not np.isin(bad[inside], np.concatenate(sibson)).any()
        located += q.shape[0]
        off += bad.size
        fallback += inside.sum()
        outside += bad.size - inside.sum()
    assert (located, off, fallback, outside) == (64891, 843, 781, 62)


@given(st.integers(2, 6), st.integers(2, 6), st.floats(0.5, 4.0), st.floats(0.5, 4.0),
       st.floats(-13.0, -2.0), st.floats(0.0, 2.0 * np.pi), st.floats(-2.0, 2.0),
       st.booleans(), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_linear_precision_on_jittered_grids_under_a_similarity(
        nx, ny, hx, hy, log_jitter, angle, log_scale, mirror, dx, dy, seed):
    rng = np.random.default_rng(seed)
    grid = np.array([(i, j) for i in range(nx) for j in range(ny)],
                    dtype=np.float64) * [hx, hy]
    grid += rng.normal(0.0, 10.0 ** log_jitter, grid.shape)
    q = rng.uniform(grid.min(axis=0), grid.max(axis=0), size=(300, 2))
    c, s = np.cos(angle), np.sin(angle)
    rot = (10.0 ** log_scale * np.array([[c, -s], [s, c]])
           @ np.diag([1.0, -1.0 if mirror else 1.0]))

    def move(p):
        # the shift is in units of the scale, as the centred sites of a contour
        return p @ rot.T + 10.0 ** log_scale * np.array([dx, dy])

    sites = move(grid)
    q = q[Delaunay(sites).find_simplex(move(q)) >= 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = interpolation_weights(sites, move(q)) @ _plane(grid)
    np.testing.assert_allclose(out, _plane(q), rtol=0, atol=1e-9)


def _just_inside_hull_edges(sites, depth):
    """The points at 1/4, 1/2 and 3/4 of each hull edge of the sites, moved
    inward by ``depth`` of their spread."""
    spread = max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]))
    a, b = sites[Delaunay(sites).convex_hull].transpose(1, 0, 2)
    inward = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
    inward *= np.sign(((sites.mean(axis=0) - a) * inward).sum(axis=1))[:, None]
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    return np.concatenate([a + t * (b - a) + depth * spread * inward for t in (0.25, 0.5, 0.75)])


@pytest.mark.parametrize("seed", range(4))
def test_linear_precision_just_inside_a_hull_edge(seed):
    # the new circumcenter of the query and the hull edge lies about
    # spread / (8 depth) out: a shoelace taken about any far point, such
    # as a centroid it pulls out, cancels terms of that size squared
    sites, _ = _ap_sites(seed=seed)
    spread = max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]))
    for depth in (1e-12, 1e-9, 1e-6):
        q = _just_inside_hull_edges(sites, depth)
        assert (Delaunay(sites).find_simplex(q) >= 0).all()
        np.testing.assert_allclose(interpolation_weights(sites, q) @ sites, q,
                                   rtol=0, atol=1e-12 * spread)


def test_linear_precision_far_from_the_origin():
    # sites spread over 0.01-0.2 and shifted by up to 100: the stolen areas
    # must be measured about their own centre, not about the origin
    for seed in range(60):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 7, size=2)
        grid = np.array([(i, j) for i in range(nx) for j in range(ny)], dtype=np.float64)
        grid += rng.normal(0.0, 1e-3, grid.shape)
        q = rng.uniform(grid.min(axis=0), grid.max(axis=0), size=(300, 2))
        q = q[Delaunay(grid).find_simplex(q) >= 0]
        scale = rng.uniform(0.01, 0.2) / max(nx - 1, ny - 1)
        shift = rng.uniform(-100.0, 100.0, size=2)
        values = _plane(grid)
        out = interpolation_weights(grid * scale + shift, q * scale + shift) @ values
        np.testing.assert_allclose(out / np.ptp(values), _plane(q) / np.ptp(values),
                                   rtol=0, atol=1e-10)


def _check_weight_oracles(sites, queries, inside):
    """The exact oracles of W on every query: rows sum to 1, no weight is
    negative, a query on a site takes its unit row, and inside the hull
    (``inside``) W reproduces the queries from the sites."""
    w = interpolation_weights(sites, queries)
    assert w.shape == (queries.shape[0], sites.shape[0])
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert (w >= 0.0).all()
    spread = max(np.ptp(sites[:, 0]), np.ptp(sites[:, 1]))
    d = np.linalg.norm(queries[:, None, :] - sites[None, :, :], axis=2)
    at_site = d.min(axis=1) <= 1e-9 * spread
    assert np.array_equal(w[at_site], np.eye(sites.shape[0])[d[at_site].argmin(axis=1)])
    np.testing.assert_allclose(w[inside] @ sites, queries[inside],
                               rtol=0, atol=1e-12 * spread)
    return at_site


@pytest.mark.parametrize("spacing", [1.0, 0.4])
def test_weight_oracles_on_every_vertex_of_a_bumpy_plane(spacing):
    mesh = make_bumpy_plane(extent=30.0, spacing=spacing, amplitude=2.0, wavelength=12.0)
    aps = place_aps(mesh, default_template(13))
    sites, vertices = _parameterize(aps.positions(), mesh.vertices)
    queries = np.concatenate([vertices, sites])
    inside = Delaunay(sites).find_simplex(queries) >= 0
    assert inside.sum() > 100 and (~inside).sum() > 100  # both kinds of row
    assert _check_weight_oracles(sites, queries, inside)[-13:].all()


_grid_aps = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                     min_size=3, max_size=12, unique=True).map(
    lambda xy: np.array(xy, dtype=np.float64) / 4.0)
# exactly collinear: qhull rejects them, and every row takes the chain
_collinear_aps = st.builds(
    lambda origin, step, ks: np.array(origin, dtype=np.float64) + np.outer(ks, step) / 4.0,
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
    st.lists(st.integers(-8, 8), min_size=3, max_size=8, unique=True))


@given(st.one_of(_grid_aps, _collinear_aps))
# one query's polygon order taken for every query of its cavity breaks these
@example(sites=np.array([(0, 0), (0, 1), (0, 2), (2, 0)]) / 4.0)
@settings(max_examples=80, deadline=None)
def test_weight_oracles_on_drawn_ap_sets(sites):
    g = np.linspace(-4.0, 14.0, 37)
    grid = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    i, j = np.triu_indices(sites.shape[0], 1)
    in_hull = np.concatenate([sites, 0.5 * (sites[i] + sites[j])])
    try:
        grid_inside = Delaunay(sites).find_simplex(grid) >= 0
    except QhullError:  # collinear: the hull has no interior
        grid_inside = np.zeros(grid.shape[0], dtype=bool)
    queries = np.concatenate([grid, in_hull])
    inside = np.concatenate([grid_inside, np.ones(in_hull.shape[0], dtype=bool)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_site = _check_weight_oracles(sites, queries, inside)
    assert at_site[grid.shape[0]:][:sites.shape[0]].all()


def test_weight_oracles_just_outside_a_flat_triangle():
    # find_simplex admits queries up to about 2.2e-14 outside a triangle in
    # barycentrics: this one's clipped barycentrics sum to 1 + 1.6e-14, so
    # its row holds only if they are divided by that sum
    sites = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1e-7]])  # one flat triangle
    q = np.array([[0.5, -1.6e-21]])
    tri = Delaunay(sites)
    assert tri.find_simplex(q)[0] == 0
    t = tri.transform[0]
    bary = t[:2] @ (q[0] - t[2])
    assert min(bary.min(), 1.0 - bary.sum()) < -1e-14
    _check_weight_oracles(sites, q, np.array([True]))


def test_a_cavity_pinched_at_a_site_does_not_hold():
    # two cavity triangles that meet only at the centre site: its stolen
    # region is two polygons, with two steps between new corners, so no
    # one shoelace weighs it and the row must take the fallback
    angle = np.arange(6) * np.pi / 3.0
    sites = np.concatenate([[[0.0, 0.0]], np.stack([np.cos(angle), np.sin(angle)], axis=1)])
    tris = Delaunay(sites).simplices
    assert tris.shape[0] == 6 and (tris == 0).any(axis=1).all()
    cc, _ = contour._circumcenters(*sites[tris].transpose(1, 0, 2))
    centroids = sites[tris].mean(axis=1)
    # the triangle opposite the first one shares only the centre with it
    opposite = np.argmax(((centroids - centroids[0]) ** 2).sum(axis=1))
    r2tol = np.full(tris.shape[0], -1.0)
    r2tol[[0, opposite]] = np.inf
    queries = np.array([[0.1, 0.05], [-0.2, 0.3]])
    w = np.zeros((2, sites.shape[0]))
    holds = contour._sibson_rows(w, np.arange(2), sites, tris, cc, r2tol, queries)
    assert not holds.any()
    assert not w.any()


def _block_cases():
    mesh = make_bumpy_plane(extent=30.0, spacing=1.0, amplitude=2.0, wavelength=12.0)
    yield _parameterize(place_aps(mesh, default_template(13)).positions(), mesh.vertices)
    # slivers along the hull and rows whose Sibson weights fail
    grid = np.array([(i, j) for i in range(5) for j in range(3)][:13],
                    dtype=np.float64) * [3.0, 2.0]
    rng = np.random.default_rng(3)
    sites = grid + rng.normal(0.0, 1e-11, grid.shape)
    yield sites, rng.uniform(sites.min(axis=0) - 1.0, sites.max(axis=0) + 1.0, size=(2000, 2))
    g = np.linspace(-1.0, 3.0, 41)
    yield (np.array([(0, 0), (0, 1), (0, 2), (2, 0)]) / 4.0,
           np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2) / 4.0)
    # new circumcenters far out beyond the hull edges
    sites, _ = _ap_sites(seed=1)
    yield sites, _just_inside_hull_edges(sites, 1e-12)


@pytest.mark.parametrize("case", range(4))
def test_sibson_blocks_change_no_row(monkeypatch, case):
    # one query per block and every query in one block: a row must not
    # depend on the other rows computed with it
    sites, queries = list(_block_cases())[case]
    runs = []
    for block in (1, contour._BLOCK, 2 ** 40):
        monkeypatch.setattr(contour, "_BLOCK", block)
        runs.append(interpolation_weights(sites, queries))
    for w in runs[1:]:
        np.testing.assert_array_equal(w, runs[0])


def _peak_growth(monkeypatch, helper, sites, queries):
    """(added queries, added bytes) of the ``tracemalloc`` peak of the
    contour pass ``helper`` (called as helper(w, rows, ...)) between
    ``interpolation_weights`` on an eighth of the queries and on all of them."""
    import tracemalloc

    run = getattr(contour, helper)
    peaks = {}

    def traced(w, rows, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run(w, rows, *args)
        peaks[rows.size] = tracemalloc.get_traced_memory()[1] - before
        return out

    interpolation_weights(sites, queries[:10])  # import scipy before tracing
    monkeypatch.setattr(contour, helper, traced)
    tracemalloc.start()
    try:
        for n in (queries.shape[0] // 8, queries.shape[0]):
            interpolation_weights(sites, queries[:n])
    finally:
        tracemalloc.stop()
    (small, small_peak), (large, large_peak) = sorted(peaks.items())
    return large - small, large_peak - small_peak


def test_sibson_memory_grows_no_faster_than_the_queries(monkeypatch):
    # the pass holds a few bytes per query and blocks of at most _BLOCK
    # polygon corners; one (Q, N, m, 2) array of every query's polygon
    # corners would add over 1 KB per query
    sites, _ = _ap_sites(seed=4)
    rng = np.random.default_rng(4)
    q = rng.uniform(-10.0, 10.0, size=(100_000, 2))
    q = q[Delaunay(sites).find_simplex(q) >= 0]
    added, grown = _peak_growth(monkeypatch, "_sibson_rows", sites, q)
    assert grown <= 100 * added


def test_hull_edge_memory_grows_no_faster_than_the_queries(monkeypatch):
    # blocks of at most _BLOCK query-edge pairs; (Q, H, 2) arrays of every
    # outside query against every hull edge add about 300 B per query here
    sites, _ = _ap_sites(seed=4)
    rng = np.random.default_rng(5)
    q = rng.uniform(-20.0, 20.0, size=(100_000, 2))
    q = q[Delaunay(sites).find_simplex(q) < 0]
    added, grown = _peak_growth(monkeypatch, "_hull_edge_weights", sites, q)
    assert grown <= 100 * added


def test_weights_memory_grows_by_w_and_a_few_index_bytes_per_query():
    # every pass holds blocks of at most _BLOCK entries, so past W's 8 S
    # bytes a query adds only its entries of (Q,) index arrays (about 30 B);
    # (Q, S, 2) site differences alone would add 16 S
    import tracemalloc

    sites, _ = _ap_sites(seed=4)
    q = np.random.default_rng(6).uniform(-20.0, 20.0, size=(24_000, 2))
    interpolation_weights(sites, q[:10])  # import scipy before tracing
    peaks = []
    tracemalloc.start()
    try:
        for n in (q.shape[0] // 8, q.shape[0]):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            w = interpolation_weights(sites, q[:n])
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del w
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= (8 * len(sites) + 64) * (q.shape[0] - q.shape[0] // 8)


def test_contour_command_writes_one_value_per_vertex(tmp_path):
    mesh = make_bumpy_plane(extent=30.0, spacing=1.0, amplitude=2.0,
                            wavelength=12.0)
    aps = place_aps(mesh, default_template(13))
    write_ply(tmp_path / "mesh.ply", mesh)
    write_aps_json(tmp_path / "aps.json", aps)
    values = np.linspace(0.6, 1.4, len(aps))
    (tmp_path / "values.csv").write_text("label,value\n" + "".join(
        f"{label},{float(v)!r}\n" for label, v in zip(aps.labels, values)))

    outs = [tmp_path / "contour_a.ply", tmp_path / "contour_b.ply"]
    for out in outs:
        assert main(["contour", str(tmp_path / "mesh.ply"),
                     str(tmp_path / "aps.json"), str(tmp_path / "values.csv"),
                     "--out", str(out)]) == 0

    aesr = read_ply_vertex_scalars(outs[0])["aesr"]
    assert aesr.shape == (mesh.n_vertices,)
    assert np.isfinite(aesr).all()
    assert values.min() - 1e-12 <= aesr.min() and aesr.max() <= values.max() + 1e-12
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _aps_at_vertices(mesh, vertices):
    """APs exactly on the given mesh vertices, in order."""
    points = []
    for i, v in enumerate(vertices):
        face, corner = np.argwhere(mesh.faces == v)[0]
        points.append(AuricularPoint(f"AP{i + 1}", mesh.vertices[v], int(face),
                                     np.eye(3)[corner]))
    return AuricularPointSet(tuple(points))


def _vertices_toward(mesh, directions):
    d = np.asarray(directions, dtype=np.float64)
    return np.argmax(mesh.vertices @ (d / np.linalg.norm(d, axis=1)[:, None]).T, axis=0)


def test_non_planar_layout_takes_the_azimuthal_branch():
    mesh = make_icosphere(3, 10.0)
    # the equator, the north pole and three points of the southern hemisphere
    vertices = _vertices_toward(mesh, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                       (0, 0, 1), (0.7, 0.4, -1), (-0.5, -0.6, -1),
                                       (-0.6, 0.5, -1)])
    aps = _aps_at_vertices(mesh, vertices)
    s = np.linalg.svd(aps.positions() - aps.positions().mean(axis=0), compute_uv=False)
    assert s[2] / s[1] > 0.9  # out-of-plane spread: the plane projection is not used
    sites2d, _ = _parameterize(aps.positions(), mesh.vertices)
    assert np.abs(sites2d).max() < np.pi  # polar angles, not millimetres

    values = np.array([0.6, 1.4, 0.9, 1.2, 1.0, 0.7, 1.3, 0.8])
    field = interpolate_contour(mesh, aps, values).values
    assert np.array_equal(field[vertices], values)
    assert np.isfinite(field).all()
    assert values.min() <= field.min() and field.max() <= values.max()


def test_aps_folded_onto_one_site_are_rejected():
    # opposite poles of a sphere: the azimuthal projection maps both to (0, 0)
    mesh = make_icosphere(3, 10.0)
    template = [("AP1", (0.5, 0.5, 0.0)), ("AP2", (0.5, 0.5, 1.0)),
                ("AP3", (0.5, 0.0, 0.5)), ("AP4", (0.5, 1.0, 0.5)),
                ("AP5", (0.0, 0.5, 0.5)), ("AP6", (1.0, 0.5, 0.5))]
    aps = place_aps(mesh, [(label, np.array(xyz)) for label, xyz in template])
    with pytest.raises(ParameterError, match="AP1 and AP2"):
        interpolate_contour(mesh, aps, np.linspace(1.0, 2.0, 6))


def test_coincident_aps_are_rejected():
    # two template labels placed on one point: neither value may silently win
    mesh = make_bumpy_plane(extent=10.0, spacing=1.0, amplitude=1.0, wavelength=8.0)
    aps = _aps_at_vertices(mesh, [12, 40, 40, 77, 101])
    with pytest.raises(ParameterError, match="AP2 and AP3"):
        interpolate_contour(mesh, aps, np.array([2.0, 1.0, 9.0, 3.0, 2.5]))


@pytest.mark.parametrize("n_aps, values, match", [
    (2, [1.0, 2.0], "need at least 3 APs"),
    (4, [1.0, 2.0, 3.0], "3 values for 4 APs"),
    (4, [1.0, 2.0, np.nan, 3.0], "AP values must be finite"),
], ids=["two-aps", "short-values", "nan-value"])
def test_interpolate_contour_rejects_values_that_do_not_fit_the_aps(n_aps, values, match):
    mesh = make_bumpy_plane(extent=10.0, spacing=1.0, amplitude=1.0, wavelength=8.0)
    aps = _aps_at_vertices(mesh, [12, 40, 77, 101][:n_aps])
    with pytest.raises(ParameterError, match=match):
        interpolate_contour(mesh, aps, np.array(values))
