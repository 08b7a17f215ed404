"""K-means++ clustering, silhouette scores, elbow selection, pipeline.

``cluster_pipeline`` is the one analysis chain: each ear's AESR row is
divided by its AP1, k-means clusters the rows' scores on the first three
principal components for K = 2 .. min(8, M - 1) with 8 restarts each, the
elbow of the SSE curve picks K*, and the silhouette scores that
clustering.  ``concordance`` then pairs the L and R ears of each subject
in the report.

SSE is the sum over clusters of squared Euclidean distances from each
member to its cluster center; the silhouette of a point is the three-case
combination of its mean intra-cluster distance a(i) and the smallest mean
distance to another cluster b(i):

    s(i) = 1 - a/b   (a < b),   0   (a = b),   b/a - 1   (a > b)

with s(i) = 0 for singleton clusters by convention.  a and b come from the
(M, K) per-cluster distance sums.  The points are sorted by cluster once,
so each cluster is one contiguous run of columns of ``cdist(block,
sorted_points)``, and ``np.add.reduceat`` sums every run of every row on
its own: no sum depends on the shape of the row block.  A block holds at
most ``_SILHOUETTE_ELEMENTS`` distances (1 MB), so memory grows as M, not
M^2.  Here the block only bounds memory: the work is M^2 distances
whatever its size, and at M = 4800 a 1 MB block still takes 27 rows per
``cdist`` call.

k-means runs all the restarts of one K in one lockstep pass.  k-means++
seeds them together: each new centre of every restart updates one (R, M)
array of squared distances by one ``cdist``, and each restart draws from
its own row with its own generator, as ``Generator.choice`` would, by one
``searchsorted`` in that row's cdf.  A Lloyd step is one (a·K, M)
``cdist`` of squared distances from the centres of the a restarts still
running, summed over the coordinates in order, whose minimum over the K
rows is d²; the label is the lowest row at that minimum, offset by
restart·K in the same pass.  The offset labels feed one ``bincount`` of the
cluster sizes and one index-order ``bincount`` per coordinate of the
centre sums.  The rest of a step costs only what it uses: the per-restart
reseed scan runs only when some cluster is empty, and the running arrays
are cut only when some restart leaves.  Memory grows as R·K·M, linear in M
at the pipeline's fixed R and K.  Convergence and the empty-cluster reseed
stay per restart, so every restart gets the labels, centres and SSE of a
run on its own.  Tests check all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

from ..errors import LabelError, ParameterError, UndefinedSilhouetteError
from ..seeding import is_whole, spawn_rng
from .normalize import normalize_spatial
from .pca import pca

_MAX_ITER = 300    # Lloyd iterations per restart
_K_MAX = 8         # largest K the pipeline tries, where M - 1 allows it
_RESTARTS = 8      # k-means restarts per K in the pipeline
_N_COMPONENTS = 3  # PCA components the pipeline clusters in
_SILHOUETTE_ELEMENTS = 2 ** 17  # distances per silhouette row block (1 MB)
_SIDES = {"L": 0, "l": 0, "R": 1, "r": 1}  # the ear a label's side names


# ----------------------------------------------------------------------
# k-means
# ----------------------------------------------------------------------

def _as_points(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or not np.isfinite(points).all():
        raise ParameterError("points must be a 2-D array of finite numbers")
    return points


def _assign(points, centers):
    """Labels and squared distances of every point under each (K, d) centre set.

    ``centers`` is (a, K, d).  One (a·K, M) ``cdist`` serves all a sets.  d²
    is the minimum of the K rows; each row c at it scores K - c, and the
    largest score, K minus the label, is the lowest tied index, as
    ``argmin`` gives.  Set i's labels come offset by i·K, (i + 1)·K minus
    that score, so the labels of all a sets index one (a·K) ``bincount``.
    Returns two (a, M) arrays.
    """
    # imported on use: `import aurisense.cli` loads no scipy module
    from scipy.spatial.distance import cdist

    a, k, d = centers.shape
    dist = cdist(centers.reshape(a * k, d), points, "sqeuclidean").reshape(a, k, -1)
    d2 = np.minimum.reduce(dist, axis=1)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    top = np.arange(k, (a + 1) * k, k)[:, None]
    return top - np.maximum.reduce((dist == d2[:, None]) * rank, axis=1), d2


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centers: np.ndarray
    sse: float

    def __post_init__(self):
        self.assignments.flags.writeable = False
        self.centers.flags.writeable = False


def _kmeanspp_init(points, k, rngs):
    """k-means++ centres (R, K, d) of the R restarts seeded by ``rngs``, in lockstep.

    Restart r draws its first centre, and any centre once every point is
    one, by ``rngs[r].integers(M)``.  Every other centre is the number of
    entries of its row's cdf at or below one ``rngs[r].random()``, the cdf
    being ``cumsum(d2 / total)`` divided by its last entry: the same draw
    as ``rngs[r].choice(M, p=d2 / total)``.  That cdf never decreases, so
    the count is the right-side ``searchsorted`` of the draw in it.
    """
    from scipy.spatial.distance import cdist

    m = points.shape[0]
    idx = np.array([rng.integers(m) for rng in rngs])
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[idx]
    d2 = cdist(centers[:, 0], points, "sqeuclidean")
    for c in range(1, k):
        total = d2.sum(axis=1)  # each contiguous row is summed as its own 1-D array
        live = total > 0
        cdf = np.cumsum(d2[live] / total[live, None], axis=1)
        cdf /= cdf[:, -1:]
        idx[live] = [np.searchsorted(row, rngs[r].random(), side="right")
                     for r, row in zip(np.flatnonzero(live), cdf)]
        # every point of these restarts is already a centre
        idx[~live] = [rngs[r].integers(m) for r in np.flatnonzero(~live)]
        centers[:, c] = points[idx]
        np.minimum(d2, cdist(centers[:, c], points, "sqeuclidean"), out=d2)
    return centers


def _lloyd(points, k, rngs):
    """Lloyd's algorithm for one group of restarts, seeded by ``rngs``, in lockstep.

    A step is one ``_assign`` call for the running restarts; only a step
    with an empty cluster re-seeds, restart by restart, and only one that
    ends a restart cuts the running arrays.  Returns each restart's labels
    (R, M), centres (R, K, d) and SSE (R,).
    """
    m, d = points.shape
    centers = _kmeanspp_init(points, k, rngs)
    # row j holds coordinate j of every point once per restart, so its first
    # a·M entries weight the offset labels of any a running restarts
    weights = np.tile(points.T, (1, len(rngs)))
    out_labels = np.empty((len(rngs), m), dtype=np.int64)
    out_centers = np.empty_like(centers)
    out_sse = np.empty(len(rngs))
    running = np.arange(len(rngs))
    prev_sse = np.full(len(rngs), np.inf)
    for _ in range(_MAX_ITER):
        a = running.size
        labels, d2 = _assign(points, centers)
        counts = np.bincount(labels.ravel(), minlength=a * k).reshape(a, k)
        if counts.min() == 0:
            # empty clusters: deterministically re-seed from the restart's farthest
            # point; re-assignment may empty another cluster, so sweep until stable
            for i in np.flatnonzero(~counts.all(axis=1)):
                for _attempt in range(k):
                    if counts[i].all():
                        break
                    for c in np.flatnonzero(counts[i] == 0):
                        centers[i, c] = points[int(np.argmax(d2[i]))]
                        lab, dd = _assign(points, centers[i:i + 1])
                        labels[i], d2[i] = lab[0] + i * k, dd[0]
                    counts[i] = np.bincount(lab[0], minlength=k)
        sse = d2.sum(axis=1)  # each contiguous row is summed as its own 1-D array
        # bincount adds rows in index order
        flat = labels.ravel()
        sums = np.empty((a * k, d))
        for j in range(d):
            sums[:, j] = np.bincount(flat, weights[j, :a * m], a * k)
        new_centers = sums.reshape(a, k, d)
        if counts.min() > 0:
            new_centers /= counts[..., None]
        else:  # a still-empty cluster keeps its centre
            new_centers = np.where(counts[..., None] > 0,
                                   new_centers / np.maximum(counts, 1)[..., None], centers)
        done = (new_centers == centers).all(axis=(1, 2)) | (sse == prev_sse)
        if done.any():
            # a converged restart leaves with the labels and d2 of its current centers
            ids = running[done]
            out_labels[ids] = labels[done] - k * np.flatnonzero(done)[:, None]
            out_centers[ids], out_sse[ids] = centers[done], sse[done]
            running = running[~done]
            if running.size == 0:
                break
            new_centers, sse = new_centers[~done], sse[~done]
        centers, prev_sse = new_centers, sse
    else:
        labels, d2 = _assign(points, centers)
        out_labels[running] = labels - k * np.arange(running.size)[:, None]
        out_centers[running], out_sse[running] = centers, d2.sum(axis=1)
    return out_labels, out_centers, out_sse


def kmeans(points, k: int, restarts: int = 8, seed: int = 0) -> KMeansResult:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic given the seed: restart r is seeded from
    ``spawn_rng(seed, r)`` and ties keep the earliest restart.  All the
    restarts run in one lockstep pass, as the module docstring describes.
    A restart leaves the pass when its centres stop moving or its SSE stops
    changing, keeping the labels of its final centres; one that uses all
    ``_MAX_ITER`` steps is assigned to its last centres.  An empty cluster
    is re-seeded from the farthest point of that restart, which is then
    re-assigned alone.
    """
    points = _as_points(points)
    if not (is_whole(k) and is_whole(restarts)):
        raise ParameterError("K and restarts must be integers >= 0")
    if not 1 <= k <= points.shape[0]:
        raise ParameterError("need 1 <= K <= number of points")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    # M times the squared bounding-box diagonal bounds every seeding total
    with np.errstate(over="ignore"):
        bound = points.shape[0] * np.square(points.max(axis=0) - points.min(axis=0)).sum()
    if not np.isfinite(bound):
        raise ParameterError("points are too far apart: squared distances overflow")
    labels, centers, sse = _lloyd(points, k, [spawn_rng(seed, r) for r in range(restarts)])
    i = int(np.argmin(sse))  # the first of equal SSEs
    return KMeansResult(assignments=labels[i].copy(), centers=centers[i].copy(),
                        sse=float(sse[i]))


# ----------------------------------------------------------------------
# silhouette
# ----------------------------------------------------------------------

def silhouette(points, assignments):
    """Per-point silhouette s(i) and the mean over all points."""
    from scipy.spatial.distance import cdist

    points = _as_points(points)
    if np.shape(assignments) != points.shape[:1]:
        raise ParameterError(f"need one assignment per point ({points.shape[0]})")
    uniq, labels = np.unique(assignments, return_inverse=True)
    if uniq.size < 2:
        raise UndefinedSilhouetteError("silhouette needs at least 2 clusters")
    rows = np.arange(points.shape[0])
    sizes = np.bincount(labels)
    # cluster c is the run starts[c]:starts[c] + sizes[c] of the sorted points
    by_cluster = points[np.argsort(labels, kind="stable")]
    starts = np.cumsum(sizes) - sizes
    sums = np.empty((rows.size, uniq.size))  # sums[i, c]: distances from point i to cluster c
    step = max(1, _SILHOUETTE_ELEMENTS // rows.size)
    for lo in range(0, rows.size, step):
        sums[lo:lo + step] = np.add.reduceat(cdist(points[lo:lo + step], by_cluster),
                                             starts, axis=1)
    n_own = sizes[labels]
    a = sums[rows, labels] / np.maximum(n_own - 1, 1)  # the self-distance is 0
    to_other = sums / sizes
    to_other[rows, labels] = np.inf
    b = to_other.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(a < b, 1.0 - a / b, np.where(a > b, b / a - 1.0, 0.0))
    s[n_own <= 1] = 0.0  # singleton-cluster convention
    return s, float(s.mean())


# ----------------------------------------------------------------------
# elbow selection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ElbowResult:
    k_star: int
    warning: str | None = None


def select_k_elbow(sse_by_k, ks) -> ElbowResult:
    """Elbow of the SSE-vs-K curve, ``sse_by_k`` at the candidate K ``ks``:
    the interior point farthest from the chord.

    Both axes are normalized to [0, 1] before measuring the perpendicular
    distance to the line joining the first and last points.  Ties pick the
    smallest K.  A non-monotone curve is flagged in ``warning``.
    """
    sse = np.asarray(sse_by_k, dtype=np.float64)
    if sse.size < 3:
        raise ParameterError("need SSE values for at least 3 candidate K")
    ks = np.asarray(ks)
    if ks.size != sse.size:
        raise ParameterError("ks and sse lengths differ")
    warning = None
    rises = np.diff(sse) > 1e-9 * max(float(sse.max()), 1.0)
    if rises.any():
        at = int(np.argmax(rises))
        warning = (f"SSE is not non-increasing: rises after K={int(ks[at])}")

    x = (ks - ks[0]) / max(ks[-1] - ks[0], 1)
    span = sse[0] - sse[-1]
    if abs(span) < 1e-300:
        y = np.zeros_like(sse)
    else:
        y = (sse - sse[-1]) / span
    # distance from (x, y) to the chord (x0,y0)-(x1,y1) on normalized axes
    dx, dy = x[-1] - x[0], y[-1] - y[0]
    norm = np.hypot(dx, dy)
    dist = np.abs(dx * (y - y[0]) - dy * (x - x[0])) / norm
    interior = slice(1, sse.size - 1)
    rel = np.argmax(dist[interior])  # argmax takes the first (smallest K) on ties
    return ElbowResult(k_star=int(ks[1 + rel]), warning=warning)


# ----------------------------------------------------------------------
# end-to-end pipeline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    k_star: int
    assignments: np.ndarray
    centers: np.ndarray
    sse_ks: np.ndarray
    sse_values: np.ndarray
    silhouette_values: np.ndarray
    silhouette_mean: float
    ev_ratios: np.ndarray
    labels: tuple
    elbow_warning: str | None = None

    def __post_init__(self):
        for arr in (self.assignments, self.centers, self.sse_ks,
                    self.sse_values, self.silhouette_values, self.ev_ratios):
            arr.flags.writeable = False

    def to_json_obj(self) -> dict:
        return {
            "k_star": int(self.k_star),
            "assignments": self.assignments.tolist(),
            "centers": self.centers.tolist(),
            "sse_by_k": {
                "k": self.sse_ks.tolist(),
                "sse": self.sse_values.tolist(),
            },
            "silhouette": {
                "per_point": self.silhouette_values.tolist(),
                "mean": float(self.silhouette_mean),
            },
            "ev_ratios": self.ev_ratios.tolist(),
            "labels": list(self.labels),
            "elbow_warning": self.elbow_warning,
        }


def cluster_pipeline(matrix, labels, seed: int = 0) -> ClusterReport:
    """Ratios to AP1 -> PCA -> SSE-vs-K -> elbow -> final k-means -> silhouette.

    Each row of the (M, N) AESR matrix is divided by its first AP
    (``normalize_spatial``), and k-means clusters the rows' scores on the
    first ``min(3, M - 1, N)`` principal components for K = 2 ..
    min(``_K_MAX``, M - 1), each K with ``_RESTARTS`` restarts.  The SSE
    curve starts at K = 1, and the elbow needs K = 1, 2 and 3, so M is at
    least 4.  ``labels`` names the rows, one per row.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ParameterError("matrix must be 2-D with at least 4 rows")
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ParameterError("matrix entries must be finite and positive")
    m = x.shape[0]
    if len(labels) != m:
        raise LabelError(f"{len(labels)} labels for {m} rows")
    p = pca(normalize_spatial(x), k=min(_N_COMPONENTS, m - 1, x.shape[1]))
    points = p.scores

    centroid = points.mean(axis=0)
    sse1 = float(np.einsum("ij,ij->", points - centroid, points - centroid))
    ks = range(1, min(_K_MAX, m - 1) + 1)
    runs = {k: kmeans(points, k, restarts=_RESTARTS,
                      seed=int(spawn_rng(seed, k).integers(2 ** 63))) for k in ks[1:]}
    sses = [sse1] + [runs[k].sse for k in ks[1:]]
    elbow = select_k_elbow(sses, ks)
    final = runs[elbow.k_star]
    sil, sil_mean = silhouette(points, final.assignments)
    return ClusterReport(
        k_star=elbow.k_star,
        assignments=final.assignments,
        centers=final.centers,
        sse_ks=np.asarray(ks),
        sse_values=np.asarray(sses),
        silhouette_values=sil,
        silhouette_mean=sil_mean,
        ev_ratios=p.explained_variance_ratio,
        labels=tuple(labels),
        elbow_warning=elbow.warning,
    )


# ----------------------------------------------------------------------
# left/right concordance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConcordanceResult:
    fraction: float
    match_matrix: np.ndarray  # rows: left-ear cluster, cols: right-ear cluster
    n_subjects: int

    def __post_init__(self):
        self.match_matrix.flags.writeable = False

    def to_json_obj(self) -> dict:
        return {
            "fraction": float(self.fraction),
            "match_matrix": self.match_matrix.tolist(),
            "n_subjects": int(self.n_subjects),
        }


def concordance(report: ClusterReport) -> ConcordanceResult:
    """Fraction of subjects with both ears in one cluster, plus the match matrix.

    Every label must be "SUBJECT-SIDE" with the side ``L`` or ``R``, in
    either case; the first label that is not, or that repeats an ear,
    raises ``LabelError``.  Every subject needs exactly one L row and one R
    row; the first subject, in sorted order, without them raises.  Matrix
    rows index the left-ear cluster and columns the right-ear cluster, so
    matched subjects land on the diagonal.
    """
    labels = report.labels
    m = len(labels)
    if m != len(report.assignments):
        raise LabelError("label count does not match the assignment count")
    subject, dash, side = zip(*map(str.rpartition, labels, repeat("-"))) if m else ((),) * 3
    # 0 for L, 1 for R, 2 for a label that is not SUBJECT-SIDE
    code = np.array([*map(_SIDES.get, side, repeat(2))], dtype=np.intp)
    if "" in dash:
        code[np.equal(dash, "")] = 2
    # each subject is numbered by its first label, each ear by 3·subject + side
    owner = np.array([*map({}.setdefault, subject, count())], dtype=np.intp)
    ear = 3 * owner + code
    repeats = np.ones(m, dtype=bool)
    repeats[np.unique(ear, return_index=True)[1]] = False  # first occurrences
    faults = np.flatnonzero((code == 2) | repeats)
    if faults.size:
        i = faults[0]
        if code[i] == 2:
            raise LabelError(f"label '{labels[i]}' is not SUBJECT-SIDE")
        raise LabelError(f"label '{labels[i]}' repeats the ear '{subject[i]}-{'LR'[code[i]]}'")
    # with no repeated ear, a subject without two ears has one
    unpaired = np.flatnonzero(np.bincount(owner, minlength=m) == 1)
    if unpaired.size:
        raise LabelError(f"subject '{min(subject[i] for i in unpaired)}' has 1 ears; need 2")
    # sorted, the ears pair up as each subject's (L, R)
    left, right = np.asarray(report.assignments)[np.argsort(ear)].reshape(-1, 2).T
    k = int(report.centers.shape[0])
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (left, right), 1)
    n = m // 2
    return ConcordanceResult(
        fraction=int(np.count_nonzero(left == right)) / n if n else 0.0,
        match_matrix=matrix,
        n_subjects=n,
    )
