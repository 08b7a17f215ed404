"""K-means++ clustering, silhouette scores, elbow selection, pipeline.

SSE is the sum over clusters of squared Euclidean distances from each
member to its cluster center; the silhouette of a point is the three-case
combination of its mean intra-cluster distance a(i) and the smallest mean
distance to another cluster b(i):

    s(i) = 1 - a/b   (a < b),   0   (a = b),   b/a - 1   (a > b)

with s(i) = 0 for singleton clusters by convention.  a and b come from the
(M, K) per-cluster distance sums, built as ``cdist(block, points) @ onehot``
over row blocks of at most ``_BLOCK_ELEMENTS`` distances (16 MB), so memory
grows as M, not M^2.  A Lloyd step is one (M, K) ``cdist`` of squared
distances, summed over the coordinates in order, plus one index-order
``bincount`` per coordinate for the centre sums.  Tests check all three.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import LabelError, ParameterError, UndefinedSilhouetteError
from ..seeding import spawn_rng
from .normalize import normalize_spatial
from .pca import pca

_SSE_SLACK = 1e-9  # monotonicity assertion slack inside one Lloyd run
_MAX_ITER = 300    # Lloyd iterations per restart
_N_COMPONENTS = 3  # PCA components the pipeline clusters in
_BLOCK_ELEMENTS = 2 ** 21  # distances per silhouette row block (16 MB)


# ----------------------------------------------------------------------
# k-means
# ----------------------------------------------------------------------

def _as_points(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or not np.isfinite(points).all():
        raise ParameterError("points must be a 2-D array of finite numbers")
    return points


def _assign(points, centers):
    # imported on use: `import aurisense.cli` loads no scipy module
    from scipy.spatial.distance import cdist

    d2 = cdist(points, centers, "sqeuclidean")
    labels = np.argmin(d2, axis=1).astype(np.int64, copy=False)
    return labels, d2[np.arange(points.shape[0]), labels]


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centers: np.ndarray
    sse: float

    def __post_init__(self):
        self.assignments.flags.writeable = False
        self.centers.flags.writeable = False


def _kmeanspp_init(points, k, rng):
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    d2 = np.full(m, np.inf)
    for c in range(k):
        total = d2.sum()
        if c == 0 or total <= 0:
            idx = int(rng.integers(m))  # the first center, or every point is a center
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[c] = points[idx]
        diff = points - centers[c]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return centers


def _lloyd(points, k, rng):
    centers = _kmeanspp_init(points, k, rng)
    prev_sse = np.inf
    for _ in range(_MAX_ITER):
        labels, d2 = _assign(points, centers)
        counts = np.bincount(labels, minlength=k)
        # empty clusters: deterministically re-seed from the farthest point;
        # re-assignment may empty another cluster, so sweep until stable
        for _attempt in range(k):
            if counts.all():
                break
            for c in np.flatnonzero(counts == 0):
                centers[c] = points[int(np.argmax(d2))]
                labels, d2 = _assign(points, centers)
            counts = np.bincount(labels, minlength=k)
        sse = float(d2.sum())
        if np.isfinite(prev_sse):
            assert sse <= prev_sse * (1.0 + _SSE_SLACK) + _SSE_SLACK, \
                "SSE increased within a Lloyd run"
        # bincount adds rows in index order; a still-empty cluster keeps its center
        sums = np.stack([np.bincount(labels, col, k) for col in points.T], axis=1)
        new_centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centers)
        if np.array_equal(new_centers, centers) or sse == prev_sse:
            break  # labels and d2 are those of the current centers
        centers = new_centers
        prev_sse = sse
    else:
        labels, d2 = _assign(points, centers)
    return KMeansResult(assignments=labels, centers=centers, sse=float(d2.sum()))


def kmeans(points, k: int, restarts: int = 8, seed: int = 0) -> KMeansResult:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic given the seed: restart sub-streams are derived by
    counter split and ties keep the earliest restart.
    """
    points = _as_points(points)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (k, restarts)):
        raise ParameterError("K and restarts must be integers")
    if not 1 <= k <= points.shape[0]:
        raise ParameterError("need 1 <= K <= number of points")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    best = None
    for r in range(restarts):
        res = _lloyd(points, k, spawn_rng(seed, r))
        if best is None or res.sse < best.sse:
            best = res
    return best


def sse_of(points, assignments, centers) -> float:
    """SSE recomputed from an explicit labeling (same quantity k-means reports)."""
    points = np.asarray(points, dtype=np.float64)
    diff = points - np.asarray(centers)[np.asarray(assignments)]
    return float(np.einsum("ij,ij->", diff, diff))


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
    onehot = np.eye(uniq.size)[labels]
    sums = np.empty_like(onehot)  # sums[i, c]: distances from point i to cluster c
    step = max(1, _BLOCK_ELEMENTS // rows.size)
    for lo in range(0, rows.size, step):
        sums[lo:lo + step] = cdist(points[lo:lo + step], points) @ onehot
    sizes = np.bincount(labels)
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
    chord_distances: np.ndarray
    warning: str | None = None

    def __post_init__(self):
        self.chord_distances.flags.writeable = False


def select_k_elbow(sse_by_k, ks=None) -> ElbowResult:
    """Elbow of the SSE-vs-K curve: the interior point farthest from the chord.

    Both axes are normalized to [0, 1] before measuring the perpendicular
    distance to the line joining the first and last points.  Ties pick the
    smallest K.  A non-monotone curve is flagged in ``warning``.
    """
    sse = np.asarray(sse_by_k, dtype=np.float64)
    if sse.size < 3:
        raise ParameterError("need SSE values for at least 3 candidate K")
    if ks is None:
        ks = np.arange(1, sse.size + 1)
    else:
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
    return ElbowResult(k_star=int(ks[1 + rel]), chord_distances=dist, warning=warning)


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
            "assignments": [int(a) for a in self.assignments],
            "centers": [[float(v) for v in c] for c in self.centers],
            "sse_by_k": {
                "k": [int(k) for k in self.sse_ks],
                "sse": [float(v) for v in self.sse_values],
            },
            "silhouette": {
                "per_point": [float(v) for v in self.silhouette_values],
                "mean": float(self.silhouette_mean),
            },
            "ev_ratios": [float(v) for v in self.ev_ratios],
            "labels": list(self.labels),
            "elbow_warning": self.elbow_warning,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def cluster_pipeline(matrix, labels=None, k_range=(2, 8), restarts: int = 8, seed: int = 0,
                     normalize: str = "spatial", space: str = "pca") -> ClusterReport:
    """Normalize -> PCA -> SSE-vs-K -> elbow -> final k-means -> silhouette.

    ``normalize`` is "spatial" (divide each row by its first AP) or "none"
    for rows that are already ratio-normalized, e.g. per-period session
    data.  ``space`` selects whether k-means runs on the PCA scores
    (default) or the normalized rows themselves.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ParameterError("matrix must be 2-D with at least 3 rows")
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ParameterError("matrix entries must be finite and positive")
    m = x.shape[0]
    if labels is not None and len(labels) != m:
        raise LabelError(f"{len(labels)} labels for {m} rows")
    if normalize == "spatial":
        rows = normalize_spatial(x)
    elif normalize == "none":
        rows = x.copy()
    else:
        raise ParameterError("normalize must be 'spatial' or 'none'")

    if space not in ("pca", "raw"):
        raise ParameterError("space must be 'pca' or 'raw'")
    k_pca = min(_N_COMPONENTS, m - 1, x.shape[1])
    p = pca(rows, k=k_pca)
    points = p.scores if space == "pca" else rows

    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    # the elbow needs K = 1 and at least two candidates
    if not 2 <= k_lo < k_hi <= m - 1:
        raise ParameterError(f"k_range must satisfy 2 <= lo < hi <= M-1 = {m - 1}")

    centroid = points.mean(axis=0)
    sse1 = float(np.einsum("ij,ij->", points - centroid, points - centroid))
    ks = [1]
    sses = [sse1]
    runs = {}
    for k in range(k_lo, k_hi + 1):
        res = kmeans(points, k, restarts=restarts, seed=int(spawn_rng(seed, k).integers(2 ** 63)))
        runs[k] = res
        ks.append(k)
        sses.append(res.sse)
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
        labels=tuple(labels) if labels is not None else tuple(f"row{i}" for i in range(m)),
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
            "match_matrix": [[int(v) for v in row] for row in self.match_matrix],
            "n_subjects": int(self.n_subjects),
        }


def concordance(report: ClusterReport, labels=None) -> ConcordanceResult:
    """Fraction of subjects with both ears in one cluster, plus the match matrix.

    Labels must look like "SUBJECT-SIDE"; every subject needs exactly two
    rows.  Matrix rows index the left-ear cluster and columns the right-ear
    cluster, so matched subjects land on the diagonal.
    """
    labels = list(labels) if labels is not None else list(report.labels)
    if len(labels) != len(report.assignments):
        raise LabelError("label count does not match the assignment count")
    by_subject: dict = {}
    for lab, cluster in zip(labels, report.assignments):
        if "-" not in lab:
            raise LabelError(f"label '{lab}' is not SUBJECT-SIDE")
        subject, side = lab.rsplit("-", 1)
        by_subject.setdefault(subject, {})[side.upper()] = int(cluster)
    k = int(report.centers.shape[0])
    matrix = np.zeros((k, k), dtype=np.int64)
    matched = 0
    for subject, ears in sorted(by_subject.items()):
        if len(ears) != 2:
            raise LabelError(f"subject '{subject}' has {len(ears)} ears; need 2")
        sides = sorted(ears)  # 'L' before 'R'
        left, right = ears[sides[0]], ears[sides[1]]
        matrix[left, right] += 1
        if left == right:
            matched += 1
    n = len(by_subject)
    return ConcordanceResult(
        fraction=matched / n if n else 0.0,
        match_matrix=matrix,
        n_subjects=n,
    )
