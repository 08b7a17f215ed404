"""K-means++ clustering, silhouette scores, elbow selection, pipeline.

``cluster_pipeline`` is the one analysis chain: each ear's AESR row is
divided by its AP1, k-means clusters the rows' scores on the first three
principal components for every K of a range, the elbow of the SSE curve
picks K*, and the silhouette scores that clustering.  ``concordance`` then
pairs the two ears of each subject in the report.

SSE is the sum over clusters of squared Euclidean distances from each
member to its cluster center; the silhouette of a point is the three-case
combination of its mean intra-cluster distance a(i) and the smallest mean
distance to another cluster b(i):

    s(i) = 1 - a/b   (a < b),   0   (a = b),   b/a - 1   (a > b)

with s(i) = 0 for singleton clusters by convention.  a and b come from the
(M, K) per-cluster distance sums, built as ``cdist(block, points) @ onehot``
over row blocks of at most ``_BLOCK_ELEMENTS`` distances (16 MB), so memory
grows as M, not M^2.

k-means runs the restarts of one K in lockstep, in restart blocks whose
(a·K, M) distances and tiled coordinates stay within ``_BLOCK_ELEMENTS``.
A Lloyd step is one (a·K, M) ``cdist`` of squared distances from the
centres of the a restarts still running, summed over the coordinates in
order, plus one index-order ``bincount`` per coordinate over labels offset
by restart·K for the centre sums.  Convergence, the SSE check and the
empty-cluster reseed stay per restart, so every restart gets the labels,
centres and SSE of a run on its own.  Tests check all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LabelError, ParameterError, UndefinedSilhouetteError
from ..seeding import is_whole, spawn_rng
from .normalize import normalize_spatial
from .pca import pca

_SSE_SLACK = 1e-9  # monotonicity assertion slack inside one Lloyd run
_MAX_ITER = 300    # Lloyd iterations per restart
_N_COMPONENTS = 3  # PCA components the pipeline clusters in
_BLOCK_ELEMENTS = 2 ** 21  # distances per silhouette row or k-means restart block (16 MB)


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

    ``centers`` is (a, K, d).  One (a·K, M) ``cdist`` serves all a sets;
    a running minimum over the K rows with a strict ``<`` keeps the lowest
    index on ties, as ``argmin`` does.  Returns two (a, M) arrays.
    """
    # imported on use: `import aurisense.cli` loads no scipy module
    from scipy.spatial.distance import cdist

    a, k, d = centers.shape
    dist = cdist(centers.reshape(a * k, d), points, "sqeuclidean").reshape(a, k, -1)
    d2 = dist[:, 0].copy()
    labels = np.zeros(d2.shape, dtype=np.int64)
    for c in range(1, k):
        row = dist[:, c]
        # c exceeds every label so far: the maximum relabels the closer points
        # without the branch per element of a masked copy
        np.maximum(labels, (row < d2) * c, out=labels)
        np.minimum(d2, row, out=d2)
    return labels, d2


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


def _lloyd(points, k, rngs):
    """Lloyd's algorithm for one group of restarts, seeded by ``rngs``, in lockstep.

    Returns each restart's labels (R, M), centres (R, K, d) and SSE (R,).
    """
    m, d = points.shape
    centers = np.stack([_kmeanspp_init(points, k, rng) for rng in rngs])
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
        offsets = k * np.arange(a)[:, None]
        counts = np.bincount((labels + offsets).ravel(), minlength=a * k).reshape(a, k)
        # empty clusters: deterministically re-seed from the restart's farthest
        # point; re-assignment may empty another cluster, so sweep until stable
        for i in np.flatnonzero(~counts.all(axis=1)):
            for _attempt in range(k):
                if counts[i].all():
                    break
                for c in np.flatnonzero(counts[i] == 0):
                    centers[i, c] = points[int(np.argmax(d2[i]))]
                    lab, dd = _assign(points, centers[i:i + 1])
                    labels[i], d2[i] = lab[0], dd[0]
                counts[i] = np.bincount(labels[i], minlength=k)
        sse = d2.sum(axis=1)  # each contiguous row is summed as its own 1-D array
        assert (sse <= prev_sse * (1.0 + _SSE_SLACK) + _SSE_SLACK).all(), \
            "SSE increased within a Lloyd run"
        # bincount adds rows in index order; a still-empty cluster keeps its center
        flat = (labels + offsets).ravel()
        sums = np.stack([np.bincount(flat, w[:a * m], a * k) for w in weights],
                        axis=1).reshape(a, k, d)
        new_centers = np.where(counts[..., None] > 0,
                               sums / np.maximum(counts, 1)[..., None], centers)
        done = (new_centers == centers).all(axis=(1, 2)) | (sse == prev_sse)
        # a converged restart leaves with the labels and d2 of its current centers
        ids = running[done]
        out_labels[ids], out_centers[ids], out_sse[ids] = labels[done], centers[done], sse[done]
        running = running[~done]
        if running.size == 0:
            break
        centers = new_centers[~done]
        prev_sse = sse[~done]
    else:
        labels, d2 = _assign(points, centers)
        out_labels[running], out_centers[running] = labels, centers
        out_sse[running] = d2.sum(axis=1)
    return out_labels, out_centers, out_sse


def kmeans(points, k: int, restarts: int = 8, seed: int = 0) -> KMeansResult:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic given the seed: restart r is seeded from
    ``spawn_rng(seed, r)`` and ties keep the earliest restart.  The
    restarts run in lockstep, in blocks of at most
    ``_BLOCK_ELEMENTS // (max(K, d)·M)`` (at least one), taken in restart
    order: each step makes one (a·K, M) distance matrix for the a restarts
    still running.  A restart leaves the block when its centres stop moving
    or its SSE stops changing, keeping the labels of its final centres; one
    that uses all ``_MAX_ITER`` steps is assigned to its last centres.  An
    empty cluster is re-seeded from the farthest point of that restart,
    which is then re-assigned alone.
    """
    points = _as_points(points)
    if not (is_whole(k) and is_whole(restarts)):
        raise ParameterError("K and restarts must be integers >= 0")
    if not 1 <= k <= points.shape[0]:
        raise ParameterError("need 1 <= K <= number of points")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    m, d = points.shape
    # distances and tiled weights of one block stay within _BLOCK_ELEMENTS
    step = max(1, _BLOCK_ELEMENTS // (max(k, d) * m))
    best = None
    for lo in range(0, restarts, step):
        labels, centers, sse = _lloyd(
            points, k, [spawn_rng(seed, r) for r in range(lo, min(lo + step, restarts))])
        i = int(np.argmin(sse))  # the first of equal SSEs
        if best is None or sse[i] < best.sse:
            best = KMeansResult(assignments=labels[i].copy(), centers=centers[i].copy(),
                                sse=float(sse[i]))
    return best


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


def cluster_pipeline(matrix, labels=None, k_range=(2, 8), restarts: int = 8,
                     seed: int = 0) -> ClusterReport:
    """Ratios to AP1 -> PCA -> SSE-vs-K -> elbow -> final k-means -> silhouette.

    Each row of the (M, N) AESR matrix is divided by its first AP
    (``normalize_spatial``), and k-means clusters the rows' scores on the
    first ``min(3, M - 1, N)`` principal components.  ``k_range`` is two
    integers with 2 <= lo < hi <= M - 1; the SSE curve starts at K = 1.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ParameterError("matrix must be 2-D with at least 3 rows")
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ParameterError("matrix entries must be finite and positive")
    m = x.shape[0]
    if labels is not None and len(labels) != m:
        raise LabelError(f"{len(labels)} labels for {m} rows")
    p = pca(normalize_spatial(x), k=min(_N_COMPONENTS, m - 1, x.shape[1]))
    points = p.scores

    k_lo, k_hi = k_range[0], k_range[1]
    if not (is_whole(k_lo) and is_whole(k_hi)):
        raise ParameterError("k_range must be two integers")
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
            "match_matrix": self.match_matrix.tolist(),
            "n_subjects": int(self.n_subjects),
        }


def concordance(report: ClusterReport) -> ConcordanceResult:
    """Fraction of subjects with both ears in one cluster, plus the match matrix.

    The report's labels must look like "SUBJECT-SIDE"; every subject needs
    exactly two rows, one per side (sides compare case-insensitively).
    Matrix rows index the left-ear cluster and columns the right-ear
    cluster, so matched subjects land on the diagonal.
    """
    if len(report.labels) != len(report.assignments):
        raise LabelError("label count does not match the assignment count")
    by_subject: dict = {}
    for lab, cluster in zip(report.labels, report.assignments):
        if "-" not in lab:
            raise LabelError(f"label '{lab}' is not SUBJECT-SIDE")
        subject, side = lab.rsplit("-", 1)
        ears = by_subject.setdefault(subject, {})
        if side.upper() in ears:
            raise LabelError(f"label '{lab}' repeats the ear '{subject}-{side.upper()}'")
        ears[side.upper()] = int(cluster)
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
