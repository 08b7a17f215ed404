from .normalize import normalize_spatial
from .pca import PCAResult, pca
from .cluster import (
    ClusterReport,
    ConcordanceResult,
    ElbowResult,
    KMeansResult,
    cluster_pipeline,
    concordance,
    kmeans,
    select_k_elbow,
    silhouette,
)
from .stats import CorrelationResult, correlation
from .contour import ContourField, interpolate_contour, interpolation_weights
from .datasets import read_dataset_csv, write_dataset_csv, write_report_json

__all__ = [
    "normalize_spatial",
    "PCAResult",
    "pca",
    "ClusterReport",
    "ConcordanceResult",
    "ElbowResult",
    "KMeansResult",
    "cluster_pipeline",
    "concordance",
    "kmeans",
    "select_k_elbow",
    "silhouette",
    "CorrelationResult",
    "correlation",
    "ContourField",
    "interpolate_contour",
    "interpolation_weights",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_report_json",
]
