"""Closed-form training and cost analysis for shallow ReLU classification networks.

The library builds explicit first/second-layer parameters for (M, M, Q) ReLU
classifiers from the geometry of the class means, evaluates the corresponding
cost bounds and exact values, classifies by the induced metric on the span of
the means, analyzes truncation by the activation, and ships a gradient-descent
baseline plus a CLI (`shallowmin`) with numerical verification suites.
"""

from .constructive import (
    ConstructiveConfig,
    Fit,
    Variant,
    fit,
    train_exact_meq,
    train_general,
    w2_tilde,
)
from .cost import (
    CostReport,
    bound_general,
    cost_l2,
    cost_weighted,
    data_projector,
    evaluate,
    exact_min_weighted,
    lstsq_output_layer,
    relative_deviations,
)
from .dataset import (
    ClassifiedDataset,
    DatasetStats,
    class_means,
    compute_stats,
    dataset_stats,
    load_dataset,
    synthesize,
    y_ext,
)
from .errors import ShallowminError
from .gd import GdConfig, train_gd
from .linalg import (
    ProjectorPack,
    diagonalizing_rotation,
    numerical_rank,
    projector_pack,
)
from .network import ShallowParams, forward, relu
from .truncation import (
    TruncationResult,
    min_over_output_layer,
    sweep_fixed_point_region,
)
from .classify import BatchOutcome, ClassificationOutcome, classify, classify_batch, metric

__all__ = [
    "BatchOutcome",
    "ClassificationOutcome",
    "ClassifiedDataset",
    "ConstructiveConfig",
    "CostReport",
    "DatasetStats",
    "Fit",
    "GdConfig",
    "ProjectorPack",
    "ShallowParams",
    "ShallowminError",
    "TruncationResult",
    "Variant",
    "bound_general",
    "class_means",
    "classify",
    "classify_batch",
    "compute_stats",
    "cost_l2",
    "cost_weighted",
    "data_projector",
    "dataset_stats",
    "diagonalizing_rotation",
    "evaluate",
    "exact_min_weighted",
    "fit",
    "forward",
    "load_dataset",
    "lstsq_output_layer",
    "metric",
    "min_over_output_layer",
    "numerical_rank",
    "projector_pack",
    "relative_deviations",
    "relu",
    "sweep_fixed_point_region",
    "synthesize",
    "train_exact_meq",
    "train_general",
    "train_gd",
    "w2_tilde",
    "y_ext",
]

__version__ = "0.1.0"
