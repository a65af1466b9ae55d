"""Filter feature selection by walk energies on a feature adjacency graph.

Three graph variants (ifs, mifs, sifs) differ only in how the adjacency
matrix mixes a relevance measure with a redundancy measure; a greedy
mutual-information baseline (mrmr) and a train/test evaluation harness
round out the package.
"""

from .adjacency import AdjacencyMatrix, build_adjacency
from .config import ALPHA_GRID, COST_GRID, SELECTOR_VARIANTS, SelectorConfig
from .dataset import (
    Dataset,
    FeatureScaler,
    PREPROCESSING_SCHEMES,
    fit_scaler,
    load_csv,
    load_libsvm,
    preprocess,
)
from .errors import ConfigError, DataError
from .evaluation import (
    DEFAULT_N_GRID,
    EvalReport,
    LinearClassifier,
    binary_auc,
    cross_validate,
    evaluate_selector,
    stratified_fold_indices,
    train_linear,
)
from .measures import (
    BinningPolicy,
    MeasureCache,
    build_measure_cache,
    feature_std,
    mutual_information,
    normalized_mi,
    rdn,
    relevance_to_labels,
    spearman,
)
from .mrmr import MrmrSelection, mrmr_select
from .scoring import (
    FeatureRanking,
    energy_scores,
    rank_features,
    selection_order,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "ALPHA_GRID",
    "BinningPolicy",
    "COST_GRID",
    "ConfigError",
    "DEFAULT_N_GRID",
    "DataError",
    "Dataset",
    "EvalReport",
    "FeatureRanking",
    "FeatureScaler",
    "LinearClassifier",
    "MeasureCache",
    "MrmrSelection",
    "PREPROCESSING_SCHEMES",
    "SELECTOR_VARIANTS",
    "SelectorConfig",
    "binary_auc",
    "build_adjacency",
    "build_measure_cache",
    "cross_validate",
    "energy_scores",
    "evaluate_selector",
    "feature_std",
    "fit_scaler",
    "load_csv",
    "load_libsvm",
    "mrmr_select",
    "mutual_information",
    "normalized_mi",
    "preprocess",
    "rank_features",
    "rdn",
    "relevance_to_labels",
    "selection_order",
    "spearman",
    "spectral_radius",
    "stratified_fold_indices",
    "train_linear",
]
