"""Multi-output tree ensembles grown on random projections of the label space.

Split scores are computed in a compressed output space (gaussian, Rademacher,
subsampled-Hadamard, label-subsampling or PCA maps) while leaves keep
predictions in the original label space, so training cost scales with the
compressed dimension and prediction needs no decoding.
"""

from .data import DataSet, as_feature_matrix, as_label_matrix, to_dense
from .rng import stream
from .projection import (
    DistortionReport,
    ProjectionSpec,
    distortion_check,
    generate,
    jl_min_dimension,
    pca_projection,
    project,
)
from .tree import (
    SplitRecord,
    Tree,
    TreeConfig,
    best_split_exhaustive,
    best_split_random_threshold,
    grow_arrays,
    variance_sum,
)
from .ensemble import Ensemble, EnsembleConfig, FitTiming, fit, fit_timed
from .metrics import lrap
from .datasets import (
    SplitPlan,
    dump_svmlight_multilabel,
    load_svmlight_multilabel,
    make_splits,
    make_synthetic_multilabel,
)
from .decomposition import (
    DecompositionReport,
    SyntheticProblem,
    VarianceCurve,
    ensemble_variance_curve,
    estimate_ensemble,
    two_feature_problem,
)
from .bench import (
    ExperimentConfig,
    experiment_from_config,
    read_grid_csv,
    run_grid,
    summarize,
    write_grid_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DataSet",
    "DecompositionReport",
    "DistortionReport",
    "Ensemble",
    "EnsembleConfig",
    "ExperimentConfig",
    "FitTiming",
    "ProjectionSpec",
    "SplitPlan",
    "SplitRecord",
    "SyntheticProblem",
    "Tree",
    "TreeConfig",
    "VarianceCurve",
    "as_feature_matrix",
    "as_label_matrix",
    "best_split_exhaustive",
    "best_split_random_threshold",
    "distortion_check",
    "dump_svmlight_multilabel",
    "ensemble_variance_curve",
    "estimate_ensemble",
    "experiment_from_config",
    "fit",
    "fit_timed",
    "generate",
    "grow_arrays",
    "jl_min_dimension",
    "load_svmlight_multilabel",
    "lrap",
    "make_splits",
    "make_synthetic_multilabel",
    "pca_projection",
    "project",
    "read_grid_csv",
    "run_grid",
    "stream",
    "summarize",
    "to_dense",
    "two_feature_problem",
    "variance_sum",
    "write_grid_csv",
    "write_summary_csv",
]
