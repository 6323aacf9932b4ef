"""riskfuse: copula-based fusion of two ML risk scores with survival strata.

The package covers the full pipeline: cohort ingestion and a fixed-window
cancer-death endpoint, leakage-free cross-validated risk scores from three
classifier families, rank-based copula fitting with bootstrap-calibrated
goodness-of-fit, and Kaplan-Meier curves over median-split joint risk groups.
"""

__version__ = "0.1.0"

from .bvn import bivariate_normal_cdf
from .cohort import (
    CohortTable,
    EndpointVector,
    build_endpoint,
    filter_cohort,
    load_cohort,
    split_views,
    variance_filter,
)
from .copulas import (
    CopulaModel,
    FAMILIES,
    copula_cdf,
    fit_clayton,
    fit_family,
    fit_gaussian,
    fit_gumbel,
    kendall_tau,
    pseudo_observations,
    sample,
)
from .errors import ConfigError, DataError, FuseError, NumericError
from .folds import FoldAssignment, stratified_kfold
from .gof import GofResult, cvm_statistic, empirical_copula, parametric_bootstrap, select_best_copula
from .linear import ElasticNetLogistic
from .metrics import roc_auc, roc_points
from .pipeline import PipelineConfig, ReportBundle, run_pipeline
from .preprocess import fit_preprocessor, transform
from .scoring import CVRecord, ModelSpec, oof_scores, select_best_model
from .survival import KMCurve, StratumAssignment, joint_strata, kaplan_meier, strata_km
from .trees import GradientBoosting, RandomForest

__all__ = [
    "__version__",
    "bivariate_normal_cdf",
    "CohortTable",
    "EndpointVector",
    "build_endpoint",
    "filter_cohort",
    "load_cohort",
    "split_views",
    "variance_filter",
    "CopulaModel",
    "FAMILIES",
    "copula_cdf",
    "fit_clayton",
    "fit_family",
    "fit_gaussian",
    "fit_gumbel",
    "kendall_tau",
    "pseudo_observations",
    "sample",
    "ConfigError",
    "DataError",
    "FuseError",
    "NumericError",
    "FoldAssignment",
    "stratified_kfold",
    "GofResult",
    "cvm_statistic",
    "empirical_copula",
    "parametric_bootstrap",
    "select_best_copula",
    "ElasticNetLogistic",
    "roc_auc",
    "roc_points",
    "PipelineConfig",
    "ReportBundle",
    "run_pipeline",
    "fit_preprocessor",
    "transform",
    "CVRecord",
    "ModelSpec",
    "oof_scores",
    "select_best_model",
    "KMCurve",
    "StratumAssignment",
    "joint_strata",
    "kaplan_meier",
    "strata_km",
    "GradientBoosting",
    "RandomForest",
]
