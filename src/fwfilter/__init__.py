"""Correntropy-domain Wiener filtering with nearest-neighbor evaluation.

A time-domain filtering toolkit built around Gaussian-kernel lag
statistics: the core filter solves a correntropy Toeplitz system and
predicts through partner vectors of the nearest training windows, with
linear Wiener and kernel-adaptive baselines plus a reproducible benchmark
harness for chaotic series.
"""

from .baselines import (
    KafModel,
    WienerModel,
    kaf_predict,
    klms_fit,
    krls_fit,
    krr_fit,
    wiener_fit,
    wiener_predict,
)
from .errors import (
    AlignmentError,
    ConditioningError,
    ConfigError,
    DataError,
    DegenerateSeriesError,
    DimensionError,
    DomainError,
    FilterError,
    IntegrationDivergenceError,
    ParameterError,
)
from .evalbench import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    TimingTable,
    kfold,
    make_fitter,
    mse,
    run_experiment,
    summarize,
    timing_scaling,
)
from .fwf_core import (
    DEFAULT_ALPHA_GRID,
    FwfConfig,
    FwfModel,
    fit,
    predict,
    predict_batch,
    solve_weights,
    tune_alpha,
)
from .kernel_stats import (
    auto_ridge,
    autocorrentropy,
    autocovariance,
    check_width,
    crosscorrentropy,
    crosscovariance,
    gaussian,
    gaussian_inverse,
    silverman_sigma,
    toeplitz,
)
from .model_io import load_model, save_model
from .neighbors import NeighborIndex, build, linear_scan_query, query, query_batch
from .signal_gen import (
    Dataset,
    LorenzParams,
    MGParams,
    Series,
    embed,
    embed_pair,
    gen_fir_process,
    gen_lorenz,
    gen_mackey_glass,
    read_series_csv,
    standardize,
    write_series_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FilterError", "ConfigError", "ParameterError", "DimensionError",
    "AlignmentError", "DomainError", "DataError", "DegenerateSeriesError",
    "IntegrationDivergenceError", "ConditioningError",
    # signals
    "Series", "MGParams", "LorenzParams", "Dataset", "gen_mackey_glass",
    "gen_lorenz", "gen_fir_process", "embed", "embed_pair", "standardize",
    "write_series_csv", "read_series_csv",
    # kernel statistics
    "check_width", "gaussian", "gaussian_inverse",
    "autocorrentropy", "crosscorrentropy", "autocovariance", "crosscovariance",
    "toeplitz", "silverman_sigma", "auto_ridge",
    # core filter
    "FwfConfig", "FwfModel", "DEFAULT_ALPHA_GRID", "solve_weights", "fit",
    "predict", "predict_batch", "tune_alpha",
    # neighbors
    "NeighborIndex", "build", "query", "query_batch", "linear_scan_query",
    # baselines
    "WienerModel", "KafModel", "wiener_fit", "wiener_predict", "klms_fit",
    "krls_fit", "krr_fit", "kaf_predict",
    # serialization
    "save_model", "load_model",
    # benchmark harness
    "ExperimentConfig", "ResultRow", "ResultTable", "TimingTable", "kfold",
    "make_fitter", "mse", "run_experiment", "timing_scaling", "summarize",
]
