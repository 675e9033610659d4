"""The package's public names: one export list per module, re-exported."""

import fwfilter as fw
from fwfilter import (
    baselines,
    errors,
    evalbench,
    fwf_core,
    kernel_stats,
    model_io,
    neighbors,
    signal_gen,
)

MODULES = (errors, signal_gen, kernel_stats, fwf_core, neighbors, baselines,
           model_io, evalbench)

# the package's exports when it kept its own hand-written list
EARLIER_EXPORTS = {
    "__version__",
    "AlignmentError", "ConditioningError", "ConfigError", "DataError",
    "DegenerateSeriesError", "DimensionError", "DomainError", "FilterError",
    "IntegrationDivergenceError", "ParameterError",
    "Dataset", "LorenzParams", "MGParams", "Series", "embed", "embed_pair",
    "gen_fir_process", "gen_lorenz", "gen_mackey_glass", "read_series_csv",
    "standardize", "write_series_csv",
    "auto_ridge", "autocorrentropy", "autocovariance", "check_width",
    "crosscorrentropy", "crosscovariance", "gaussian", "gaussian_inverse",
    "silverman_sigma", "toeplitz",
    "DEFAULT_ALPHA_GRID", "FwfConfig", "FwfModel", "fit", "predict",
    "predict_batch", "solve_weights",
    "NeighborIndex", "build", "linear_scan_query", "query", "query_batch",
    "KafModel", "WienerModel", "kaf_predict", "klms_fit", "krls_fit", "krr_fit",
    "wiener_fit", "wiener_predict",
    "load_model", "save_model",
    "ExperimentConfig", "ResultRow", "ResultTable", "TimingTable", "kfold",
    "make_fitter", "mse", "run_experiment", "summarize", "timing_scaling",
}


def test_exports_are_the_modules_export_lists():
    assert fw.__all__ == ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert len(set(fw.__all__)) == len(fw.__all__)


def test_every_earlier_export_is_kept():
    assert EARLIER_EXPORTS <= set(fw.__all__)


def test_each_export_is_the_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(fw, name) is obj, name
            if callable(obj):  # functions and classes name their module
                assert obj.__module__ == module.__name__, name
