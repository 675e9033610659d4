"""Cross-validated benchmark harness.

Runs method comparisons over chaotic-series prediction tasks with
contiguous-block cross validation, collects MSE and wall-time per
(method, train size, fold) cell, and measures how fit and per-query predict
times scale with training-set size.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, fwf_core
from .errors import FilterError, ParameterError, check_int, check_nonneg, check_real
from .kernel_stats import check_width
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
    standardize,
    write_csv,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "TimingTable",
    "DATASETS",
    "METHODS",
    "kfold",
    "mse",
    "squared_errors",
    "make_series",
    "make_dataset",
    "make_fitter",
    "run_experiment",
    "check_timing",
    "timing_scaling",
    "write_results_csv",
    "write_timing_csv",
    "summarize",
    "write_json",
]

DATASETS = ("mackey_glass", "lorenz", "fir")

# each baseline's hyperparameters and their checks; a key a config leaves
# out takes the default of baselines.<name>_fit
_SIGMA = {"sigma": lambda k, v: v if v is None else check_width(k, v)}
_BASELINE_KEYS = {
    "wiener": {"ridge": lambda k, v: v if fwf_core._is_auto(v) else check_nonneg(k, v)},
    "klms": {**_SIGMA, "eta": baselines.check_eta},
    "krls": {**_SIGMA, "lam": check_nonneg},
}
METHODS = ("fwf", *_BASELINE_KEYS)

RESULTS_HEADER = "method,n_train,fold,mse,fit_seconds,predict_us_per_query"
TIMING_HEADER = "method,n_train,fit_seconds,predict_us_per_query"

# the timing sweep's task (order L, horizon), default repeats and queries
_SWEEP_TASK = (10, 1)
_SWEEP_REPEATS, _SWEEP_QUERIES = 5, 1000


def _sizes(key: str, values, least: int) -> tuple[int, ...]:
    """``values`` as a tuple if it is a list of at least ``least`` positive
    integers in strictly ascending order."""
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"{key} must be a list of integers, got {values!r}")
    sizes = tuple(check_int(key, n, 1) for n in values)
    if len(sizes) < least or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"{key} must be >= {least} strictly ascending values")
    return sizes


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark definition: data source, embedding, sizes, methods.

    ``generator`` holds dataset-specific parameters (missing fields use the
    generator defaults; the sizes set the sample count); each entry of
    ``methods`` is a mapping with a ``name`` key, distinct across entries,
    plus that method's hyperparameters.
    """

    dataset: str
    generator: dict = field(default_factory=dict)
    order_L: int = 10
    horizon: int = 1
    train_sizes: tuple[int, ...] = (500, 1000, 1500, 2000)
    folds: int = 5
    test_size: int = 200
    methods: tuple[dict, ...] = (
        {"name": "fwf"},
        {"name": "wiener"},
    )
    seed: int = 0

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ParameterError(
                f"unknown dataset {self.dataset!r}; valid: {', '.join(DATASETS)}"
            )
        sizes = _sizes("train_sizes", self.train_sizes, 1)
        check_int("order_L", self.order_L, 1)
        check_int("horizon", self.horizon, 0)
        check_int("folds", self.folds, 2)
        check_int("test_size", self.test_size, 1)
        check_int("seed", self.seed, 0)
        if not (
            isinstance(self.methods, (list, tuple))
            and all(isinstance(m, dict) for m in self.methods)
        ):
            raise ParameterError(
                f"methods must be a list of JSON objects, got {self.methods!r}"
            )
        methods = tuple(dict(m) for m in self.methods)
        if len(methods) == 0:
            raise ParameterError("methods must be non-empty")
        names = [m.get("name") for m in methods]
        for i, name in enumerate(names):
            if name not in METHODS:
                raise ParameterError(
                    f"unknown method {name!r}; valid: {', '.join(METHODS)}"
                )
            if name in names[:i]:
                raise ParameterError(f"method {name!r} is listed twice; "
                                     "method names must be distinct")
        object.__setattr__(self, "train_sizes", sizes)
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class ResultRow:
    method: str
    n_train: int
    fold: int
    mse: float
    fit_seconds: float
    predict_seconds_per_query: float

    def __post_init__(self):
        if not (np.isfinite(self.mse) and self.mse >= 0):
            raise ParameterError("result rows require finite non-negative mse")


@dataclass
class ResultTable:
    """Successful cells plus a separate record of failed ones.

    Failed (method, size, fold) cells never enter ``rows`` so aggregate
    statistics cannot be contaminated; they are preserved in ``errors`` as
    (method, n_train, fold, message) tuples.
    """

    rows: list[ResultRow] = field(default_factory=list)
    errors: list[tuple[str, int, int, str]] = field(default_factory=list)


@dataclass
class TimingTable:
    """Median wall times per (method, size) with log-log scaling slopes."""

    method: str
    sizes: tuple[int, ...]
    fit_seconds: tuple[float, ...]
    predict_seconds_per_query: tuple[float, ...]

    def _slope(self, times) -> float:
        return float(
            np.polyfit(np.log(np.asarray(self.sizes, float)), np.log(times), 1)[0]
        )

    def fit_slope(self) -> float:
        return self._slope(self.fit_seconds)

    def predict_slope(self) -> float:
        return self._slope(self.predict_seconds_per_query)


def kfold(data: Dataset, folds: int, test_size: int):
    """Contiguous-block splits for time-series data.

    The test blocks are the last ``folds * test_size`` rows, partitioned in
    order; all folds share one training range at the start of the series,
    separated from the first test block by a gap of L + horizon rows so no
    training window overlaps test samples.
    """
    if folds < 2:
        raise ParameterError("folds must be >= 2")
    if test_size < 1:
        raise ParameterError("test_size must be >= 1")
    n = len(data)
    t0 = n - folds * test_size
    if t0 < 0:
        raise ParameterError(
            f"{n} rows cannot hold {folds} test blocks of {test_size}"
        )
    gap = data.order_L + data.horizon
    train = np.arange(0, max(t0 - gap, 0))
    splits = []
    for f in range(folds):
        test = np.arange(t0 + f * test_size, t0 + (f + 1) * test_size)
        splits.append((train, test))
    return splits


def squared_errors(pred, target) -> np.ndarray:
    """Squared differences of two equal-length vectors; inf past the double
    range."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape or p.ndim != 1 or p.size < 1:
        raise ParameterError("squared errors need two equal-length non-empty vectors")
    with np.errstate(over="ignore"):
        d = p - t
        return d * d


def mse(pred, target) -> float:
    """Mean squared difference between two equal-length vectors; inf past
    the double range."""
    err = squared_errors(pred, target)
    with np.errstate(over="ignore"):  # finite squares can sum past the range
        return float(np.mean(err))


def _finite(key: str, value) -> float:
    """``value`` as a float if it is a finite real number."""
    v = check_real(key, value)
    if not np.isfinite(v):
        raise ParameterError(f"{key} must be finite, got {value!r}")
    return v


def _reals(key: str, values) -> list[float]:
    """``values`` as floats if it is a list of finite real numbers."""
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"{key} must be a list of numbers, got {values!r}")
    return [_finite(key, v) for v in values]


def make_series(dataset: str, params: dict, seed: int, n: int):
    """Instantiate a generator config and produce ``n`` samples; every key
    of ``params`` is checked before anything runs.

    Returns a Series for the chaotic systems and an (input, desired) pair
    for the FIR process.
    """
    if not isinstance(params, dict):
        raise ParameterError(f"generator must be a JSON object, got {params!r}")
    p = dict(params)
    n = check_int("n", n, 1)
    # warmup and init keep the generator's defaults unless params set them
    checks = {"warmup": lambda k, v: check_int(k, v, 0)}
    if dataset == "mackey_glass":
        checks["init"] = _finite
        gen, cls = gen_mackey_glass, MGParams
    elif dataset == "lorenz":
        checks["init"] = lambda k, v: tuple(_reals(k, v))
        gen, cls = gen_lorenz, LorenzParams
    elif dataset == "fir":
        coeffs = _reals("coeffs", p.pop("coeffs", (0.3, -0.2, 0.1)))
        checks, cls = {}, None
    else:
        raise ParameterError(
            f"unknown dataset {dataset!r}; valid: {', '.join(DATASETS)}"
        )
    kw = {k: check(k, p.pop(k)) for k, check in checks.items() if k in p}
    unknown = sorted(set(p) - set(cls.__dataclass_fields__ if cls else ()))
    if unknown:
        raise ParameterError(f"unknown {dataset} parameters: {unknown}")
    if cls is None:
        return gen_fir_process(coeffs, n, check_int("seed", seed, 0))
    return gen(cls(**p), n, **kw)


def make_dataset(cfg: ExperimentConfig, n_rows: int) -> Dataset:
    """Generate, normalize, and embed the configured series.

    The chaotic series are standardized; the FIR pair is kept on its
    natural scale (zero-mean by construction) so recovered weights remain
    comparable to the generating coefficients.
    """
    n = cfg.order_L - 1 + cfg.horizon + n_rows
    out = make_series(cfg.dataset, cfg.generator, cfg.seed, n)
    if cfg.dataset == "fir":
        x, z = out
        return embed_pair(x, z, cfg.order_L, cfg.horizon)
    return embed(standardize(out), cfg.order_L, cfg.horizon)


def _subset(data: Dataset, n_rows: int) -> Dataset:
    """First ``n_rows`` training rows with their matching source prefix."""
    if not (1 <= n_rows <= len(data)):
        raise ParameterError(f"subset size {n_rows} outside 1..{len(data)}")
    m = n_rows + data.order_L - 1
    return Dataset(
        windows=data.windows[:n_rows],
        targets=data.targets[:n_rows],
        order_L=data.order_L,
        horizon=data.horizon,
        source_x=data.source_x[:m],
        source_z=data.source_z[:m],
    )


def make_fitter(name: str, hyper: dict, order_L: int, horizon: int):
    """Validated fit for one method: fit(Dataset) -> model.

    ``hyper`` holds hyperparameters only; any other key fails.  Every model
    it returns has ``order_L`` and a batch ``predict(X)``.  A baseline fit
    gets only the keys ``hyper`` sets, and is looked up when it runs, so a
    module attribute wrapped after this call is still the one called.
    """
    if name == "fwf":
        try:
            cfg = fwf_core.FwfConfig(order_L=order_L, horizon=horizon, **hyper)
        except TypeError as exc:  # an unknown key
            raise ParameterError(f"invalid fwf parameters: {exc}") from exc
        return lambda d: fwf_core.fit(d, cfg)
    if name not in METHODS:
        raise ParameterError(f"unknown method {name!r}; valid: {', '.join(METHODS)}")
    checks = _BASELINE_KEYS[name]
    unknown = sorted(set(hyper) - set(checks))
    if unknown:
        raise ParameterError(f"unknown {name} parameters: {unknown}")
    args = {k: checks[k](k, v) for k, v in hyper.items()}
    return lambda d: getattr(baselines, f"{name}_fit")(d, **args)


def _hyper(entry: dict) -> dict:
    """The hyperparameters of a ``methods`` entry: all but its name."""
    return {k: v for k, v in entry.items() if k != "name"}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Fit every configured method at every training size, score per fold.

    Every method's hyperparameters are checked before any data are made.
    Each method is fitted once per training size on the first N training
    rows and evaluated on every fold's test block.  A cell whose fit or
    predict raises a :class:`FilterError` is recorded in the error list and
    the run continues; any other exception propagates.
    """
    fitters = [
        (m["name"], make_fitter(m["name"], _hyper(m), cfg.order_L, cfg.horizon))
        for m in cfg.methods
    ]
    gap = cfg.order_L + cfg.horizon
    need = max(cfg.train_sizes) + gap + cfg.folds * cfg.test_size
    data = make_dataset(cfg, need)
    splits = kfold(data, cfg.folds, cfg.test_size)
    table = ResultTable()
    for name, fit_fn in fitters:
        for n_train in cfg.train_sizes:
            sub = _subset(data, n_train)
            try:
                tic = time.perf_counter()
                model = fit_fn(sub)
                fit_seconds = time.perf_counter() - tic
            except FilterError as exc:  # record and move on
                for f in range(cfg.folds):
                    table.errors.append((name, n_train, f, str(exc)))
                continue
            for f, (_, test_idx) in enumerate(splits):
                try:
                    tic = time.perf_counter()
                    pred = model.predict(data.windows[test_idx])
                    per_query = (time.perf_counter() - tic) / len(test_idx)
                    table.rows.append(
                        ResultRow(
                            method=name,
                            n_train=n_train,
                            fold=f,
                            mse=mse(pred, data.targets[test_idx]),
                            fit_seconds=fit_seconds,
                            predict_seconds_per_query=per_query,
                        )
                    )
                except FilterError as exc:
                    table.errors.append((name, n_train, f, str(exc)))
    return table


def _check_sweep(method, sizes, repeats, queries, hyper):
    """``sizes`` as a tuple of >= 3 ascending sizes and the fit the sweep
    times, after checking every argument; fwf defaults to alpha 0.5."""
    sizes = _sizes("sizes", sizes, 3)
    check_int("repeats", repeats, 1)
    check_int("queries", queries, 1)
    hyper = dict(hyper or {})
    if method == "fwf" and "alpha" not in hyper:
        # fixed alpha: grid search would only rescale the constant factor
        hyper["alpha"] = 0.5
    return sizes, make_fitter(method, hyper, *_SWEEP_TASK)


def check_timing(timing, cfg: ExperimentConfig):
    """The sweep dict (``method``, ``sizes``, ``repeats``, ``queries``) and
    hyperparameters (of the method's entry in ``cfg.methods``, or none) that
    :func:`timing_scaling` takes, checked; the ``timing`` block (``None`` if
    absent) overrides the first method, ``cfg.train_sizes`` and the defaults."""
    timing = {} if timing is None else timing
    if not isinstance(timing, dict):
        raise ParameterError("bench config timing must be a JSON object")
    unknown = set(timing) - {"method", "sizes", "repeats", "queries"}
    if unknown:
        raise ParameterError(f"unknown timing fields: {sorted(unknown)}")
    sweep = {"method": cfg.methods[0]["name"], "sizes": cfg.train_sizes,
             "repeats": _SWEEP_REPEATS, "queries": _SWEEP_QUERIES, **timing}
    hyper = _hyper(next((m for m in cfg.methods if m["name"] == sweep["method"]), {}))
    sweep["sizes"], _ = _check_sweep(**sweep, hyper=hyper)
    return sweep, hyper


def timing_scaling(
    method: str,
    sizes,
    repeats: int = _SWEEP_REPEATS,
    queries: int = _SWEEP_QUERIES,
    hyper: dict | None = None,
) -> TimingTable:
    """Median fit and per-query predict wall times across training sizes.

    Data come from one Mackey-Glass run, which needs no seed, large enough
    for the biggest size plus a held-out query block; per-query time divides
    a batched predict over ``queries`` windows.  Slopes are least-squares
    fits on log-log points, so ``sizes`` needs at least 3 values.
    """
    sizes, fit_fn = _check_sweep(method, sizes, repeats, queries, hyper)
    n = sizes[-1] + queries + sum(_SWEEP_TASK) - 1  # L - 1 + horizon beyond the rows
    series = make_series("mackey_glass", {"downsample": 1}, 0, n)
    data = embed(standardize(series), *_SWEEP_TASK)
    query_windows = data.windows[len(data) - queries :]
    fit_med, pred_med = [], []
    for n in sizes:
        sub = _subset(data, n)
        fit_times, pred_times = [], []
        for _ in range(repeats):
            tic = time.perf_counter()
            model = fit_fn(sub)
            fit_times.append(time.perf_counter() - tic)
        for _ in range(repeats):
            tic = time.perf_counter()
            model.predict(query_windows)
            pred_times.append(time.perf_counter() - tic)
        fit_med.append(float(np.median(fit_times)))
        pred_med.append(float(np.median(pred_times)) / queries)
    return TimingTable(
        method=method,
        sizes=sizes,
        fit_seconds=tuple(fit_med),
        predict_seconds_per_query=tuple(pred_med),
    )


def write_results_csv(table: ResultTable, path) -> None:
    """Emit result rows (errors excluded) in the documented CSV schema."""
    write_csv(path, RESULTS_HEADER, "%s,%d,%d,%.17g,%.17g,%.17g",
              ((r.method, r.n_train, r.fold, r.mse, r.fit_seconds,
                r.predict_seconds_per_query * 1e6) for r in table.rows))


def write_timing_csv(table: TimingTable, path) -> None:
    write_csv(path, TIMING_HEADER, "%s,%d,%.17g,%.17g",
              ((table.method, n, ft, pt * 1e6) for n, ft, pt in
               zip(table.sizes, table.fit_seconds, table.predict_seconds_per_query)))


def summarize(table: ResultTable) -> dict:
    """Per-(method, size) mean and standard deviation of fold MSEs."""
    cells: dict[tuple[str, int], list[float]] = {}
    for r in table.rows:
        cells.setdefault((r.method, r.n_train), []).append(r.mse)
    results = [
        {
            "method": method,
            "n_train": n,
            "mean_mse": float(np.mean(v)),
            "std_mse": float(np.std(v)),
            "folds": len(v),
        }
        for (method, n), v in sorted(cells.items())
    ]
    return {
        "results": results,
        "errors": [
            {"method": m, "n_train": n, "fold": f, "message": msg}
            for (m, n, f, msg) in table.errors
        ],
    }


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as indented JSON with sorted keys; the one writer of
    every JSON file the package writes."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
