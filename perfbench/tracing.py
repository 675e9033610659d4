"""In-memory span tracer wrapped around fwfilter's public functions.

Each module function is replaced, at the attribute its callers resolve, by
a wrapper that records one span (name, start, end, parent).  No source under
``src/`` changes: the wrappers are installed into the imported modules at
run time.  Spans stay in a list until the run ends; :func:`layer_metrics`
then derives the per-layer metrics from them.

A span's self time is its duration minus the time its child spans cover.
Calls are single-threaded and strictly nested, so the children of one span
are disjoint and their union is their sum.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time

# (span name, [modules whose attribute callers resolve]).  The span name is
# the defining module and function; every resolution site gets the same
# wrapper so a call is traced whichever module made it.
WRAPPED = (
    ("signal_gen.gen_mackey_glass", ("signal_gen", "evalbench")),
    ("signal_gen.gen_lorenz", ("signal_gen", "evalbench")),
    ("kernel_stats.autocorrentropy", ("kernel_stats", "fwf_core")),
    ("kernel_stats.crosscorrentropy", ("kernel_stats", "fwf_core")),
    # baselines.wiener_fit imports auto_ridge from kernel_stats at call time
    ("kernel_stats.auto_ridge", ("kernel_stats", "fwf_core")),
    ("fwf_core.solve_weights", ("fwf_core", "baselines")),
    ("fwf_core.fit", ("fwf_core",)),
    ("fwf_core.predict_batch", ("fwf_core",)),
    ("fwf_core.predict", ("fwf_core",)),
    ("neighbors.build", ("neighbors",)),
    ("neighbors.query_batch", ("neighbors",)),
    ("baselines.wiener_fit", ("baselines",)),
    ("baselines.wiener_predict", ("baselines",)),
    ("baselines.klms_fit", ("baselines",)),
    ("baselines.krls_fit", ("baselines",)),
    ("baselines.krr_fit", ("baselines",)),
    ("baselines.kaf_predict", ("baselines",)),
    ("evalbench.make_dataset", ("evalbench",)),
    ("evalbench.run_experiment", ("evalbench",)),
    ("evalbench.timing_scaling", ("evalbench",)),
    ("model_io.save_model", ("model_io",)),
    ("model_io.load_model", ("model_io",)),
    ("cli.main", ("cli",)),
)

# per-layer metrics: name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "signal_gen.gen_mackey_glass_s": ("s", "lower"),
    "signal_gen.gen_lorenz_s": ("s", "lower"),
    "signal_gen.rk4_steps": ("count", "higher"),
    "signal_gen.us_per_rk4_step": ("us", "lower"),
    "kernel_stats.profiles_s": ("s", "lower"),
    "kernel_stats.auto_ridge_s": ("s", "lower"),
    "fwf_core.solve_weights_s": ("s", "lower"),
    "fwf_core.fit_self_s": ("s", "lower"),
    "fwf_core.alpha_grid_points": ("count", "lower"),
    "fwf_core.alpha_search_bytes_computed": ("bytes", "lower"),
    "fwf_core.alpha_search_working_set_bytes": ("bytes", "lower"),
    "fwf_core.predict_batch_self_s": ("s", "lower"),
    "fwf_core.predict_one_self_us": ("us", "lower"),
    "neighbors.build_s": ("s", "lower"),
    "neighbors.self_query_s": ("s", "lower"),
    "neighbors.query_us_per_query": ("us", "lower"),
    "neighbors.queries": ("count", "higher"),
    "baselines.krls_fit_s": ("s", "lower"),
    "baselines.klms_fit_s": ("s", "lower"),
    "baselines.wiener_fit_s": ("s", "lower"),
    "baselines.kaf_predict_s": ("s", "lower"),
    "evalbench.make_dataset_s": ("s", "lower"),
    "evalbench.run_experiment_self_s": ("s", "lower"),
    "evalbench.timing_scaling_self_s": ("s", "lower"),
    "evalbench.errored_cells": ("count", "lower"),
    "model_io.save_model_s": ("s", "lower"),
    "model_io.load_model_s": ("s", "lower"),
    "model_io.file_bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
}

_FLOAT = 8
_INDEX = 8
# N x K x L float64 temporaries the alpha search creates per row chunk in
# fwf_core._functional_outputs: the partner gather, the difference, its
# square, the negation, the division, exp, and the product with the weights
_SEARCH_TEMPS = 7
# row chunk of fwf_core._functional_outputs
_SEARCH_CHUNK = 65536


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None


class Tracer:
    """Records nested spans; ``spans[i].parent`` is an index or -1."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``info(arguments, result)`` may attach a small dict to the span;
        ``arguments()`` binds the call's arguments by name, on demand.
        """
        sig = inspect.signature(fn) if info is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
            if info is not None:
                rec.info = info(lambda: _arguments(sig, args, kwargs), out)
            return out

        return wrapper

    @contextlib.contextmanager
    def region(self, name):
        """Record one span around a block."""
        rec = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _gen_info(arguments, out):
    a = arguments()
    return {"steps": int(a["warmup"]) + int(a["n"]) * int(a["p"].downsample)}


def _fit_info(arguments, out):
    a = arguments()
    data, cfg = a["data"], a["cfg"]
    return {
        "auto": cfg.alpha == "auto",
        "n": int(data.windows.shape[0]),
        "L": int(data.windows.shape[1]),
        "k": int(min(cfg.k_neighbors, data.windows.shape[0])),
    }


def _query_info(arguments, out):
    return {"rows": int(out[0].shape[0])}


def _run_experiment_info(arguments, out):
    return {"errors": len(out.errors)}


def _save_info(arguments, out):
    path = os.fspath(arguments()["path"])
    if not path.endswith(".npz"):
        path += ".npz"
    return {"bytes": os.path.getsize(path)}


_INFO = {
    "signal_gen.gen_mackey_glass": _gen_info,
    "signal_gen.gen_lorenz": _gen_info,
    "fwf_core.fit": _fit_info,
    "neighbors.query_batch": _query_info,
    "evalbench.run_experiment": _run_experiment_info,
    "model_io.save_model": _save_info,
}


def install(tracer: Tracer) -> None:
    """Replace every function in ``WRAPPED`` at each of its resolution sites."""
    for name, sites in WRAPPED:
        home, attr = name.split(".")
        original = getattr(importlib.import_module(f"fwfilter.{home}"), attr)
        wrapped = tracer.span(name, original, _INFO.get(name))
        for site in sites:
            module = importlib.import_module(f"fwfilter.{site}")
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{site}.{attr} is not {name}; cannot trace it")
            setattr(module, attr, wrapped)


def alpha_search_bytes(n, L, k, grid_points) -> int:
    """Bytes of arrays one alpha search creates, from the array sizes.

    Per grid point: the N x L partner matrix plus the N x K x L temporaries
    of the functional evaluation.
    """
    return grid_points * (n * L * _FLOAT + _SEARCH_TEMPS * n * k * L * _FLOAT)


def alpha_search_working_set(n, L, k) -> int:
    """Bytes one grid point touches: windows, offsets, partners, neighbor
    rows and targets, plus two live chunk temporaries."""
    chunk = min(n, _SEARCH_CHUNK)
    return 3 * n * L * _FLOAT + n * k * _INDEX + n * _FLOAT + 2 * chunk * k * L * _FLOAT


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, grid_points: int, import_s: float) -> dict:
    """Per-layer metrics from the recorded spans.

    Times are self times, averaged per call of the named function; a layer
    the workload never calls reads 0.  Counts are totals over the run,
    except the alpha-search figures, which are per auto-alpha fit.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def parent_name(i):
        p = spans[i].parent
        return spans[p].name if p >= 0 else None

    def mean_self(*names):
        return _mean([self_t[i] for n in names for i in ids(n)])

    gens = ids("signal_gen.gen_mackey_glass") + ids("signal_gen.gen_lorenz")
    steps = sum(spans[i].info["steps"] for i in gens)
    gen_time = sum(self_t[i] for i in gens)

    fits = [spans[i].info for i in ids("fwf_core.fit")]
    auto = [f for f in fits if f["auto"]]

    # predict delegates to predict_batch: a single-window call's own time is
    # the predict span plus its nested predict_batch span, both self times
    batch, nested = [], {}
    for i in ids("fwf_core.predict_batch"):
        if parent_name(i) == "fwf_core.predict":
            nested[spans[i].parent] = self_t[i]
        else:
            batch.append(i)
    one = [self_t[i] + nested.get(i, 0.0) for i in ids("fwf_core.predict")]

    self_q = [i for i in ids("neighbors.query_batch") if parent_name(i) == "fwf_core.fit"]
    other_q = [i for i in ids("neighbors.query_batch") if parent_name(i) != "fwf_core.fit"]
    q_rows = sum(spans[i].info["rows"] for i in other_q)
    q_time = sum(spans[i].end - spans[i].start for i in other_q)

    saves = [spans[i].info["bytes"] for i in ids("model_io.save_model")]

    return {
        "signal_gen.gen_mackey_glass_s": mean_self("signal_gen.gen_mackey_glass"),
        "signal_gen.gen_lorenz_s": mean_self("signal_gen.gen_lorenz"),
        "signal_gen.rk4_steps": steps,
        "signal_gen.us_per_rk4_step": gen_time / steps * 1e6 if steps else 0.0,
        "kernel_stats.profiles_s": mean_self(
            "kernel_stats.autocorrentropy", "kernel_stats.crosscorrentropy"
        ),
        "kernel_stats.auto_ridge_s": mean_self("kernel_stats.auto_ridge"),
        "fwf_core.solve_weights_s": mean_self("fwf_core.solve_weights"),
        "fwf_core.fit_self_s": mean_self("fwf_core.fit"),
        "fwf_core.alpha_grid_points": grid_points if auto else 0,
        "fwf_core.alpha_search_bytes_computed": int(_mean(
            [alpha_search_bytes(f["n"], f["L"], f["k"], grid_points) for f in auto]
        )),
        "fwf_core.alpha_search_working_set_bytes": int(_mean(
            [alpha_search_working_set(f["n"], f["L"], f["k"]) for f in auto]
        )),
        "fwf_core.predict_batch_self_s": _mean([self_t[i] for i in batch]),
        "fwf_core.predict_one_self_us": _mean(one) * 1e6,
        "neighbors.build_s": mean_self("neighbors.build"),
        "neighbors.self_query_s": _mean([self_t[i] for i in self_q]),
        "neighbors.query_us_per_query": q_time / q_rows * 1e6 if q_rows else 0.0,
        "neighbors.queries": q_rows,
        "baselines.krls_fit_s": mean_self("baselines.krls_fit"),
        "baselines.klms_fit_s": mean_self("baselines.klms_fit"),
        "baselines.wiener_fit_s": mean_self("baselines.wiener_fit"),
        "baselines.kaf_predict_s": mean_self("baselines.kaf_predict"),
        "evalbench.make_dataset_s": mean_self("evalbench.make_dataset"),
        "evalbench.run_experiment_self_s": mean_self("evalbench.run_experiment"),
        "evalbench.timing_scaling_self_s": mean_self("evalbench.timing_scaling"),
        "evalbench.errored_cells": sum(
            spans[i].info["errors"] for i in ids("evalbench.run_experiment")
        ),
        "model_io.save_model_s": mean_self("model_io.save_model"),
        "model_io.load_model_s": mean_self("model_io.load_model"),
        "model_io.file_bytes": int(_mean(saves)),
        "cli.import_s": import_s,
        "cli.main_self_s": mean_self("cli.main"),
    }


def nesting_violations(tracer: Tracer) -> int:
    """Spans whose [start, end] is not inside their parent's.

    Self times are only sound when this is 0: a child that overruns its
    parent would be subtracted for time the parent never covered.
    """
    spans = tracer.spans
    return sum(
        1
        for s in spans
        if s.parent >= 0 and not (spans[s.parent].start <= s.start and s.end <= spans[s.parent].end)
    )
