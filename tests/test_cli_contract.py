"""Property test of the CLI error contract.

Every ``fit``, ``predict``, ``tune`` and ``bench`` run on a small valid
configuration with one key replaced by an arbitrary JSON value ends in exit
0, 2 or 3, with at most one line on stderr.  An exception escaping ``main``
(a traceback at the command line) fails the test, and so does a numpy
``RuntimeWarning``, which the suite turns into an error.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fwfilter as fw
from fwfilter.cli import main

# JSON values of every kind: wrong types, non-finite and out-of-range
# numbers, and small in-range ones
VALUES = st.one_of(
    st.sampled_from(
        [True, False, "x", "auto", None, [], [1.0], {},
         float("nan"), float("inf"), float("-inf"), -1, -0.5, 0, 0.0]
    ),
    st.integers(1, 12),
    st.floats(0.05, 1.0),
)

FIT_KEYS = {
    "fwf": ["sigma_input", "sigma_weight", "alpha", "k_neighbors", "ridge"],
    "wiener": ["ridge"],
    "klms": ["sigma", "eta"],
    "krls": ["sigma", "lam"],
    "krr": ["sigma", "lam"],
}
TASK_KEYS = ["order_L", "horizon", "standardize", "seed", "bogus"]
# bench document keys; a dotted key names a key inside a block
BENCH_KEYS = [
    "dataset", "generator", "order_L", "horizon", "train_sizes", "folds",
    "test_size", "methods", "seed", "bogus", "timing", "generator.downsample",
    "methods.0.name", "methods.0.sigma_input", "methods.1.ridge",
    "methods.2.eta", "timing.method", "timing.sizes", "timing.repeats",
    "timing.queries", "timing.bogus",
]
SIZES = st.lists(st.integers(-1, 200), max_size=3)
SWEEP_SIZES = st.lists(st.integers(-1, 400), max_size=4)
METHOD_NAMES = st.sampled_from(["fwf", "wiener", "klms", "krls", "krr", "lstm"])

SETTINGS = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 300-sample series and one fitted model of each kind."""
    root = tmp_path_factory.mktemp("contract")
    series = root / "mg.csv"
    fw.write_series_csv(fw.gen_mackey_glass(fw.MGParams(), 300), series)
    models = {}
    for method in FIT_KEYS:
        cfg = root / f"{method}.json"
        cfg.write_text(json.dumps({"method": method, "order_L": 5}))
        models[method] = root / f"{method}.npz"
        assert run("fit", "--config", cfg, "--series", series,
                   "--out", models[method])[0] == 0
    return series, models


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def check_contract(command, cfg, *argv):
    """Run ``command`` on ``cfg`` in a fresh directory and assert the
    contract; the out path is the last argument."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, err = run(command, "--config", path, *argv, "--out", Path(d) / "out")
    assert code in (0, 2, 3), (cfg, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (cfg, err)


def put(doc, dotted, value):
    """``doc`` with the key at the dotted path set to ``value``."""
    *path, last = dotted.split(".")
    node = doc
    for p in path:
        node = node[int(p)] if isinstance(node, list) else node[p]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
    return doc


def values_for(key):
    """VALUES for ``key``, less the valid KLMS step sizes above 2: they make
    the recursion diverge, a numerical failure, not a configuration error."""
    if key.endswith("eta"):
        return VALUES.filter(lambda v: type(v) not in (int, float) or v <= 2)
    return VALUES


@st.composite
def fit_cases(draw):
    method = draw(st.sampled_from(sorted(FIT_KEYS)))
    key = draw(st.sampled_from(FIT_KEYS[method] + TASK_KEYS + ["method"]))
    return method, key, draw(values_for(key))


@SETTINGS
@given(fit_cases())
# the baselines' non-finite and negative hyperparameters
@example(("wiener", "ridge", float("inf")))
@example(("wiener", "ridge", float("nan")))
@example(("wiener", "ridge", -5))
@example(("krls", "lam", float("nan")))
@example(("krls", "lam", float("inf")))
@example(("klms", "eta", float("nan")))
@example(("klms", "eta", float("inf")))
def test_fit_contract(files, case):
    method, key, value = case
    series, _ = files
    cfg = {"method": method, "order_L": 5, key: value}
    check_contract("fit", cfg, "--series", series)


@SETTINGS
@given(
    st.sampled_from(sorted(FIT_KEYS)),
    st.sampled_from(["order_L", "horizon", "standardize", "k_neighbors",
                     "k_neighbour", "seed"]),
    VALUES,
)
def test_predict_contract(files, method, key, value):
    series, models = files
    check_contract("predict", {key: value}, "--model", models[method],
                   "--series", series)


@SETTINGS
@given(st.sampled_from(FIT_KEYS["fwf"] + TASK_KEYS + ["grid"]),
       st.one_of(VALUES, st.lists(VALUES, max_size=3)))
def test_tune_contract(files, key, value):
    series, _ = files
    cfg = {"order_L": 5, "grid": [0.2, 0.5], key: value}
    check_contract("tune", cfg, "--series", series)


@st.composite
def bench_cases(draw):
    key = draw(st.sampled_from(BENCH_KEYS))
    extra = {"train_sizes": SIZES, "timing.sizes": SWEEP_SIZES,
             "methods.0.name": METHOD_NAMES, "timing.method": METHOD_NAMES}
    return key, draw(st.one_of(values_for(key), extra.get(key, st.nothing())))


@SETTINGS
@given(bench_cases())
def test_bench_contract(case):
    cfg = {
        "dataset": "mackey_glass", "generator": {"downsample": 1},
        "order_L": 5, "horizon": 1, "train_sizes": [60, 120], "folds": 2,
        "test_size": 20,
        "methods": [{"name": "fwf", "sigma_input": 0.5}, {"name": "wiener"},
                    {"name": "klms", "eta": 0.5}],
        "timing": {"method": "wiener", "sizes": [50, 100, 200], "repeats": 1,
                   "queries": 20},
    }
    check_contract("bench", put(cfg, *case))
