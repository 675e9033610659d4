"""Property test of the CLI error contract.

Every ``fit``, ``predict`` and ``bench`` run on a small valid
configuration with one key replaced by an arbitrary JSON value ends in exit
0, 2 or 3, with at most one line on stderr.  An exception escaping ``main``
(a traceback at the command line) fails the test, and so does a numpy
``RuntimeWarning``, which the suite turns into an error.

Every key also draws a 401-digit integer, past the double range and every
array size, except ``timing.repeats``: a huge repeat count is a valid sweep
that never ends, not an error.

A ``predict`` run on a model file with one meta scalar, horizons included,
replaced by an arbitrary JSON value ends in exit 0 or 3, under the same
stderr rules.

Fixed cases cover the argument list and the files: a usage error (a removed
flag or command, a missing command or option) or a config the command
rejects (a repeated bench method, a ``name`` key in a fit, a fit horizon
past the series length, a generator setting that is not finite) ends in
exit 2, and an unreadable or non-UTF-8 config or series file, a missing
file whose name holds a newline, an edited model file, a model horizon past
the series length, a series file that cannot be standardized, holds a
non-finite sample or is too short for Silverman's rule, an output that
cannot be written (``--out``, a file written beside it or a bench file;
found before any data is read), a series too long to allocate, or a bench
cell that runs out of memory, in exit 3; each prints exactly one
``error:`` line and writes no file.

Each command writes exactly ``--out``: drawn names with no suffix, one dot
or several give the output and its ``<out-stem>`` siblings and nothing
else, and a bench writes its four files inside the directory ``--out``
names.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fwfilter as fw
from fwfilter.cli import main

HUGE = 10**400

# JSON values of every kind: wrong types, non-finite and out-of-range
# numbers, and small in-range ones
VALUES = st.one_of(
    st.sampled_from(
        [True, False, "x", "auto", None, [], [1.0], {},
         float("nan"), float("inf"), float("-inf"), -1, -0.5, 0, 0.0, HUGE]
    ),
    st.integers(1, 12),
    st.floats(0.05, 1.0),
)

FIT_KEYS = {
    "fwf": ["sigma_input", "alpha", "k_neighbors", "ridge"],
    "wiener": ["ridge"],
    "klms": ["sigma", "eta"],
    "krls": ["sigma", "lam"],
}
TASK_KEYS = ["order_L", "horizon", "standardize", "seed", "bogus"]
# bench document keys; a dotted key names a key inside a block
BENCH_KEYS = [
    "dataset", "generator", "order_L", "horizon", "train_sizes", "folds",
    "test_size", "methods", "seed", "bogus", "timing", "generator.downsample",
    "generator.n",
    "methods.0.name", "methods.0.sigma_input", "methods.1.ridge",
    "methods.2.eta", "timing.method", "timing.sizes", "timing.repeats",
    "timing.queries", "timing.bogus", "generator.init", "generator.tau_delay",
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
    """VALUES for ``key``, less HUGE for ``timing.repeats``."""
    if key == "timing.repeats":
        return VALUES.filter(lambda v: v != HUGE)
    return VALUES


@st.composite
def fit_cases(draw):
    method = draw(st.sampled_from(sorted(FIT_KEYS)))
    key = draw(st.sampled_from(FIT_KEYS[method] + TASK_KEYS + ["method"]))
    # fwf's alpha also takes a grid; krr is a removed method name
    extra = {"alpha": st.lists(VALUES, max_size=3),
             "method": st.sampled_from(sorted(FIT_KEYS) + ["krr"])}
    return method, key, draw(st.one_of(values_for(key), extra.get(key, st.nothing())))


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
# integers past the double range, and KLMS steps that diverge
@example(("fwf", "alpha", HUGE))
@example(("fwf", "alpha", [0.2, HUGE]))
@example(("fwf", "alpha", [0.2, 0.5]))
@example(("klms", "eta", HUGE))
@example(("klms", "eta", 5))
# a removed method name
@example(("fwf", "method", "krr"))
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


@st.composite
def bench_cases(draw):
    key = draw(st.sampled_from(BENCH_KEYS))
    extra = {"train_sizes": SIZES, "timing.sizes": SWEEP_SIZES,
             "methods.0.name": METHOD_NAMES, "timing.method": METHOD_NAMES}
    return key, draw(st.one_of(values_for(key), extra.get(key, st.nothing())))


@SETTINGS
@given(bench_cases())
# a divergent KLMS step, and sample counts no array can hold
@example(("methods.2.eta", 6))
@example(("test_size", HUGE))
@example(("generator.downsample", HUGE))
# removed settings: a method name and the generator's sample count
@example(("methods.0.name", "krr"))
@example(("generator.n", 5000))
# non-finite generator settings
@example(("generator.init", float("nan")))
@example(("generator.tau_delay", float("inf")))
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


def check_fault(root, code, named, *argv):
    """Run ``argv`` and assert exit ``code`` with one ``error:`` line that
    holds ``named``, and no new file under ``root``."""
    before = sorted(root.rglob("*"))
    got, err = run(*argv)
    assert got == code, (argv, got, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert named in err, (argv, err)
    assert sorted(root.rglob("*")) == before


# argument lists with {gen}, {fit} (valid configs), {series}, {model} and
# {out} placeholders, and a phrase the one-line message must hold
USAGE_FAULTS = {
    "seed-flag": (["generate", "--config", "{gen}", "--out", "{out}", "--seed", "3"],
                  "unrecognized arguments: --seed 3"),
    "tune-command": (["tune", "--config", "{gen}", "--series", "{series}"],
                     "invalid choice: 'tune'"),
    "no-command": ([], "command"),
    "no-out": (["generate", "--config", "{gen}"], "--out"),
    "no-series": (["fit", "--config", "{fit}", "--out", "{out}"], "--series"),
    "no-model": (["predict", "--series", "{series}", "--out", "{out}"], "--model"),
    "no-config-generate": (["generate", "--out", "{out}"], "--config"),
    "no-config-fit": (["fit", "--series", "{series}", "--out", "{out}"], "--config"),
    "no-config-bench": (["bench", "--out", "{out}"], "--config"),
}

# bytes that are not UTF-8
NON_UTF8 = b"\x89PNG\r\n\x1a\n\x00\xff\xfe"

# argument lists with {binary} (a non-UTF-8 file), {dir} and {newline} (a
# missing file whose name holds a newline) placeholders too
FILE_FAULTS = {
    "binary-config": ["generate", "--config", "{binary}", "--out", "{out}"],
    "directory-config": ["generate", "--config", "{dir}", "--out", "{out}"],
    "binary-series": ["fit", "--config", "{fit}", "--series", "{binary}",
                      "--out", "{out}"],
    "binary-desired": ["fit", "--config", "{fit}", "--series", "{series}",
                       "--desired", "{binary}", "--out", "{out}"],
    "directory-series": ["fit", "--config", "{fit}", "--series", "{dir}",
                         "--out", "{out}"],
    "binary-predict-series": ["predict", "--model", "{model}", "--series",
                              "{binary}", "--out", "{out}"],
    "newline-config": ["generate", "--config", "{newline}", "--out", "{out}"],
    "newline-series": ["fit", "--config", "{fit}", "--series", "{newline}",
                       "--out", "{out}"],
    "newline-model": ["predict", "--model", "{newline}", "--series", "{series}",
                      "--out", "{out}"],
}
# the name each kind of fault file has in the one-line message
FAULT_NAMES = {"binary": "binary.dat", "directory": "sub", "newline": r"no\nsuch"}


@pytest.fixture
def fault_dir(files, tmp_path):
    """A directory of fault inputs and the placeholder paths into it."""
    series, models = files
    (tmp_path / "gen.json").write_text(json.dumps({"dataset": "fir", "n": 50}))
    (tmp_path / "fit.json").write_text(json.dumps({"method": "wiener", "order_L": 5}))
    (tmp_path / "binary.dat").write_bytes(NON_UTF8)
    (tmp_path / "sub").mkdir()
    paths = {"gen": tmp_path / "gen.json", "fit": tmp_path / "fit.json",
             "series": series, "model": models["wiener"], "out": tmp_path / "out",
             "binary": tmp_path / "binary.dat", "dir": tmp_path / "sub",
             "newline": tmp_path / "no\nsuch"}
    return tmp_path, paths


@pytest.mark.parametrize("case", sorted(USAGE_FAULTS))
def test_usage_fault(fault_dir, case):
    root, paths = fault_dir
    argv, named = USAGE_FAULTS[case]
    check_fault(root, 2, named, *(a.format(**paths) for a in argv))


@pytest.mark.parametrize("case", sorted(FILE_FAULTS))
def test_file_fault(fault_dir, case):
    root, paths = fault_dir
    bad = FAULT_NAMES[case.split("-")[0]]
    check_fault(root, 3, bad, *(a.format(**paths) for a in FILE_FAULTS[case]))


# data faults the config cannot cause, in fit and predict: a 1-sample series
# has nothing to standardize, a desired series of another length has no
# pairing, a constant or too large series cannot be standardized, and a file
# can hold a NaN or a number past the double range (exit 3, naming the file
# or files)
@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("fault", ["one-sample", "unequal-desired", "constant-desired",
                                   "nan", "overflow", "huge"])
def test_series_data_fault(fault_dir, command, fault):
    root, paths = fault_dir
    bad = root / "bad.csv"
    if fault == "one-sample":
        fw.write_series_csv(fw.Series(np.array([1.5])), bad)
        data, named = ["--series", bad], f"cannot standardize {str(bad)!r}: 1 sample"
    elif fault == "unequal-desired":
        fw.write_series_csv(fw.gen_mackey_glass(fw.MGParams(), 200), bad)
        data = ["--series", paths["series"], "--desired", bad]
        named = (f"series files {str(paths['series'])!r} and {str(bad)!r} must "
                 "have equal length, got 300 and 200 samples")
    elif fault == "constant-desired":
        fw.write_series_csv(fw.Series(np.full(300, 2.0)), bad)
        data = ["--series", paths["series"], "--desired", bad]
        named = (f"series file {str(bad)!r}: cannot standardize a zero-variance "
                 "series")
    elif fault == "huge":
        fw.write_series_csv(fw.Series(np.resize([1e200, -1e200], 300)), bad)
        data = ["--series", bad]
        named = f"series file {str(bad)!r}: the series is too large for standardization"
    else:
        bad.write_text("value\n1.5\n%s\n2.5\n" % ("nan" if fault == "nan" else "1e400"))
        data, named = ["--series", bad], f"non-finite sample in {str(bad)!r}"
    source = (["--config", paths["fit"]] if command == "fit"
              else ["--model", paths["model"]])
    check_fault(root, 3, named, command, *source, *data, "--out", paths["out"])


# at order 1 a 2-sample series embeds one input sample, too few for
# Silverman's rule: a data fault, which a set width avoids
@pytest.mark.parametrize("method", ["fwf", "klms", "krls"])
def test_series_too_short_for_silverman(tmp_path, method):
    series, cfg = tmp_path / "two.csv", tmp_path / "fit.json"
    series.write_text("value\n0.1\n0.5\n")
    cfg.write_text(json.dumps({"method": method, "order_L": 1}))
    check_fault(tmp_path, 3, "Silverman's rule needs at least 2 input samples, got 1",
                "fit", "--config", cfg, "--series", series, "--out", tmp_path / "m.npz")


# an output that cannot be written, checked before any data is read: the
# directory a file goes into is missing or a file, the file is a directory,
# a bench directory is (or lies under) a file, and a file written beside
# --out or inside the bench directory is a directory; the --out path, the
# file made a directory (or None), and a phrase the one-line message must
# hold, with {out} the --out path and {bad} the directory-made file
OUT_FAULTS = {
    "no-parent": ("nodir/x.npz", None, "no directory {nodir!r} to write {out!r} in"),
    "file-parent": ("afile/x.npz", None, "no directory {afile!r} to write {out!r} in"),
    "directory": ("sub", None, "output file {out!r} is a directory"),
    "config-directory": ("x.out", "x.config.json", "output file {bad!r} is a directory"),
    # only a FIR generate writes a desired file
    "desired-directory": ("x.csv", "x.desired.csv", "output file {bad!r} is a directory"),
}
# (case, command) pairs; ids are case-command
OUT_CASES = [(case, command) for case in ("directory", "file-parent", "no-parent")
             for command in ("fit", "generate", "predict")]
OUT_CASES += [("config-directory", command) for command in ("generate", "fit", "predict")]
OUT_CASES += [("desired-directory", "generate")]
BENCH_OUT_FAULTS = {
    "file": ("afile", None,
             "cannot make output directory {out!r}: {afile!r} is not a directory"),
    "under-file": ("afile/res", None, "cannot make output directory {out!r}: "
                                      "{afile!r} is not a directory"),
    "summary-directory": ("res", "res/summary.json", "output file {bad!r} is a directory"),
}


def no_work(monkeypatch):
    """Make reading a series or a model, generating, and running the bench
    experiment fail the test."""
    def fail(*args, **kwargs):
        pytest.fail("the command did work before checking --out")
    for module, name in [(fw.cli, "read_series_csv"), (fw.model_io, "load_model"),
                         (fw.evalbench, "make_series"), (fw.evalbench, "run_experiment")]:
        monkeypatch.setattr(module, name, fail)


def out_fault(root, fault):
    """The --out path of ``fault`` and its phrase, with the directory it
    names made, and a file ``afile``."""
    (root / "afile").write_text("")
    rel, bad, named = fault
    if bad is not None:
        (root / bad).mkdir(parents=True)
    out = str(root / rel)
    return out, named.format(out=out, bad=bad and str(root / bad),
                             nodir=str(root / "nodir"), afile=str(root / "afile"))


@pytest.mark.parametrize("case, command", OUT_CASES,
                         ids=[f"{case}-{command}" for case, command in OUT_CASES])
def test_out_fault(fault_dir, monkeypatch, command, case):
    # the generate config is a FIR one, so generate writes a desired file
    root, paths = fault_dir
    out, named = out_fault(root, OUT_FAULTS[case])
    argv = {"generate": ["--config", paths["gen"]],
            "fit": ["--config", paths["fit"], "--series", paths["series"]],
            "predict": ["--model", paths["model"], "--series", paths["series"]]}
    no_work(monkeypatch)
    check_fault(root, 3, named, command, *argv[command], "--out", out)


@pytest.mark.parametrize("case", list(BENCH_OUT_FAULTS))
def test_bench_out_fault(fault_dir, monkeypatch, case):
    root, paths = fault_dir
    (root / "bench.json").write_text(json.dumps({"dataset": "fir"}))
    out, named = out_fault(root, BENCH_OUT_FAULTS[case])
    no_work(monkeypatch)
    check_fault(root, 3, named, "bench", "--config", root / "bench.json", "--out", out)


# --out names with no suffix, one dot or several dots
OUT_NAMES = st.lists(st.text("abz09_-", min_size=1, max_size=3), min_size=1,
                     max_size=4).map(".".join)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["generate-mg", "generate-fir", "fit", "predict"]), OUT_NAMES)
@example("fit", "model")
@example("fit", "m.bin")
@example("generate-fir", "a.b.c")
def test_out_paths(files, command, name):
    """A file command writes exactly --out and <out-stem>.config.json beside
    it (a FIR generate adds <out-stem>.desired.csv), and nothing else."""
    series, models = files
    stem = name.rsplit(".", 1)[0]
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        (root / "in").mkdir()
        cfg = root / "in" / "cfg.json"
        out = root / "out"
        out.mkdir()
        if command.startswith("generate"):
            dataset = {"generate-mg": "mackey_glass", "generate-fir": "fir"}[command]
            cfg.write_text(json.dumps({"dataset": dataset, "n": 50}))
            argv = ["generate", "--config", cfg]
        elif command == "fit":
            cfg.write_text(json.dumps({"method": "wiener", "order_L": 5}))
            argv = ["fit", "--config", cfg, "--series", series]
        else:
            argv = ["predict", "--model", models["wiener"], "--series", series]
        assert run(*argv, "--out", out / name) == (0, "")
        want = {name, stem + ".config.json"}
        if command == "generate-fir":
            want.add(stem + ".desired.csv")
        assert {p.name for p in out.iterdir()} == want
        if command == "fit":
            assert run("predict", "--model", out / name, "--series", series,
                       "--out", root / "in" / "p.csv") == (0, "")


@settings(max_examples=8, deadline=None)
@given(OUT_NAMES)
@example("res.v1")
def test_bench_out_paths(name):
    """A bench writes its four files inside the directory --out names, and
    nothing beside it."""
    cfg = {"dataset": "fir", "order_L": 3, "horizon": 0, "train_sizes": [60],
           "folds": 2, "test_size": 20, "methods": [{"name": "wiener"}],
           "timing": {"method": "wiener", "sizes": [50, 100, 200], "repeats": 1,
                      "queries": 20}}
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        (root / "cfg.json").write_text(json.dumps(cfg))
        (root / "out").mkdir()
        assert run("bench", "--config", root / "cfg.json",
                   "--out", root / "out" / name) == (0, "")
        assert [p.name for p in (root / "out").iterdir()] == [name]
        assert {p.name for p in (root / "out" / name).iterdir()} == {
            "config.json", "results.csv", "summary.json", "timing.csv"}


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: fwf" in capsys.readouterr().out


# edits to a good model file: its kind, then an array and a function of it,
# or a dotted meta key and its new value
MODEL_EDITS = {
    "short-weights": ("fwf", "weights", lambda w: w[:3]),
    "few-partners": ("fwf", "partners", lambda p: p[:10]),
    "nan-weights": ("fwf", "weights", lambda w: np.full_like(w, np.nan)),
    "1d-windows": ("fwf", "train_windows", lambda x: x[:, 0]),
    "3-column-windows": ("fwf", "train_windows", lambda x: x[:, :3]),
    "short-targets": ("fwf", "train_targets", lambda t: t[:-1]),
    "2d-wiener-weights": ("wiener", "weights", lambda w: w[None]),
    "negative-width": ("fwf", "sigma_input", -1),
    "zero-alpha": ("fwf", "alpha", 0.0),
    "nan-bias": ("fwf", "bias", float("nan")),
    "order-7-config": ("fwf", "config.order_L", 7),
    "nan-klms-coefficients": ("klms", "coefficients", lambda a: np.full_like(a, np.nan)),
    "nan-krls-coefficients": ("krls", "coefficients", lambda a: np.full_like(a, np.nan)),
    "inf-klms-center": ("klms", "centers", lambda c: np.vstack([c[:1] + np.inf, c[1:]])),
    "inf-krls-center": ("krls", "centers", lambda c: np.vstack([c[:1] + np.inf, c[1:]])),
    "negative-wiener-horizon": ("wiener", "horizon", -1),
    "negative-klms-horizon": ("klms", "horizon", -1),
    "negative-krls-horizon": ("krls", "horizon", -1),
    "bool-wiener-horizon": ("wiener", "horizon", True),
    "bool-klms-horizon": ("klms", "horizon", True),
    "bool-krls-horizon": ("krls", "horizon", True),
    "bool-bias": ("fwf", "bias", True),
    "bool-width": ("fwf", "sigma_input", True),
    "bool-alpha": ("fwf", "alpha", True),
    "bool-ridge": ("fwf", "ridge", True),
    "bool-train-mse": ("fwf", "train_mse", True),
    "negative-ridge": ("fwf", "ridge", -1),
    "string-ridge": ("fwf", "ridge", "x"),
    "string-train-mse": ("fwf", "train_mse", "x"),
    "bool-klms-sigma": ("klms", "sigma", True),
    "string-klms-sigma": ("klms", "sigma", "0.5"),
    "bool-krls-sigma": ("krls", "sigma", True),
}


def edited_model(files, tmp_path, kind, key=None, change=None):
    """A copy of the good ``kind`` model file with one edit, if given."""
    with np.load(files[1][kind]) as f:
        arrays = {k: f[k] for k in f.files}
    if callable(change):
        arrays[key] = change(arrays[key])
    elif key is not None:
        arrays["meta"] = json.dumps(put(json.loads(str(arrays["meta"])), key, change))
    path = tmp_path / "edited.npz"
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("kind", ["fwf", "wiener", "klms", "krls"])
def test_unedited_copy_predicts(files, tmp_path, kind):
    model = edited_model(files, tmp_path, kind)
    assert run("predict", "--model", model, "--series", files[0],
               "--out", tmp_path / "p.csv") == (0, "")


@pytest.mark.parametrize("case", sorted(MODEL_EDITS))
def test_malformed_model_file(files, tmp_path, case):
    model = edited_model(files, tmp_path, *MODEL_EDITS[case])
    check_fault(tmp_path, 3, "malformed model file", "predict", "--model", model,
                "--series", files[0], "--out", tmp_path / "p.csv")


# a model file's horizon past what the 300-sample series allows: the series
# is too short for the model, a data fault (exit 3)
@pytest.mark.parametrize("kind, key", [("wiener", "horizon"), ("fwf", "config.horizon"),
                                       ("klms", "horizon"), ("krls", "horizon")])
def test_model_horizon_past_the_series(files, tmp_path, kind, key):
    model = edited_model(files, tmp_path, kind, key, 400)
    check_fault(tmp_path, 3, "series of length 300 too short for the model file's "
                "L=5, horizon=400", "predict", "--model", model,
                "--series", files[0], "--out", tmp_path / "p.csv")


# the meta scalars a drawn value replaces, horizons included
META_SCALARS = [("fwf", k) for k in
                ("config", "config.horizon", "sigma_input", "alpha", "ridge", "bias",
                 "train_mse")]
META_SCALARS += [("klms", "sigma"), ("krls", "sigma")]
META_SCALARS += [(kind, "horizon") for kind in ("wiener", "klms", "krls")]


@SETTINGS
@given(st.sampled_from(META_SCALARS), VALUES)
def test_model_meta_contract(files, scalar, value):
    with tempfile.TemporaryDirectory() as d:
        model = edited_model(files, Path(d), *scalar, value)
        code, err = run("predict", "--model", model, "--series", files[0],
                        "--out", Path(d) / "p.csv")
    assert code in (0, 3), (scalar, value, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (scalar, value, err)


# configs each command rejects with exit 2, and a phrase the line must hold
CONFIG_FAULTS = {
    "repeated-bench-method": (
        "bench",
        {"dataset": "fir", "train_sizes": [60, 120], "folds": 2, "test_size": 20,
         "methods": [{"name": "fwf"}, {"name": "fwf", "alpha": 0.4, "k_neighbors": 3}]},
        "method 'fwf' is listed twice",
    ),
    "name-key-wiener-fit": ("fit", {"method": "wiener", "order_L": 5, "name": "klms"},
                            "unknown wiener parameters: ['name']"),
    "name-key-fwf-fit": ("fit", {"method": "fwf", "order_L": 5, "name": "fwf"},
                         "'name'"),
    # the config sets the horizon, so a series too short for it is its fault
    "long-horizon-fit": ("fit", {"method": "wiener", "order_L": 5, "horizon": 400},
                         "series of length 300 too short for the config's "
                         "L=5, horizon=400"),
}


# generator settings that are not finite, or give no finite count of
# Mackey-Glass history slots: each is a bad config value, named by its key
GENERATOR_FAULTS = {
    "infinite-tau-delay": ({"dataset": "mackey_glass", "tau_delay": float("inf")},
                           "tau_delay"),
    "subnormal-step": ({"dataset": "mackey_glass", "step": 1e-320}, "tau_delay/step"),
    "infinite-beta": ({"dataset": "mackey_glass", "beta": float("inf")}, "MGParams.beta"),
    "nan-init": ({"dataset": "mackey_glass", "init": float("nan")}, "init"),
    "nan-lorenz-init": ({"dataset": "lorenz", "init": [float("nan"), 1, 1]}, "init"),
    "nan-fir-coeffs": ({"dataset": "fir", "coeffs": [float("nan"), 0.2]}, "coeffs"),
}


@pytest.mark.parametrize("case", list(GENERATOR_FAULTS))
def test_generator_setting_fault(tmp_path, case):
    cfg, named = GENERATOR_FAULTS[case]
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"n": 50, **cfg}))
    check_fault(tmp_path, 2, named, "generate", "--config", path,
                "--out", tmp_path / "s.csv")


@pytest.mark.parametrize("case", sorted(CONFIG_FAULTS))
def test_config_fault(files, tmp_path, case):
    command, cfg, named = CONFIG_FAULTS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    series = ["--series", files[0]] if command == "fit" else []
    check_fault(tmp_path, 2, named, command, "--config", path, *series,
                "--out", tmp_path / "out")


# sizes past 256 TiB of doubles: the allocation fails at once, before any
# memory is touched
HUGE_N = 100_000_000_000_000
MEMORY_FAULTS = {
    "mackey-glass-n": {"dataset": "mackey_glass", "n": HUGE_N},
    "lorenz-n": {"dataset": "lorenz", "n": HUGE_N},
    "fir-n": {"dataset": "fir", "n": HUGE_N},
    "mackey-glass-warmup": {"dataset": "mackey_glass", "n": 50, "warmup": HUGE_N},
    # the delay history of 1e17 slots, built before the samples
    "mackey-glass-history": {"dataset": "mackey_glass", "n": 50, "tau_delay": 1e17,
                             "step": 1.0, "warmup": 10**17},
}


@pytest.mark.parametrize("case", list(MEMORY_FAULTS))
def test_out_of_memory(tmp_path, case):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(MEMORY_FAULTS[case]))
    check_fault(tmp_path, 3, "out of memory", "generate", "--config", path,
                "--out", tmp_path / "s.csv")


def test_bench_out_of_memory_ends_the_run(tmp_path, monkeypatch):
    # only expected numerical failures are errored cells: a cell that runs
    # out of memory ends the bench, which has written nothing yet
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fw.baselines, "krls_fit", no_memory)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(
        {"dataset": "fir", "train_sizes": [60], "folds": 2, "test_size": 20,
         "methods": [{"name": "wiener"}, {"name": "krls", "sigma": 1.0}],
         "timing": {"method": "wiener", "sizes": [30, 60, 90], "repeats": 1,
                    "queries": 10}}))
    check_fault(tmp_path, 3, "error: out of memory", "bench", "--config", path,
                "--out", tmp_path / "res")
