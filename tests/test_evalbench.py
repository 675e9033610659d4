import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fwfilter as fw
from fwfilter import evalbench as eb
from fwfilter.errors import DataError, ParameterError


def toy_dataset(n_samples=30, L=2, horizon=1, seed=0):
    x = fw.Series(np.random.default_rng(seed).standard_normal(n_samples))
    return fw.embed(x, L, horizon)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = eb.ExperimentConfig(dataset="mackey_glass")
        assert cfg.train_sizes == (500, 1000, 1500, 2000)
        assert cfg.folds == 5 and cfg.test_size == 200
        assert [m["name"] for m in cfg.methods] == ["fwf", "wiener"]

    def test_unknown_dataset_lists_valid(self):
        with pytest.raises(ParameterError, match="mackey_glass"):
            eb.ExperimentConfig(dataset="henon")

    def test_unknown_method_lists_valid(self):
        with pytest.raises(ParameterError, match="krls"):
            eb.ExperimentConfig(dataset="fir", methods=({"name": "svm"},))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_sizes": ()},
            {"train_sizes": (100, 100)},
            {"train_sizes": (200, 100)},
            {"folds": 1},
            {"test_size": 0},
            {"methods": ()},
            {"train_sizes": (100, "200")},
            {"folds": "x"},
            {"order_L": "abc"},
            {"horizon": 1.5},
            {"seed": "x"},
            {"train_sizes": 5},
            {"methods": [1]},
            {"methods": "fwf"},
            {"methods": ({"name": "fwf"}, {"name": "fwf", "alpha": 0.4})},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            eb.ExperimentConfig(dataset="mackey_glass", **kwargs)


class TestResultRow:
    def test_rejects_bad_mse(self):
        with pytest.raises(ParameterError):
            eb.ResultRow("fwf", 100, 0, -1.0, 0.1, 1e-6)
        with pytest.raises(ParameterError):
            eb.ResultRow("fwf", 100, 0, np.nan, 0.1, 1e-6)


class TestKfold:
    def test_exact_partition(self):
        data = toy_dataset(12, L=2, horizon=1)  # 10 rows, gap 3
        splits = eb.kfold(data, 2, 2)
        assert len(splits) == 2
        np.testing.assert_array_equal(splits[0][0], [0, 1, 2])
        np.testing.assert_array_equal(splits[0][1], [6, 7])
        np.testing.assert_array_equal(splits[1][1], [8, 9])

    def test_shared_training_range(self):
        data = toy_dataset(60, L=3, horizon=1)
        splits = eb.kfold(data, 5, 4)
        for train, _ in splits[1:]:
            np.testing.assert_array_equal(train, splits[0][0])

    def test_disjoint_and_gapped(self):
        data = toy_dataset(80, L=4, horizon=2)
        splits = eb.kfold(data, 4, 6)
        gap = data.order_L + data.horizon
        seen = set()
        for train, test in splits:
            assert not (set(train) & set(test))
            assert not (seen & set(test))
            seen |= set(test)
            assert test.min() - train.max() > gap
        n = len(data)
        assert seen == set(range(n - 4 * 6, n))

    def test_test_blocks_are_the_tail(self):
        data = toy_dataset(40, L=2, horizon=1)
        splits = eb.kfold(data, 3, 5)
        assert splits[-1][1][-1] == len(data) - 1

    def test_insufficient_rows(self):
        data = toy_dataset(12, L=2, horizon=1)
        with pytest.raises(ParameterError):
            eb.kfold(data, 5, 3)

    def test_tiny_data_yields_empty_train(self):
        data = toy_dataset(9, L=2, horizon=1)  # 6 rows, all consumed by tests
        splits = eb.kfold(data, 3, 2)
        assert splits[0][0].size == 0

    def test_parameter_validation(self):
        data = toy_dataset(40)
        with pytest.raises(ParameterError):
            eb.kfold(data, 1, 5)
        with pytest.raises(ParameterError):
            eb.kfold(data, 2, 0)


class TestMse:
    def test_examples(self):
        assert eb.mse([0.0, 0.0], [0.0, 0.0]) == 0.0
        assert eb.mse([1.0, 1.0], [0.0, 0.0]) == 1.0
        assert eb.mse([3.0], [1.0]) == 4.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            eb.mse([1.0, 2.0], [1.0])
        with pytest.raises(ParameterError):
            eb.mse([], [])

    def test_past_the_double_range_is_inf(self):
        assert eb.mse([1e200], [0.0]) == np.inf


class TestMakeSeries:
    def test_fir_uses_run_seed_by_default(self):
        x, z = eb.make_series("fir", {}, 7, 100)
        rx, rz = fw.gen_fir_process([0.3, -0.2, 0.1], 100, noise_seed=7)
        np.testing.assert_array_equal(x.values, rx.values)
        np.testing.assert_array_equal(z.values, rz.values)

    def test_fir_noise_seed_key_rejected(self):
        # the run seed is the one seed of the fir noise
        with pytest.raises(ParameterError, match="noise_seed"):
            eb.make_series("fir", {"noise_seed": 3}, 7, 100)

    @pytest.mark.parametrize(
        "dataset, gen, cls",
        [("mackey_glass", "gen_mackey_glass", fw.MGParams),
         ("lorenz", "gen_lorenz", fw.LorenzParams)],
    )
    def test_unset_warmup_and_init_take_the_generator_defaults(
        self, monkeypatch, dataset, gen, cls
    ):
        calls = []
        original = getattr(eb, gen)
        monkeypatch.setattr(
            eb, gen, lambda *a, **kw: calls.append(kw) or original(*a, **kw)
        )
        s = eb.make_series(dataset, {"downsample": 3}, 0, 40)
        assert calls == [{}]
        assert s.values.tobytes() == original(cls(downsample=3), 40).values.tobytes()

    def test_generator_params_forwarded(self):
        s = eb.make_series("mackey_glass", {"downsample": 2, "warmup": 3000}, 0, 50)
        ref = fw.gen_mackey_glass(fw.MGParams(downsample=2), 50, warmup=3000)
        np.testing.assert_array_equal(s.values, ref.values)

    def test_unknown_fir_parameter(self):
        with pytest.raises(ParameterError):
            eb.make_series("fir", {"cutoff": 1.0}, 0, 100)

    @pytest.mark.parametrize("dataset", ["mackey_glass", "lorenz"])
    def test_unknown_chaotic_parameter(self, dataset):
        with pytest.raises(ParameterError, match="cutoff"):
            eb.make_series(dataset, {"cutoff": 1.0}, 0, 100)

    @pytest.mark.parametrize("dataset", ["mackey_glass", "lorenz", "fir"])
    def test_n_key_rejected(self, dataset):
        # the caller's n is the one sample count
        with pytest.raises(ParameterError, match=r"\['n'\]"):
            eb.make_series(dataset, {"n": 30}, 0, 100)

    def test_generator_must_be_a_mapping(self):
        with pytest.raises(ParameterError, match="generator"):
            eb.make_series("fir", [1], 0, 100)


class TestMakeDataset:
    def test_row_count_matches_request(self):
        cfg = eb.ExperimentConfig(dataset="mackey_glass", order_L=10, horizon=1)
        data = eb.make_dataset(cfg, 120)
        assert len(data) == 120

    def test_chaotic_series_standardized(self):
        cfg = eb.ExperimentConfig(dataset="lorenz", order_L=5, horizon=1)
        data = eb.make_dataset(cfg, 200)
        assert abs(np.mean(data.source_x)) < 0.1
        assert 0.8 < np.std(data.source_x) < 1.2

    def test_fir_kept_on_natural_scale(self):
        cfg = eb.ExperimentConfig(dataset="fir", order_L=3, horizon=0, seed=4)
        data = eb.make_dataset(cfg, 100)
        x, z = fw.gen_fir_process([0.3, -0.2, 0.1], 102, noise_seed=4)
        ref = fw.embed_pair(x, z, 3, 0)
        np.testing.assert_array_equal(data.windows, ref.windows)
        np.testing.assert_array_equal(data.targets, ref.targets)


class TestSubset:
    def test_prefix_contents(self):
        data = toy_dataset(50, L=3, horizon=1)
        sub = eb._subset(data, 20)
        assert len(sub) == 20
        np.testing.assert_array_equal(sub.windows, data.windows[:20])
        np.testing.assert_array_equal(sub.targets, data.targets[:20])
        assert len(sub.source_x) == 20 + 2

    def test_bounds(self):
        data = toy_dataset(50)
        with pytest.raises(ParameterError):
            eb._subset(data, 0)
        with pytest.raises(ParameterError):
            eb._subset(data, len(data) + 1)


class TestRunExperiment:
    def test_row_schedule(self):
        cfg = eb.ExperimentConfig(
            dataset="mackey_glass",
            train_sizes=(100, 150),
            folds=2,
            test_size=40,
            methods=(
                {"name": "wiener"},
                {"name": "fwf", "sigma_input": 0.5, "alpha": 0.3},
            ),
        )
        table = eb.run_experiment(cfg)
        assert table.errors == []
        assert len(table.rows) == 2 * 2 * 2
        for r in table.rows:
            assert r.fit_seconds > 0 and r.predict_seconds_per_query > 0
            assert np.isfinite(r.mse)
        assert {(r.method, r.n_train, r.fold) for r in table.rows} == {
            (m, n, f)
            for m in ("wiener", "fwf")
            for n in (100, 150)
            for f in (0, 1)
        }

    def test_deterministic_mse(self):
        cfg = eb.ExperimentConfig(
            dataset="mackey_glass",
            train_sizes=(120,),
            folds=3,
            test_size=30,
            methods=({"name": "fwf", "sigma_input": 0.5, "alpha": 0.3},),
        )
        a = [r.mse for r in eb.run_experiment(cfg).rows]
        b = [r.mse for r in eb.run_experiment(cfg).rows]
        assert a == b

    def test_failed_cells_recorded_not_mixed(self):
        # huge kernel width with no ridge cannot factor; wiener still runs
        cfg = eb.ExperimentConfig(
            dataset="mackey_glass",
            train_sizes=(100,),
            folds=2,
            test_size=30,
            methods=(
                {"name": "fwf", "sigma_input": 1e6, "ridge": 0.0},
                {"name": "wiener"},
            ),
        )
        table = eb.run_experiment(cfg)
        assert [r.method for r in table.rows] == ["wiener", "wiener"]
        assert len(table.errors) == 2
        for name, n_train, fold, message in table.errors:
            assert name == "fwf" and n_train == 100
            assert "ridge" in message
        summary = eb.summarize(table)
        assert {c["method"] for c in summary["results"]} == {"wiener"}
        assert len(summary["errors"]) == 2

    def test_non_finite_fits_recorded(self, monkeypatch):
        # a desired sample near the double limit in the training range:
        # KLMS coefficients and the fwf training MSE come out non-finite
        x = np.random.default_rng(8).standard_normal(400)
        z = x.copy()
        z[50] = 1.5e308
        data = eb.embed_pair(fw.Series(x), fw.Series(z), 3, 0)
        monkeypatch.setattr(eb, "make_dataset", lambda cfg, n_rows: data)
        cfg = eb.ExperimentConfig(
            dataset="fir", order_L=3, horizon=0, train_sizes=(100,), folds=2,
            test_size=30,
            methods=(
                {"name": "klms", "eta": 2.0, "sigma": 1.0},
                {"name": "fwf", "sigma_input": 1.0, "alpha": 0.5},
            ),
        )
        table = eb.run_experiment(cfg)
        assert table.rows == []
        assert [(e[0], e[2]) for e in table.errors] == [
            ("klms", 0), ("klms", 1), ("fwf", 0), ("fwf", 1)
        ]
        assert all("not finite" in e[3] for e in table.errors)

    def test_desired_signal_near_the_double_limit_recorded(self):
        # an FIR desired signal of about 1e307: every fit fails, or its MSE
        # passes the double range, with no numpy warning
        cfg = eb.ExperimentConfig(
            dataset="fir", generator={"coeffs": [1e307]}, order_L=3, horizon=0,
            train_sizes=(100,), folds=2, test_size=30,
            methods=({"name": "fwf"}, {"name": "wiener"}, {"name": "krls"},
                     {"name": "klms"}),
        )
        table = eb.run_experiment(cfg)
        assert table.rows == []
        messages = {e[0]: e[3] for e in table.errors}
        assert len(table.errors) == 8
        assert list(messages) == ["fwf", "wiener", "krls", "klms"]
        assert "desired signal" in messages["fwf"]
        assert "too large" in messages["wiener"] and "too large" in messages["krls"]
        assert "finite" in messages["klms"]

    def test_programming_error_propagates(self, monkeypatch):
        # only toolkit errors are recorded as failed cells
        def broken_fit(data, **kwargs):
            raise TypeError("broken fit")

        monkeypatch.setattr(eb.baselines, "wiener_fit", broken_fit)
        cfg = eb.ExperimentConfig(
            dataset="mackey_glass", train_sizes=(100,), folds=2, test_size=30,
            methods=({"name": "wiener"},),
        )
        with pytest.raises(TypeError, match="broken fit"):
            eb.run_experiment(cfg)

    def test_linear_method_hits_noise_floor_on_linear_data(self):
        # the FIR task is noise-free, so test error is pure estimation error
        cfg = eb.ExperimentConfig(
            dataset="fir",
            order_L=3,
            horizon=0,
            train_sizes=(400,),
            folds=2,
            test_size=50,
            methods=({"name": "wiener"},),
        )
        table = eb.run_experiment(cfg)
        assert table.errors == []
        for r in table.rows:
            assert r.mse < 1e-5

    def test_nonlinear_method_beats_linear_on_benchmark(self):
        cfg = eb.ExperimentConfig(
            dataset="mackey_glass",
            generator={"downsample": 60},
            train_sizes=(800,),
            folds=5,
            test_size=100,
            methods=({"name": "fwf", "sigma_input": 3.0}, {"name": "wiener"}),
        )
        table = eb.run_experiment(cfg)
        f = [r.mse for r in table.rows if r.method == "fwf"]
        w = [r.mse for r in table.rows if r.method == "wiener"]
        assert len(f) == 5 and len(w) == 5
        assert np.mean(f) < np.mean(w)
        assert sum(a < b for a, b in zip(f, w)) >= 4

    def test_unknown_hyperparameter(self):
        cfg = eb.ExperimentConfig(
            dataset="mackey_glass",
            train_sizes=(100,),
            folds=2,
            test_size=30,
            methods=({"name": "wiener", "momentum": 0.9},),
        )
        with pytest.raises(ParameterError, match="momentum"):
            eb.run_experiment(cfg)


REPO = Path(__file__).resolve().parents[1]

# runs in a child interpreter so the tracer's wrappers stay out of this one
_TRACED_KRLS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
import fwfilter as fw
from fwfilter import evalbench
tracer = tracing.Tracer()
tracing.install(tracer)
series = fw.standardize(fw.gen_mackey_glass(fw.MGParams(downsample=6), 200))
data = fw.embed(series, 5, 1)
model = evalbench.make_fitter("krls", {"sigma": 1.0}, 5, 1)(data)
model.predict(data.windows)
print(json.dumps(sorted({s.name for s in tracer.spans})))
"""


class TestMakeFitter:
    def test_benchmark_tracer_sees_baseline_fit_and_predict(self):
        out = subprocess.run(
            [sys.executable, "-c", _TRACED_KRLS,
             str(REPO / "src"), str(REPO / "perfbench")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        names = json.loads(out.stdout)
        assert "baselines.krls_fit" in names
        assert "baselines.kaf_predict" in names

    @pytest.mark.parametrize("name", ["wiener", "klms", "krls"])
    def test_baseline_defaults_are_the_fit_defaults(self, name):
        # no key, or every key at its signature default, fits the same model
        # bit for bit as the fit function called with no keywords
        data = toy_dataset(n_samples=60, L=3, horizon=1)
        fit = getattr(fw.baselines, f"{name}_fit")
        params = list(inspect.signature(fit).parameters.values())[1:]
        want = fit(data)
        for hyper in ({}, {p.name: p.default for p in params}):
            got = eb.make_fitter(name, hyper, 3, 1)(data)
            assert type(got) is type(want)
            for key, value in vars(want).items():
                if isinstance(value, np.ndarray):
                    assert getattr(got, key).tobytes() == value.tobytes(), key
                else:
                    assert getattr(got, key) == value, key


# every method, and krr_fit, the old name of krls_fit that stays public
@pytest.mark.parametrize("name", (*eb.METHODS, "krr"))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_window_raises(name, bad):
    data = toy_dataset(n_samples=60, L=3, horizon=1)
    hyper = {"fwf": {"sigma_input": 0.8, "alpha": 0.4}, "wiener": {}}
    if name == "krr":
        model = fw.krr_fit(data, sigma=0.7)
    else:
        model = eb.make_fitter(name, hyper.get(name, {"sigma": 0.7}), 3, 1)(data)
    X = data.windows[:5].copy()
    X[3, 1] = bad
    # fwf's single-window entry point is the module-level predict
    predict_one = model.predict if name != "fwf" else lambda x: fw.predict(model, x)
    with pytest.raises(DataError, match="finite"):
        model.predict(X)
    with pytest.raises(DataError, match="finite"):
        predict_one(X[3])


class TestTimingScaling:
    def test_smoke_and_table_shape(self):
        table = eb.timing_scaling("wiener", (50, 100, 200), repeats=1, queries=30)
        assert table.method == "wiener"
        assert table.sizes == (50, 100, 200)
        assert all(t > 0 for t in table.fit_seconds)
        assert all(t > 0 for t in table.predict_seconds_per_query)
        assert np.isfinite(table.fit_slope())
        assert np.isfinite(table.predict_slope())

    def test_bench_sweep_defaults_are_timing_scaling_defaults(self):
        cfg = eb.ExperimentConfig(
            dataset="fir", train_sizes=(100, 200, 300),
            methods=({"name": "klms", "eta": 0.3}, {"name": "wiener"}),
        )
        sweep, hyper = eb.check_timing(None, cfg)
        defaults = inspect.signature(eb.timing_scaling).parameters
        assert sweep == {
            "method": "klms", "sizes": (100, 200, 300),
            "repeats": defaults["repeats"].default,
            "queries": defaults["queries"].default,
        }
        assert (sweep["repeats"], sweep["queries"]) == (5, 1000)
        assert hyper == {"eta": 0.3}
        sweep, hyper = eb.check_timing({"method": "wiener", "queries": 7}, cfg)
        assert (sweep["method"], sweep["queries"]) == ("wiener", 7)
        assert hyper == {}

    def test_validation(self):
        with pytest.raises(ParameterError):
            eb.timing_scaling("fwf", (100, 200))
        with pytest.raises(ParameterError):
            eb.timing_scaling("fwf", (200, 100, 50))
        with pytest.raises(ParameterError):
            eb.timing_scaling("fwf", (50, 100, 200), repeats=0)
        with pytest.raises(ParameterError):
            eb.timing_scaling("fwf", (50, 100, 200), queries=0)


class TestSummarize:
    def test_aggregates_match_recomputation(self):
        rows = [
            eb.ResultRow("fwf", 100, 0, 0.5, 0.1, 1e-6),
            eb.ResultRow("fwf", 100, 1, 0.7, 0.1, 1e-6),
            eb.ResultRow("fwf", 200, 0, 0.3, 0.2, 1e-6),
            eb.ResultRow("wiener", 100, 0, 1.1, 0.01, 1e-7),
        ]
        table = eb.ResultTable(rows=rows)
        cells = {(c["method"], c["n_train"]): c for c in eb.summarize(table)["results"]}
        assert cells[("fwf", 100)]["mean_mse"] == float(np.mean([0.5, 0.7]))
        assert cells[("fwf", 100)]["std_mse"] == float(np.std([0.5, 0.7]))
        assert cells[("fwf", 100)]["folds"] == 2
        assert cells[("fwf", 200)]["mean_mse"] == 0.3
        assert cells[("wiener", 100)]["folds"] == 1


class TestCsvOutput:
    def test_results_schema_and_microseconds(self, tmp_path):
        rows = [eb.ResultRow("fwf", 100, 0, 0.25, 1.5, 2.5e-6)]
        table = eb.ResultTable(rows=rows)
        path = tmp_path / "results.csv"
        eb.write_results_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == eb.RESULTS_HEADER
        method, n, fold, m, ft, us = lines[1].split(",")
        assert (method, n, fold) == ("fwf", "100", "0")
        assert float(m) == 0.25 and float(ft) == 1.5
        assert float(us) == pytest.approx(2.5, rel=1e-12)

    def test_float_fields_roundtrip(self, tmp_path):
        val = 1.0 / 3.0
        table = eb.ResultTable(rows=[eb.ResultRow("krr", 10, 3, val, val, val)])
        path = tmp_path / "r.csv"
        eb.write_results_csv(table, path)
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[3]) == val

    def test_timing_csv(self, tmp_path):
        table = eb.TimingTable("klms", (10, 20, 40), (0.1, 0.2, 0.4), (1e-6, 2e-6, 4e-6))
        path = tmp_path / "timing.csv"
        eb.write_timing_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == eb.TIMING_HEADER
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "klms"

    def test_summary_json(self, tmp_path):
        table = eb.ResultTable(rows=[eb.ResultRow("fwf", 10, 0, 0.5, 0.1, 1e-6)])
        path = tmp_path / "summary.json"
        eb.write_json(eb.summarize(table), path)
        loaded = json.loads(path.read_text())
        assert loaded["results"][0]["method"] == "fwf"
        assert loaded["errors"] == []


def test_benchmark_tracer_resolves_every_traced_function():
    # perfbench/tracing.py wraps fwfilter functions by module and name at
    # import; a rename or re-binding here would otherwise fail only the
    # benchmark run
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import tracing; "
        "tracing.install(tracing.Tracer())"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fw.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
