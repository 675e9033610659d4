import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fwfilter as fw
from fwfilter import baselines
from fwfilter.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def mg_csv(tmp_path):
    s = fw.gen_mackey_glass(fw.MGParams(), 300)
    path = tmp_path / "mg.csv"
    fw.write_series_csv(s, path)
    return str(path)


@pytest.fixture
def fir_csvs(tmp_path):
    x, z = fw.gen_fir_process([0.3, -0.2, 0.1], 100000, noise_seed=42)
    xp, zp = tmp_path / "fir_x.csv", tmp_path / "fir_z.csv"
    fw.write_series_csv(x, xp)
    fw.write_series_csv(z, zp)
    return str(xp), str(zp)


# generator keys that must be rejected with exit 2: dataset, keys, the name
# the message must carry
BAD_GENERATOR_KEYS = [
    ("mackey_glass", {"beta": "x"}, "beta"),
    ("mackey_glass", {"bogus": 1}, "bogus"),
    ("mackey_glass", {"warmup": "x"}, "warmup"),
    ("mackey_glass", {"init": "x"}, "init"),
    ("mackey_glass", {"downsample": True}, "downsample"),
    ("lorenz", {"init": 5}, "init"),
    ("lorenz", {"init": [1.0, "x", 1.0]}, "init"),
    ("lorenz", {"rho": None}, "rho"),
    ("lorenz", {"bogus": 1}, "bogus"),
    ("fir", {"coeffs": "x"}, "coeffs"),
    ("fir", {"noise_seed": 1.5}, "noise_seed"),
]


def assert_one_line_error(code, stderr, key):
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert key in stderr


class TestGenerate:
    def test_mackey_glass_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"dataset": "mackey_glass", "n": 100})
        out = tmp_path / "series.csv"
        code, stdout, _ = run(capsys, "generate", "--config", cfg, "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value" and len(lines) == 101
        assert "wrote 100 samples" in stdout
        assert (tmp_path / "series.config.json").exists()

    def test_fir_writes_both_series(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"dataset": "fir", "n": 50})
        out = tmp_path / "fir.csv"
        code, stdout, _ = run(capsys, "generate", "--config", cfg, "--out", str(out))
        assert code == 0
        assert out.exists() and (tmp_path / "fir.desired.csv").exists()

    def test_seed_reproducibility(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"dataset": "fir", "n": 50})
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for out, seed in ((a, "5"), (b, "5"), (c, "6")):
            code, _, _ = run(
                capsys, "generate", "--config", cfg, "--out", str(out), "--seed", seed
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_invalid_generator_parameter(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "gen.json",
            {"dataset": "mackey_glass", "n": 100, "tau_delay": -1.0},
        )
        code, _, stderr = run(
            capsys, "generate", "--config", cfg, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "tau_delay" in stderr

    @pytest.mark.parametrize("dataset,params,key", BAD_GENERATOR_KEYS)
    def test_bad_generator_key(self, tmp_path, capsys, dataset, params, key):
        cfg = write_json(tmp_path / "gen.json", {"dataset": dataset, "n": 100, **params})
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, "generate", "--config", cfg, "--out", str(out))
        assert_one_line_error(code, stderr, key)
        assert stdout == "" and list(tmp_path.iterdir()) == [tmp_path / "gen.json"]

    @pytest.mark.parametrize(
        "cfg,key",
        [({"dataset": "wavelet", "n": 100}, "wavelet"),
         ({"dataset": "fir", "n": 100, "seed": "x"}, "seed"),
         ({"dataset": "fir", "n": 100.0}, "n")],
    )
    def test_bad_top_level_key(self, tmp_path, capsys, cfg, key):
        path = write_json(tmp_path / "gen.json", cfg)
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "generate", "--config", path, "--out", str(out))
        assert_one_line_error(code, stderr, key)
        assert not out.exists()

    def test_missing_n(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"dataset": "lorenz"})
        code, _, stderr = run(
            capsys, "generate", "--config", cfg, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "n" in stderr

    def test_config_flag_required(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--config" in stderr

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            "generate",
            "--config",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, stderr = run(
            capsys, "generate", "--config", str(bad), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "JSON" in stderr


class TestFit:
    def test_fwf_model_file(self, tmp_path, capsys, mg_csv):
        cfg = write_json(
            tmp_path / "fit.json",
            {"method": "fwf", "order_L": 10, "horizon": 1,
             "sigma_input": 0.5, "alpha": 0.3},
        )
        out = tmp_path / "model.npz"
        code, stdout, _ = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert code == 0
        assert "training MSE" in stdout
        model = fw.load_model(out)
        assert isinstance(model, fw.FwfModel)
        assert model.alpha == 0.3

    def test_wiener_prints_recovered_weights(self, tmp_path, capsys, fir_csvs):
        xp, zp = fir_csvs
        cfg = write_json(
            tmp_path / "fit.json",
            {"method": "wiener", "order_L": 3, "horizon": 0, "standardize": False},
        )
        out = tmp_path / "wiener.npz"
        code, stdout, _ = run(
            capsys, "fit", "--config", cfg, "--series", xp, "--desired", zp,
            "--out", str(out),
        )
        assert code == 0
        weight_line = [l for l in stdout.splitlines() if l.startswith("weights")][0]
        weights = [float(v) for v in weight_line.split()[1:]]
        np.testing.assert_allclose(weights, [0.3, -0.2, 0.1], atol=1e-2)

    def test_missing_series_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "fit.json", {"method": "wiener", "order_L": 3})
        missing = tmp_path / "nope.csv"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", str(missing),
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == 3
        assert "nope.csv" in stderr

    def test_unknown_method(self, tmp_path, capsys, mg_csv):
        cfg = write_json(tmp_path / "fit.json", {"method": "arima"})
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv,
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == 2
        assert "fwf" in stderr  # valid methods listed

    def test_unknown_hyperparameter(self, tmp_path, capsys, mg_csv):
        cfg = write_json(
            tmp_path / "fit.json", {"method": "klms", "order_L": 5, "momentum": 1}
        )
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv,
            "--out", str(tmp_path / "m.npz"),
        )
        assert code == 2
        assert "momentum" in stderr

    @pytest.mark.parametrize(
        "task", [{"order_L": "abc"}, {"horizon": 1.5}, {"horizon": "2"},
                 {"order_L": True}],
    )
    def test_non_integer_task_keys_rejected(self, tmp_path, capsys, mg_csv, task):
        cfg = write_json(tmp_path / "fit.json", {"method": "fwf", **task})
        out = tmp_path / "m.npz"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert code == 2
        assert next(iter(task)) in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out_name",
        [("fit", "m.npz"), ("tune", "alpha.json"), ("predict", "p.csv")],
    )
    def test_non_bool_standardize_rejected(
        self, tmp_path, capsys, mg_csv, command, out_name
    ):
        cfg = {"standardize": "false"}
        args = [command, "--series", mg_csv]
        if command == "fit":
            cfg["method"] = "wiener"
        if command == "predict":
            model_path = TestPredict().fit_model(tmp_path, capsys, mg_csv)
            args += ["--model", str(model_path)]
        out = tmp_path / out_name
        code, _, stderr = run(
            capsys, *args, "--config", write_json(tmp_path / "c.json", cfg),
            "--out", str(out),
        )
        assert code == 2
        assert "standardize" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "hyper", [{"method": "klms", "eta": "x"}, {"method": "klms", "sigma": "x"},
                  {"method": "krls", "lam": "x"}, {"method": "wiener", "ridge": "x"},
                  {"method": "fwf", "sigma_input": "x"},
                  {"method": "wiener", "ridge": float("inf")},
                  {"method": "wiener", "ridge": float("nan")},
                  {"method": "wiener", "ridge": -5},
                  {"method": "krls", "lam": float("nan")},
                  {"method": "krls", "lam": float("inf")},
                  {"method": "klms", "eta": float("nan")},
                  {"method": "klms", "eta": float("inf")}],
    )
    def test_non_numeric_hyperparameter_rejected(
        self, tmp_path, capsys, mg_csv, hyper
    ):
        cfg = write_json(tmp_path / "fit.json", {"order_L": 5, **hyper})
        out = tmp_path / "m.npz"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert code == 2
        assert list(hyper)[1] in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("k_neighbors", True), ("alpha", True), ("ridge", True), ("ridge", None),
         ("alpha", float("inf")), ("ridge", float("inf")), ("ridge", float("nan")),
         ("sigma_weight", 1e-300), ("sigma_input", 1e200)],
    )
    def test_bad_fwf_config_value_rejected(
        self, tmp_path, capsys, mg_csv, key, value
    ):
        cfg = write_json(tmp_path / "fit.json", {"method": "fwf", key: value})
        out = tmp_path / "m.npz"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert code == 2
        assert key in stderr
        assert len(stderr.strip().splitlines()) == 1
        assert "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg", [("fit", {"method": "fwf", "seed": 123}), ("tune", {"seed": 1})]
    )
    def test_seed_key_rejected(self, tmp_path, capsys, mg_csv, command, cfg):
        # neither command reads a seed
        out = tmp_path / "out.json"
        code, _, stderr = run(
            capsys, command, "--config", write_json(tmp_path / "c.json", cfg),
            "--series", mg_csv, "--out", str(out),
        )
        assert_one_line_error(code, stderr, "seed")
        assert not out.exists()

    def test_width_too_small_for_the_series(self, tmp_path, capsys):
        # a valid width, but every off-lag correntropy value underflows to 0
        series = tmp_path / "mg400.csv"
        fw.write_series_csv(fw.gen_mackey_glass(fw.MGParams(), 400), series)
        cfg = write_json(tmp_path / "fit.json", {"method": "fwf", "sigma_input": 1e-5})
        out = tmp_path / "m.npz"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", str(series), "--out", str(out)
        )
        assert_one_line_error(code, stderr, "correntropy entries")
        assert not out.exists()


class TestPredict:
    def fit_model(self, tmp_path, capsys, mg_csv):
        cfg = write_json(
            tmp_path / "fit.json",
            {"method": "fwf", "order_L": 10, "horizon": 1,
             "sigma_input": 0.5, "alpha": 0.3},
        )
        model_path = tmp_path / "model.npz"
        code, _, _ = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv,
            "--out", str(model_path),
        )
        assert code == 0
        return model_path

    def test_self_prediction_reproduces_training_mse(
        self, tmp_path, capsys, mg_csv
    ):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        out = tmp_path / "pred.csv"
        code, stdout, _ = run(
            capsys, "predict", "--model", str(model_path), "--series", mg_csv,
            "--out", str(out),
        )
        assert code == 0
        reported = float(
            [l for l in stdout.splitlines() if l.startswith("test MSE")][0].split()[2]
        )
        model = fw.load_model(model_path)
        assert reported == pytest.approx(model.train_mse, rel=1e-12)

    @pytest.mark.parametrize("method", ["wiener", "krr"])
    def test_baseline_model_supplies_its_horizon(self, tmp_path, capsys, method):
        # a model fitted at horizon 0 is scored at horizon 0 by default
        x, z = fw.gen_fir_process([0.3, -0.2, 0.1], 2000, noise_seed=3)
        xp, zp = tmp_path / "x.csv", tmp_path / "z.csv"
        fw.write_series_csv(x, xp)
        fw.write_series_csv(z, zp)
        fit_cfg = write_json(
            tmp_path / "fit.json",
            {"method": method, "order_L": 3, "horizon": 0, "standardize": False},
        )
        model_path = tmp_path / "m.npz"
        code, stdout, _ = run(
            capsys, "fit", "--config", fit_cfg, "--series", str(xp),
            "--desired", str(zp), "--out", str(model_path),
        )
        assert code == 0
        train_line = [l for l in stdout.splitlines() if l.startswith("training MSE")]
        train_mse = float(train_line[0].split()[2])
        pred_cfg = write_json(tmp_path / "pred.json", {"standardize": False})
        code, stdout, _ = run(
            capsys, "predict", "--config", pred_cfg, "--model", str(model_path),
            "--series", str(xp), "--desired", str(zp),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 0
        assert f"over {2000 - 3 + 1} windows" in stdout
        test_line = [l for l in stdout.splitlines() if l.startswith("test MSE")]
        assert float(test_line[0].split()[2]) == train_mse

    def test_output_schema(self, tmp_path, capsys, mg_csv):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        out = tmp_path / "pred.csv"
        run(capsys, "predict", "--model", str(model_path), "--series", mg_csv,
            "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "index,prediction,target,squared_error"
        assert len(lines) == 1 + (300 - 9 - 1)
        i, p, t, e = lines[1].split(",")
        assert int(i) == 0
        assert float(e) == pytest.approx((float(p) - float(t)) ** 2, rel=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path, capsys, mg_csv):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "predict", "--model", str(model_path), "--series", mg_csv,
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_order_mismatch_rejected(self, tmp_path, capsys, mg_csv):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        cfg = write_json(tmp_path / "pred.json", {"order_L": 7})
        code, _, stderr = run(
            capsys, "predict", "--config", cfg, "--model", str(model_path),
            "--series", mg_csv, "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "order_L" in stderr

    @pytest.mark.parametrize("task", [{"horizon": 1.5}, {"k_neighbors": "x"}])
    def test_non_integer_keys_rejected(self, tmp_path, capsys, mg_csv, task):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        cfg = write_json(tmp_path / "pred.json", task)
        out = tmp_path / "p.csv"
        code, _, stderr = run(
            capsys, "predict", "--config", cfg, "--model", str(model_path),
            "--series", mg_csv, "--out", str(out),
        )
        assert code == 2
        assert next(iter(task)) in stderr
        assert not out.exists()

    def test_series_too_short(self, tmp_path, capsys, mg_csv):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        short = tmp_path / "short.csv"
        fw.write_series_csv(fw.Series(np.arange(5, dtype=float)), short)
        code, _, stderr = run(
            capsys, "predict", "--model", str(model_path), "--series", str(short),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("method", ["wiener", "klms", "krls", "krr"])
    def test_k_neighbors_rejected_for_baselines(
        self, tmp_path, capsys, mg_csv, method
    ):
        cfg = write_json(tmp_path / "fit.json", {"method": method, "order_L": 10})
        model_path = tmp_path / "model.npz"
        code, _, _ = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv,
            "--out", str(model_path),
        )
        assert code == 0
        pred_cfg = write_json(tmp_path / "pred.json", {"k_neighbors": 3})
        out = tmp_path / "p.csv"
        code, _, stderr = run(
            capsys, "predict", "--config", pred_cfg, "--model", str(model_path),
            "--series", mg_csv, "--out", str(out),
        )
        assert code == 2
        assert "k_neighbors" in stderr and len(stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_unread_key_rejected(self, tmp_path, capsys, mg_csv):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        cfg = write_json(tmp_path / "pred.json", {"k_neighbour": 7})
        out = tmp_path / "p.csv"
        code, _, stderr = run(
            capsys, "predict", "--config", cfg, "--model", str(model_path),
            "--series", mg_csv, "--out", str(out),
        )
        assert_one_line_error(code, stderr, "k_neighbour")
        assert not out.exists()

    def test_missing_model_file(self, tmp_path, capsys, mg_csv):
        code, _, stderr = run(
            capsys, "predict", "--model", str(tmp_path / "ghost.npz"),
            "--series", mg_csv, "--out", str(tmp_path / "p.csv"),
        )
        assert code == 3
        assert "ghost.npz" in stderr

    def test_invalid_thread_env(self, tmp_path, capsys, mg_csv, monkeypatch):
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        monkeypatch.setenv("FWF_THREADS", "many")
        code, _, stderr = run(
            capsys, "predict", "--model", str(model_path), "--series", mg_csv,
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "FWF_THREADS" in stderr


class TestBench:
    def bench_config(self, tmp_path):
        return write_json(
            tmp_path / "bench.json",
            {
                "dataset": "mackey_glass",
                "train_sizes": [120, 160],
                "folds": 2,
                "test_size": 30,
                "methods": [
                    {"name": "wiener"},
                    {"name": "fwf", "sigma_input": 0.5, "alpha": 0.3},
                ],
                "timing": {
                    "method": "wiener",
                    "sizes": [50, 100, 200],
                    "repeats": 1,
                    "queries": 20,
                },
            },
        )

    def test_artifacts_written(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        out = tmp_path / "bench_out"
        code, stdout, _ = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert code == 0
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "method,n_train,fold,mse,fit_seconds,predict_us_per_query"
        assert len(results) == 1 + 2 * 2 * 2
        assert (out / "timing.csv").exists()
        assert (out / "config.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert {c["method"] for c in summary["results"]} == {"fwf", "wiener"}
        assert summary["timing"]["method"] == "wiener"
        assert "wrote 8 result rows" in stdout

    def test_mse_column_reproducible(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        mse_cols = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code, _, _ = run(capsys, "bench", "--config", cfg, "--out", str(out))
            assert code == 0
            rows = (out / "results.csv").read_text().splitlines()[1:]
            mse_cols.append([r.split(",")[:4] for r in rows])
        assert mse_cols[0] == mse_cols[1]

    def test_unknown_method_listed(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "fir", "methods": [{"name": "lstm"}]},
        )
        code, _, stderr = run(
            capsys, "bench", "--config", cfg, "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert "krls" in stderr

    def test_short_timing_sizes_rejected_before_running(self, tmp_path, capsys):
        # with no timing block the sweep reuses train_sizes, which is too short
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120], "folds": 2,
             "test_size": 30, "methods": [{"name": "wiener"}]},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert code == 2
        assert "sizes" in stderr
        assert not (out / "results.csv").exists()

    def test_unknown_timing_method_rejected_before_running(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30, "methods": [{"name": "wiener"}],
             "timing": {"method": "lstm", "sizes": [50, 100, 200]}},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert code == 2
        assert "lstm" in stderr
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "timing", [{"bogus": 1}, {"repeats": "x"}, {"queries": 2.5},
                   {"sizes": [50, "100", 200]}],
    )
    def test_bad_timing_block_rejected_before_running(self, tmp_path, capsys, timing):
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30, "methods": [{"name": "wiener"}],
             "timing": {"sizes": [50, 100, 200], **timing}},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert code == 2
        assert next(iter(timing)) in stderr
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "bad", [{"train_sizes": 5}, {"methods": [1]}, {"methods": "fwf"}],
    )
    def test_bad_container_types_rejected(self, tmp_path, capsys, bad):
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30, "methods": [{"name": "wiener"}], **bad},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert code == 2
        assert next(iter(bad)) in stderr
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "dataset,params,key",
        BAD_GENERATOR_KEYS + [("mackey_glass", 5, "generator"),
                              ("mackey_glass", {"n": "x"}, "n")],
    )
    def test_bad_generator_block(self, tmp_path, capsys, dataset, params, key):
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": dataset, "generator": params, "train_sizes": [120, 160],
             "folds": 2, "test_size": 30, "methods": [{"name": "wiener"}],
             "timing": {"sizes": [50, 100, 200]}},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert_one_line_error(code, stderr, key)
        assert not out.exists()

    def test_every_method_checked_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # a bad hyperparameter in a later method stops the run before the
        # earlier methods fit at any size
        fits = []
        krls_fit = baselines.krls_fit
        monkeypatch.setattr(
            baselines, "krls_fit", lambda d, **kw: fits.append(1) or krls_fit(d, **kw)
        )
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30,
             "methods": [{"name": "krls", "sigma": 1.0},
                         {"name": "wiener", "ridge": "x"}],
             "timing": {"sizes": [50, 100, 200], "repeats": 1, "queries": 20}},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert_one_line_error(code, stderr, "ridge")
        assert fits == []
        assert not out.exists()

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bench.json", {"dataset": "fir", "optimizer": "adam"}
        )
        code, _, stderr = run(
            capsys, "bench", "--config", cfg, "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert "optimizer" in stderr


class TestTune:
    def test_singleton_grid(self, tmp_path, capsys, mg_csv):
        cfg = write_json(
            tmp_path / "tune.json",
            {"order_L": 10, "sigma_input": 0.5, "grid": [0.445]},
        )
        code, stdout, _ = run(capsys, "tune", "--config", cfg, "--series", mg_csv)
        assert code == 0
        line = [l for l in stdout.splitlines() if l.startswith("alpha")][0]
        assert float(line.split()[1]) == 0.445

    def test_json_output(self, tmp_path, capsys, mg_csv):
        cfg = write_json(
            tmp_path / "tune.json",
            {"order_L": 10, "sigma_input": 0.5, "grid": [0.2, 0.4]},
        )
        out = tmp_path / "alpha.json"
        code, _, _ = run(
            capsys, "tune", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["alpha"] in (0.2, 0.4)

    @pytest.mark.parametrize(
        "grid", [[True, 0.5], ["x"], 5, [[0.1]], [float("inf"), 0.5]]
    )
    def test_bad_grid_rejected(self, tmp_path, capsys, mg_csv, grid):
        cfg = write_json(tmp_path / "tune.json", {"order_L": 10, "grid": grid})
        out = tmp_path / "alpha.json"
        code, _, stderr = run(
            capsys, "tune", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert_one_line_error(code, stderr, "grid")
        assert "Traceback" not in stderr
        assert not out.exists()


def test_import_skips_unused_scipy_subpackages():
    # fwfilter calls scipy.linalg and scipy.spatial only
    unused = {
        "scipy." + m
        for m in ("signal", "stats", "optimize", "interpolate", "integrate", "fft",
                  "ndimage")
    }
    # a fresh interpreter on the same fwfilter the tests import
    env = {**os.environ, "PYTHONPATH": str(Path(fw.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fwfilter.cli; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert "fwfilter.cli" in out.stdout.split()
    assert unused.isdisjoint(out.stdout.split())
