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
# valid values of removed generator keys: the fir noise is seeded by the task
# seed alone
REMOVED_GENERATOR_KEYS = [("fir", {"noise_seed": 3}, "noise_seed")]


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
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for out, seed in ((a, 5), (b, 5), (c, 6)):
            cfg = write_json(
                tmp_path / "gen.json", {"dataset": "fir", "n": 50, "seed": seed}
            )
            code, _, _ = run(capsys, "generate", "--config", cfg, "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_seed_flag_removed(self, tmp_path, capsys, command):
        # the config's seed is the one seed
        cfg = write_json(tmp_path / "c.json", {"dataset": "fir", "n": 50, "seed": 5})
        out = tmp_path / "o.csv"
        code, stdout, stderr = run(
            capsys, command, "--config", cfg, "--out", str(out), "--seed", "6"
        )
        assert_one_line_error(code, stderr, "unrecognized arguments: --seed 6")
        assert stdout == "" and list(tmp_path.iterdir()) == [tmp_path / "c.json"]

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

    @pytest.mark.parametrize(
        "dataset,params,key", BAD_GENERATOR_KEYS + REMOVED_GENERATOR_KEYS
    )
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
         ({"dataset": "fir", "n": 100.0}, "n"),
         # sample counts past np.intp fail before anything is allocated
         ({"dataset": "mackey_glass", "n": 10**23}, "too long"),
         ({"dataset": "fir", "n": 10**23}, "too long"),
         ({"dataset": "lorenz", "n": 10, "warmup": 10**23}, "too long"),
         ({"dataset": "mackey_glass", "n": 10, "downsample": 10**400}, "too long")],
    )
    def test_bad_top_level_key(self, tmp_path, capsys, cfg, key):
        path = write_json(tmp_path / "gen.json", cfg)
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "generate", "--config", path, "--out", str(out))
        assert_one_line_error(code, stderr, key)
        assert not out.exists()

    def test_integer_over_the_digit_limit(self, tmp_path, capsys):
        # json refuses integers of more than 4300 digits with a ValueError
        path = tmp_path / "gen.json"
        path.write_text('{"dataset": "fir", "n": %s}' % ("1" * 5000))
        code, _, stderr = run(
            capsys, "generate", "--config", str(path), "--out", str(tmp_path / "x.csv")
        )
        assert_one_line_error(code, stderr, "JSON")

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

    @pytest.mark.parametrize(
        "method",
        [{"method": "klms", "eta": 2.0, "sigma": 1.0},
         {"method": "fwf", "sigma_input": 1.0, "alpha": 0.5}],
        ids=["klms", "fwf"],
    )
    def test_non_finite_fit_exits_3(self, tmp_path, capsys, method):
        # one desired sample near the double limit makes the KLMS
        # coefficients and the fwf training MSE overflow
        x = np.random.default_rng(6).standard_normal(300)
        z = x.copy()
        z[150] = 1.5e308
        xp, zp = tmp_path / "x.csv", tmp_path / "z.csv"
        fw.write_series_csv(fw.Series(x), xp)
        fw.write_series_csv(fw.Series(z), zp)
        cfg = write_json(
            tmp_path / "fit.json",
            {**method, "order_L": 3, "horizon": 0, "standardize": False},
        )
        out = tmp_path / "m.npz"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", str(xp), "--desired",
            str(zp), "--out", str(out),
        )
        assert code == 3
        assert "not finite" in stderr and len(stderr.splitlines()) == 1
        assert not out.exists()

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
        # krr was a second name of the krls fit
        for method in ("arima", "krr"):
            cfg = write_json(tmp_path / "fit.json", {"method": method})
            out = tmp_path / "m.npz"
            code, _, stderr = run(
                capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out)
            )
            assert_one_line_error(code, stderr, method)
            assert "fwf" in stderr  # valid methods listed
            assert not out.exists()

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
        [("fit", "m.npz"), ("predict", "p.csv")],
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
                  {"method": "klms", "eta": float("inf")},
                  # integers past the double range, and KLMS steps that diverge
                  {"method": "fwf", "alpha": 10**400},
                  {"method": "fwf", "sigma_input": -(10**400)},
                  {"method": "wiener", "ridge": 10**400},
                  {"method": "klms", "eta": 10**400},
                  {"method": "klms", "eta": 5}, {"method": "klms", "eta": 2.1}],
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
         ("sigma_weight", 1e-300), ("sigma_input", 1e200),
         # one width serves both kernels; a second one only rescaled alpha
         ("sigma_weight", 0.5)],
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
        "command, cfg", [("fit", {"method": "fwf", "seed": 123})]
    )
    def test_seed_key_rejected(self, tmp_path, capsys, mg_csv, command, cfg):
        # fit reads no seed
        out = tmp_path / "out.json"
        code, _, stderr = run(
            capsys, command, "--config", write_json(tmp_path / "c.json", cfg),
            "--series", mg_csv, "--out", str(out),
        )
        assert_one_line_error(code, stderr, "seed")
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, code, key",
        [({"method": "wiener"}, 3, "too large"), ({"method": "krls"}, 3, "too large"),
         ({"method": "fwf"}, 3, "desired signal"),
         ({"method": "fwf", "sigma_input": 1.0}, 2, "kernel width")],
        ids=["wiener", "krls", "fwf", "fwf-width-set"],
    )
    def test_desired_signal_near_the_double_limit(
        self, tmp_path, capsys, method, code, key
    ):
        # a white input against a desired signal of +-1e307: a data error,
        # unless a width the config sets is what fails
        rng = np.random.default_rng(0)
        x = rng.standard_normal(300)
        z = np.where(rng.standard_normal(300) > 0, 1e307, -1e307)
        xp, zp = tmp_path / "x.csv", tmp_path / "z.csv"
        fw.write_series_csv(fw.Series(x), xp)
        fw.write_series_csv(fw.Series(z), zp)
        cfg = write_json(
            tmp_path / "fit.json",
            {**method, "order_L": 3, "horizon": 0, "standardize": False},
        )
        out = tmp_path / "m.npz"
        got, stdout, stderr = run(
            capsys, "fit", "--config", cfg, "--series", str(xp), "--desired",
            str(zp), "--out", str(out),
        )
        assert got == code and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert key in stderr
        assert not out.exists()

    @pytest.mark.parametrize("method", ["klms", "krls", "fwf"])
    @pytest.mark.parametrize(
        "standardize, scale, message",
        [(False, 1e-160, "too small for Silverman's rule"),
         (False, 1e-170, "too small for Silverman's rule"),
         (False, 1e153, "too large for Silverman's rule"),
         (True, 1e-170, "too small for standardization"),
         (True, 1e153, "too large for standardization")],
    )
    def test_series_scale_out_of_range(
        self, tmp_path, capsys, method, standardize, scale, message
    ):
        # a series too small or too large for its std: exit 3, not a width error
        series = tmp_path / "x.csv"
        x = np.random.default_rng(0).standard_normal(300) * scale
        fw.write_series_csv(fw.Series(x), series)
        cfg = write_json(
            tmp_path / "fit.json",
            {"method": method, "order_L": 3, "standardize": standardize},
        )
        out = tmp_path / "m.npz"
        code, stdout, stderr = run(
            capsys, "fit", "--config", cfg, "--series", str(series), "--out", str(out)
        )
        assert code == 3 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert message in stderr
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

    def test_squared_error_past_the_double_range(self, tmp_path, capsys):
        # a klms model of a white input against a desired signal of +-1e307:
        # fit and predict both score it inf and exit 0, with no warning
        rng = np.random.default_rng(0)
        x = rng.standard_normal(300)
        z = np.where(rng.standard_normal(300) > 0, 1e307, -1e307)
        xp, zp = tmp_path / "x.csv", tmp_path / "z.csv"
        fw.write_series_csv(fw.Series(x), xp)
        fw.write_series_csv(fw.Series(z), zp)
        series = ("--series", str(xp), "--desired", str(zp))
        fit_cfg = write_json(
            tmp_path / "fit.json",
            {"method": "klms", "order_L": 3, "horizon": 0, "standardize": False},
        )
        model_path = tmp_path / "m.npz"
        code, stdout, stderr = run(
            capsys, "fit", "--config", fit_cfg, *series, "--out", str(model_path)
        )
        assert (code, stderr) == (0, "") and "training MSE inf\n" in stdout
        pred_cfg = write_json(tmp_path / "pred.json", {"standardize": False})
        out = tmp_path / "pred.csv"
        code, stdout, stderr = run(
            capsys, "predict", "--config", pred_cfg, "--model", str(model_path),
            *series, "--out", str(out),
        )
        assert (code, stderr) == (0, "")
        assert "test MSE inf over 298 windows\n" in stdout
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 298 and {r[3] for r in rows} == {"inf"}

    @pytest.mark.parametrize("method", ["wiener", "fwf", "klms"])
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
        # the model file, not the config, sets L and the horizon: a data fault
        assert code == 3
        assert stderr == ("error: series of length 5 too short for the model "
                          "file's L=10, horizon=1\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("method", ["wiener", "klms", "krls"])
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
        # the model file sets the order, horizon and K; the config names
        # none of them, not even at the model's own values
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        for key, value in [("k_neighbour", 7), ("horizon", 8), ("k_neighbors", 3),
                           ("order_L", 10), ("horizon", 1)]:
            cfg = write_json(tmp_path / "pred.json", {key: value})
            out = tmp_path / "p.csv"
            code, _, stderr = run(
                capsys, "predict", "--config", cfg, "--model", str(model_path),
                "--series", mg_csv, "--out", str(out),
            )
            assert_one_line_error(code, stderr, key)
            assert not out.exists() and not (tmp_path / "p.config.json").exists()

    def test_echoed_config_round_trips(self, tmp_path, capsys, mg_csv):
        # the echo holds only keys predict accepts, so it can be fed back
        model_path = self.fit_model(tmp_path, capsys, mg_csv)
        args = ("--model", str(model_path), "--series", mg_csv)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "predict", *args, "--out", str(first))[0] == 0
        echo = tmp_path / "a.config.json"
        assert json.loads(echo.read_text()) == {"standardize": True}
        code, _, _ = run(
            capsys, "predict", "--config", str(echo), *args, "--out", str(second)
        )
        assert code == 0
        assert second.read_bytes() == first.read_bytes()

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

    def test_dotted_directory(self, tmp_path, capsys):
        # --out is the directory whatever it is called; the echo goes inside
        cfg = self.bench_config(tmp_path)
        d = tmp_path / "out"
        d.mkdir()
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(d / "res.v1"))
        assert (code, stderr) == (0, "")
        assert [p.name for p in d.iterdir()] == ["res.v1"]
        assert sorted(p.name for p in (d / "res.v1").iterdir()) == [
            "config.json", "results.csv", "summary.json", "timing.csv"]
        assert json.loads((d / "res.v1" / "config.json").read_text())["folds"] == 2

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
        # krr was a second name of the krls fit
        for method in ("lstm", "krr"):
            cfg = write_json(
                tmp_path / "bench.json",
                {"dataset": "fir", "methods": [{"name": method}]},
            )
            out = tmp_path / "o"
            code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
            assert_one_line_error(code, stderr, method)
            assert "krls" in stderr
            assert not out.exists()

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
                              ("mackey_glass", {"n": "x"}, "n")]
        + REMOVED_GENERATOR_KEYS
        # train_sizes, folds and test_size set the sample count; generate's
        # n is its top-level count, so this case is bench's alone
        + [("mackey_glass", {"n": 5000}, "n")],
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
        # a bad hyperparameter in a later method, a divergent KLMS step
        # included, stops the run before the earlier methods fit at any size
        fits = []
        krls_fit = baselines.krls_fit
        monkeypatch.setattr(
            baselines, "krls_fit", lambda d, **kw: fits.append(1) or krls_fit(d, **kw)
        )
        for bad in ({"name": "wiener", "ridge": "x"}, {"name": "klms", "eta": 6}):
            cfg = write_json(
                tmp_path / "bench.json",
                {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
                 "test_size": 30, "methods": [{"name": "krls", "sigma": 1.0}, bad],
                 "timing": {"sizes": [50, 100, 200], "repeats": 1, "queries": 20}},
            )
            out = tmp_path / "o"
            code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
            assert_one_line_error(code, stderr, list(bad)[1])
            assert fits == []
            assert not out.exists()

    @pytest.mark.parametrize("key", ["test_size", "folds"])
    def test_sample_count_beyond_any_array(self, tmp_path, capsys, key):
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30, "methods": [{"name": "wiener"}],
             "timing": {"sizes": [50, 100, 200]}, key: 10**23},
        )
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert_one_line_error(code, stderr, "too long")
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, sizes, code, key",
        [({"name": "wiener"}, [50, 100, 10**23], 2, "too long"),
         ({"name": "krls", "lam": 0, "sigma": 5}, [50, 100, 200], 3,
          "positive definite")],
    )
    def test_sweep_failure_writes_nothing(
        self, tmp_path, capsys, method, sizes, code, key
    ):
        # the sweep runs after the experiment; neither writes a file
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30, "methods": [method],
             "timing": {"sizes": sizes, "repeats": 1, "queries": 20}},
        )
        out = tmp_path / "o"
        got, _, stderr = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert got == code
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert key in stderr
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
    """Picking alpha over a grid: ``fwf fit`` with a list ``alpha``.  The
    pinned values are what the removed ``fwf tune`` printed for the same
    series and keys, with ``grid`` for ``alpha``."""

    def fit(self, tmp_path, capsys, mg_csv, cfg):
        """Run ``fwf fit`` on ``cfg`` and return the exit code, stdout and
        the model path."""
        out = tmp_path / "m.npz"
        code, stdout, _ = run(
            capsys, "fit", "--config", write_json(tmp_path / "fit.json", cfg),
            "--series", mg_csv, "--out", str(out),
        )
        return code, stdout, out

    def test_singleton_grid(self, tmp_path, capsys, mg_csv):
        code, stdout, out = self.fit(
            tmp_path, capsys, mg_csv,
            {"method": "fwf", "order_L": 10, "sigma_input": 0.5, "alpha": [0.445]},
        )
        assert code == 0
        assert "alpha 0.44500000000000001" in stdout.splitlines()
        model = fw.load_model(out)
        assert model.alpha == 0.445 and model.config.alpha == (0.445,)

    def test_json_output(self, tmp_path, capsys, mg_csv):
        # the echoed config keeps the grid; the model file holds the pick
        grid = [0.3, 0.05, 0.15, 0.1, 0.2]
        code, stdout, out = self.fit(
            tmp_path, capsys, mg_csv,
            {"method": "fwf", "order_L": 10, "sigma_input": 0.5, "alpha": grid},
        )
        assert code == 0
        assert "alpha 0.14999999999999999" in stdout.splitlines()
        echo = json.loads((tmp_path / "m.config.json").read_text())
        assert echo["alpha"] == grid
        model = fw.load_model(out)
        assert model.alpha == 0.15 and model.config.alpha == tuple(grid)

    @pytest.mark.parametrize(
        "hyper, line",
        [({"sigma_input": 0.5}, "alpha 0.14927768649036882"),
         ({}, "alpha 0.062851627670932358"),
         ({"sigma_input": 0.5, "alpha": 0.3}, "alpha 0.29999999999999999")],
        ids=["auto", "auto-silverman", "fixed"],
    )
    def test_alpha_printed(self, tmp_path, capsys, mg_csv, hyper, line):
        code, stdout, _ = self.fit(
            tmp_path, capsys, mg_csv, {"method": "fwf", "order_L": 10, **hyper}
        )
        assert code == 0
        assert line in stdout.splitlines()

    def test_tune_command_removed(self, tmp_path, capsys, mg_csv):
        cfg = write_json(tmp_path / "tune.json", {"order_L": 10, "grid": [0.2]})
        code, _, stderr = run(capsys, "tune", "--config", cfg, "--series", mg_csv)
        assert_one_line_error(code, stderr, "invalid choice: 'tune'")

    @pytest.mark.parametrize(
        "grid",
        [[True, 0.5], ["x"], "5", [[0.1]], [float("inf"), 0.5], [], [0.5, -0.1],
         ["auto", 0.2], [10**400], {"a": 0.2}],
    )
    def test_bad_grid_rejected(self, tmp_path, capsys, mg_csv, grid):
        # a quoted number is not a number; a bare 5 is a valid alpha
        cfg = write_json(
            tmp_path / "fit.json", {"method": "fwf", "order_L": 10, "alpha": grid}
        )
        out = tmp_path / "m.npz"
        code, _, stderr = run(
            capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out)
        )
        assert_one_line_error(code, stderr, "alpha")
        assert "Traceback" not in stderr
        assert not out.exists()

    def test_bench_grid_in_experiment_and_sweep(self, tmp_path, capsys):
        # a grid alpha reaches the cross-validated fits and the timing sweep
        # through the same method entry
        fwf = {"name": "fwf", "sigma_input": 0.5, "alpha": [0.4, 0.2]}
        cfg = write_json(
            tmp_path / "bench.json",
            {"dataset": "mackey_glass", "train_sizes": [120, 160], "folds": 2,
             "test_size": 30, "methods": [fwf],
             "timing": {"method": "fwf", "sizes": [50, 100, 200], "repeats": 1,
                        "queries": 20}},
        )
        out = tmp_path / "o"
        code, stdout, _ = run(capsys, "bench", "--config", cfg, "--out", str(out))
        assert code == 0 and "(0 errored cells)" in stdout
        assert len((out / "results.csv").read_text().splitlines()) == 1 + 2 * 2
        assert len((out / "timing.csv").read_text().splitlines()) == 1 + 3
        echo = json.loads((out / "config.json").read_text())
        assert echo["methods"] == [fwf]


class TestOutputPaths:
    """``generate``, ``fit`` and ``predict`` write exactly ``--out`` and echo
    to ``<out-stem>.config.json`` beside it, whatever the name holds."""

    def out_dir(self, tmp_path):
        d = tmp_path / "out"
        d.mkdir()
        return d

    def fit(self, tmp_path, capsys, mg_csv, out):
        cfg = write_json(tmp_path / "fit.json", {"method": "wiener", "order_L": 5})
        return run(capsys, "fit", "--config", cfg, "--series", mg_csv, "--out", str(out))

    @pytest.mark.parametrize("command", ["generate", "fit", "predict"])
    def test_suffixless_out(self, tmp_path, capsys, mg_csv, command):
        d = self.out_dir(tmp_path)
        out = d / "series"
        if command == "generate":
            cfg = write_json(tmp_path / "gen.json", {"dataset": "mackey_glass", "n": 50})
            code, _, stderr = run(capsys, "generate", "--config", cfg, "--out", str(out))
        elif command == "fit":
            code, _, stderr = self.fit(tmp_path, capsys, mg_csv, out)
        else:
            assert self.fit(tmp_path, capsys, mg_csv, tmp_path / "m.npz")[0] == 0
            code, _, stderr = run(capsys, "predict", "--model", str(tmp_path / "m.npz"),
                                  "--series", mg_csv, "--out", str(out))
        assert (code, stderr) == (0, "")
        assert sorted(p.name for p in d.iterdir()) == ["series", "series.config.json"]
        assert out.is_file()
        if command == "fit":
            assert fw.load_model(out).kind == "wiener"

    def test_fit_out_is_the_model_path(self, tmp_path, capsys, mg_csv):
        # no .npz twin: predict reads the model at the fit's exact --out
        d = self.out_dir(tmp_path)
        assert self.fit(tmp_path, capsys, mg_csv, d / "m.bin")[0] == 0
        assert sorted(p.name for p in d.iterdir()) == ["m.bin", "m.config.json"]
        code, stdout, stderr = run(capsys, "predict", "--model", str(d / "m.bin"),
                                   "--series", mg_csv, "--out", str(d / "p.csv"))
        assert (code, stderr) == (0, "") and "test MSE" in stdout
        assert sorted(p.name for p in d.iterdir()) == [
            "m.bin", "m.config.json", "p.config.json", "p.csv"]


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
