import json

import numpy as np
import pytest

import fwfilter as fw
from fwfilter import evalbench
from fwfilter.errors import DataError
from fwfilter.model_io import FORMAT_VERSION


@pytest.fixture(scope="module")
def fir_data():
    x, z = fw.gen_fir_process([0.4, 0.2], 400, noise_seed=21)
    return fw.embed_pair(x, z, 3, 0)


class TestFwfRoundtrip:
    def test_predictions_identical(self, fir_data, tmp_path, rng):
        cfg = fw.FwfConfig(order_L=3, sigma_input=0.8, alpha=0.4, horizon=0)
        m = fw.fit(fir_data, cfg)
        path = tmp_path / "model.npz"
        fw.save_model(m, path)
        back = fw.load_model(path)
        X = rng.standard_normal((50, 3))
        np.testing.assert_array_equal(
            fw.predict_batch(m, X), fw.predict_batch(back, X)
        )

    def test_fields_survive(self, fir_data, tmp_path):
        cfg = fw.FwfConfig(order_L=3, sigma_input=0.8, alpha=0.4, horizon=0)
        m = fw.fit(fir_data, cfg)
        path = tmp_path / "model.npz"
        fw.save_model(m, path)
        back = fw.load_model(path)
        assert isinstance(back, fw.FwfModel)
        assert back.config == cfg
        assert back.alpha == m.alpha and back.bias == m.bias
        assert back.ridge == m.ridge and back.train_mse == m.train_mse
        assert back.sigma_input == m.sigma_input
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.partners, m.partners)
        assert len(back.neighbor_index) == m.n_train

    def test_suffixless_path_round_trips(self, fir_data, tmp_path, rng):
        # the file is written at exactly the given path, with no .npz added
        cfg = fw.FwfConfig(order_L=3, sigma_input=0.8, alpha=0.4, horizon=0)
        m = fw.fit(fir_data, cfg)
        path = tmp_path / "wm"
        fw.save_model(m, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wm"]
        back = fw.load_model(path)
        for name in ("weights", "partners", "train_windows", "train_targets"):
            assert getattr(back, name).tobytes() == getattr(m, name).tobytes()
        assert (back.alpha, back.bias, back.train_mse) == (m.alpha, m.bias, m.train_mse)
        X = rng.standard_normal((50, 3))
        assert fw.predict_batch(back, X).tobytes() == fw.predict_batch(m, X).tobytes()

    def test_grid_config_round_trips(self, fir_data, tmp_path, rng):
        # the file holds the grid as a JSON list; it loads back as a tuple
        cfg = fw.FwfConfig(order_L=3, sigma_input=0.8, alpha=[0.8, 0.05, 0.2, 0.4],
                           horizon=0)
        m = fw.fit(fir_data, cfg)
        path = tmp_path / "model.npz"
        fw.save_model(m, path)
        with np.load(path) as f:
            assert json.loads(str(f["meta"]))["config"]["alpha"] == [0.8, 0.05, 0.2, 0.4]
        back = fw.load_model(path)
        assert back.config == cfg and back.config.alpha == (0.8, 0.05, 0.2, 0.4)
        assert back.alpha == m.alpha and back.bias == m.bias
        X = rng.standard_normal((50, 3))
        assert fw.predict_batch(back, X).tobytes() == fw.predict_batch(m, X).tobytes()


class TestBaselineRoundtrips:
    def test_wiener(self, fir_data, tmp_path, rng):
        m = fw.wiener_fit(fir_data)
        path = tmp_path / "w.npz"
        fw.save_model(m, path)
        back = fw.load_model(path)
        assert isinstance(back, fw.WienerModel)
        X = rng.standard_normal((20, 3))
        np.testing.assert_array_equal(
            fw.wiener_predict(m, X), fw.wiener_predict(back, X)
        )

    @pytest.mark.parametrize(
        "fit_fn", [fw.klms_fit, fw.krls_fit, fw.krr_fit],
        ids=["klms_fit", "krls_fit", "krr_fit"],
    )
    def test_kernel_models(self, fir_data, tmp_path, rng, fit_fn):
        m = fit_fn(fir_data, sigma=0.7)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        back = fw.load_model(path)
        assert isinstance(back, fw.KafModel)
        assert back.variant == m.variant
        assert back.sigma == m.sigma
        X = rng.standard_normal((20, 3))
        np.testing.assert_array_equal(fw.kaf_predict(m, X), fw.kaf_predict(back, X))


# the module-level batch predict each model kind's predict() delegates to
MODULE_PREDICT = {
    "fwf": fw.predict_batch,
    "wiener": fw.wiener_predict,
    "klms": fw.kaf_predict,
    "krls": fw.kaf_predict,
    "krr": fw.kaf_predict,
}
HYPER = {"fwf": {"sigma_input": 0.8, "alpha": 0.4}, "wiener": {}}
# every method, and krr_fit, the old name of krls_fit that stays public
NAMES = (*evalbench.METHODS, "krr")


def fit(name, data, horizon=0):
    if name == "krr":
        return fw.krr_fit(data, sigma=0.7)
    return evalbench.make_fitter(name, HYPER.get(name, {"sigma": 0.7}), 3, horizon)(data)


class TestProtocolRoundtrip:
    @pytest.mark.parametrize("name", NAMES)
    def test_order_and_predict_survive(self, fir_data, tmp_path, rng, name):
        m = fit(name, fir_data)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        back = fw.load_model(path)
        X = rng.standard_normal((20, 3))
        expected = MODULE_PREDICT[name](m, X).tobytes()
        for model in (m, back):
            assert model.order_L == 3
            assert model.predict(X).tobytes() == expected
            assert MODULE_PREDICT[name](model, X).tobytes() == expected


# member names and meta keys of each kind, in file order
LAYOUT = {
    "fwf": (["weights", "partners", "train_windows", "train_targets"],
            ["config", "sigma_input", "alpha", "ridge", "bias", "train_mse"]),
    "wiener": (["weights"], ["horizon"]),
    **{k: (["centers", "coefficients"], ["sigma", "horizon"])
       for k in ("klms", "krls")},
}
# the kind each method's models save as; krr is the krls fit
KIND = {**{name: name for name in NAMES}, "krr": "krls"}


def read_npz(path):
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


class TestEnvelope:
    @pytest.mark.parametrize("name", NAMES)
    def test_layout(self, fir_data, tmp_path, name):
        m = fit(name, fir_data)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        data = read_npz(path)
        arrays, scalars = LAYOUT[KIND[name]]
        assert list(data) == ["format_version", "kind", *arrays, "meta"]
        assert int(data["format_version"]) == FORMAT_VERSION == 1
        assert str(data["kind"]) == m.kind == KIND[name]
        assert list(json.loads(str(data["meta"]))) == scalars

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("horizon", [0, 3])
    def test_horizon_survives(self, tmp_path, name, horizon):
        x, z = fw.gen_fir_process([0.4, 0.2], 200, noise_seed=5)
        data = fw.embed_pair(x, z, 3, horizon)
        m = fit(name, data, horizon)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        assert m.horizon == fw.load_model(path).horizon == horizon

    @pytest.mark.parametrize("name", ["wiener", "klms"])
    def test_baseline_file_without_horizon_serves_horizon_1(
        self, fir_data, tmp_path, rng, name
    ):
        m = fit(name, fir_data)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        data = read_npz(path)
        meta = json.loads(str(data["meta"]))
        del meta["horizon"]
        np.savez(path, **{**data, "meta": json.dumps(meta)})
        back = fw.load_model(path)
        assert back.horizon == 1
        X = rng.standard_normal((20, 3))
        assert back.predict(X).tobytes() == m.predict(X).tobytes()

    def test_fwf_file_with_sigma_weight_loads(self, fir_data, tmp_path, rng):
        # files from before sigma_weight was removed carry it in the config
        # and the scalars; their stored partners already apply it
        cfg = fw.FwfConfig(order_L=3, sigma_input=0.8, alpha=0.4, horizon=0)
        m = fw.fit(fir_data, cfg)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        data = read_npz(path)
        meta = json.loads(str(data["meta"]))
        meta["config"]["sigma_weight"] = meta["sigma_weight"] = 0.3
        np.savez(path, **{**data, "meta": json.dumps(meta)})
        back = fw.load_model(path)
        assert back.config == cfg
        X = rng.standard_normal((20, 3))
        assert back.predict(X).tobytes() == m.predict(X).tobytes()

    def test_krr_file_loads_as_krls(self, fir_data, tmp_path, rng):
        m = fw.krls_fit(fir_data, sigma=0.7)
        path = tmp_path / "m.npz"
        fw.save_model(m, path)
        np.savez(path, **{**read_npz(path), "kind": "krr"})
        back = fw.load_model(path)
        assert back.kind == "krls"
        X = rng.standard_normal((20, 3))
        assert back.predict(X).tobytes() == m.predict(X).tobytes()


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            fw.load_model(tmp_path / "absent.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("this is not an npz archive")
        with pytest.raises(DataError):
            fw.load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, format_version=FORMAT_VERSION + 1, kind="wiener",
                 weights=np.ones(3), meta=json.dumps({}))
        with pytest.raises(DataError, match="version"):
            fw.load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.npz"
        np.savez(path, format_version=FORMAT_VERSION, kind="particle",
                 weights=np.ones(3), meta=json.dumps({}))
        with pytest.raises(DataError, match="kind"):
            fw.load_model(path)

    @pytest.mark.parametrize("corrupt", ["config_key", "missing_bias", "config_type"])
    def test_malformed_fwf_meta(self, fir_data, tmp_path, corrupt):
        cfg = fw.FwfConfig(order_L=3, sigma_input=0.8, alpha=0.4, horizon=0)
        path = tmp_path / "model.npz"
        fw.save_model(fw.fit(fir_data, cfg), path)
        with np.load(path) as f:
            data = {k: f[k] for k in f.files}
        meta = json.loads(str(data["meta"]))
        if corrupt == "config_key":
            meta["config"]["momentum"] = 1.0
        elif corrupt == "config_type":
            meta["config"] = "fwf"
        else:
            del meta["bias"]
        np.savez(path, **{**data, "meta": json.dumps(meta)})
        with pytest.raises(DataError, match="malformed"):
            fw.load_model(path)

    @pytest.mark.parametrize("horizon", [1.5, "2", None])
    def test_malformed_horizon(self, fir_data, tmp_path, horizon):
        path = tmp_path / "w.npz"
        fw.save_model(fw.wiener_fit(fir_data), path)
        data = read_npz(path)
        np.savez(path, **{**data, "meta": json.dumps({"horizon": horizon})})
        with pytest.raises(DataError, match="malformed"):
            fw.load_model(path)

    def test_unserializable_object(self, tmp_path):
        with pytest.raises(DataError):
            fw.save_model({"weights": [1.0]}, tmp_path / "x.npz")
