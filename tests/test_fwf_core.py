import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import hilbert
from scipy.spatial.distance import cdist

import fwfilter as fw
import oracles
from fwfilter import fwf_core, neighbors
from fwfilter.errors import ConditioningError, DataError, DimensionError, ParameterError


@pytest.fixture(scope="module")
def small_data(mg_series):
    s = fw.Series(mg_series.values[:600])
    return fw.embed(s, 10, 1)


@pytest.fixture(scope="module")
def small_model(small_data):
    cfg = fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=0.3)
    return fw.fit(small_data, cfg)


class TestFwfConfig:
    def test_defaults(self):
        cfg = fw.FwfConfig(order_L=10)
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "order_L", "sigma_input", "alpha", "k_neighbors", "ridge", "horizon"
        ]
        assert cfg.sigma_input is None
        assert cfg.alpha == "auto" and cfg.ridge == "auto"
        assert cfg.k_neighbors == 2 and cfg.horizon == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"order_L": 0},
            {"order_L": 10, "k_neighbors": 0},
            {"order_L": 10, "horizon": -1},
            {"order_L": 10, "alpha": 0.0},
            {"order_L": 10, "alpha": -0.5},
            {"order_L": 10, "alpha": "grid"},
            {"order_L": 10, "ridge": -1e-9},
            {"order_L": 10, "ridge": "tiny"},
            {"order_L": True},
            {"order_L": 10.0},
            {"order_L": 10, "k_neighbors": True},
            {"order_L": 10, "horizon": True},
            {"order_L": 10, "horizon": "1"},
            {"order_L": 10, "alpha": True},
            {"order_L": 10, "alpha": float("nan")},
            {"order_L": 10, "alpha": float("inf")},
            {"order_L": 10, "ridge": True},
            {"order_L": 10, "ridge": None},
            {"order_L": 10, "ridge": float("nan")},
            {"order_L": 10, "sigma_input": "x"},
            {"order_L": 10, "sigma_input": -1.0},
            # alpha grids; TestTuneAlpha has the empty and negative ones
            {"order_L": 10, "alpha": ["auto", 0.2]},
            {"order_L": 10, "alpha": [True]},
            {"order_L": 10, "alpha": [float("inf")]},
            {"order_L": 10, "alpha": (0.2, float("nan"))},
            {"order_L": 10, "alpha": [10**400]},
            {"order_L": 10, "alpha": [[0.1]]},
            # arrays: a 1-d alpha is a grid with the list's checks, and
            # nothing else takes an array
            {"order_L": 10, "alpha": np.array([])},
            {"order_L": 10, "alpha": np.array([0.5, -0.1])},
            {"order_L": 10, "alpha": np.array([0.5, np.nan])},
            {"order_L": 10, "alpha": np.array([True])},
            {"order_L": 10, "alpha": np.array([[0.1]])},
            {"order_L": 10, "alpha": np.array(0.1)},
            {"order_L": 10, "ridge": np.array([1e-3, 1e-2])},
            {"order_L": 10, "ridge": np.array([1e-3])},
            {"order_L": 10, "ridge": np.array(1e-3)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            fw.FwfConfig(**kwargs)

    @given(
        st.sampled_from([f.name for f in dataclasses.fields(fw.FwfConfig)]),
        st.one_of(st.booleans(), st.integers(), st.floats(), st.text(), st.none()),
    )
    def test_any_json_scalar_builds_or_raises_parameter_error(self, key, value):
        kwargs = {"order_L": 10, key: value}
        try:
            cfg = fw.FwfConfig(**kwargs)
        except ParameterError:
            return
        assert getattr(cfg, key) is value

    def test_alpha_grid_is_a_tuple_of_floats(self):
        cfg = fw.FwfConfig(order_L=10, alpha=[0.3, 1])
        assert type(cfg.alpha) is tuple and cfg.alpha == (0.3, 1.0)
        assert all(type(a) is float for a in cfg.alpha)
        assert cfg == fw.FwfConfig(order_L=10, alpha=(0.3, 1.0))
        assert hash(cfg) == hash(fw.FwfConfig(order_L=10, alpha=(0.3, 1.0)))

    def test_alpha_grid_from_an_array(self, small_data):
        grid = fwf_core.DEFAULT_ALPHA_GRID
        cfg = fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=grid)
        assert type(cfg.alpha) is tuple and cfg.alpha == tuple(grid)
        assert all(type(a) is float for a in cfg.alpha)
        assert cfg == fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=list(grid))
        assert fw.FwfConfig(order_L=10, alpha=np.arange(1, 3)).alpha == (1.0, 2.0)
        auto = fw.fit(small_data, fw.FwfConfig(order_L=10, sigma_input=0.5))
        assert_same_fit(fw.fit(small_data, cfg), auto)


class TestGVector:
    def test_holds_values(self):
        g = oracles.GVector(np.array([1.0, 0.5, 1e-300]))
        assert g.values[2] == 1e-300

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            oracles.GVector(np.array([0.5, 1.5]))
        with pytest.raises(ParameterError):
            oracles.GVector(np.array([0.0, 0.5]))

    def test_rejects_matrix(self):
        with pytest.raises(DimensionError):
            oracles.GVector(np.ones((2, 2)))


class TestSolveWeights:
    def test_identity_system(self, rng):
        p = rng.standard_normal(5)
        np.testing.assert_array_equal(fw.solve_weights(np.eye(5), p, 0.0), p)

    def test_scaled_identity(self):
        w = fw.solve_weights(2.0 * np.eye(2), np.array([1.0, 1.0]), 0.0)
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-15)

    def test_random_spd_residual(self, rng):
        A = rng.standard_normal((5, 5))
        V = A @ A.T + 5.0 * np.eye(5)
        b = rng.standard_normal(5)
        w = fw.solve_weights(V, b, 0.0)
        assert np.linalg.norm(V @ w - b) <= 1e-10 * np.linalg.norm(b)

    def test_ridge_is_added(self):
        w = fw.solve_weights(np.eye(2), np.array([2.0, 2.0]), 1.0)
        np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-15)

    def test_indefinite_matrix_reports_pivot(self):
        V = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ConditioningError) as exc:
            fw.solve_weights(V, np.array([1.0, 1.0]), 0.0)
        assert exc.value.pivot == 2
        assert "ridge" in str(exc.value)
        assert exc.value.exit_code == 3

    def test_non_finite_system_raises(self):
        V = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="NaN"):
            fw.solve_weights(V, np.array([1.0, 1.0]), 0.0)

    def test_accepts_profile_objects(self, rng):
        x = rng.standard_normal(200)
        V = fw.toeplitz(fw.autocorrentropy(x, 5, 1.0))
        Pv = fw.crosscorrentropy(x, x, 5, 1.0)
        w = fw.solve_weights(V, Pv, 1e-8)
        ww = fw.solve_weights(V.tolist(), Pv.tolist(), 1e-8)
        np.testing.assert_array_equal(w, ww)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fw.solve_weights(np.eye(3), np.ones(2), 0.0)

    @pytest.mark.parametrize("kind", ["gram-300", "fwf", "wiener"])
    def test_bitwise_equal_to_regularized_copy(self, mg_series, rng, kind):
        # a krls Gram past OpenBLAS's blocking, and the L x L systems of an
        # fwf and a wiener fit with their auto ridges
        x, z = mg_series.values[:-1], mg_series.values[1:]
        if kind == "gram-300":
            X = rng.standard_normal((300, 5))
            V, b, ridge = np.exp(-cdist(X, X, "sqeuclidean") / 2.0), z[:300], 1e-6
        else:
            if kind == "fwf":
                V = fw.toeplitz(fw.autocorrentropy(x, 10, 0.5))
                b = fw.crosscorrentropy(x, z, 10, 0.5)
            else:
                V = fw.toeplitz(fw.autocovariance(x, 10))
                b = fw.crosscovariance(x, z, 10)
            ridge = fw.auto_ridge(V)
        V_bytes = V.tobytes()
        ref, info = oracles.solve_weights(V, b, ridge)
        assert info == 0
        assert fw.solve_weights(V, b, ridge).tobytes() == ref.tobytes()
        assert V.tobytes() == V_bytes

    def test_pivot_matches_regularized_copy_past_blocking(self, rng):
        X = rng.standard_normal((300, 5))
        V = np.exp(-cdist(X, X, "sqeuclidean") / 2.0)
        V[200, 200] = -1.0
        _, info = oracles.solve_weights(V, np.ones(300), 1e-6)
        with pytest.raises(ConditioningError) as exc:
            fw.solve_weights(V, np.ones(300), 1e-6)
        assert exc.value.pivot == info == 201

    def test_right_hand_side_norm_overflow_raises(self):
        with pytest.raises(DataError, match="right-hand side"):
            fw.solve_weights(np.eye(2), np.array([1e308, 1e308]), 0.0)

    def test_residual_over_tolerance_raises(self):
        # dpotrf factors the order-12 Hilbert matrix (condition about 2e16),
        # but the solve's residual is far over RESIDUAL_TOL
        H, b = hilbert(12), np.ones(12)
        assert oracles.solve_weights(H, b, 0.0)[1] == 0
        with pytest.raises(ConditioningError, match=r"^weight solve residual \S+ "
                           "exceeds tolerance; the system is too ill-conditioned$") as exc:
            fw.solve_weights(H, b, 0.0)
        assert exc.value.pivot is None
        assert exc.value.exit_code == 3

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ["solves", "indefinite", "non-finite",
                                      "residual", "rhs-overflow"])
    def test_never_writes_to_its_inputs(self, case, order):
        # the solve factors a copy in place, so V must not be that buffer,
        # whether it returns or raises
        V, b = {
            "solves": ([[2.0, -0.0], [-0.0, 2.0]], [1.0, 1.0]),
            "indefinite": ([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]),
            "non-finite": ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            "residual": (hilbert(12), np.ones(12)),
            "rhs-overflow": (np.eye(2), [1e308, 1e308]),
        }[case]
        V, b = np.array(V, order=order), np.array(b)
        V_bytes, b_bytes = V.tobytes(order="A"), b.tobytes()
        try:
            fw.solve_weights(V, b, 0.0)
        except (ConditioningError, DataError, ValueError):
            assert case != "solves"
        assert V.tobytes(order="A") == V_bytes and b.tobytes() == b_bytes


class TestEvaluateFunctional:
    def test_point_at_centers(self, rng):
        w = rng.standard_normal(6)
        c = rng.standard_normal(6)
        assert oracles.evaluate_functional(w, c, c, 1.0) == pytest.approx(
            np.sum(w), rel=1e-15
        )

    def test_single_active_weight(self):
        out = oracles.evaluate_functional(
            [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], 1.0
        )
        assert out == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_matches_scalar_loop(self, rng):
        w, c, p = rng.standard_normal((3, 8))
        sg = 0.7
        ref = sum(
            w[t] * np.exp(-((c[t] - p[t]) ** 2) / (2 * sg * sg)) for t in range(8)
        )
        assert oracles.evaluate_functional(w, c, p, sg) == pytest.approx(ref, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            oracles.evaluate_functional([1.0], [1.0, 2.0], [1.0, 2.0], 1.0)


class TestComputeG:
    def test_exact_hit_gives_one(self):
        g = oracles.compute_g(0.5, np.array([0.5, 2.0]), 1.0)
        assert g.values[0] == 1.0
        assert g.values[1] == pytest.approx(np.exp(-1.125), rel=1e-14)

    def test_far_target_is_floored(self):
        g = oracles.compute_g(1e160, np.array([0.0]), 1.0)
        assert g.values[0] == fwf_core.G_FLOOR

    def test_matches_gaussian(self, rng):
        weights = rng.standard_normal(10)
        z = rng.standard_normal()
        g = oracles.compute_g(z, weights, 0.4)
        np.testing.assert_allclose(g.values, fw.gaussian(weights, z, 0.4), rtol=1e-15)


class TestComputePartner:
    def test_zero_alpha_returns_window(self, rng):
        x = rng.standard_normal(5)
        g = oracles.GVector(np.full(5, 0.3))
        np.testing.assert_array_equal(oracles.compute_partner(x, g, 0.0, 1.0), x)

    def test_unit_g_returns_window(self, rng):
        x = rng.standard_normal(5)
        g = oracles.GVector(np.ones(5))
        np.testing.assert_array_equal(oracles.compute_partner(x, g, 0.7, 1.0), x)

    def test_partner_never_exceeds_window(self, rng):
        x = rng.standard_normal(8)
        g = oracles.GVector(rng.uniform(0.01, 1.0, 8))
        p = oracles.compute_partner(x, g, 0.5, 1.0)
        assert np.all(p <= x)

    def test_kernel_identity(self, rng):
        # G_sigma(partner(tau), x(tau)) == g(tau) ** (alpha^2)
        sg = 0.8
        for _ in range(50):
            x = rng.standard_normal(6)
            g = oracles.GVector(rng.uniform(0.05, 1.0, 6))
            alpha = rng.uniform(0.05, 2.0)
            p = oracles.compute_partner(x, g, alpha, sg)
            np.testing.assert_allclose(
                fw.gaussian(p, x, sg), g.values ** (alpha**2), rtol=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            oracles.compute_partner(np.ones(3), oracles.GVector(np.ones(2)), 0.5, 1.0)


class TestFit:
    def test_model_shape_and_invariants(self, small_data, small_model):
        m = small_model
        assert m.weights.shape == (10,)
        assert m.partners.shape == small_data.windows.shape
        assert np.all(np.isfinite(m.partners))
        assert m.n_train == len(small_data)
        assert m.train_mse >= 0.0 and np.isfinite(m.bias)
        assert m.alpha == 0.3 and m.sigma_input == 0.5
        assert not hasattr(m, "sigma_weight")

    @pytest.mark.parametrize("alpha", [0.5, "auto"])
    def test_non_finite_train_mse_raises(self, alpha):
        # one desired sample whose squared error is past the double range;
        # the kernel steps take it without overflow
        x = np.random.default_rng(4).standard_normal(300)
        z = x.copy()
        z[150] = 1e200
        data = fw.embed_pair(fw.Series(x), fw.Series(z), 3, 0)
        cfg = fw.FwfConfig(order_L=3, horizon=0, sigma_input=1.0, alpha=alpha)
        with pytest.raises(DataError, match="not finite"):
            fw.fit(data, cfg)
        with pytest.raises(DataError, match="not finite"):
            fw.fit(data, dataclasses.replace(cfg, alpha=[0.05, 0.5, 2.0]))

    def test_weights_satisfy_normal_equations(self, small_data, small_model):
        m = small_model
        V = fw.toeplitz(fw.autocorrentropy(small_data.source_x, 10, m.sigma_input))
        Pv = fw.crosscorrentropy(
            small_data.source_x, small_data.source_z, 10, m.sigma_input
        )
        A = V + m.ridge * np.eye(10)
        resid = np.linalg.norm(A @ m.weights - Pv)
        assert resid <= 1e-10 * np.linalg.norm(Pv)

    def test_partners_follow_definition(self, small_data, small_model):
        m = small_model
        for i in (0, 41, 333):
            g = oracles.compute_g(small_data.targets[i], m.weights, m.sigma_input)
            ref = oracles.compute_partner(
                small_data.windows[i], g, m.alpha, m.sigma_input
            )
            np.testing.assert_allclose(m.partners[i], ref, rtol=1e-12, atol=1e-12)

    def test_single_window_dataset_predicts_its_target(self):
        data = fw.embed(fw.Series(np.arange(11, dtype=float)), 10, 1)
        m = fw.fit(data, fw.FwfConfig(order_L=10, sigma_input=1.0, alpha=0.3))
        assert m.n_train == 1
        assert fw.predict(m, data.windows[0]) == data.targets[0]

    def test_silverman_default_width(self, small_data):
        m = fw.fit(small_data, fw.FwfConfig(order_L=10, alpha=0.3))
        assert m.sigma_input == fw.silverman_sigma(small_data.source_x)

    def test_order_mismatch(self, small_data):
        with pytest.raises(DimensionError):
            fw.fit(small_data, fw.FwfConfig(order_L=9, sigma_input=0.5, alpha=0.3))

    def test_horizon_mismatch(self, small_data):
        cfg = fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=0.3, horizon=2)
        with pytest.raises(DimensionError, match="horizon"):
            fw.fit(small_data, cfg)
        with pytest.raises(DimensionError, match="horizon"):
            fw.fit(small_data, dataclasses.replace(cfg, alpha=[0.3]))

    def test_desired_signal_far_off_the_input_scale(self):
        # every cross-correntropy pair of a white input and a desired signal
        # of +-1e307 underflows to 0: a data problem under Silverman's width,
        # a width problem when the width is set
        rng = np.random.default_rng(0)
        x = rng.standard_normal(300)
        z = np.where(rng.standard_normal(300) > 0, 1e307, -1e307)
        data = fw.embed_pair(fw.Series(x), fw.Series(z), 3, 0)
        for alpha in ("auto", 0.5):
            with pytest.raises(DataError, match="desired signal .* 1e\\+307"):
                fw.fit(data, fw.FwfConfig(order_L=3, horizon=0, alpha=alpha))
            cfg = fw.FwfConfig(order_L=3, horizon=0, alpha=alpha, sigma_input=1.0)
            with pytest.raises(ParameterError, match="kernel width"):
                fw.fit(data, cfg)

    def test_model_records_config_horizon(self, small_data, small_model):
        assert small_model.horizon == small_data.horizon == 1

    def test_training_accuracy_on_benchmark(self, mg_data):
        m = fw.fit(mg_data, fw.FwfConfig(order_L=10, sigma_input=0.5))
        assert m.train_mse < 0.05

    def test_conditioning_error_at_huge_width_without_ridge(self, small_data):
        std = float(np.std(small_data.source_x))
        for scale in (1e3, 1e8):
            cfg = fw.FwfConfig(order_L=10, sigma_input=scale * std, ridge=0.0)
            with pytest.raises(ConditioningError):
                fw.fit(small_data, cfg)

    def test_explicit_ridge_is_used(self, small_data):
        m = fw.fit(
            small_data, fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=0.3, ridge=1e-4)
        )
        assert m.ridge == 1e-4

    def test_determinism(self, small_data):
        cfg = fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=0.3)
        a, b = fw.fit(small_data, cfg), fw.fit(small_data, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.partners, b.partners)
        assert a.bias == b.bias and a.train_mse == b.train_mse


class TestPredict:
    def test_single_neighbor_is_direct_evaluation(self, small_data, small_model):
        m = small_model
        q = small_data.windows[37] + 0.003
        nn, _ = neighbors.query(m.neighbor_index, q, 1)
        direct = (
            oracles.evaluate_functional(m.weights, m.partners[nn[0]], q, m.sigma_input)
            - m.bias
        )
        assert fw.predict(m, q, K=1) == direct

    def test_two_neighbor_average(self, small_data, small_model, rng):
        m = small_model
        for _ in range(20):
            q = rng.standard_normal(10) * 0.5
            nn, _ = neighbors.linear_scan_query(small_data.windows, q, 2)
            ref = (
                np.mean(
                    [
                        oracles.evaluate_functional(
                            m.weights, m.partners[j], q, m.sigma_input
                        )
                        for j in nn
                    ]
                )
                - m.bias
            )
            assert fw.predict(m, q, K=2) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_batch_matches_scalar(self, small_model, rng):
        X = rng.standard_normal((30, 10)) * 0.5
        batch = fw.predict_batch(small_model, X)
        for r in range(30):
            assert batch[r] == fw.predict(small_model, X[r])

    def test_default_k_clamps_to_training_size(self):
        data = fw.embed(fw.Series(np.arange(11, dtype=float)), 10, 1)
        cfg = fw.FwfConfig(order_L=10, sigma_input=1.0, alpha=0.3, k_neighbors=5)
        m = fw.fit(data, cfg)
        assert np.isfinite(fw.predict(m, data.windows[0]))
        with pytest.raises(ParameterError):
            fw.predict(m, data.windows[0], K=5)

    def test_k_validation(self, small_model):
        q = np.zeros(10)
        with pytest.raises(ParameterError):
            fw.predict(small_model, q, K=0)
        with pytest.raises(ParameterError):
            fw.predict(small_model, q, K=small_model.n_train + 1)

    def test_window_width_validation(self, small_model):
        with pytest.raises(DimensionError):
            fw.predict(small_model, np.zeros(9))
        with pytest.raises(DimensionError):
            fw.predict(small_model, np.zeros((2, 10)))

    def test_batch_over_several_chunks_matches_rows(self, small_model, rng):
        X = rng.standard_normal((2 * fwf_core._ROW_CHUNK + 3, 10)) * 0.5
        batch = fw.predict_batch(small_model, X)
        rows = np.array([fw.predict(small_model, x) for x in X])
        assert batch.tobytes() == rows.tobytes()
        nbr_idx, _ = neighbors.query_batch(small_model.neighbor_index, X, 2)
        ref = oracles.functional_outputs(
            small_model.weights, small_model.partners, nbr_idx, X,
            small_model.sigma_input,
        ) - small_model.bias
        assert batch.tobytes() == ref.tobytes()

    def test_row_order_invariance(self, small_data, rng):
        # shuffling training rows must not change predictions
        perm = rng.permutation(len(small_data))
        shuffled = fw.Dataset(
            windows=small_data.windows[perm],
            targets=small_data.targets[perm],
            order_L=10,
            horizon=1,
            source_x=small_data.source_x,
            source_z=small_data.source_z,
        )
        cfg = fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=0.3)
        a = fw.fit(small_data, cfg)
        b = fw.fit(shuffled, cfg)
        X = rng.standard_normal((25, 10)) * 0.5
        np.testing.assert_allclose(
            fw.predict_batch(a, X), fw.predict_batch(b, X), rtol=1e-12
        )


def _lattice_model(rng, k_neighbors=2):
    """An order-3 model over every point of the 3 x 3 x 3 lattice three
    times over (exact ties at every radius) and a cloud of distinct points
    far from it; each window has its own partner, so a tie broken the wrong
    way changes the prediction."""
    grid = np.stack(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3)
    X = np.vstack([grid, grid, grid, 10.0 + rng.standard_normal((20, 3))])
    return fwf_core.FwfModel(
        weights=rng.standard_normal(3), partners=X + 0.3 * rng.standard_normal(X.shape),
        train_windows=X, train_targets=rng.standard_normal(len(X)), bias=0.1,
        config=fw.FwfConfig(order_L=3, k_neighbors=k_neighbors), sigma_input=0.8,
        alpha=0.3, ridge=0.0, train_mse=0.0,
    )


def _lattice_queries(m, rng):
    grid, cloud = m.train_windows[:27], m.train_windows[81:]
    return np.vstack([grid, grid + 0.5, grid + [0.5, 0.0, 0.0], cloud,
                      cloud + 0.01 * rng.standard_normal(cloud.shape)])


class TreeSpy:
    """Stands in for an index's kd-tree and counts its ``query`` calls."""

    def __init__(self, tree):
        self.tree = tree
        self.queries = 0

    def query(self, *args, **kwargs):
        self.queries += 1
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        return self.tree.query_ball_point(*args, **kwargs)


class TestPredictOneRow:
    """``predict`` evaluates one window without the batch's chunk loop; it
    must equal its ``predict_batch`` row bitwise, whatever the layout."""

    @pytest.fixture(params=[None, "0", "2"], ids=["threads_unset", "0", "2"])
    def threads(self, request, monkeypatch):
        if request.param is None:
            monkeypatch.delenv("FWF_THREADS", raising=False)
        else:
            monkeypatch.setenv("FWF_THREADS", request.param)

    @staticmethod
    def assert_rows(m, X, K=None):
        batch = fw.predict_batch(m, X, K)
        rows = np.array([fw.predict(m, x, K) for x in X])
        assert rows.tobytes() == batch.tobytes()

    def test_model_of_one_window(self, threads):
        # k_probe = K = 1: the tree returns a scalar index and distance
        data = fw.embed(fw.Series(np.sin(np.arange(11.0))), 10, 1)
        m = fw.fit(data, fw.FwfConfig(order_L=10, sigma_input=1.0, alpha=0.3))
        assert m.n_train == 1
        X = np.vstack([data.windows, data.windows + 0.5, np.zeros((1, 10))])
        self.assert_rows(m, X)
        self.assert_rows(m, X, 1)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_k_equal_to_n(self, threads, n, rng):
        # no over-query, so no boundary test
        data = fw.embed(fw.Series(np.sin(0.7 * np.arange(n + 10.0))), 10, 1)
        m = fw.fit(data, fw.FwfConfig(order_L=10, sigma_input=1.0, alpha=0.3,
                                      k_neighbors=n))
        X = np.vstack([data.windows, data.windows + 0.5, rng.standard_normal((5, 10))])
        self.assert_rows(m, X)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_duplicates_and_lattice_ties(self, threads, K, rng):
        m = _lattice_model(rng, K)
        X = _lattice_queries(m, rng)
        self.assert_rows(m, X)
        for x in X:
            # the neighbors are the linear scan's, ties by ascending index
            nn, _ = neighbors.linear_scan_query(m.train_windows, x, K)
            ref = [oracles.evaluate_functional(m.weights, m.partners[j], x,
                                               m.sigma_input) for j in nn]
            assert np.isclose(fw.predict(m, x), np.mean(ref) - m.bias,
                              rtol=1e-12, atol=1e-12)

    def test_many_neighbors(self, small_model, rng):
        # K past 8 and 128 changes numpy's summation order over the K terms
        X = rng.standard_normal((10, 10)) * 0.5
        for K in (8, 9, 129, 300):
            self.assert_rows(small_model, X, K)

    def test_bad_windows_raise_as_before(self, small_model):
        for bad in (np.nan, np.inf):
            x = np.zeros(10)
            x[3] = bad
            with pytest.raises(DataError, match="^query windows must be finite$"):
                fw.predict(small_model, x)
        shape = "^query windows must be B x L matching the index$"
        for x in (np.zeros(9), np.zeros(11), np.zeros((2, 10)), np.zeros((1, 10))):
            with pytest.raises(DimensionError, match=shape):
                fw.predict(small_model, x)

    def test_one_tree_query_and_ties_only_when_tied(self, rng, monkeypatch):
        m = _lattice_model(rng)
        spy = TreeSpy(m.neighbor_index.tree)
        monkeypatch.setattr(m.neighbor_index, "tree", spy)
        resolved = []
        resolve = neighbors._resolve_ties

        def recording(*args):
            resolved.append(args[1])
            return resolve(*args)

        monkeypatch.setattr(neighbors, "_resolve_ties", recording)
        tied, clean = m.train_windows[13], m.train_windows[81] + 0.01
        for x, ties in ((tied, 1), (clean, 0)):
            # tied at the K-th radius: the (K+1)-th distance equals the K-th
            d = neighbors.linear_scan_query(m.train_windows, x, 3)[1]
            assert (d[2] == d[1]) == bool(ties)
            spy.queries, resolved[:] = 0, []
            fw.predict(m, x)
            assert spy.queries == 1
            assert len(resolved) == ties


@pytest.fixture(scope="module")
def chunk_series():
    """Standardized Mackey-Glass series long enough for two row chunks."""
    n = 2 * fwf_core._ROW_CHUNK + 3 + 10
    return fw.standardize(fw.gen_mackey_glass(fw.MGParams(), n))


def chunk_data(chunk_series, extra):
    """An order-10 dataset of ``_ROW_CHUNK + extra`` windows."""
    n_rows = fwf_core._ROW_CHUNK + extra
    data = fw.embed(fw.Series(chunk_series.values[: n_rows + 10]), 10, 1)
    assert len(data) == n_rows
    return data


def check_curve(data, cfg):
    """Assert that the search on the default grid, and a fit, keep the
    per-alpha loop's pick and statistics (see :func:`assert_search`);
    return the fit."""
    search, (ref_alpha, ref_stats) = search_and_oracle(
        data, cfg, fwf_core.DEFAULT_ALPHA_GRID
    )
    best = assert_search(search, (ref_alpha, ref_stats))
    m = fw.fit(data, cfg)
    assert m.alpha == ref_alpha
    assert (m.bias, m.train_mse) == ref_stats[best]
    return m


def assert_search(search, oracle):
    """The search against the per-alpha loop: the same pick, bias and MSE,
    every fully scored point bitwise equal, and every dropped point's MSE
    strictly above the pick's and at least the bound it was dropped on.
    Returns the pick's index."""
    (alphas, stats, best), (ref_alpha, ref_stats) = search, oracle
    ref_best, low = 0, np.inf
    for j, (_, mse) in enumerate(ref_stats):
        if mse < low:
            ref_best, low = j, mse
    assert best == ref_best and float(alphas[best]) == ref_alpha
    assert np.array(stats[best]).tobytes() == np.array(ref_stats[best]).tobytes()
    for (bias, mse), ref in zip(stats, ref_stats):
        if bias is None:
            assert ref[1] > low and ref[1] >= mse
        else:
            assert np.array([bias, mse]).tobytes() == np.array(ref).tobytes()
    return best


def search_and_oracle(data, cfg, grid):
    s_in, _, weights, offsets, _, nbr_idx = fwf_core._prepare(data, cfg)
    args = (data, grid, s_in, weights, offsets, nbr_idx)
    return fwf_core._search_alpha(*args), oracles.alpha_search(*args)


def fit_grid(data, alpha):
    """A fit on ``data`` at width 0.5 with ``alpha`` a grid or one value."""
    return fw.fit(data, fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=alpha))


def assert_same_fit(a, b):
    """The chosen alpha, training statistics and partners agree bitwise."""
    assert (a.alpha, a.train_mse, a.bias) == (b.alpha, b.train_mse, b.bias)
    assert a.partners.tobytes() == b.partners.tobytes()


class TestTuneAlpha:
    """Picking alpha: :func:`fit` over a grid ``alpha``."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, fwf_core._ROW_CHUNK + 3])
    def test_curve_bitwise_equal_to_per_alpha_loop(self, chunk_series, k, extra):
        cfg = fw.FwfConfig(order_L=10, k_neighbors=k)
        check_curve(chunk_data(chunk_series, extra), cfg)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("extra", [-1, fwf_core._ROW_CHUNK + 3])
    def test_curve_bitwise_equal_in_passes(
        self, chunk_series, monkeypatch, extra, k, rows
    ):
        # the default rule screens and scores the 50-point grid in one
        # sweep here; with 1, 3 or 7 rows of raw outputs a pass, the screen
        # shrinks to a prefix and the rest is scored in passes that prune
        data = chunk_data(chunk_series, extra)
        cfg = fw.FwfConfig(order_L=10, k_neighbors=k)
        assert fwf_core._pass_rows(len(data), 10) >= 50
        one_pass = fw.fit(data, cfg)
        held, outputs = [], fwf_core._sweep_outputs

        def spy(*args):
            held.append([len(r) for r in args[6]])  # the raw output rows
            return outputs(*args)

        monkeypatch.setattr(fwf_core, "_sweep_outputs", spy)
        monkeypatch.setattr(fwf_core, "_pass_rows", lambda n_train, order_L: rows)
        assert_same_fit(check_curve(data, cfg), one_pass)
        # the search and the fit each screen all 50 points on a prefix, then
        # score whole rows, never holding more than the pass allows
        N = len(data)
        screens = [h for h in held if h[0] < N]
        assert len(screens) == 2 and all(len(h) == 50 for h in screens)
        assert len(held) >= 4 and all(set(h) == {N} for h in held if h[0] == N)
        assert max(map(sum, held)) <= rows * N

    @pytest.mark.parametrize("alpha", ["auto", 0.3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_train_mse_bitwise_equal_to_predict_batch(self, chunk_series, k, alpha):
        # the sweep and predict_batch evaluate the functional separately;
        # scoring the fit's own windows must give its training MSE
        data = chunk_data(chunk_series, fwf_core._ROW_CHUNK + 3)
        m = fw.fit(data, fw.FwfConfig(order_L=10, k_neighbors=k, alpha=alpha))
        mse = fw.evalbench.mse(fw.predict_batch(m, data.windows), data.targets)
        assert m.train_mse == mse

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("order", [1, 7, 8, 9, 16, 17, 130])
    def test_curve_bitwise_equal_across_lag_counts(self, chunk_series, order, k):
        # L < 8 sums in sequence, 8 <= L <= 128 in 8-wide blocks and
        # L > 128 splits in two halves first
        data = fw.embed(fw.Series(chunk_series.values[: 400 + order]), order, 1)
        cfg = fw.FwfConfig(order_L=order, k_neighbors=k)
        assert_search(*search_and_oracle(data, cfg, fwf_core.DEFAULT_ALPHA_GRID))

    def test_duplicated_grid_entry_ties_to_first(self, small_data):
        grid = [0.8, 0.05, 0.2, 0.4]
        winner = fit_grid(small_data, grid).alpha
        assert winner == 0.05
        dup = grid + [winner]
        search, oracle = search_and_oracle(
            small_data, fw.FwfConfig(order_L=10, sigma_input=0.5), dup
        )
        best = assert_search(search, oracle)
        alphas, stats, _ = search
        assert float(alphas[best]) == winner
        assert alphas[best + 1] == winner
        # a copy of the pick is never dropped: its bound is at most its MSE
        assert stats[best] == stats[best + 1]
        assert_same_fit(fit_grid(small_data, dup), fit_grid(small_data, grid))

    def test_singleton_grid(self, small_data):
        m = fit_grid(small_data, [0.445])
        assert m.alpha == 0.445 and m.config.alpha == (0.445,)
        assert_same_fit(m, fit_grid(small_data, 0.445))

    def test_matches_exhaustive_refits(self, small_data):
        grid = [0.05, 0.2, 0.8]
        refits = {a: fit_grid(small_data, a) for a in grid}
        best = min(grid, key=lambda a: refits[a].train_mse)
        assert_same_fit(fit_grid(small_data, grid), refits[best])

    def test_grid_order_irrelevant(self, small_data):
        a = fit_grid(small_data, [0.8, 0.05, 0.2])
        b = fit_grid(small_data, (0.05, 0.2, 0.8))
        assert_same_fit(a, b)

    def test_auto_fit_agrees_with_tuner(self, small_data):
        # "auto" is the default grid written out; the pick is pinned bitwise
        m = fw.fit(small_data, fw.FwfConfig(order_L=10, sigma_input=0.5))
        assert m.alpha == 0.07802542101995251
        assert_same_fit(m, fit_grid(small_data, tuple(fwf_core.DEFAULT_ALPHA_GRID)))

    def test_grid_validation(self):
        for grid in ([], [0.5, -0.1]):
            with pytest.raises(ParameterError, match="alpha"):
                fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=grid)

    def test_default_grid_shape(self):
        g = fwf_core.DEFAULT_ALPHA_GRID
        assert g.size == 50
        assert g[0] == pytest.approx(0.01, rel=1e-12)
        assert g[-1] == pytest.approx(2.0, rel=1e-12)
        assert np.all(np.diff(g) > 0)


@pytest.fixture(scope="module")
def long_series():
    """Standardized Mackey-Glass series long enough for five row chunks."""
    return fw.standardize(
        fw.gen_mackey_glass(fw.MGParams(), 5 * fwf_core._ROW_CHUNK + 20)
    )


def five_chunks(series):
    """An order-10 dataset of five row chunks."""
    n_rows = 5 * fwf_core._ROW_CHUNK
    return fw.embed(fw.Series(series.values[: n_rows + 10]), 10, 1)


def prepared(data, cfg):
    """The arguments of ``_search_alpha`` but the grid."""
    s_in, _, weights, offsets, _, nbr_idx = fwf_core._prepare(data, cfg)
    return s_in, weights, offsets, nbr_idx


@st.composite
def alpha_grids(draw):
    """1 to 60 alphas, log-uniform from 0.003 to 5, with copies and
    neighbours one ulp apart."""
    values = draw(st.lists(st.floats(-2.5, 0.7).map(lambda e: 10.0**e),
                           min_size=1, max_size=40))
    extra = st.tuples(st.integers(0, len(values) - 1),
                      st.sampled_from([0.0, np.inf, -np.inf]))
    for i, toward in draw(st.lists(extra, max_size=20)):
        v = values[i]
        values.append(v if toward == 0 else float(np.nextafter(v, toward)))
    return values[:60]


class TestPrunedSearch:
    """The search drops a point once a lower bound on its training MSE
    exceeds the best MSE so far; what it keeps must be the per-alpha
    loop's."""

    @settings(max_examples=25, deadline=None)
    @given(white=st.booleans(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.one_of(st.integers(2, fwf_core._ROW_CHUNK),
                            st.integers(fwf_core._ROW_CHUNK + 1, 5 * fwf_core._ROW_CHUNK)),
           order=st.integers(1, 10), k=st.integers(1, 3), grid=alpha_grids())
    def test_same_pick_as_per_alpha_loop(self, long_series, white, seed,
                                         n_rows, order, k, grid):
        # up to five chunks, so that points are dropped in mid-series
        if white:
            x = np.random.default_rng(seed).standard_normal(n_rows + order)
        else:
            x = long_series.values[: n_rows + order]
        data = fw.embed(fw.Series(x), order, 1)
        args = (data, np.array(grid)) + prepared(data, fw.FwfConfig(order, k_neighbors=k))
        assert_search(fwf_core._search_alpha(*args), oracles.alpha_search(*args))

    def test_prunes_most_kernel_passes(self, long_series, exp_spy):
        # a sharp curve over five chunks: after the first chunk and the
        # best point's whole row, the bounds rule out the rest.  Each
        # (alpha, chunk) pass calls exp once
        data = five_chunks(long_series)
        chunks = 5
        grid = np.geomspace(0.01, 2.0, 20)
        args = (data, grid) + prepared(data, fw.FwfConfig(order_L=10))
        exp_spy.underflow.clear()
        search = fwf_core._search_alpha(*args)
        assert len(exp_spy.underflow) <= len(grid) * chunks // 3
        assert_search(search, oracles.alpha_search(*args))

    def test_nothing_to_drop_takes_no_extra_pass(self, long_series, monkeypatch):
        # copies of one alpha have equal screen bounds, so the first pass
        # scores them all: each chunk is gathered once for the screen and
        # once for the pass, not again for a pass of the lowest point alone
        data = five_chunks(long_series)
        held, outputs = [], fwf_core._sweep_outputs

        def spy(*args):
            held.append(len(args[6]))  # the raw output rows
            return outputs(*args)

        monkeypatch.setattr(fwf_core, "_sweep_outputs", spy)
        args = (data, np.full(20, 0.05)) + prepared(data, fw.FwfConfig(order_L=10))
        search = fwf_core._search_alpha(*args)
        assert held == [20, 20]
        assert_search(search, oracles.alpha_search(*args))

    def test_points_closer_than_the_margin_are_both_scored(self, long_series):
        data = five_chunks(long_series)
        s_in, weights, offsets, nbr_idx = prepared(data, fw.FwfConfig(order_L=10))
        pick = fw.fit(data, fw.FwfConfig(order_L=10)).alpha
        grid = np.append(fwf_core.DEFAULT_ALPHA_GRID, np.nextafter(pick, 1.0))
        args = (data, grid, s_in, weights, offsets, nbr_idx)
        search = fwf_core._search_alpha(*args)
        assert_search(search, oracles.alpha_search(*args))
        alphas, stats, best = search
        assert alphas[best] == pick and alphas[best + 1] == np.nextafter(pick, 1.0)
        (b0, m0), (b1, m1) = stats[best : best + 2]
        assert b0 is not None and b1 is not None
        # closer than the relative part of the margin alone
        rho = (len(data) + 2 * fwf_core._ROW_CHUNK + 64) * 2.0**-53
        assert abs(m1 - m0) < rho * m0
        assert sum(b is None for b, _ in stats) >= len(grid) - 3

    @staticmethod
    def scaled(long_series, headroom):
        """Search arguments with the weights and targets scaled by S, so
        that every MSE is S**2 times its unscaled value, and the sum of
        squares overflows above ``headroom`` times the lowest MSE."""
        data = fw.embed(fw.Series(long_series.values[: 3 * fwf_core._ROW_CHUNK + 10]), 10, 1)
        s_in, weights, offsets, nbr_idx = prepared(data, fw.FwfConfig(order_L=10))
        grid = np.geomspace(0.01, 2.0, 20)
        _, ref = oracles.alpha_search(data, grid, s_in, weights, offsets, nbr_idx)
        low = min(m for _, m in ref)
        S = np.sqrt(np.finfo(float).max / (len(data) * headroom * low))
        big = fw.Dataset(
            windows=data.windows, targets=data.targets * S, order_L=10,
            horizon=1, source_x=data.source_x, source_z=data.source_z * S,
        )
        return big, grid, s_in, weights * S, offsets, nbr_idx

    def test_some_infinite_mses(self, long_series):
        args = self.scaled(long_series, 3.0)
        search = fwf_core._search_alpha(*args)
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = oracles.alpha_search(*args)
        mses = [m for _, m in oracle[1]]
        assert np.inf in mses and min(mses) < np.inf
        assert_search(search, oracle)

    def test_every_mse_infinite_raises(self, long_series):
        args = self.scaled(long_series, 0.5)
        with pytest.raises(DataError, match="not finite at any alpha"):
            fwf_core._search_alpha(*args)


class TestSweepMemory:
    def test_peak_does_not_grow_with_the_grid(self):
        # numpy reports its buffers to tracemalloc.  At N = 2e4 a pass holds
        # at most 104 rows (15.9 MiB); the 200-point grid's raw outputs as
        # one block would take 30.5 MiB.  The slack covers the per-point
        # statistics, a few kB
        s = fw.standardize(fw.gen_mackey_glass(fw.MGParams(), 20_000 + 10))
        data = fw.embed(s, 10, 1)

        def traced_peak(n_points):
            grid = np.logspace(-2, np.log10(2), n_points)
            cfg = fw.FwfConfig(order_L=10, alpha=grid)
            tracemalloc.start()
            try:
                fw.fit(data, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = fwf_core._pass_rows(len(data), 10) * len(data) * 8
        assert block == 104 * 20_000 * 8
        assert traced_peak(200) <= traced_peak(10) + block + 2**20

    def test_peak_without_pruning_stays_in_the_same_bound(self):
        # 200 copies of one alpha: no point can be dropped, so the screen
        # and every pass hold as many raw output rows as the bound allows
        s = fw.standardize(fw.gen_mackey_glass(fw.MGParams(), 20_000 + 10))
        data = fw.embed(s, 10, 1)

        def traced_peak(grid):
            cfg = fw.FwfConfig(order_L=10, alpha=grid)
            tracemalloc.start()
            try:
                fw.fit(data, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = fwf_core._pass_rows(len(data), 10) * len(data) * 8
        copies = traced_peak([0.05] * 200)
        assert copies <= traced_peak(np.logspace(-2, np.log10(2), 10)) + block + 2**20


class TestSlabSum:
    def test_bitwise_equal_to_numpy_sum_of_contiguous_runs(self):
        # n < 8, the 8-wide blocks up to 128 and the halving above it
        rng = np.random.default_rng(0)
        m, differ = 64, []
        for n in range(1, 301):
            x = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-13, 13, (m, n))
            x[rng.random((m, n)) < 0.05] = 0.0
            x[rng.random((m, n)) < 0.05] = -0.0
            x[0] = -0.0  # a run of negative zeros sums to +0.0
            x[1, ::2], x[1, 1::2] = -0.0, 0.0
            x[2], x[2, ::3] = 1e13, -1e13  # cancellation
            out = np.empty(m)
            got = fwf_core._slab_sum(np.ascontiguousarray(x.T), out)
            assert got is out
            if got.tobytes() != x.sum(axis=-1).tobytes():
                differ.append(n)
        assert differ == []


class MaskedExpSpy:
    """Stands in for ``np.exp``; records for each call the share of its
    arguments below -746, where ``exp`` rounds to +0.0 (exp(-746) is under
    half the smallest subnormal)."""

    def __init__(self, exp):
        self.exp = exp
        self.underflow = []

    def __call__(self, x, *args, **kwargs):
        self.underflow.append(float(np.mean(np.less(x, -746.0))))
        return self.exp(x, *args, **kwargs)


@pytest.fixture
def exp_spy(monkeypatch):
    spy = MaskedExpSpy(np.exp)
    monkeypatch.setattr(np, "exp", spy)
    return spy


class TestExpUnderflow:
    """Lanes whose ``exp`` underflows to +0.0 go through ``exp`` like the
    rest, and give the bits of the unchunked formula."""

    def test_kernel_terms_bitwise_equal_to_plain_exp(self, exp_spy):
        rng = np.random.default_rng(3)
        d = rng.uniform(-40.0, 40.0, (10, 2, 300))
        q = rng.uniform(-1.0, 1.0, (10, 1, 300))
        w = rng.standard_normal((10, 1, 1))
        neg_s2 = -2.0 * 0.7 * 0.7
        # normal, subnormal-result, just under -746 and infinite lanes,
        # without and with a NaN lane
        far = np.sqrt(-neg_s2 * np.array([745.0, 746.0, 750.0, 1e3]))
        d[0, 0, :4] = q[0, 0, :4] + far
        d[1, 0, 0] = np.inf
        for nan in (False, True):
            d[1, 1, 0] = np.nan if nan else 0.5
            plain = d.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                plain -= q
                plain *= plain
                plain /= neg_s2
                plain = np.exp(plain) * w
                got = d.copy()
                exp_spy.underflow.clear()
                fwf_core._kernel_terms(got, q, w, neg_s2)
            assert got.tobytes() == plain.tobytes()
            # one exp call, over every lane, the underflowing ones included
            assert len(exp_spy.underflow) == 1 and exp_spy.underflow[0] > 0.0

    def test_search_bitwise_equal_with_no_some_and_all_lanes_skipped(
        self, chunk_series, exp_spy
    ):
        # a small width and a grid up to 8: at the top of the grid the short
        # last chunk has every exp argument under -746, the full one most.  The
        # search drops the top of the grid after the first chunk, so the top
        # point is also searched alone, which evaluates both its chunks
        n_rows = fwf_core._ROW_CHUNK + 3
        data = fw.embed(fw.Series(chunk_series.values[: n_rows + 10]), 10, 1)
        cfg = fw.FwfConfig(order_L=10, sigma_input=0.02)
        grid = np.geomspace(0.01, 8.0, 20)
        s_in, _, weights, offsets, _, nbr_idx = fwf_core._prepare(data, cfg)
        underflow = []
        for g in (grid, grid[-1:]):
            args = (data, g, s_in, weights, offsets, nbr_idx)
            exp_spy.underflow.clear()  # the width and offsets call exp too
            search = fwf_core._search_alpha(*args)
            # no (alpha, chunk) pair is evaluated twice
            assert len(exp_spy.underflow) <= 2 * len(g)
            underflow += exp_spy.underflow
            assert_search(search, oracles.alpha_search(*args))
        assert 0.0 in underflow and 1.0 in underflow
        assert any(0.0 < f < 1.0 for f in underflow)

    def test_far_off_queries_bitwise_equal_to_oracle(self, small_model, exp_spy):
        # shifts of 0 to 40 in a width of 0.5: a full chunk with some exp
        # arguments under -746, then a short chunk and one window with all
        n = fwf_core._ROW_CHUNK + 5
        X = small_model.train_windows[np.arange(n) % small_model.n_train]
        X = X + np.linspace(0.0, 40.0, n)[:, None]
        batch = fw.predict_batch(small_model, X)
        one = fw.predict(small_model, X[-1])
        assert exp_spy.underflow[-1] == 1.0
        assert any(0.0 < f < 1.0 for f in exp_spy.underflow)
        nbr_idx, _ = neighbors.query_batch(small_model.neighbor_index, X, 2)
        ref = oracles.functional_outputs(
            small_model.weights, small_model.partners, nbr_idx, X,
            small_model.sigma_input,
        ) - small_model.bias
        assert batch.tobytes() == ref.tobytes()
        assert one == batch[-1]


class TestAgainstLinearBaseline:
    def test_within_tenfold_of_wiener_on_truncated_fir(self):
        # both methods share the unmodeled-tap error floor at order 2
        x, z = fw.gen_fir_process([0.3, -0.2, 0.1], 2000, noise_seed=7)
        data = fw.embed_pair(x, z, 2, 0)
        wm = fw.wiener_fit(data)
        w_mse = float(
            np.mean((fw.wiener_predict(wm, data.windows) - data.targets) ** 2)
        )
        m = fw.fit(data, fw.FwfConfig(order_L=2, sigma_input=1.0, horizon=0))
        assert m.train_mse <= 10.0 * w_mse


class TestThreadCount:
    def test_fwf_threads_never_changes_a_result(self, mg_data, monkeypatch):
        # FWF_THREADS sets the tree's worker count: unset (1), 0 (one per
        # core) and 2 must give the same bytes on every output
        n = 2000
        train = fw.Dataset(
            windows=mg_data.windows[:n], targets=mg_data.targets[:n],
            order_L=10, horizon=1,
            source_x=mg_data.source_x[: n + 9], source_z=mg_data.source_z[: n + 9],
        )
        held_out = mg_data.windows[n + 11 :]
        cfg = fw.FwfConfig(order_L=10, k_neighbors=2)
        runs = []
        for value in (None, "0", "2"):
            if value is None:
                monkeypatch.delenv("FWF_THREADS", raising=False)
            else:
                monkeypatch.setenv("FWF_THREADS", value)
            m = fw.fit(train, cfg)
            idx = m.neighbor_index
            out = [
                np.array([m.alpha, m.train_mse, m.bias]), m.partners,
                fw.predict_batch(m, held_out), fw.predict_batch(m, held_out, 5),
                np.array([fw.predict(m, x, K) for x in held_out[:50]
                          for K in (1, 2, 3)]),
                *neighbors.query_batch(idx, held_out, 3),
                *neighbors.query_batch(idx, held_out[:1], 3),
                *neighbors.query_batch(idx, train.windows, 2),
            ]
            runs.append([a.tobytes() for a in out])
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
