import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import fwfilter as fw
import oracles
from fwfilter import baselines, evalbench
from fwfilter.errors import ConditioningError, DataError, DimensionError, ParameterError


def naive_klms(X, z, eta, sig):
    """Scalar KLMS recursion, one prediction at a time."""
    N = X.shape[0]
    alpha = np.zeros(N)
    for i in range(N):
        pred = 0.0
        if i:
            k = np.exp(-np.sum((X[:i] - X[i]) ** 2, axis=1) / (2.0 * sig * sig))
            pred = float(k @ alpha[:i])
        alpha[i] = eta * (z[i] - pred)
    return alpha


def white_identity_data(n, seed, L):
    x = fw.Series(np.random.default_rng(seed).standard_normal(n))
    return fw.embed_pair(x, x, L, 0)


def huge_target_data(n, at, value):
    """White input paired with itself as the desired signal, except for one
    desired sample set to ``value``."""
    x = np.random.default_rng(3).standard_normal(n)
    z = x.copy()
    z[at] = value
    return fw.embed_pair(fw.Series(x), fw.Series(z), 3, 0)


def signed_huge_data(value):
    """A 300-sample white input against a desired signal of random-sign
    ``+-value``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    z = np.where(rng.standard_normal(300) > 0, value, -value)
    return fw.embed_pair(fw.Series(x), fw.Series(z), 3, 0)


class TestWienerModel:
    def test_order(self):
        assert fw.WienerModel(np.array([1.0, 2.0])).order_L == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(DimensionError):
            fw.WienerModel(np.ones((2, 2)))
        with pytest.raises(ParameterError):
            fw.WienerModel(np.array([1.0, np.inf]))


@pytest.mark.parametrize(
    "fit", [fw.wiener_fit, lambda d: fw.krls_fit(d, sigma=1.0)], ids=["wiener", "krls"]
)
@pytest.mark.parametrize(
    "data",
    [lambda: signed_huge_data(1e307), lambda: huge_target_data(300, 150, 1.5e308),
     lambda: huge_target_data(300, 150, 1e160)],
    ids=["all-1e307", "one-1.5e308", "one-1e160"],
)
def test_targets_near_the_double_limit_raise_data_error(fit, data):
    # a covariance profile or the solve's norm passes the double range; the
    # suite turns any numpy RuntimeWarning into an error
    with pytest.raises(DataError, match="too large"):
        fit(data())


class TestWienerFit:
    def test_white_noise_identity_filter(self):
        x = fw.Series(np.random.default_rng(0).standard_normal(20000))
        m = fw.wiener_fit(fw.embed_pair(x, x, 4, 0))
        bound = 3.0 / np.sqrt(20000)
        assert abs(m.weights[0] - 1.0) < bound
        np.testing.assert_allclose(m.weights[1:], 0.0, atol=bound)

    def test_recovers_scaled_delay(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20000)
        z = np.concatenate([[0.0], 0.5 * x[:-1]])
        data = fw.embed_pair(fw.Series(x), fw.Series(z), 3, 0)
        m = fw.wiener_fit(data)
        bound = 3.0 / np.sqrt(20000)
        np.testing.assert_allclose(m.weights, [0.0, 0.5, 0.0], atol=bound)

    def test_recovers_fir_coefficients(self):
        x, z = fw.gen_fir_process([0.3, -0.2, 0.1], 100000, noise_seed=42)
        data = fw.embed_pair(x, z, 3, 0)
        m = fw.wiener_fit(data)
        np.testing.assert_allclose(m.weights, [0.3, -0.2, 0.1], atol=1e-2)

    def test_training_error_near_floor_for_in_order_system(self):
        # noise-free system inside the model class: only the per-lag
        # estimation mismatch is left
        x, z = fw.gen_fir_process([0.3, -0.2, 0.1], 10000, noise_seed=3)
        data = fw.embed_pair(x, z, 3, 0)
        m = fw.wiener_fit(data)
        resid = fw.wiener_predict(m, data.windows) - data.targets
        assert float(np.mean(resid**2)) < 1e-6

    def test_validation(self):
        # the order comes from the dataset; a second positional argument is
        # not taken for the ridge
        data = white_identity_data(100, 2, 4)
        assert fw.wiener_fit(data).order_L == 4
        with pytest.raises(TypeError):
            fw.wiener_fit(data, 3)
        # an array ridge is a bad ridge, not numpy's ambiguous truth value
        ridge = np.array([1.0, 2.0])
        with pytest.raises(ParameterError, match="ridge"):
            fw.wiener_fit(data, ridge=ridge)
        with pytest.raises(ParameterError, match="ridge"):
            evalbench.make_fitter("wiener", {"ridge": ridge}, 4, 0)


class TestWienerPredict:
    def test_identity_weight_reads_newest_sample(self):
        m = fw.WienerModel(np.array([1.0, 0.0, 0.0]))
        assert fw.wiener_predict(m, np.array([7.0, 8.0, 9.0])) == 7.0

    def test_matches_dot_loop(self, rng):
        m = fw.WienerModel(rng.standard_normal(5))
        X = rng.standard_normal((20, 5))
        out = fw.wiener_predict(m, X)
        for r in range(20):
            assert out[r] == pytest.approx(
                sum(m.weights[t] * X[r, t] for t in range(5)), rel=1e-14
            )

    def test_single_vs_batch(self, rng):
        m = fw.WienerModel(rng.standard_normal(4))
        x = rng.standard_normal(4)
        assert fw.wiener_predict(m, x) == fw.wiener_predict(m, x[None, :])[0]

    def test_dimension_errors(self):
        m = fw.WienerModel(np.ones(3))
        with pytest.raises(DimensionError):
            fw.wiener_predict(m, np.ones(4))
        with pytest.raises(DimensionError):
            fw.wiener_predict(m, np.ones((2, 2)))


class TestKafModel:
    def test_variant_and_sigma_coercion(self):
        m = fw.KafModel(np.ones((2, 3)), np.ones(2), 0.5, "klms")
        assert type(m.sigma) is float and m.sigma == 0.5
        assert m.n_centers == 2

    def test_empty_model_allowed(self):
        m = fw.KafModel(np.zeros((0, 3)), np.zeros(0), 1.0, "klms")
        assert m.n_centers == 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            fw.KafModel(np.ones((2, 3)), np.ones(2), 1.0, "kalman")
        with pytest.raises(DimensionError):
            fw.KafModel(np.ones(3), np.ones(3), 1.0, "klms")
        with pytest.raises(DimensionError):
            fw.KafModel(np.ones((2, 3)), np.ones(3), 1.0, "klms")


class TestKlms:
    def test_first_coefficient_is_eta_times_target(self):
        data = white_identity_data(50, 5, 3)
        m = fw.klms_fit(data, eta=0.4, sigma=1.0)
        assert m.coefficients[0] == 0.4 * data.targets[0]

    def test_zero_eta_gives_zero_model(self):
        data = white_identity_data(50, 5, 3)
        m = fw.klms_fit(data, eta=0.0, sigma=1.0)
        assert np.all(m.coefficients == 0.0)  # sign of zero is irrelevant

    def test_every_sample_becomes_a_center(self):
        data = white_identity_data(120, 6, 4)
        m = fw.klms_fit(data, sigma=1.0)
        assert m.n_centers == len(data)
        np.testing.assert_array_equal(m.centers, data.windows)

    def test_learns_static_nonlinearity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5000)
        data = fw.embed_pair(fw.Series(x), fw.Series(np.sin(3.0 * x)), 1, 0)
        m = fw.klms_fit(data, eta=0.5)
        errors = m.coefficients / 0.5
        n4 = len(errors) // 4
        assert np.mean(errors[-n4:] ** 2) < np.mean(errors[:n4] ** 2)

    def test_matches_scalar_recursion_single_block(self, rng):
        data = white_identity_data(300, 7, 3)
        m = fw.klms_fit(data, eta=0.5, sigma=0.8)
        ref = naive_klms(data.windows, data.targets, 0.5, 0.8)
        np.testing.assert_allclose(m.coefficients, ref, rtol=1e-9, atol=1e-12)

    def test_matches_scalar_recursion_across_blocks(self):
        data = white_identity_data(1500, 8, 3)
        m = fw.klms_fit(data, eta=0.3, sigma=1.1)
        ref = naive_klms(data.windows, data.targets, 0.3, 1.1)
        np.testing.assert_allclose(m.coefficients, ref, rtol=1e-9, atol=1e-12)

    def test_matches_scalar_recursion_tiny_blocks(self, monkeypatch):
        # shrink the block/slab spans so every code path runs on small data
        monkeypatch.setattr(baselines, "_KLMS_BLOCK", 16)
        monkeypatch.setattr(baselines, "_KLMS_SLAB", 32)
        data = white_identity_data(200, 9, 3)
        m = fw.klms_fit(data, eta=0.5, sigma=0.9)
        ref = naive_klms(data.windows, data.targets, 0.5, 0.9)
        np.testing.assert_allclose(m.coefficients, ref, rtol=1e-9, atol=1e-12)

    # 2,084 samples give 2,081 windows, whose last block is 33 rows: a
    # 32-row kernel chunk and a lone row
    @pytest.mark.parametrize("n", [300, 2084, 3100])
    def test_bitwise_equal_to_one_expression_slabs(self, n):
        data = white_identity_data(n, 12, 4)
        m = fw.klms_fit(data, eta=0.5, sigma=0.9)
        ref = oracles.klms_coefficients(data.windows, data.targets, 0.5, 0.9)
        assert m.coefficients.tobytes() == ref.tobytes()

    def test_bitwise_equal_to_one_expression_slabs_small_spans(self, monkeypatch):
        monkeypatch.setattr(baselines, "_KLMS_BLOCK", 64)
        monkeypatch.setattr(baselines, "_KLMS_SLAB", 96)
        monkeypatch.setattr(baselines, "_PREDICT_CHUNK", 8)
        data = white_identity_data(500, 13, 3)
        m = fw.klms_fit(data, eta=0.7, sigma=1.2)
        ref = oracles.klms_coefficients(
            data.windows, data.targets, 0.7, 1.2, block=64, slab=96
        )
        assert m.coefficients.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("at", [5, 1500])
    def test_non_finite_coefficients_raise(self, at):
        # an error past the double range at the last admissible step size;
        # the first sample's block or a later one
        data = huge_target_data(2100, at, 1.5e308)
        with pytest.raises(DataError, match="not finite"):
            fw.klms_fit(data, eta=2.0, sigma=1.0)

    def test_silverman_default_width(self):
        data = white_identity_data(400, 10, 3)
        m = fw.klms_fit(data)
        assert m.sigma == fw.silverman_sigma(data.source_x)

    def test_negative_eta_rejected(self):
        data = white_identity_data(50, 5, 3)
        with pytest.raises(ParameterError):
            fw.klms_fit(data, eta=-0.1)

    @pytest.mark.parametrize(
        "eta", [2.0 + 1e-12, 3.0, 1e300, pytest.param(10**400, id="1e400")]
    )
    def test_divergent_eta_rejected(self, eta):
        # each step scales the new sample's error by 1 - eta, so eta > 2
        # amplifies it
        data = white_identity_data(50, 5, 3)
        with pytest.raises(ParameterError, match="eta"):
            fw.klms_fit(data, eta=eta)

    def test_eta_two_is_accepted(self):
        data = white_identity_data(50, 5, 3)
        m = fw.klms_fit(data, eta=2.0, sigma=1.0)
        assert np.isfinite(m.coefficients).all()


class TestKrls:
    def test_single_sample_solution(self):
        data = fw.embed(fw.Series(np.array([1.0, 2.0, 3.0, 7.0])), 3, 1)
        m = fw.krls_fit(data, lam=0.5, sigma=1.0)
        assert m.n_centers == 1
        assert m.coefficients[0] == pytest.approx(7.0 / 1.5, rel=1e-14)

    def test_zero_lambda_interpolates(self):
        rng = np.random.default_rng(11)
        data = white_identity_data(30, 11, 3)
        m = fw.krls_fit(data, lam=0.0, sigma=1.0)
        at_centers = fw.kaf_predict(m, data.windows)
        np.testing.assert_allclose(at_centers, data.targets, rtol=1e-8, atol=1e-8)

    def test_matches_dense_solve(self):
        data = white_identity_data(200, 12, 4)
        lam, sig = 1e-4, 0.9
        m = fw.krls_fit(data, lam=lam, sigma=sig)
        X = data.windows
        d = X[:, None, :] - X[None, :, :]
        K = np.exp(-np.sum(d * d, axis=2) / (2.0 * sig * sig))
        ref = np.linalg.solve(K + lam * np.eye(len(data)), data.targets)
        np.testing.assert_allclose(m.coefficients, ref, rtol=1e-8, atol=1e-8)

    def test_duplicate_centers_without_ridge_fail(self):
        x = fw.Series(np.array([1.0, 1.0, 1.0, 1.0, 2.0]))
        data = fw.embed(x, 2, 1)  # repeated [1, 1] windows
        with pytest.raises(ConditioningError):
            fw.krls_fit(data, lam=0.0, sigma=1.0)

    def test_negative_lambda_rejected(self):
        data = white_identity_data(20, 13, 2)
        with pytest.raises(ParameterError):
            fw.krls_fit(data, lam=-1e-6)

    def test_krr_is_same_estimator(self):
        # a binding kept for callers of the old name; no config names krr
        assert fw.krr_fit is fw.krls_fit

    def test_residual_over_tolerance_raises(self):
        # 301 closely spaced 2-d windows: dpotrf factors the regularized
        # Gram, but the residual of the in-place solve is far over tolerance
        data = fw.embed(fw.Series(np.linspace(0.0, 1.0, 302)), 2, 0)
        K = np.exp(-cdist(data.windows, data.windows, "sqeuclidean") / 2.0)
        assert oracles.solve_weights(K, data.targets, 1e-12)[1] == 0
        with pytest.raises(ConditioningError, match=r"^weight solve residual \S+ "
                           "exceeds tolerance; the system is too ill-conditioned$"):
            fw.krls_fit(data, lam=1e-12, sigma=1.0)


@pytest.fixture(scope="module")
def mg60():
    """The criterion-2 series: Mackey-Glass sampled every 60 steps."""
    return fw.standardize(
        evalbench.make_series("mackey_glass", {"downsample": 60}, 0, 2010))


def mg60_data(series, n):
    """``n`` windows of length 10 at horizon 1."""
    return fw.embed(fw.Series(series.values[: n + 10]), 10, 1)


def traced_peak(fit):
    """Peak bytes numpy allocates while ``fit`` runs."""
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGramInPlace:
    """KRLS factors its Gram in place, read as a Fortran-ordered matrix
    through its transpose; KLMS builds each block Gram in one buffer."""

    @pytest.mark.parametrize("n", [300, 2000])
    def test_krls_bitwise_equal_to_explicit_gram_solve(self, mg60, n):
        # 2000 is past OpenBLAS's blocking of dpotrf
        data = mg60_data(mg60, n)
        K = np.exp(-cdist(data.windows, data.windows, "sqeuclidean") / 2.0)
        ref, info = oracles.solve_weights(K, data.targets, 1e-6)
        assert info == 0
        m = fw.krls_fit(data, lam=1e-6, sigma=1.0)
        assert m.coefficients.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [300, 2000])
    def test_squared_distances_are_bitwise_symmetric(self, mg60, n):
        # krls_fit hands the Gram's transpose to the solve as the same matrix
        X = mg60_data(mg60, n).windows
        D = cdist(X, X, "sqeuclidean")
        assert D.flags.c_contiguous
        assert D.tobytes() == D.T.tobytes()

    def test_krls_holds_one_gram(self, mg60):
        # a second N x N copy would put the peak over 2 x 8 N^2
        n = 2000
        data = mg60_data(mg60, n)
        assert traced_peak(lambda: fw.krls_fit(data, lam=1e-6, sigma=1.0)) \
            <= 1.15 * 8 * n * n

    def test_klms_holds_one_block_gram(self, mg60):
        data = mg60_data(mg60, 2000)
        B = baselines._KLMS_BLOCK
        assert traced_peak(lambda: fw.klms_fit(data, eta=0.5, sigma=1.0)) \
            <= 1.15 * 8 * B * B


class TestKafPredict:
    def test_empty_model_predicts_zero(self):
        m = fw.KafModel(np.zeros((0, 3)), np.zeros(0), 1.0, "klms")
        assert fw.kaf_predict(m, np.ones(3)) == 0.0
        np.testing.assert_array_equal(
            fw.kaf_predict(m, np.ones((4, 3))), np.zeros(4)
        )

    def test_single_center_at_query(self):
        m = fw.KafModel(np.array([[1.0, 2.0]]), np.array([3.5]), 1.0, "krls")
        assert fw.kaf_predict(m, np.array([1.0, 2.0])) == 3.5

    def test_matches_expansion_loop(self, rng):
        m = fw.KafModel(
            rng.standard_normal((12, 4)), rng.standard_normal(12), 0.8, "klms"
        )
        x = rng.standard_normal(4)
        ref = sum(
            m.coefficients[i]
            * np.exp(-np.sum((m.centers[i] - x) ** 2) / (2.0 * 0.8**2))
            for i in range(12)
        )
        assert fw.kaf_predict(m, x) == pytest.approx(ref, rel=1e-14)

    def test_chunking_is_invisible(self, rng, monkeypatch):
        m = fw.KafModel(
            rng.standard_normal((20, 3)), rng.standard_normal(20), 1.0, "krls"
        )
        X = rng.standard_normal((11, 3))
        whole = fw.kaf_predict(m, X)
        monkeypatch.setattr(baselines, "_PREDICT_CHUNK", 3)
        # chunk shape changes the BLAS path, so equality is to rounding
        np.testing.assert_allclose(fw.kaf_predict(m, X), whole, rtol=1e-14)

    # row counts around the 32-row chunks and the 4096-row blocks
    @pytest.mark.parametrize("B", [1, 2, 31, 32, 33, 34, 65, 100, 4096, 4097])
    def test_bitwise_equal_to_one_expression_blocks(self, rng, B):
        m = fw.KafModel(
            rng.standard_normal((40, 5)), rng.standard_normal(40), 1.3, "klms"
        )
        X = rng.standard_normal((B, 5))
        assert fw.kaf_predict(m, X).tobytes() == oracles.kaf_predict(m, X).tobytes()
        assert fw.kaf_predict(m, X[0]) == oracles.kaf_predict(m, X[0])[0]

    def test_dimension_mismatch(self, rng):
        m = fw.KafModel(np.ones((2, 3)), np.ones(2), 1.0, "klms")
        with pytest.raises(DimensionError):
            fw.kaf_predict(m, np.ones(4))

    def test_dimension_mismatch_without_centers(self):
        m = fw.KafModel(np.empty((0, 3)), np.empty(0), 1.0, "klms")
        with pytest.raises(DimensionError):
            fw.kaf_predict(m, np.ones((2, 5)))
        with pytest.raises(DimensionError):
            fw.kaf_predict(m, np.ones(5))
