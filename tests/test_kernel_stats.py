import numpy as np
import pytest
import scipy.linalg

import fwfilter as fw
import oracles
from fwfilter.errors import (
    AlignmentError,
    DegenerateSeriesError,
    DimensionError,
    DomainError,
    ParameterError,
)
from fwfilter.kernel_stats import auto_ridge, check_width


def brute_gaussian(a, b, sg):
    return np.exp(-((a - b) ** 2) / (2.0 * sg * sg))


def brute_autocorrentropy(x, L, sg):
    N = len(x)
    vals = np.empty(L)
    vals[0] = 1.0
    for tau in range(1, L):
        acc = 0.0
        for t in range(tau, N):
            acc += brute_gaussian(x[t], x[t - tau], sg)
        vals[tau] = acc / (N - tau)
    return vals


def brute_crosscorrentropy(x, z, L, sg):
    N = len(x)
    vals = np.empty(L)
    for tau in range(L):
        acc = 0.0
        for t in range(tau, N):
            acc += brute_gaussian(z[t], x[t - tau], sg)
        vals[tau] = acc / (N - tau)
    return vals


def brute_autocovariance(x, L):
    N = len(x)
    vals = np.empty(L)
    for tau in range(L):
        acc = 0.0
        for t in range(tau, N):
            acc += x[t] * x[t - tau]
        vals[tau] = acc / (N - tau)
    return vals


def brute_crosscovariance(x, z, L):
    N = len(x)
    vals = np.empty(L)
    for tau in range(L):
        acc = 0.0
        for t in range(tau, N):
            acc += z[t] * x[t - tau]
        vals[tau] = acc / (N - tau)
    return vals


class TestKernelWidth:
    def test_holds_sigma(self):
        assert check_width("sigma", 0.5) == 0.5
        assert type(check_width("sigma", np.float32(0.5))) is float

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ParameterError, match="sigma"):
            check_width("sigma", bad)

    @pytest.mark.parametrize("sigma", [1e-170, 1e-160, 1e200])
    def test_every_entry_rejects_out_of_domain(self, sigma):
        # 2 sigma^2 or its reciprocal is 0 or inf at these widths, which made
        # the fits divide by zero, overflow or predict NaN
        s = fw.standardize(fw.gen_mackey_glass(fw.MGParams(), 400))
        data = fw.embed(s, 10, 1)
        entries = [
            lambda: fw.FwfConfig(order_L=10, sigma_input=sigma),
            lambda: fw.FwfConfig(order_L=10, sigma_weight=sigma),
            lambda: fw.klms_fit(data, sigma=sigma),
            lambda: fw.krls_fit(data, sigma=sigma),
            lambda: fw.krr_fit(data, sigma=sigma),
            lambda: fw.make_fitter("krls", {"sigma": sigma}, 10, 1),
            lambda: fw.KafModel(np.ones((2, 10)), np.ones(2), sigma, "klms"),
        ]
        for entry in entries:
            with pytest.raises(ParameterError, match="sigma"):
                entry()


class TestGaussian:
    def test_identity_is_one(self):
        assert fw.gaussian(3.7, 3.7, 1.0) == 1.0

    def test_unit_distance_unit_sigma(self):
        assert fw.gaussian(0.0, 1.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_symmetry_and_translation_invariance(self, rng):
        a, b = rng.standard_normal(2)
        w = 0.8
        assert fw.gaussian(a, b, w) == fw.gaussian(b, a, w)
        assert fw.gaussian(a + 5.0, b + 5.0, w) == pytest.approx(
            fw.gaussian(a, b, w), rel=1e-15
        )

    def test_broadcasts(self, rng):
        x = rng.standard_normal((4, 3))
        out = fw.gaussian(x, 0.0, 1.0)
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out, np.exp(-x * x / 2.0), rtol=1e-15)

    def test_range(self, rng):
        out = fw.gaussian(rng.standard_normal(100), 0.0, 0.3)
        assert np.all(out > 0.0) and np.all(out <= 1.0)

    def test_accepts_bare_float_width(self):
        assert fw.gaussian(0.0, 1.0, 2.0) == fw.gaussian(0.0, 1.0, 2)


class TestGaussianInverse:
    def test_one_maps_to_zero(self):
        assert fw.gaussian_inverse(1.0, 1.0) == 0.0

    def test_known_point(self):
        assert fw.gaussian_inverse(np.exp(-0.5), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_roundtrip(self, rng):
        sg = 0.7
        d = np.abs(rng.standard_normal(1000)) * 2.0
        g = fw.gaussian(d, 0.0, sg)
        back = fw.gaussian_inverse(g, sg)
        np.testing.assert_allclose(back, d, rtol=1e-12, atol=1e-12)

    def test_roundtrip_other_direction(self, rng):
        sg = 1.3
        g = rng.uniform(1e-6, 1.0, 1000)
        d = fw.gaussian_inverse(g, sg)
        np.testing.assert_allclose(fw.gaussian(d, 0.0, sg), g, rtol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0 + 1e-9, 2.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            fw.gaussian_inverse(bad, 1.0)


class TestAutocorrentropy:
    def test_constant_series_all_ones(self):
        prof = fw.autocorrentropy(np.full(50, 2.5), 5, 1.0)
        np.testing.assert_array_equal(prof, np.ones(5))

    def test_lag_zero_is_exactly_one(self, rng):
        prof = fw.autocorrentropy(rng.standard_normal(100), 8, 0.5)
        assert prof[0] == 1.0

    def test_alternating_series(self):
        x = np.array([1.0, -1.0] * 50)
        prof = fw.autocorrentropy(x, 3, 1.0)
        assert prof[1] == pytest.approx(np.exp(-2.0), rel=1e-14)
        assert prof[2] == pytest.approx(1.0)

    def test_bounds(self, rng):
        for _ in range(20):
            x = rng.standard_normal(80)
            prof = fw.autocorrentropy(x, 6, rng.uniform(0.1, 2.0))
            assert np.all(prof > 0.0) and np.all(prof <= 1.0)

    def test_matches_double_loop(self, rng):
        for N in (7, 25, 200):
            x = rng.standard_normal(N)
            sg = rng.uniform(0.3, 1.5)
            prof = fw.autocorrentropy(x, min(6, N), sg)
            ref = brute_autocorrentropy(x, min(6, N), sg)
            np.testing.assert_allclose(prof, ref, rtol=1e-12, atol=1e-12)

    def test_kind_and_length(self, rng):
        prof = fw.autocorrentropy(rng.standard_normal(30), 4, 1.0)
        assert isinstance(prof, np.ndarray) and prof.dtype == float
        assert prof.shape == (4,)

    def test_accepts_series(self, mg_series):
        prof = fw.autocorrentropy(mg_series, 10, 0.5)
        assert len(prof) == 10

    def test_length_boundary(self, rng):
        x = rng.standard_normal(5)
        prof = fw.autocorrentropy(x, 5, 1.0)  # one pair at the top lag
        assert np.isfinite(prof[4])
        with pytest.raises(DimensionError):
            fw.autocorrentropy(x, 6, 1.0)


class TestCrosscorrentropy:
    def test_equal_series_lag_zero(self, rng):
        x = rng.standard_normal(50)
        prof = fw.crosscorrentropy(x, x, 3, 0.7)
        assert prof[0] == 1.0

    def test_shifted_series_peaks_at_lag_one(self, rng):
        x = rng.standard_normal(100)
        z = np.concatenate([[0.0], x[:-1]])  # z(t) = x(t-1)
        prof = fw.crosscorrentropy(x, z, 3, 0.5)
        assert prof[1] == 1.0
        assert prof[0] < 1.0

    def test_six_sample_example(self):
        x = np.array([0.1, -0.4, 0.9, 0.3, -0.7, 0.5])
        z = np.array([0.2, 0.6, -0.1, 0.8, 0.4, -0.3])
        prof = fw.crosscorrentropy(x, z, 4, 0.7)
        ref = brute_crosscorrentropy(x, z, 4, 0.7)
        np.testing.assert_allclose(prof, ref, rtol=1e-14)

    def test_matches_double_loop(self, rng):
        for N in (10, 60, 200):
            x, z = rng.standard_normal((2, N))
            sg = rng.uniform(0.3, 1.5)
            prof = fw.crosscorrentropy(x, z, 5, sg)
            ref = brute_crosscorrentropy(x, z, 5, sg)
            np.testing.assert_allclose(prof, ref, rtol=1e-12, atol=1e-12)

    def test_length_mismatch(self, rng):
        with pytest.raises(AlignmentError):
            fw.crosscorrentropy(rng.standard_normal(10), rng.standard_normal(9), 2, 1.0)


class TestCovarianceProfiles:
    def test_white_noise_moments(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal(100000)
        prof = fw.autocovariance(x, 4)
        assert prof[0] == pytest.approx(1.0, abs=0.02)
        np.testing.assert_allclose(prof[1:], 0.0, atol=0.02)

    def test_alternating_series(self):
        x = np.array([1.0, -1.0] * 20)
        prof = fw.autocovariance(x, 2)
        assert prof[0] == 1.0
        assert prof[1] == -1.0

    def test_cross_of_identical_series_matches_auto(self, rng):
        x = rng.standard_normal(150)
        a = fw.autocovariance(x, 6)
        c = fw.crosscovariance(x, x, 6)
        np.testing.assert_array_equal(a, c)

    def test_matches_double_loop(self, rng):
        x, z = rng.standard_normal((2, 120))
        np.testing.assert_allclose(
            fw.autocovariance(x, 7), brute_autocovariance(x, 7), rtol=1e-12
        )
        np.testing.assert_allclose(
            fw.crosscovariance(x, z, 7),
            brute_crosscovariance(x, z, 7),
            rtol=1e-12,
            atol=1e-12,
        )


class TestLagProfileValidation:
    def test_correntropy_bounds_enforced(self, rng):
        # a width this small underflows every off-lag kernel value to 0
        x = rng.standard_normal(50)
        with pytest.raises(ParameterError, match="correntropy entries"):
            fw.autocorrentropy(x, 3, 1e-150)
        with pytest.raises(ParameterError, match="correntropy entries"):
            fw.crosscorrentropy(x, x[::-1].copy(), 3, 1e-150)

    def test_correntropy_lag_zero_pinned(self, rng):
        for sg in (0.05, 0.5, 1e3):
            assert fw.autocorrentropy(rng.standard_normal(40), 4, sg)[0] == 1.0

    def test_covariance_unconstrained_sign(self):
        x = np.array([1.0, -1.0] * 10)
        assert fw.crosscovariance(x, -x, 2)[0] == -1.0

    def test_non_finite_rejected(self, rng):
        for bad in (np.nan, np.inf):
            x = rng.standard_normal(30)
            x[7] = bad
            for estimate in (
                lambda: fw.autocorrentropy(x, 3, 1.0),
                lambda: fw.crosscorrentropy(x, x, 3, 1.0),
                lambda: fw.autocovariance(x, 3),
                lambda: fw.crosscovariance(x, x, 3),
                lambda: fw.silverman_sigma(x),
            ):
                with pytest.raises(ParameterError, match="finite"):
                    estimate()

    @pytest.mark.parametrize("N,L,sg", [(5, 1, 1.0), (7, 7, 0.3), (200, 10, 1.7)])
    def test_auto_profiles_match_reference(self, rng, N, L, sg):
        # the auto estimators are the cross estimators of a series with
        # itself; their output bits equal the direct auto formulas
        x = rng.standard_normal(N)
        np.testing.assert_array_equal(
            fw.autocorrentropy(x, L, sg), oracles.autocorrentropy(x, L, sg)
        )
        np.testing.assert_array_equal(
            fw.autocovariance(x, L), oracles.autocovariance(x, L)
        )


class TestToeplitz:
    def test_three_lag_example(self):
        mat = fw.toeplitz(np.array([1.0, 0.5, 0.25]))
        np.testing.assert_array_equal(
            mat,
            [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]],
        )

    def test_exactly_symmetric(self, rng):
        prof = fw.autocorrentropy(rng.standard_normal(200), 12, 0.6)
        mat = fw.toeplitz(prof)
        np.testing.assert_array_equal(mat, mat.T)

    def test_constant_diagonals(self, rng):
        prof = fw.autocovariance(rng.standard_normal(100), 5)
        m = fw.toeplitz(prof)
        for k in range(5):
            np.testing.assert_array_equal(np.diag(m, k), np.full(5 - k, prof[k]))

    def test_lag_matrix_rejects_non_square(self):
        with pytest.raises(DimensionError):
            fw.solve_weights(np.zeros((2, 3)), np.ones(2), 0.0)


class TestRkhsInner:
    def test_unit_elements(self, rng):
        prof = fw.autocorrentropy(rng.standard_normal(100), 5, 1.0)
        assert oracles.rkhs_inner([(0, 1.0)], [(0, 1.0)], prof) == 1.0
        assert oracles.rkhs_inner([(0, 1.0)], [(3, 1.0)], prof) == prof[3]

    def test_matches_double_sum(self, rng):
        prof = fw.autocorrentropy(rng.standard_normal(100), 8, 0.9)
        a = [(0, 0.3), (2, -1.1), (5, 0.7)]
        b = [(1, 0.4), (3, 0.2), (7, -0.6)]
        ref = sum(
            ca * cb * prof[abs(ta - tb)] for ta, ca in a for tb, cb in b
        )
        assert oracles.rkhs_inner(a, b, prof) == pytest.approx(ref, rel=1e-14)

    def test_symmetry_and_scaling(self, rng):
        prof = fw.autocovariance(rng.standard_normal(100), 6)
        a = [(0, 0.5), (4, 1.5)]
        b = [(2, -0.3), (5, 0.8)]
        assert oracles.rkhs_inner(a, b, prof) == pytest.approx(
            oracles.rkhs_inner(b, a, prof), rel=1e-14
        )
        scaled = [(t, 3.0 * c) for t, c in a]
        assert oracles.rkhs_inner(scaled, b, prof) == pytest.approx(
            3.0 * oracles.rkhs_inner(a, b, prof), rel=1e-14
        )

    def test_lag_out_of_range(self, rng):
        prof = fw.autocovariance(rng.standard_normal(50), 3)
        with pytest.raises(ParameterError, match="lag"):
            oracles.rkhs_inner([(0, 1.0)], [(5, 1.0)], prof)


class TestSilverman:
    def test_unit_std_exact(self):
        # +-1 repeated: mean 0, population std exactly 1
        x = np.tile([1.0, -1.0], 50000)
        sg = fw.silverman_sigma(x)
        assert sg == pytest.approx(1.06 * 100000 ** (-0.2), rel=1e-12)
        assert sg == pytest.approx(0.106, rel=1e-12)

    def test_scales_with_std(self):
        x = np.tile([1.0, -1.0], 500)
        assert fw.silverman_sigma(3.0 * x) == pytest.approx(
            3.0 * fw.silverman_sigma(x), rel=1e-12
        )

    def test_standardized_benchmark_range(self, mg_series):
        sg = fw.silverman_sigma(fw.Series(mg_series.values[:2000]))
        assert 0.2 < sg < 0.4

    def test_constant_series(self):
        with pytest.raises(DegenerateSeriesError):
            fw.silverman_sigma(np.ones(10))

    def test_needs_two_samples(self):
        with pytest.raises(ParameterError):
            fw.silverman_sigma(np.array([1.0]))


class TestLargeSigmaLimit:
    def test_tracks_second_moment_within_one_percent(self):
        # for sigma >> data scale, 1 - v(tau) ~ E[(X(t) - X(t-tau))^2] / (2 sigma^2)
        rng = np.random.default_rng(2024)
        x = fw.standardize(fw.Series(rng.standard_normal(2048))).values
        sigma = 100.0
        prof = fw.autocorrentropy(x, 7, sigma)
        cov = fw.autocovariance(x, 7)
        for tau in range(1, 7):
            d = x[tau:] - x[:-tau]
            msd = float(np.mean(d * d))
            pred = msd / (2.0 * sigma * sigma)
            actual = 1.0 - prof[tau]
            assert abs(actual - pred) / pred < 0.01
            # same statement through the covariance profile
            pred_cov = (cov[0] - cov[tau]) / (sigma * sigma)
            assert abs(actual - pred_cov) / pred_cov < 0.01


class TestAutoRidge:
    def test_posdef_matrix_gets_base_ridge(self, rng):
        x = rng.standard_normal(400)
        V = fw.toeplitz(fw.autocorrentropy(x, 10, fw.silverman_sigma(x)))
        ridge = auto_ridge(V)
        assert ridge == pytest.approx(1e-8, rel=1e-12)  # trace/L = 1 for correntropy

    def test_whitened_series_factorizes_at_base(self, rng):
        # the estimator is unbiased per lag, so near-singular profiles can
        # only come from strong sample correlation; iid draws stay SPD
        for _ in range(10):
            x = rng.standard_normal(400)
            V = fw.toeplitz(fw.autocorrentropy(x, 10, fw.silverman_sigma(x)))
            m = V + auto_ridge(V) * np.eye(10)
            scipy.linalg.cho_factor(m)  # raises if not SPD

    def test_escalates_on_indefinite_matrix(self):
        m = np.array([[1.0, 1.1], [1.1, 1.0]])  # eigenvalues 2.1, -0.1
        ridge = auto_ridge(m)
        assert ridge == pytest.approx(0.2 + 1e-8, rel=1e-9)
        assert np.linalg.eigvalsh(m + ridge * np.eye(2)).min() > 0

    def test_escalates_on_smooth_series(self):
        # densely sampled smooth series: correntropy matrix goes indefinite
        s = fw.standardize(fw.gen_mackey_glass(fw.MGParams(downsample=1), 1500))
        V = fw.toeplitz(fw.autocorrentropy(s, 10, 0.2))
        lam_min = np.linalg.eigvalsh(V).min()
        assert lam_min < 1e-8  # the motivating failure mode
        ridge = auto_ridge(V)
        assert ridge > 1e-8
        scipy.linalg.cho_factor(V + ridge * np.eye(10))
