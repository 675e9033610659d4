import numpy as np
import pytest
from scipy.signal import lfilter

import fwfilter as fw
import oracles
from fwfilter.errors import (
    DataError,
    DegenerateSeriesError,
    DimensionError,
    IntegrationDivergenceError,
    ParameterError,
)


def mg_reference(p, n, warmup, init):
    """Flat-array Mackey-Glass integrator used as an oracle.

    Stores every state instead of a circular delay buffer; the delayed
    sample feeding step i is the state after i - slots + 1 steps (constant
    pre-history at ``init`` before that).
    """
    slots = int(round(p.tau_delay / p.step))
    total = warmup + n * p.downsample
    full = np.empty(total + 1)
    full[0] = init

    def f(xc, xd):
        return p.beta * xd / (1.0 + xd**p.n_exp) - p.gamma * xc

    for i in range(total):
        j = i - slots + 1
        xd = full[j] if j >= 0 else init
        x = full[i]
        k1 = p.step * f(x, xd)
        k2 = p.step * f(x + 0.5 * k1, xd)
        k3 = p.step * f(x + 0.5 * k2, xd)
        k4 = p.step * f(x + k3, xd)
        full[i + 1] = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return full[:total][warmup :: p.downsample][:n]


def lorenz_rk4_step(state, p):
    def f(s):
        x, y, z = s
        return np.array(
            [p.sigma * (y - x), x * (p.rho - z) - y, x * y - p.beta * z]
        )

    k1 = p.step * f(state)
    k2 = p.step * f(state + 0.5 * k1)
    k3 = p.step * f(state + 0.5 * k2)
    k4 = p.step * f(state + k3)
    return state + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


class TestSeries:
    def test_basic(self):
        s = fw.Series(np.array([1.0, 2.0, 3.0]))
        assert len(s) == 3
        assert s.mean is None and s.std is None

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            fw.Series(np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            fw.Series(np.array([1.0, np.inf]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            fw.Series(np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            fw.Series(np.array([]))


class TestMGParams:
    def test_defaults(self):
        p = fw.MGParams()
        assert p.beta == 0.2 and p.gamma == 0.1 and p.n_exp == 10.0
        assert p.tau_delay == 30.0 and p.step == 0.1 and p.downsample == 6
        assert p.history_slots == 300

    def test_invalid_fields_name_the_field(self):
        with pytest.raises(ParameterError, match="tau_delay"):
            fw.MGParams(tau_delay=-1.0)
        with pytest.raises(ParameterError, match="step"):
            fw.MGParams(step=0.0)
        with pytest.raises(ParameterError, match="downsample"):
            fw.MGParams(downsample=0)

    @pytest.mark.parametrize("cls", [fw.MGParams, fw.LorenzParams])
    @pytest.mark.parametrize("value", ["x", None, True, [1.0]])
    def test_non_numbers_rejected(self, cls, value):
        # checked before any comparison, so the error is a ParameterError
        with pytest.raises(ParameterError, match="step"):
            cls(step=value)
        with pytest.raises(ParameterError, match="downsample"):
            cls(downsample=value)
        with pytest.raises(ParameterError, match="downsample"):
            cls(downsample=2.0)

    def test_delay_must_align_with_step(self):
        with pytest.raises(ParameterError):
            fw.MGParams(tau_delay=0.35, step=0.1)

    @pytest.mark.parametrize("name", ["beta", "gamma", "n_exp", "tau_delay", "step"])
    def test_infinite_fields_rejected(self, name):
        with pytest.raises(ParameterError, match=f"MGParams.{name}"):
            fw.MGParams(**{name: np.inf})

    def test_slot_count_must_be_finite(self):
        # 30 / 1e-320 overflows to infinity, which has no whole slot count
        with pytest.raises(ParameterError, match="tau_delay/step"):
            fw.MGParams(step=1e-320)


class TestMackeyGlass:
    def test_equilibrium_at_one_stays_constant(self):
        # x = 1 solves beta*x/(1+x^n) = gamma*x with the default constants
        s = fw.gen_mackey_glass(fw.MGParams(), 200, warmup=3000, init=1.0)
        assert np.all(s.values == 1.0)

    def test_default_range_and_variation(self):
        s = fw.gen_mackey_glass(fw.MGParams(), 5000)
        assert np.all(s.values > 0.0) and np.all(s.values < 2.0)
        assert np.std(s.values) > 0.01

    def test_matches_flat_array_reference(self):
        p = fw.MGParams(tau_delay=17.0, step=0.1, downsample=3)
        s = fw.gen_mackey_glass(p, 400, warmup=500, init=0.9)
        ref = mg_reference(p, 400, 500, 0.9)
        np.testing.assert_allclose(s.values, ref, rtol=1e-12, atol=1e-12)

    def test_no_dominant_long_lag_autocorrelation(self):
        # chaotic regime at tau = 30: no near-periodic structure survives
        s = fw.standardize(fw.gen_mackey_glass(fw.MGParams(), 2000))
        x = s.values
        worst = max(
            abs(float(np.mean(x[tau:] * x[:-tau]))) for tau in range(51, 400)
        )
        assert worst < 0.99

    def test_divergence_raises_with_step_index(self):
        p = fw.MGParams(tau_delay=30.0, step=30.0, downsample=1)
        with pytest.raises(IntegrationDivergenceError) as exc:
            fw.gen_mackey_glass(p, 400, warmup=1, init=1.2)
        assert exc.value.step_index is not None
        assert exc.value.exit_code == 3

    @pytest.mark.parametrize(
        "params, init, warmup",
        [
            ({}, 1.2, 3000),
            ({"downsample": 1}, 0.9, 300),
            ({"downsample": 60}, 1.25, 3000),
            ({"tau_delay": 17.0, "downsample": 3}, 0.5, 500),
            ({"beta": 0.25, "gamma": 0.12, "n_exp": 9.65, "step": 0.05,
              "tau_delay": 12.5, "downsample": 2}, 1.1, 250),
            ({}, 1.0, 3000),
        ],
    )
    def test_bitwise_equal_to_ring_oracle(self, params, init, warmup):
        p = fw.MGParams(**params)
        s = fw.gen_mackey_glass(p, 700, warmup=warmup, init=init)
        ref = oracles.gen_mackey_glass_ring(p, 700, warmup=warmup, init=init)
        assert s.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "params, init",
        [
            ({"tau_delay": 30.0, "step": 30.0}, 1.2),
            ({"tau_delay": 1.0, "step": 1.0, "gamma": 5.0}, 1.9),
        ],
    )
    def test_divergence_step_matches_ring_oracle(self, params, init):
        p = fw.MGParams(downsample=1, **params)
        with pytest.raises(IntegrationDivergenceError) as ours:
            fw.gen_mackey_glass(p, 400, warmup=1, init=init)
        with pytest.raises(IntegrationDivergenceError) as ref:
            oracles.gen_mackey_glass_ring(p, 400, warmup=1, init=init)
        assert ours.value.step_index == ref.value.step_index

    def test_warmup_must_cover_history(self):
        with pytest.raises(ParameterError, match="warmup"):
            fw.gen_mackey_glass(fw.MGParams(), 10, warmup=10)


class TestLorenzParams:
    @pytest.mark.parametrize("name", ["sigma", "rho", "beta", "step"])
    def test_infinite_fields_rejected(self, name):
        with pytest.raises(ParameterError, match=f"LorenzParams.{name}"):
            fw.LorenzParams(**{name: np.inf})


class TestLorenz:
    def test_origin_is_fixed(self):
        s = fw.gen_lorenz(fw.LorenzParams(), 50, warmup=100, init=(0.0, 0.0, 0.0))
        assert np.all(s.values == 0.0)

    def test_nontrivial_fixed_point(self):
        # C+ = (sqrt(beta*(rho-1)), sqrt(beta*(rho-1)), rho-1)
        c = np.sqrt((8.0 / 3.0) * 27.0)
        p = fw.LorenzParams(downsample=1)
        s = fw.gen_lorenz(p, 100, warmup=0, init=(c, c, 27.0))
        np.testing.assert_allclose(s.values, c, atol=1e-6)

    def test_single_step_matches_reference(self):
        p = fw.LorenzParams(downsample=1)
        s = fw.gen_lorenz(p, 2, warmup=0, init=(1.0, 1.0, 1.0))
        ref = lorenz_rk4_step(np.array([1.0, 1.0, 1.0]), p)
        assert s.values[0] == 1.0
        assert abs(s.values[1] - ref[0]) < 1e-10

    def test_step_halving_error_scaling(self):
        # local truncation error is O(step^5): halving the step should cut
        # the one-step error by roughly 2^4 (two half-steps accumulate)
        h = 0.05
        init = (1.0, 2.0, 3.0)
        full = fw.gen_lorenz(
            fw.LorenzParams(step=h, downsample=1), 2, warmup=0, init=init
        ).values[1]
        half = fw.gen_lorenz(
            fw.LorenzParams(step=h / 2, downsample=1), 3, warmup=0, init=init
        ).values[2]
        ref = fw.gen_lorenz(
            fw.LorenzParams(step=h / 200, downsample=1), 201, warmup=0, init=init
        ).values[200]
        ratio = abs(full - ref) / abs(half - ref)
        assert 6.0 < ratio < 40.0

    def test_divergence_raises(self):
        with pytest.raises(IntegrationDivergenceError):
            fw.gen_lorenz(fw.LorenzParams(step=1.0), 200, warmup=0)

    @pytest.mark.parametrize("downsample", [1, 5])
    @pytest.mark.parametrize(
        "init", [(1.0, 1.0, 1.0), (1.03, 0.98, 1.01), (-5.0, 7.5, 20.0)]
    )
    def test_bitwise_equal_to_vector_oracle(self, init, downsample):
        p = fw.LorenzParams(downsample=downsample)
        s = fw.gen_lorenz(p, 1500, warmup=500, init=init)
        ref = oracles.gen_lorenz_vector(p, 1500, warmup=500, init=init)
        assert s.values.tobytes() == ref.tobytes()

    def test_divergence_step_matches_vector_oracle(self):
        p = fw.LorenzParams(step=1.0)
        with pytest.raises(IntegrationDivergenceError) as ours:
            fw.gen_lorenz(p, 200, warmup=0)
        with pytest.raises(IntegrationDivergenceError) as ref:
            oracles.gen_lorenz_vector(p, 200, warmup=0)
        assert ours.value.step_index == ref.value.step_index

    def test_chaotic_default_output_varies(self):
        s = fw.gen_lorenz(fw.LorenzParams(), 1000)
        assert np.std(s.values) > 1.0
        assert np.all(np.abs(s.values) < 30.0)


class TestFirProcess:
    def test_identity_filter(self):
        x, z = fw.gen_fir_process([1.0], 500, noise_seed=3)
        np.testing.assert_array_equal(x.values, z.values)

    def test_pure_delay_with_gain(self):
        x, z = fw.gen_fir_process([0.0, 0.5], 500, noise_seed=3)
        np.testing.assert_allclose(z.values[1:], 0.5 * x.values[:-1], rtol=1e-15)
        assert z.values[0] == 0.0

    def test_matches_explicit_convolution(self):
        coeffs = np.array([0.3, -0.2, 0.1])
        x, z = fw.gen_fir_process(coeffs, 200, noise_seed=11)
        ref = np.convolve(x.values, coeffs)[:200]
        np.testing.assert_allclose(z.values, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("taps", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_lfilter(self, taps, seed):
        coeffs = np.random.default_rng(100 + seed).standard_normal(taps)
        for n in (max(taps - 1, 1), 500):  # n < taps where taps > 1
            x, z = fw.gen_fir_process(coeffs, n, noise_seed=seed)
            ref = lfilter(coeffs, [1.0], x.values)
            assert z.values.tobytes() == ref.tobytes()

    def test_least_squares_recovers_coefficients(self):
        coeffs = [0.3, -0.2, 0.1]
        x, z = fw.gen_fir_process(coeffs, 20000, noise_seed=5)
        data = fw.embed_pair(x, z, 3, 0)
        w, *_ = np.linalg.lstsq(data.windows, data.targets, rcond=None)
        np.testing.assert_allclose(w, coeffs, atol=1e-2)

    def test_seed_determinism(self):
        a = fw.gen_fir_process([1.0, 0.5], 100, noise_seed=9)
        b = fw.gen_fir_process([1.0, 0.5], 100, noise_seed=9)
        c = fw.gen_fir_process([1.0, 0.5], 100, noise_seed=10)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            fw.gen_fir_process([], 100, noise_seed=0)
        with pytest.raises(ParameterError):
            fw.gen_fir_process([1.0], 0, noise_seed=0)


class TestEmbed:
    def test_small_example(self):
        s = fw.Series(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        d = fw.embed(s, 2, 1)
        np.testing.assert_array_equal(
            d.windows, [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]]
        )
        np.testing.assert_array_equal(d.targets, [3.0, 4.0, 5.0])
        assert d.order_L == 2 and d.horizon == 1

    def test_windows_are_newest_first(self, mg_series):
        d = fw.embed(mg_series, 10, 1)
        np.testing.assert_array_equal(d.windows[0], mg_series.values[9::-1])
        np.testing.assert_array_equal(d.windows[5], mg_series.values[14:4:-1])

    def test_single_window_boundary(self):
        s = fw.Series(np.arange(11, dtype=float))
        d = fw.embed(s, 10, 1)
        assert len(d) == 1
        np.testing.assert_array_equal(d.windows[0], np.arange(9, -1, -1.0))
        assert d.targets[0] == 10.0

    def test_too_short_raises(self):
        s = fw.Series(np.arange(10, dtype=float))
        with pytest.raises(DimensionError):
            fw.embed(s, 10, 1)

    def test_reconstruction_at_zero_horizon(self, mg_series):
        # column 0 at horizon 0 walks the series; the first window holds
        # the leading L-1 samples reversed
        d = fw.embed(mg_series, 10, 0)
        rebuilt = np.concatenate([d.windows[0, :0:-1], d.windows[:, 0]])
        np.testing.assert_array_equal(rebuilt, mg_series.values)

    def test_pair_arrays_alignment(self):
        s = fw.Series(np.arange(20, dtype=float))
        d = fw.embed(s, 4, 2)
        np.testing.assert_array_equal(d.source_x, np.arange(18, dtype=float))
        np.testing.assert_array_equal(d.source_z, np.arange(2, 20, dtype=float))
        assert len(d.source_x) == len(d) + d.order_L - 1

    def test_embed_pair_length_mismatch(self):
        a = fw.Series(np.arange(10, dtype=float))
        b = fw.Series(np.arange(9, dtype=float))
        with pytest.raises(DimensionError):
            fw.embed_pair(a, b, 2, 1)

    def test_rejects_bad_order_and_horizon(self):
        s = fw.Series(np.arange(10, dtype=float))
        with pytest.raises(ParameterError):
            fw.embed(s, 0, 1)
        with pytest.raises(ParameterError):
            fw.embed(s, 2, -1)

    def test_targets_come_from_desired_series(self):
        x = fw.Series(np.arange(10, dtype=float))
        z = fw.Series(np.arange(10, dtype=float) * 10.0)
        d = fw.embed_pair(x, z, 3, 1)
        np.testing.assert_array_equal(d.targets, z.values[3:])
        np.testing.assert_array_equal(d.windows[0], [2.0, 1.0, 0.0])


class TestStandardize:
    def test_two_point_example(self):
        s = fw.standardize(fw.Series(np.array([0.0, 2.0])))
        np.testing.assert_array_equal(s.values, [-1.0, 1.0])
        assert s.mean == 1.0 and s.std == 1.0

    def test_moments(self, rng):
        s = fw.standardize(fw.Series(rng.normal(5.0, 3.0, 1000)))
        assert abs(np.mean(s.values)) < 1e-9
        assert abs(np.std(s.values) - 1.0) < 1e-9

    def test_constant_series_raises(self):
        with pytest.raises(DegenerateSeriesError):
            fw.standardize(fw.Series(np.ones(3)))

    @pytest.mark.parametrize(
        "scale, side",
        [(1e-155, "small"), (1e-160, "small"), (1e-170, "small"),
         (1e153, "large"), (1e300, "large")],
    )
    def test_scale_out_of_range(self, scale, side):
        # a subnormal variance (std under about 1.5e-154) has lost bits,
        # squares that all underflow or sums past the double range leave no
        # std at all: a data error naming the scale, with no numpy warning
        x = np.random.default_rng(0).standard_normal(300) * scale
        with pytest.raises(DataError, match=f"too {side} for standardization") as exc:
            fw.standardize(fw.Series(x))
        assert not isinstance(exc.value, DegenerateSeriesError)
        with pytest.raises(DegenerateSeriesError):
            fw.standardize(fw.Series(np.full(300, scale)))

    def test_needs_two_samples(self):
        with pytest.raises(ParameterError):
            fw.standardize(fw.Series(np.array([1.0])))

    @pytest.mark.parametrize("scale", [1e-150, 2.0**-500])
    def test_small_normal_variance_kept(self, scale):
        # a variance that is still a normal double standardizes as before
        v = np.random.default_rng(0).standard_normal(300) * scale
        s = fw.standardize(fw.Series(v))
        assert s.mean == np.mean(v) and s.std == np.std(v)
        np.testing.assert_array_equal(s.values, (v - np.mean(v)) / np.std(v))

    def test_records_original_stats(self, rng):
        raw = fw.Series(rng.normal(2.0, 0.5, 500))
        s = fw.standardize(raw)
        assert s.mean == pytest.approx(np.mean(raw.values))
        assert s.std == pytest.approx(np.std(raw.values))
        np.testing.assert_allclose(
            s.values * s.std + s.mean, raw.values, rtol=1e-12
        )


class TestSeriesCsv:
    def test_roundtrip_is_exact(self, rng, tmp_path):
        s = fw.Series(rng.standard_normal(100))
        path = tmp_path / "series.csv"
        fw.write_series_csv(s, path)
        back = fw.read_series_csv(path)
        np.testing.assert_array_equal(back.values, s.values)

    def test_header_written(self, tmp_path):
        path = tmp_path / "s.csv"
        fw.write_series_csv(fw.Series(np.array([1.5])), path)
        assert path.read_text().splitlines()[0] == "value"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("samples\n1.0\n")
        with pytest.raises(DataError, match="header"):
            fw.read_series_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\nhello\n")
        with pytest.raises(DataError):
            fw.read_series_csv(path)

    @pytest.mark.parametrize(
        "content",
        [None, b"\x89PNG\r\n\x1a\n\x00\xff", b"value\n" + b"1.0\n" * 10000 + b"\xff\n"],
        ids=["directory", "binary", "binary-past-first-block"],
    )
    def test_unreadable_file_rejected(self, tmp_path, content):
        # a directory, or bytes that are not UTF-8, at the start or past the
        # first block the reader decodes
        path = tmp_path / "s.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(DataError, match="cannot read series file .*s.csv"):
            fw.read_series_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv"):
            fw.read_series_csv(tmp_path / "nope.csv")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("value\n")
        with pytest.raises(DataError):
            fw.read_series_csv(path)
