"""End-to-end acceptance checks.

One test per criterion; run with ``pytest -v`` to get a single pass/fail
line for each.  Every test prints its measured numbers and asserts both the
quality target and its wall-clock budget.
"""

import time

import numpy as np
import pytest

import fwfilter as fw
import oracles
from fwfilter import evalbench as eb
from fwfilter import fwf_core, neighbors


def _report(line):
    print(line)


def test_criterion_1_training_accuracy_on_chaotic_benchmark():
    # N=2000 windows, L=10, tuned alpha, K=2: training MSE <= 1e-3
    tic = time.perf_counter()
    p = fw.MGParams(tau_delay=17.0, step=0.1, downsample=2)
    s = fw.standardize(fw.gen_mackey_glass(p, 2013, warmup=5000, init=1.2))
    data = fw.embed(s, 10, 4)
    assert len(data) == 2000
    m = fw.fit(data, fw.FwfConfig(order_L=10, sigma_input=1.1, horizon=4))
    elapsed = time.perf_counter() - tic
    _report(
        f"criterion 1: train MSE {m.train_mse:.6g} (target <= 1e-3), "
        f"alpha {m.alpha:.4g}, {elapsed:.1f} s"
    )
    assert m.train_mse <= 1e-3
    assert elapsed < 60.0


def test_criterion_2_method_ordering_on_chaotic_prediction():
    # 5 folds at N=2000: mean MSE ordering KRLS < FWF < Wiener, and FWF
    # beats Wiener on at least 4 of 5 folds
    tic = time.perf_counter()
    cfg = eb.ExperimentConfig(
        dataset="mackey_glass",
        generator={"downsample": 60},
        order_L=10,
        horizon=1,
        train_sizes=(2000,),
        folds=5,
        test_size=200,
        methods=(
            {"name": "fwf", "sigma_input": 3.0},
            {"name": "wiener"},
            {"name": "krls", "sigma": 1.0, "lam": 1e-6},
        ),
        seed=0,
    )
    table = eb.run_experiment(cfg)
    assert table.errors == []
    by = {
        name: [r.mse for r in table.rows if r.method == name]
        for name in ("fwf", "wiener", "krls")
    }
    means = {k: float(np.mean(v)) for k, v in by.items()}
    wins = sum(f < w for f, w in zip(by["fwf"], by["wiener"]))
    elapsed = time.perf_counter() - tic
    _report(
        f"criterion 2: mean MSE krls {means['krls']:.4g} < fwf {means['fwf']:.4g}"
        f" < wiener {means['wiener']:.4g}; fwf wins {wins}/5 folds; {elapsed:.1f} s"
    )
    assert means["krls"] < means["fwf"] < means["wiener"]
    assert wins >= 4
    assert elapsed < 300.0


def test_criterion_3_long_horizon_advantage_over_linear_filter():
    # Lorenz at horizon 10: FWF mean MSE below Wiener over 5 folds
    tic = time.perf_counter()
    cfg = eb.ExperimentConfig(
        dataset="lorenz",
        order_L=10,
        horizon=10,
        train_sizes=(2000,),
        folds=5,
        test_size=200,
        methods=({"name": "fwf", "sigma_input": 2.0}, {"name": "wiener"}),
        seed=0,
    )
    table = eb.run_experiment(cfg)
    assert table.errors == []
    f = float(np.mean([r.mse for r in table.rows if r.method == "fwf"]))
    w = float(np.mean([r.mse for r in table.rows if r.method == "wiener"]))
    elapsed = time.perf_counter() - tic
    _report(f"criterion 3: fwf {f:.4g} < wiener {w:.4g}; {elapsed:.1f} s")
    assert f < w
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_4_computational_scaling():
    # over N in {1e3, 1e4, 1e5}: FWF fit near-linear, FWF predict strongly
    # sublinear, KLMS predict near-linear
    tic = time.perf_counter()
    sizes = (1000, 10000, 100000)
    fwf_t = eb.timing_scaling("fwf", sizes, repeats=5, queries=10000)
    klms_t = eb.timing_scaling(
        "klms", sizes, repeats=5, queries=2000, hyper={"sigma": 1.0}
    )
    elapsed = time.perf_counter() - tic
    _report(
        f"criterion 4: fwf fit slope {fwf_t.fit_slope():.3f} (0.7..1.3), "
        f"fwf predict slope {fwf_t.predict_slope():.3f} (< 0.5), "
        f"klms predict slope {klms_t.predict_slope():.3f} (0.7..1.3); "
        f"{elapsed:.1f} s"
    )
    assert 0.7 <= fwf_t.fit_slope() <= 1.3
    assert fwf_t.predict_slope() < 0.5
    assert 0.7 <= klms_t.predict_slope() <= 1.3
    assert elapsed < 600.0


def test_criterion_5_linear_system_identification():
    # Wiener solve recovers known FIR taps from 1e5 samples within 1e-2
    tic = time.perf_counter()
    coeffs = [0.3, -0.2, 0.1]
    x, z = fw.gen_fir_process(coeffs, 100000, noise_seed=42)
    data = fw.embed_pair(x, z, 3, 0)
    m = fw.wiener_fit(data)
    err = float(np.max(np.abs(m.weights - coeffs)))
    elapsed = time.perf_counter() - tic
    _report(f"criterion 5: max weight error {err:.3g} (< 1e-2); {elapsed:.2f} s")
    assert err < 1e-2
    assert elapsed < 10.0


def test_criterion_6_property_suites():
    tic = time.perf_counter()
    rng = np.random.default_rng(61)

    # kernel inverse roundtrip, both directions, 1000 cases each;
    # d/sigma stays below 25 so the kernel value cannot underflow to 0
    for _ in range(1000):
        sg = rng.uniform(0.05, 5.0)
        d = rng.uniform(0.0, 25.0) * sg
        g = fw.gaussian(d, 0.0, sg)
        assert abs(fw.gaussian_inverse(g, sg) - d) <= 1e-12 * max(1.0, d)
        gv = rng.uniform(1e-8, 1.0)
        dd = fw.gaussian_inverse(gv, sg)
        assert abs(fw.gaussian(dd, 0.0, sg) - gv) <= 1e-12

    # partner identity: G(partner, window) == g ** (alpha^2), 1000 cases
    for _ in range(1000):
        sg = rng.uniform(0.2, 2.0)
        x = rng.standard_normal(5)
        g = oracles.GVector(rng.uniform(0.01, 1.0, 5))
        alpha = rng.uniform(0.05, 2.0)
        p = oracles.compute_partner(x, g, alpha, sg)
        np.testing.assert_allclose(
            fw.gaussian(p, x, sg), g.values ** (alpha**2), rtol=1e-12
        )

    # correntropy estimates live in (0, 1] with lag 0 pinned, 1000 series
    for _ in range(1000):
        n = int(rng.integers(8, 60))
        x = rng.standard_normal(n)
        sg = rng.uniform(0.1, 3.0)
        prof = fw.autocorrentropy(x, min(6, n), sg)
        assert prof[0] == 1.0
        assert np.all((prof > 0.0) & (prof <= 1.0))
        cross = fw.crosscorrentropy(x, rng.standard_normal(n), min(6, n), sg)
        assert np.all((cross > 0.0) & (cross <= 1.0))

    # wide-kernel limit: 1 - v(tau) tracks the mean squared difference
    # within 1%, >= 1000 (series, lag) cases at sigma = 100 * std
    cases = 0
    for _ in range(170):
        x = fw.standardize(fw.Series(rng.standard_normal(2048))).values
        sigma = 100.0
        prof = fw.autocorrentropy(x, 7, sigma)
        for tau in range(1, 7):
            d = x[tau:] - x[:-tau]
            pred = float(np.mean(d * d)) / (2.0 * sigma * sigma)
            assert abs((1.0 - prof[tau]) - pred) / pred < 0.01
            cases += 1
    assert cases >= 1000

    # tree search == linear scan, 1000 queries including exact-tie layouts
    pts = rng.standard_normal((1500, 8))
    idx = neighbors.build(pts)
    for _ in range(600):
        q = rng.standard_normal(8)
        K = int(rng.integers(1, 9))
        a = neighbors.query(idx, q, K)
        b = neighbors.linear_scan_query(pts, q, K)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
    grid = np.stack(
        np.meshgrid(*[np.arange(4.0)] * 2, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    gpts = np.vstack([grid, grid])  # every point duplicated
    gidx = neighbors.build(gpts)
    done = 0
    while done < 400:
        q = grid[done % len(grid)] + rng.choice([0.0, 0.5], size=2)
        K = int(rng.integers(1, len(gpts) + 1))
        a = neighbors.query(gidx, q, K)
        b = neighbors.linear_scan_query(gpts, q, K)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        done += 1

    # K=1 prediction is bitwise the direct single-neighbor evaluation
    s = fw.standardize(fw.gen_mackey_glass(fw.MGParams(), 1100))
    data = fw.embed(s, 10, 1)
    model = fw.fit(data, fw.FwfConfig(order_L=10, sigma_input=0.5, alpha=0.4))
    queries = data.windows[:1000] + 0.001 * rng.standard_normal((1000, 10))
    batch = fw.predict_batch(model, queries, K=1)
    for r in range(1000):
        nn, _ = neighbors.query(model.neighbor_index, queries[r], 1)
        direct = (
            oracles.evaluate_functional(
                model.weights, model.partners[nn[0]], queries[r], model.sigma_input
            )
            - model.bias
        )
        assert batch[r] == direct

    # weight solve keeps relative residual under 1e-10, 1000 systems
    for _ in range(1000):
        L = int(rng.integers(2, 13))
        B = rng.standard_normal((L, L))
        V = B @ B.T + L * np.eye(L)
        b = rng.standard_normal(L)
        w = fw.solve_weights(V, b, 0.0)
        assert np.linalg.norm(V @ w - b) <= 1e-10 * np.linalg.norm(b)

    # vectorized estimators == double loops at 1e-12, 250 cases each
    def loop_profile(pair_value, x, z, L):
        N = len(x)
        vals = np.empty(L)
        for tau in range(L):
            vals[tau] = np.mean(
                [pair_value(z[t], x[t - tau]) for t in range(tau, N)]
            )
        return vals

    for _ in range(250):
        n = int(rng.integers(6, 201))
        L = int(rng.integers(2, min(7, n + 1)))
        sg = rng.uniform(0.2, 2.0)
        x, z = rng.standard_normal((2, n))
        gauss = lambda a, b: np.exp(-((a - b) ** 2) / (2.0 * sg * sg))
        ref = loop_profile(gauss, x, x, L)
        ref[0] = 1.0
        np.testing.assert_allclose(
            fw.autocorrentropy(x, L, sg), ref, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            fw.crosscorrentropy(x, z, L, sg),
            loop_profile(gauss, x, z, L),
            rtol=1e-12,
            atol=1e-12,
        )
        prod = lambda a, b: a * b
        np.testing.assert_allclose(
            fw.autocovariance(x, L),
            loop_profile(prod, x, x, L),
            rtol=1e-12,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            fw.crosscovariance(x, z, L),
            loop_profile(prod, x, z, L),
            rtol=1e-12,
            atol=1e-12,
        )

    elapsed = time.perf_counter() - tic
    _report(f"criterion 6: all property suites passed (>= 1000 cases each); {elapsed:.1f} s")


def test_criterion_7_benchmark_reproducibility(tmp_path):
    # identical configs produce byte-identical mse columns
    tic = time.perf_counter()
    cfg = eb.ExperimentConfig(
        dataset="mackey_glass",
        generator={"downsample": 60},
        order_L=10,
        horizon=1,
        train_sizes=(500, 1000),
        folds=5,
        test_size=100,
        methods=({"name": "fwf", "sigma_input": 3.0, "alpha": 0.5}, {"name": "wiener"}),
        seed=0,
    )
    columns = []
    for name in ("a.csv", "b.csv"):
        table = eb.run_experiment(cfg)
        path = tmp_path / name
        eb.write_results_csv(table, path)
        rows = path.read_bytes().splitlines()[1:]
        columns.append([row.split(b",")[:4] for row in rows])
    elapsed = time.perf_counter() - tic
    _report(
        f"criterion 7: {len(columns[0])} result rows byte-identical across runs; "
        f"{elapsed:.1f} s"
    )
    assert len(columns[0]) == 2 * 2 * 5
    assert columns[0] == columns[1]
