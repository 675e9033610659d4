import time

import numpy as np
import pytest

import fwfilter as fw
import oracles
from fwfilter import fwf_core, neighbors
from fwfilter.errors import DataError, DimensionError, ParameterError


class TestWorkerCount:
    def test_default_is_single_thread(self, monkeypatch):
        monkeypatch.delenv("FWF_THREADS", raising=False)
        assert neighbors.worker_count() == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("FWF_THREADS", "0")
        assert neighbors.worker_count() == -1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("FWF_THREADS", "4")
        assert neighbors.worker_count() == 4

    @pytest.mark.parametrize("bad", ["abc", "1.5", "-2", ""])
    def test_invalid_values(self, monkeypatch, bad):
        monkeypatch.setenv("FWF_THREADS", bad)
        with pytest.raises(ParameterError):
            neighbors.worker_count()


class TestBuild:
    def test_single_point(self):
        idx = neighbors.build(np.array([[1.0, 2.0]]))
        assert len(idx) == 1
        nn, d = neighbors.query(idx, np.array([1.0, 2.0]), 1)
        assert nn[0] == 0 and d[0] == 0.0

    def test_duplicate_rows_retained(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        idx = neighbors.build(pts)
        assert len(idx) == 3
        nn, d = neighbors.query(idx, np.array([0.0, 0.0]), 2)
        np.testing.assert_array_equal(nn, [0, 1])  # ties break by index
        np.testing.assert_array_equal(d, [0.0, 0.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            neighbors.build(np.zeros(5))
        with pytest.raises(ParameterError):
            neighbors.build(np.zeros((0, 3)))


class TestQuery:
    def test_training_row_is_own_nearest(self, rng):
        pts = rng.standard_normal((1000, 8))
        idx = neighbors.build(pts)
        for r in (0, 17, 999):
            nn, d = neighbors.query(idx, pts[r], 1)
            assert nn[0] == r
            assert d[0] == 0.0

    def test_k_equals_n_returns_sorted_everything(self, rng):
        pts = rng.standard_normal((20, 4))
        idx = neighbors.build(pts)
        q = rng.standard_normal(4)
        nn, d = neighbors.query(idx, q, 20)
        assert sorted(nn.tolist()) == list(range(20))
        assert np.all(np.diff(d) >= 0)

    def test_k_larger_than_n(self, rng):
        idx = neighbors.build(rng.standard_normal((5, 2)))
        with pytest.raises(ParameterError):
            neighbors.query(idx, np.zeros(2), 6)
        with pytest.raises(ParameterError):
            neighbors.query(idx, np.zeros(2), 0)

    def test_dimension_mismatch(self, rng):
        idx = neighbors.build(rng.standard_normal((5, 3)))
        with pytest.raises(DimensionError):
            neighbors.query(idx, np.zeros(2), 1)

    def test_two_point_example(self):
        idx = neighbors.build(np.array([[0.0], [10.0]]))
        nn, d = neighbors.query(idx, np.array([1.0]), 2)
        np.testing.assert_array_equal(nn, [0, 1])
        np.testing.assert_allclose(d, [1.0, 9.0])


class TestExactness:
    def test_matches_linear_scan_random(self, rng):
        pts = rng.standard_normal((2000, 10))
        idx = neighbors.build(pts)
        for _ in range(500):
            q = rng.standard_normal(10)
            K = int(rng.integers(1, 8))
            nn, d = neighbors.query(idx, q, K)
            ref_nn, ref_d = neighbors.linear_scan_query(pts, q, K)
            np.testing.assert_array_equal(nn, ref_nn)
            np.testing.assert_array_equal(d, ref_d)

    def test_matches_linear_scan_on_tie_grid(self, rng):
        # lattice points produce exact distance ties in every direction
        grid = np.stack(
            np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        pts = np.vstack([grid, grid[:5]])  # duplicates on top of ties
        idx = neighbors.build(pts)
        queries = np.vstack([grid, grid + 0.5, grid + np.array([0.5, 0.0, 0.0])])
        for q in queries:
            for K in (1, 2, 4, 9, len(pts)):
                nn, d = neighbors.query(idx, q, K)
                ref_nn, ref_d = neighbors.linear_scan_query(pts, q, K)
                np.testing.assert_array_equal(nn, ref_nn)
                np.testing.assert_array_equal(d, ref_d)

    def test_batch_matches_single(self, rng):
        pts = rng.standard_normal((300, 6))
        idx = neighbors.build(pts)
        queries = rng.standard_normal((40, 6))
        nn_b, d_b = neighbors.query_batch(idx, queries, 3)
        for r, q in enumerate(queries):
            nn, d = neighbors.query(idx, q, 3)
            np.testing.assert_array_equal(nn_b[r], nn)
            np.testing.assert_array_equal(d_b[r], d)

    def test_tie_order_is_ascending_index(self):
        # four corners equidistant from the center
        pts = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        idx = neighbors.build(pts)
        nn, d = neighbors.query(idx, np.zeros(2), 4)
        np.testing.assert_array_equal(nn, [0, 1, 2, 3])
        assert np.all(d == d[0])


def _lattice():
    return np.stack(
        np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)


class TestBatchExactness:
    """Whole batches against the linear scan and the earlier correction
    layer; these guard the row offsets of the flat gather."""

    def test_mixed_tie_and_clean_rows_in_one_batch(self, rng, monkeypatch):
        grid = _lattice()
        # every lattice point three times over (its neighbors are always
        # tied), plus a cloud of distinct points far from it (never tied)
        cloud = 10.0 + rng.standard_normal((20, 3))
        pts = np.vstack([grid, grid, grid, cloud])
        idx = neighbors.build(pts)
        queries = np.vstack(
            [grid, grid + 0.5, cloud, cloud + 0.01 * rng.standard_normal((20, 3))]
        )
        resolved = []
        resolve = neighbors._resolve_ties

        def counting(idx_, q, K, d_max):
            resolved.append(q)
            return resolve(idx_, q, K, d_max)

        monkeypatch.setattr(neighbors, "_resolve_ties", counting)
        for K in (1, 2, 4, len(pts)):
            resolved.clear()
            nn, d = neighbors.query_batch(idx, queries, K)
            assert nn.shape == d.shape == (len(queries), K)
            if K < len(pts):
                # the lattice rows are risky, the cloud rows clean
                assert len(resolved) == 2 * len(grid)
            else:
                assert resolved == []
            for r, q in enumerate(queries):
                ref_nn, ref_d = neighbors.linear_scan_query(pts, q, K)
                np.testing.assert_array_equal(nn[r], ref_nn)
                np.testing.assert_array_equal(d[r], ref_d)

    @pytest.mark.parametrize("n", [1, 3, 27])
    def test_k_equal_to_n(self, n):
        # k_probe == K: no excluded column, so no tie scan
        pts = np.vstack([_lattice(), _lattice()])[:n]
        idx = neighbors.build(pts)
        queries = np.vstack([pts, pts + 0.5])
        nn, d = neighbors.query_batch(idx, queries, n)
        for r, q in enumerate(queries):
            ref_nn, ref_d = neighbors.linear_scan_query(pts, q, n)
            np.testing.assert_array_equal(nn[r], ref_nn)
            np.testing.assert_array_equal(d[r], ref_d)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_bitwise_equal_to_earlier_correction_layer(self, mg_series, K):
        data = fw.embed(mg_series, 10, 1)
        n = 5000
        s = fw.gen_mackey_glass(fw.MGParams(downsample=1), n + 2 * fwf_core._ROW_CHUNK)
        windows = fw.embed(fw.standardize(s), 10, 1).windows
        idx = neighbors.build(windows[:n])
        held_out = windows[n + 11 :]
        for B in (1, 7, fwf_core._ROW_CHUNK + 50):
            for queries in (held_out[:B], windows[:B], data.windows[:B]):
                got = neighbors.query_batch(idx, queries, K)
                want = oracles.query_batch(idx, queries, K)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    def test_non_finite_queries_rejected(self, rng):
        idx = neighbors.build(rng.standard_normal((10, 3)))
        for bad in (np.nan, np.inf):
            q = np.zeros((2, 3))
            q[1, 2] = bad
            with pytest.raises(DataError):
                neighbors.query_batch(idx, q, 1)


def _assert_query_is_linear_scan(idx, pts, q, K):
    got = neighbors.query(idx, q, K)
    want = neighbors.linear_scan_query(pts, q, K)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape == (K,)
        assert a.tobytes() == b.tobytes()


class TestOneRow:
    """A single window takes query_batch's one-row branch: a 1-d tree query,
    the (distance, index) order only for out-of-order distances, and a
    scalar boundary test; each result must be the linear scan's, bitwise."""

    def test_index_of_one_window(self, rng):
        # k_probe = K = 1: the tree returns a scalar index and distance
        pts = rng.standard_normal((1, 4))
        idx = neighbors.build(pts)
        for q in (pts[0], pts[0] + 0.5, rng.standard_normal(4), np.zeros(4)):
            _assert_query_is_linear_scan(idx, pts, q, 1)

    @pytest.mark.parametrize("n", [2, 3, 27, 54])
    def test_k_equal_to_n(self, n, rng):
        # no over-query, so no boundary test
        pts = np.vstack([_lattice(), _lattice()])[:n]
        idx = neighbors.build(pts)
        for q in np.vstack([pts, pts + 0.5, rng.standard_normal((5, 3))]):
            _assert_query_is_linear_scan(idx, pts, q, n)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_duplicates_and_lattice_ties(self, K, rng):
        grid = _lattice()
        cloud = 10.0 + rng.standard_normal((20, 3))
        pts = np.vstack([grid, grid, grid, cloud])
        idx = neighbors.build(pts)
        queries = np.vstack(
            [grid, grid + 0.5, grid + [0.5, 0.0, 0.0], cloud,
             cloud + 0.01 * rng.standard_normal((20, 3))]
        )
        for q in queries:
            _assert_query_is_linear_scan(idx, pts, q, K)

    def test_bad_windows_raise_as_before(self, rng):
        idx = neighbors.build(rng.standard_normal((10, 3)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="^query windows must be finite$"):
                neighbors.query(idx, np.array([0.0, bad, 1.0]), 2)
        shape = "^query windows must be B x L matching the index$"
        windows = (np.zeros(2), np.zeros(4), np.zeros((2, 3)), np.zeros((1, 3)), 0.0)
        for window in windows:
            with pytest.raises(DimensionError, match=shape):
                neighbors.query(idx, window, 2)
        with pytest.raises(ParameterError, match=r"^K must be in 1\.\.10, got 11$"):
            neighbors.query(idx, np.zeros(3), 11)


def _assert_rows_bitwise_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        for row_a, row_b in zip(a, b):
            assert row_a.tobytes() == row_b.tobytes()


class TestSortedQueryOrder:
    """A batch walks the tree in order of its first coordinate; each row must
    still hold the answer to its own query, whatever the thread count."""

    @pytest.fixture(params=[None, "0", "2"], ids=["threads_unset", "0", "2"])
    def threads(self, request, monkeypatch):
        if request.param is None:
            monkeypatch.delenv("FWF_THREADS", raising=False)
        else:
            monkeypatch.setenv("FWF_THREADS", request.param)

    # 7 rows per tree call: the 979-window batch takes 140 calls, the last
    # one short
    @pytest.mark.parametrize("probe_rows", [neighbors._PROBE_ROWS, 7])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_shuffled_held_out_windows(self, threads, K, probe_rows, monkeypatch):
        monkeypatch.setattr(neighbors, "_PROBE_ROWS", probe_rows)
        s = fw.gen_mackey_glass(fw.MGParams(downsample=1), 3000)
        windows = fw.embed(fw.standardize(s), 10, 1).windows
        idx = neighbors.build(windows[:2000])
        held_out = windows[2011:]
        held_out = held_out[np.random.default_rng(5).permutation(len(held_out))]
        for B in (1, 2, 7, len(held_out)):
            got = neighbors.query_batch(idx, held_out[:B], K)
            _assert_rows_bitwise_equal(got, oracles.query_batch(idx, held_out[:B], K))

    def test_shuffled_tie_lattice_rows_land_on_their_own_rows(
        self, threads, rng, monkeypatch
    ):
        grid = _lattice()
        cloud = 10.0 + rng.standard_normal((20, 3))
        pts = np.vstack([grid, grid, grid, cloud])
        idx = neighbors.build(pts)
        queries = np.vstack(
            [grid, grid + 0.5, cloud, cloud + 0.01 * rng.standard_normal((20, 3))]
        )
        queries = queries[rng.permutation(len(queries))]
        resolved = []
        resolve = neighbors._resolve_ties

        def recording(idx_, q, K, d_max):
            out = resolve(idx_, q, K, d_max)
            resolved.append((q.copy(), out))
            return out

        monkeypatch.setattr(neighbors, "_resolve_ties", recording)
        for K in (1, 2, 4):
            resolved.clear()
            got = neighbors.query_batch(idx, queries, K)
            assert len(resolved) == 2 * len(grid)
            for q, (want_i, want_d) in resolved:
                (r,) = np.flatnonzero((queries == q).all(axis=1))
                assert got[0][r].tobytes() == want_i.tobytes()
                assert got[1][r].tobytes() == want_d.tobytes()
            _assert_rows_bitwise_equal(got, oracles.query_batch(idx, queries, K))
            for r, q in enumerate(queries):
                ref_nn, ref_d = neighbors.linear_scan_query(pts, q, K)
                np.testing.assert_array_equal(got[0][r], ref_nn)
                np.testing.assert_array_equal(got[1][r], ref_d)

    @pytest.mark.parametrize("n", [1, 2, 27])
    def test_k_probe_equal_to_k(self, threads, n, rng):
        # K == N leaves no column to over-query, and at N == 1 the tree
        # returns 1-d arrays
        pts = np.vstack([_lattice(), _lattice()])[:n]
        idx = neighbors.build(pts)
        queries = np.vstack([pts, pts + 0.5, rng.standard_normal((5, 3))])
        queries = queries[rng.permutation(len(queries))]
        for B in (1, 2, len(queries)):
            got = neighbors.query_batch(idx, queries[:B], n)
            _assert_rows_bitwise_equal(got, oracles.query_batch(idx, queries[:B], n))


class TestScaling:
    def test_sublinear_query_growth(self, rng):
        # uniform data in 10-d: tree queries must grow far slower than N
        times = {}
        queries = rng.uniform(0.0, 1.0, (10000, 10))
        for N in (1000, 100000):
            idx = neighbors.build(rng.uniform(0.0, 1.0, (N, 10)))
            neighbors.query_batch(idx, queries[:100], 2)  # warm caches
            t0 = time.perf_counter()
            neighbors.query_batch(idx, queries, 2)
            times[N] = time.perf_counter() - t0
        assert times[100000] / times[1000] < 20.0
