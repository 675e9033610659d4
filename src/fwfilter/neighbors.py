"""Exact K-nearest-neighbor search over embedding windows.

A kd-tree accelerates queries, but the contract is exactness: results must
match an exhaustive linear scan bitwise, with ties at equal distance broken
by ascending training index.  The tree's raw output is therefore passed
through a correction layer that recomputes distances with the reference
formula and re-sorts; queries whose neighbor set could be ambiguous at the
boundary fall back to a radius search over the full tied group.

A batch reaches the tree sorted by its first coordinate, and the probed
indices and their distances go back to the caller's rows.  Queries in
random order start each walk from cold cache lines; in sorted order
neighboring queries walk mostly the same nodes back to back.  The tree
answers every query on its own, so the order changes no result.  A single
window takes 1-d steps instead: no sort, and its K+1 probed distances are
ordered only when they are not already strictly increasing.
"""

from __future__ import annotations

import operator
import os

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, DimensionError, ParameterError

__all__ = ["NeighborIndex", "build", "query", "query_batch", "linear_scan_query", "worker_count"]

# relative slack when hunting boundary ties; covers float divergence between
# the tree's internal metric and the reference distance formula
_TIE_RTOL = 1e-9
# sorted query rows per tree call in query_batch; at L = 10 and K = 2 a
# slice's copy and gathered points take 2.6 MB
_PROBE_ROWS = 8192


def worker_count() -> int:
    """Worker threads for batched tree queries, from FWF_THREADS (0 = auto)."""
    raw = os.environ.get("FWF_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"FWF_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ParameterError("FWF_THREADS must be >= 0")
    return -1 if n == 0 else n


def _ref_distances(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Reference Euclidean distances from ``q`` to the rows of the C-ordered
    ``d``, computed in ``d``; every code path must use this formula."""
    d -= q
    d *= d
    s = d.sum(axis=-1)
    return np.sqrt(s, out=s)


def linear_scan_query(points: np.ndarray, q, K: int):
    """Brute-force K-NN: the semantics every index must reproduce exactly."""
    points = np.array(points, dtype=float, order="C")
    q = np.asarray(q, dtype=float)
    dist = _ref_distances(points, q)
    order = np.lexsort((np.arange(len(points)), dist))[:K]
    return order, dist[order]


class NeighborIndex:
    """Immutable kd-tree index over N windows of length L."""

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=float)
        if points.ndim != 2:
            raise DimensionError("index requires an N x L matrix")
        if points.shape[0] < 1:
            raise ParameterError("index requires at least one point")
        self.points = points
        self.tree = cKDTree(points)

    def __len__(self):
        return self.points.shape[0]


def build(points) -> NeighborIndex:
    """Build an index over the rows of ``points``."""
    return NeighborIndex(np.asarray(points, dtype=float))


def _resolve_ties(idx: NeighborIndex, q: np.ndarray, K: int, d_max: float):
    """Exact top-K among all points within the (slackened) Kth radius."""
    radius = d_max * (1.0 + _TIE_RTOL)
    cand = np.array(idx.tree.query_ball_point(q, radius), dtype=np.intp)
    dist = _ref_distances(idx.points[cand], q)
    order = np.lexsort((cand, dist))[:K]
    return cand[order], dist[order]


def query(idx: NeighborIndex, q, K: int):
    """Exact Euclidean K-NN of ``q``: (indices, distances), ties by index.

    Results are bitwise identical to :func:`linear_scan_query`.
    """
    # a window of the wrong length or rank fails query_batch's shape check
    ii, dd = query_batch(idx, np.asarray(q, dtype=float)[None], K)
    return ii[0], dd[0]


def query_batch(idx: NeighborIndex, queries, K: int):
    """Exact K-NN for a batch of queries: (B x K indices, B x K distances)."""
    queries = np.ascontiguousarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != idx.points.shape[1]:
        raise DimensionError("query windows must be B x L matching the index")
    if not np.isfinite(queries).all():
        raise DataError("query windows must be finite")
    N = idx.points.shape[0]
    if not (1 <= K <= N):
        raise ParameterError(f"K must be in 1..{N}, got {K}")

    # over-query by one so boundary ties with the excluded set are visible
    B, k_probe = len(queries), min(K + 1, N)
    workers = worker_count()
    if B == 1:
        # the tree returns scalars when k_probe is 1
        q = queries[0]
        ii = np.atleast_1d(idx.tree.query(q, k=k_probe, workers=workers)[1])
        dist = _ref_distances(idx.points.take(ii, axis=0), q)
        d = dist.tolist()
        if not all(map(operator.lt, d, d[1:])):
            order = np.lexsort((ii, dist))
            ii, dist = ii.take(order), dist.take(order)
        if k_probe > K and dist[K] <= dist[K - 1] * (1.0 + _TIE_RTOL):
            return tuple(a[None] for a in _resolve_ties(idx, q, K, dist[K - 1]))
        return ii[None, :K], dist[None, :K]

    # the tree takes the batch in order of its first coordinate,
    # _PROBE_ROWS rows at a time, and each slice's indices and reference
    # distances go back to the caller's rows; the slices keep the sorted
    # copy and the gathered points small
    rows = np.argsort(queries[:, 0], kind="stable")
    ii = np.empty((B, k_probe), dtype=np.intp)
    dist = np.empty((B, k_probe))
    for lo in range(0, B, _PROBE_ROWS):
        r = rows[lo : lo + _PROBE_ROWS]
        q = queries[r]
        ii[r] = idx.tree.query(q, k=k_probe, workers=workers)[1].reshape(len(r), -1)
        dist[r] = _ref_distances(idx.points[ii[r]], q[:, None, :])

    # lexicographic (distance, index) order, so tied groups are
    # index-ascending; offsetting each row's order by its start in the flat
    # arrays lets one gather (``take``) pick the K kept columns of every row
    order = np.lexsort((ii, dist))
    order += np.arange(0, B * k_probe, k_probe)[:, None]
    out_i, out_d = ii.take(order[:, :K]), dist.take(order[:, :K])

    if k_probe > K:
        # ambiguous rows: the first excluded distance is within slack of the
        # Kth kept distance, so the full tied group must be enumerated; the
        # loop runs over a list, which costs nothing when no row is ambiguous
        risky = dist.take(order[:, K]) <= out_d[:, K - 1] * (1.0 + _TIE_RTOL)
        for r in risky.nonzero()[0].tolist():
            out_i[r], out_d[r] = _resolve_ties(idx, queries[r], K, out_d[r, K - 1])
    return out_i, out_d
