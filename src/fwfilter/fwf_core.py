"""Correntropy-domain Wiener filtering with nearest-neighbor evaluation.

The filter solves a Toeplitz system built from correntropy lag profiles to
obtain a weight function over lags, then attaches to every training window
a "partner" vector — the point where the learned functional is evaluated so
its output approximates that window's target.  Test predictions evaluate
the functional at the partners of the K nearest training windows, average,
and subtract a bias estimated on the training set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lapack

from . import neighbors
from .errors import ConditioningError, DimensionError, ParameterError
from .errors import check_int, check_nonneg, check_real
from .kernel_stats import (
    auto_ridge,
    autocorrentropy,
    check_width,
    crosscorrentropy,
    gaussian,
    gaussian_inverse,
    resolve_width,
    toeplitz,
)
from .signal_gen import Dataset

__all__ = [
    "FwfConfig",
    "FwfModel",
    "DEFAULT_ALPHA_GRID",
    "G_FLOOR",
    "solve_weights",
    "fit",
    "predict",
    "predict_batch",
    "tune_alpha",
]

# default search grid for the output-scale hyperparameter
DEFAULT_ALPHA_GRID = np.logspace(np.log10(0.01), np.log10(2.0), 50)

# kernel values below this are clamped before inversion; the inverse
# distance diverges as g -> 0
G_FLOOR = 1e-300

# maximum relative residual accepted from the weight solve
RESIDUAL_TOL = 1e-10

# query rows per block of the functional evaluation; at K=2 and L=10 the
# alpha sweep's five L x K x b blocks take 1.6 MB
_ROW_CHUNK = 2048


@dataclass(frozen=True)
class FwfConfig:
    """Hyperparameters for the nearest-neighbor functional filter.

    ``sigma_input=None`` selects Silverman's rule on the training input;
    ``sigma_weight=None`` reuses ``sigma_input``; ``alpha="auto"`` tunes the
    output scale on the training set over ``DEFAULT_ALPHA_GRID``;
    ``ridge="auto"`` uses the smallest ridge that keeps the correntropy
    system positive definite.
    """

    order_L: int
    sigma_input: float | None = None
    sigma_weight: float | None = None
    alpha: float | str = "auto"
    k_neighbors: int = 2
    ridge: float | str = "auto"
    horizon: int = 1

    def __post_init__(self):
        check_int("order_L", self.order_L, 1)
        check_int("k_neighbors", self.k_neighbors, 1)
        check_int("horizon", self.horizon, 0)
        for key in ("sigma_input", "sigma_weight"):
            if getattr(self, key) is not None:
                check_width(key, getattr(self, key))
        if self.alpha != "auto" and not 0 < check_real("alpha", self.alpha) < np.inf:
            raise ParameterError("alpha must be a positive finite real or 'auto'")
        if self.ridge != "auto":
            check_nonneg("ridge", self.ridge)


@dataclass
class FwfModel:
    """Fitted filter state; immutable by convention after :func:`fit`."""

    weights: np.ndarray
    partners: np.ndarray
    train_windows: np.ndarray
    train_targets: np.ndarray
    bias: float
    config: FwfConfig
    sigma_input: float
    sigma_weight: float
    alpha: float
    ridge: float
    train_mse: float
    neighbor_index: neighbors.NeighborIndex

    kind = "fwf"

    @property
    def n_train(self) -> int:
        return self.train_windows.shape[0]

    @property
    def order_L(self) -> int:
        return self.config.order_L

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def predict(self, X) -> np.ndarray:
        """Batch prediction with the fitted K; see :func:`predict_batch`."""
        return predict_batch(self, X)


def solve_weights(V, Pv, ridge: float) -> np.ndarray:
    """Solve (V + ridge I) W = Pv by Cholesky factorization.

    Never forms an inverse; failure to factor raises a conditioning error
    reporting the offending pivot.
    """
    A = np.asarray(V, dtype=float)
    b = np.asarray(Pv, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise DimensionError("system dimensions do not match")
    A_r = np.asarray_chkfinite(A + ridge * np.eye(A.shape[0]))
    # info > 0 is the 1-based index of the first non-positive pivot
    c, info = lapack.dpotrf(A_r, lower=1, clean=0)
    if info > 0:
        raise ConditioningError(
            f"regularized system not positive definite (pivot {info}); "
            f"increase the ridge (current {ridge:g})",
            pivot=info,
        )
    # A_r is checked above; a non-finite factor fails the residual check
    w = cho_solve((c, True), np.asarray_chkfinite(b), check_finite=False)
    resid = np.linalg.norm(A_r @ w - b)
    if not resid <= RESIDUAL_TOL * np.linalg.norm(b):
        raise ConditioningError(
            f"weight solve residual {resid:.3e} exceeds tolerance; "
            "the system is too ill-conditioned"
        )
    return w


def _slab_sum(x, out):
    """Sum ``x`` over its first axis into ``out``, overwriting ``x``.

    Whole slabs ``x[i]`` are added in the order numpy's pairwise summation
    adds the ``n = len(x)`` values of one contiguous run: in sequence below
    8; up to 128, eight accumulators over 8-wide blocks, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest in sequence;
    above 128, the halves split at ``n//2`` rounded down to a multiple of 8.
    Adding 0.0 last is numpy's zero start, which turns a -0.0 total into
    +0.0.  So each element of ``out`` is bitwise what ``np.sum`` gives for
    the same values laid out as one contiguous run.
    """
    n = len(x)
    if n > 128:
        h = n // 2 - n // 2 % 8
        _slab_sum(x[h:], x[h])
        _slab_sum(x[:h], x[0])
        return np.add(x[0], x[h], out=out)
    m = 1
    if n >= 8:
        m = n - n % 8
        for i in range(8, m, 8):
            x[:8] += x[i : i + 8]
        x[0:8:2] += x[1:8:2]
        x[0:8:4] += x[2:8:4]
        x[0] += x[4]
    for i in range(m, n):
        x[0] += x[i]
    return np.add(x[0], 0.0, out=out)


def _kernel_terms(d, q, w, neg_s2):
    """Turn partner coordinates ``d`` into weighted kernel terms, in place:
    ``d - q``, squared, divided by ``neg_s2``, ``exp``, times ``w``."""
    d -= q
    d *= d
    d /= neg_s2  # -(d / s2) bitwise: IEEE division is sign-symmetric
    np.exp(d, out=d)
    d *= w


def _functional_outputs(
    weights, points, nbr_idx, queries, sigma_input, offsets=None, alphas=None
):
    """Mean over neighbors of the functional at each neighbor's partner.

    The one evaluation of the functional, used by the alpha search, the
    fit's training statistics and :func:`predict_batch`.  ``nbr_idx`` is
    B x K neighbor rows per query.  With ``offsets=None`` the partners are
    ``points`` and the result has one row; otherwise row ``j`` uses the
    partners ``points - alphas[j]*offsets``.  Returns a ``rows x B`` array
    of raw outputs (no bias subtraction).

    Queries are taken in chunks of ``_ROW_CHUNK`` rows.  Per element the
    steps are ``d = (P - a*O) - Q``, ``d*d``, division by
    ``-2*sigma_input**2``, ``exp`` and the product with the weights, in that
    order, followed by a sum over the L lags, a sum over the K neighbors
    and one division by K; each sum adds a run in numpy's pairwise order.
    So each row is bitwise the one a separate evaluation of its partner set
    gives, whatever the chunking or layout.

    The alpha sweep lays each chunk out lag-major: its gathered points,
    offsets, queries and weights are ``L x K x b`` blocks, filled once per
    chunk and reused by every alpha in one work buffer of the same shape.
    Every pass then runs over contiguous memory, and the two sums add
    whole contiguous slabs with :func:`_slab_sum`, which fixes the
    summation order itself rather than relying on the internals of numpy's
    reductions.  A prediction (``offsets=None``) evaluates one row, so it
    keeps the natural ``b x K x L`` gather and computes in it in place: the
    transposing copies would cost more than its short sums save.
    """
    B, K = nbr_idx.shape
    n_rows = 1 if offsets is None else len(alphas)
    raw = np.empty((n_rows, B))
    neg_s2 = -2.0 * sigma_input * sigma_input
    if offsets is None:
        for lo in range(0, B, _ROW_CHUNK):
            hi = min(lo + _ROW_CHUNK, B)
            d = points[nbr_idx[lo:hi]]  # b x K x L
            _kernel_terms(d, queries[lo:hi, None, :], weights, neg_s2)
            d.sum(axis=2).sum(axis=1, out=raw[0, lo:hi])
    else:
        L = points.shape[1]
        bufs = [np.empty(L * K * min(B, _ROW_CHUNK)) for _ in range(5)]
        w_rows = 0
        for lo in range(0, B, _ROW_CHUNK):
            hi = min(lo + _ROW_CHUNK, B)
            b = hi - lo
            pts, offs, d, q, w = (a[: L * K * b].reshape(L, K, b) for a in bufs)
            if b != w_rows:  # only the last chunk can be shorter
                w[...] = weights[:, None, None]
                w_rows = b
            # gather in natural order into the work buffer, then transpose:
            # cheaper than gathering single lags across the whole array.
            # The tree's indices are in range, so "clip" only skips the
            # copy that "raise" makes of an output array
            nat = d.reshape(b, K, L)
            np.take(points, nbr_idx[lo:hi], axis=0, out=nat, mode="clip")
            pts[...] = nat.transpose(2, 1, 0)
            np.take(offsets, nbr_idx[lo:hi], axis=0, out=nat, mode="clip")
            offs[...] = nat.transpose(2, 1, 0)
            q[...] = queries[lo:hi].T[:, None, :]
            for j in range(n_rows):
                np.multiply(alphas[j], offs, out=d)
                np.subtract(pts, d, out=d)
                _kernel_terms(d, q, w, neg_s2)
                _slab_sum(_slab_sum(d, d[0]), raw[j, lo:hi])
    # the sum over K divided by K is what mean(axis=1) computes, without
    # its per-call overhead
    raw /= K
    return raw


def _prepare(data: Dataset, cfg: FwfConfig):
    """Everything in the pipeline that does not depend on alpha."""
    if len(data) < 1:
        raise ParameterError("dataset must be non-empty")
    if (data.order_L, data.horizon) != (cfg.order_L, cfg.horizon):
        raise DimensionError(
            f"dataset order_L/horizon {data.order_L}/{data.horizon} != "
            f"config {cfg.order_L}/{cfg.horizon}"
        )
    x = data.source_x
    s_in = resolve_width(cfg.sigma_input, x)
    s_w = s_in if cfg.sigma_weight is None else resolve_width(cfg.sigma_weight, x)
    V = toeplitz(autocorrentropy(x, cfg.order_L, s_in))
    Pv = crosscorrentropy(x, data.source_z, cfg.order_L, s_in)
    ridge = auto_ridge(V) if cfg.ridge == "auto" else float(cfg.ridge)
    weights = solve_weights(V, Pv, ridge)
    # kernel similarity of each target to each weight, floored so the
    # inverse stays finite; the inverse distances are the alpha-independent
    # partner offsets
    g = np.maximum(gaussian(weights[None, :], data.targets[:, None], s_w), G_FLOOR)
    offsets = gaussian_inverse(g, s_in)
    index = neighbors.build(data.windows)
    k_eff = min(cfg.k_neighbors, len(data))
    nbr_idx, _ = neighbors.query_batch(index, data.windows, k_eff)
    return s_in, s_w, ridge, weights, offsets, index, nbr_idx


def _train_stats(raw, targets):
    """Training bias and MSE of one row of raw outputs."""
    bias = float(np.mean(raw) - np.mean(targets))
    mse = float(np.mean((raw - bias - targets) ** 2))
    return bias, mse


def _search_alpha(data, grid, s_in, weights, offsets, nbr_idx):
    """Evaluate every grid alpha on the training set in one kernel pass.

    Returns the sorted grid, the training ``(bias, mse)`` at each of its
    points, and the index of the lowest MSE; ties go to the smaller alpha.
    """
    alphas = np.sort(grid)
    raw = _functional_outputs(
        weights, data.windows, nbr_idx, data.windows, s_in, offsets, alphas
    )
    stats = [_train_stats(r, data.targets) for r in raw]
    best, best_mse = 0, np.inf
    for j, (_, mse) in enumerate(stats):
        if mse < best_mse:
            best, best_mse = j, mse
    return alphas, stats, best


def tune_alpha(data: Dataset, cfg: FwfConfig, grid=None) -> float:
    """Pick the alpha minimizing training MSE over a grid.

    Weights, kernel-inverse offsets, and the neighbor assignment are
    computed once; one pass of the functional kernel then evaluates every
    candidate, with its own bias.  Ties break toward smaller alpha.
    """
    grid = DEFAULT_ALPHA_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("alpha grid must be non-empty")
    if not np.all((grid > 0) & (grid < np.inf)):
        raise ParameterError("alpha grid entries must be positive and finite")
    s_in, _, _, weights, offsets, _, nbr_idx = _prepare(data, cfg)
    alphas, _, best = _search_alpha(data, grid, s_in, weights, offsets, nbr_idx)
    return float(alphas[best])


def fit(data: Dataset, cfg: FwfConfig) -> FwfModel:
    """Fit the filter: weights, partner set, neighbor index, bias.

    With ``alpha="auto"`` the grid search of :func:`tune_alpha` runs inline
    on the same precomputed state; a fixed alpha is a one-point grid.
    """
    s_in, s_w, ridge, weights, offsets, index, nbr_idx = _prepare(data, cfg)
    grid = DEFAULT_ALPHA_GRID if cfg.alpha == "auto" else [float(cfg.alpha)]
    alphas, stats, best = _search_alpha(
        data, grid, s_in, weights, offsets, nbr_idx
    )
    alpha = float(alphas[best])
    bias, mse = stats[best]
    partners = data.windows - alpha * offsets
    return FwfModel(
        weights=weights,
        partners=partners,
        train_windows=data.windows,
        train_targets=data.targets,
        bias=bias,
        config=cfg,
        sigma_input=s_in,
        sigma_weight=s_w,
        alpha=alpha,
        ridge=ridge,
        train_mse=mse,
        neighbor_index=index,
    )


def predict_batch(m: FwfModel, X, K: int | None = None) -> np.ndarray:
    """Predict a batch of windows; K defaults to the fitted configuration
    clamped to the training-set size."""
    X = np.ascontiguousarray(X, dtype=float)
    if K is None:
        K = min(m.config.k_neighbors, m.n_train)
    # the neighbor query checks the shape, finiteness and K
    nbr_idx, _ = neighbors.query_batch(m.neighbor_index, X, K)
    raw = _functional_outputs(m.weights, m.partners, nbr_idx, X, m.sigma_input)
    return raw[0] - m.bias


def predict(m: FwfModel, x, K: int | None = None) -> float:
    """Predict a single window (see :func:`predict_batch`)."""
    # a window of the wrong length or rank fails the neighbor query's checks
    return float(predict_batch(m, np.asarray(x, dtype=float)[None], K)[0])
