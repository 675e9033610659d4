"""Correntropy-domain Wiener filtering with nearest-neighbor evaluation.

The filter solves a Toeplitz system built from correntropy lag profiles to
obtain a weight function over lags, then attaches to every training window
a "partner" vector — the point where the learned functional is evaluated so
its output approximates that window's target: partner_i = x_i - alpha *
offset_i, element-wise, where offset_i[l] = sigma_in * sqrt(-2 ln g) with
g = max(exp(-(w_l - t_i)^2 / (2 sigma_in^2)), G_FLOOR).  That is
|w_l - t_i| up to rounding below sigma_in * sqrt(-2 ln G_FLOOR), about
37.17 sigma_in, and capped there above it.  Test predictions evaluate
the functional at the partners of the K nearest training windows, average,
and subtract a bias estimated on the training set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_solve, lapack

from . import neighbors
from .errors import ConditioningError, DataError, DimensionError, ParameterError
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
]

# default search grid for the output-scale hyperparameter
DEFAULT_ALPHA_GRID = np.logspace(np.log10(0.01), np.log10(2.0), 50)

# kernel values below this are clamped before inversion; the inverse
# distance diverges as g -> 0
G_FLOOR = 1e-300

# maximum relative residual accepted from the weight solve
RESIDUAL_TOL = 1e-10

# query rows per block of the functional evaluation; at K=2 and L=10 the
# alpha sweep's five L x K x b blocks take 1.6 MB, whatever the number of
# alphas in a pass (see _pass_rows)
_ROW_CHUNK = 2048

# bytes of raw sweep outputs that one pass of the alpha search may hold
_PASS_BYTES = 16 * 2**20

# rows on which the alpha search screens every grid point before it scores
# any fully (see _search_alpha).  At N = 1e5 one chunk orders the default
# grid as well as three did, and evaluates the fewest (alpha, chunk) pairs
_SCREEN_ROWS = _ROW_CHUNK

# the alpha search's first pass, which scores the point of lowest screen
# bound, also takes the points whose bound is within this factor of it: at
# the same rate per row such a point would be dropped, if at all, only in
# its last fifth of rows, and sharing the pass saves a sweep of gathers
_NEAR = 1.25

# unit roundoff of a double
_EPS = 2.0**-53


def _check_alpha(a) -> float:
    """``a`` as a float if it is a positive finite real."""
    if not 0 < check_real("alpha", a) < np.inf:
        raise ParameterError(f"alpha must be a positive finite real, got {a!r}")
    return float(a)


def _is_auto(v) -> bool:
    """Whether ``v`` is the string ``"auto"``; an array compared with a
    string would give an array, not a bool."""
    return isinstance(v, str) and v == "auto"


@dataclass(frozen=True)
class FwfConfig:
    """Hyperparameters for the nearest-neighbor functional filter.

    ``sigma_input=None`` selects Silverman's rule on the training input;
    the same width serves the weight kernel of the partner step, since a
    second width would only rescale alpha.  ``alpha`` is a positive finite
    real, a non-empty list, tuple or 1-d array of them (a grid, stored as a
    tuple) or ``"auto"`` (``DEFAULT_ALPHA_GRID``); :func:`fit` picks the
    grid point with the lowest training MSE.  ``ridge="auto"`` uses the
    smallest ridge that keeps the correntropy system positive definite.
    """

    order_L: int
    sigma_input: float | None = None
    alpha: float | tuple[float, ...] | str = "auto"
    k_neighbors: int = 2
    ridge: float | str = "auto"
    horizon: int = 1

    def __post_init__(self):
        check_int("order_L", self.order_L, 1)
        check_int("k_neighbors", self.k_neighbors, 1)
        check_int("horizon", self.horizon, 0)
        if self.sigma_input is not None:
            check_width("sigma_input", self.sigma_input)
        alpha = self.alpha
        if isinstance(alpha, np.ndarray) and alpha.ndim == 1:
            alpha = alpha.tolist()
        if isinstance(alpha, (list, tuple)):
            if not alpha:
                raise ParameterError("alpha grid must be non-empty")
            object.__setattr__(self, "alpha", tuple(map(_check_alpha, alpha)))
        elif not _is_auto(alpha):
            _check_alpha(alpha)
        if not _is_auto(self.ridge):
            check_nonneg("ridge", self.ridge)


@dataclass
class FwfModel:
    """Fitted filter state; immutable by convention after :func:`fit`.
    Construction checks every field, so an edited model file fails at load,
    not at predict, and builds the neighbor index when none is given."""

    weights: np.ndarray
    partners: np.ndarray
    train_windows: np.ndarray
    train_targets: np.ndarray
    bias: float
    config: FwfConfig
    sigma_input: float
    alpha: float
    ridge: float
    train_mse: float
    neighbor_index: neighbors.NeighborIndex | None = None

    kind = "fwf"

    def __post_init__(self):
        if np.ndim(self.train_targets) != 1:
            raise DimensionError("train_targets must be a 1-d array")
        N, L = len(self.train_targets), self.config.order_L
        for name, shape in (("weights", (L,)), ("partners", (N, L)),
                            ("train_windows", (N, L))):
            a = getattr(self, name)
            if np.shape(a) != shape:
                raise DimensionError(
                    f"{name} must have shape {shape}, got {np.shape(a)}"
                )
            if not np.isfinite(a).all():
                raise ParameterError(f"{name} must be finite")
        self.sigma_input = check_width("sigma_input", self.sigma_input)
        self.alpha = _check_alpha(self.alpha)
        self.ridge = check_nonneg("ridge", self.ridge)
        self.train_mse = check_nonneg("train_mse", self.train_mse)
        self.bias = check_real("bias", self.bias)
        if not np.isfinite(self.bias):
            raise ParameterError(f"bias must be finite, got {self.bias!r}")
        if self.neighbor_index is None:
            self.neighbor_index = neighbors.build(self.train_windows)

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

    Never forms an inverse and never writes to ``V``: the solve runs on a
    Fortran-ordered copy (see :func:`_solve_in_place`).  Failure to factor
    raises a conditioning error reporting the offending pivot, and so does
    a relative residual ``|(V + ridge I) W - Pv|`` above ``RESIDUAL_TOL``.
    """
    A = np.asarray(V, dtype=float)
    b = np.asarray(Pv, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise DimensionError("system dimensions do not match")
    # adding 0.0 turns -0.0 into +0.0, as ridge * eye does
    return _solve_in_place(np.add(A, 0.0, order="F"), b, ridge)


def _solve_in_place(A, b, ridge: float) -> np.ndarray:
    """Solve (A + ridge I) w = b for a symmetric, Fortran-ordered ``A``
    that the solve may overwrite, with no N x N temporary.

    ``dpotrf`` factors the lower triangle of ``A`` in place.  The strict
    upper triangle is left as it was, and the diagonal is restored to
    ``A``'s plus the ridge, so the residual is one ``dsymv`` over the upper
    triangle.  On return ``A`` holds the factor below its diagonal.
    """
    if not A.size:  # dsymv rejects empty vectors
        return b.copy()
    diag = A.diagonal() + ridge
    np.fill_diagonal(A, diag)
    # min and max are NaN if any entry is; no N x N bool temporary
    if not (np.isfinite(A.min()) and np.isfinite(A.max())):
        raise ValueError("array must not contain infs or NaNs")
    # info > 0 is the 1-based index of the first non-positive pivot
    c, info = lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise ConditioningError(
            f"regularized system not positive definite (pivot {info}); "
            f"increase the ridge (current {ridge:g})",
            pivot=info,
        )
    # A is checked above; a non-finite factor fails the residual check
    w = cho_solve((c, True), np.asarray_chkfinite(b), check_finite=False)
    np.fill_diagonal(A, diag)
    r = blas.dsymv(1.0, A, w, beta=-1.0, y=b, lower=0)
    # targets near the double limit overflow the norms; both checks below
    # report it, so numpy's warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.linalg.norm(r)
        b_norm = np.linalg.norm(b)
    if b_norm == np.inf:
        raise DataError("the right-hand side's norm is not finite; "
                        "the targets are too large")
    if not resid <= RESIDUAL_TOL * b_norm:
        raise ConditioningError(
            f"weight solve residual {resid:.3e} exceeds tolerance; "
            "the system is too ill-conditioned"
        )
    return w


def _wiener_solve(auto, cross, ridge):
    """The Wiener solution for the lag profiles ``auto`` and ``cross``, of
    correntropy (the filter) or covariance (the linear baseline): solve
    (T + ridge I) w = cross with T the Toeplitz lift of ``auto``, where
    ``ridge="auto"`` is :func:`auto_ridge` of T.  Returns (ridge, w)."""
    T = toeplitz(auto)
    ridge = check_nonneg("ridge", auto_ridge(T) if _is_auto(ridge) else ridge)
    return ridge, solve_weights(T, cross, ridge)


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


def _sweep_outputs(X, offsets, nbr_idx, weights, sigma_input, alphas, out,
                   start=0, drop=None):
    """Raw outputs (no bias subtraction) of the functional on the training
    windows ``X`` at each of ``alphas``, into ``out``, a ``len(alphas) x M``
    array with M at most N: ``out[j, start:]`` receives :func:`predict_batch`'s
    raw output for windows ``start`` to M of ``X`` with the partners
    ``X - alphas[j]*offsets``, bitwise.  ``nbr_idx`` is the N x K neighbor
    rows of ``X`` in itself.

    Each ``_ROW_CHUNK``-row chunk is laid out lag-major: its gathered
    windows, offsets, queries and weights are ``L x K x b`` blocks, reused
    by every alpha in one work block of the same shape, so each pass runs
    over contiguous memory (the shorter last chunk uses the first ``b``
    columns).  Per element, ``X - a*offsets`` is followed by
    :func:`_kernel_terms`; the sums over the L lags and then the K
    neighbors add whole slabs with :func:`_slab_sum`, in the order of
    :func:`predict_batch`'s two numpy sums, and the K-sum is divided by K.
    So a row's bits depend neither on the chunking nor on the alphas
    beside it.

    After each chunk, ``drop(live, lo, hi)`` gets the indices of the alphas
    still in the sweep and the chunk's rows, and returns those to keep; the
    sweep ends when none is left.  The alpha search drops a point there once
    a lower bound on its training MSE, the squared deviations of ``raw -
    targets`` from each chunk's mean less a rounding margin, exceeds the
    best MSE so far (see :func:`_search_alpha`).
    """
    K = nbr_idx.shape[1]
    L, stop = X.shape[1], out.shape[1]
    neg_s2 = -2.0 * sigma_input * sigma_input
    # the query and weight blocks stay full-shape: as broadcast L x 1 x b
    # and L x 1 x 1 views they keep the bits but slow _kernel_terms by 15%
    pts, offs, d, q, w = np.empty((5, L, K, min(stop - start, _ROW_CHUNK)))
    w[...] = weights[:, None, None]
    live = np.arange(len(alphas))
    for lo in range(start, stop, _ROW_CHUNK):
        if not len(live):
            break
        rows = nbr_idx[lo : min(lo + _ROW_CHUNK, stop)]
        b = len(rows)
        # gather in natural order into the work block, then transpose:
        # cheaper than gathering single lags across the whole array.  The
        # tree's indices are in range, so "clip" only skips the copy that
        # "raise" makes of an output array
        nat = d.reshape(-1)[: b * K * L].reshape(b, K, L)
        np.take(X, rows, axis=0, out=nat, mode="clip")
        pts[..., :b] = nat.transpose(2, 1, 0)
        np.take(offsets, rows, axis=0, out=nat, mode="clip")
        offs[..., :b] = nat.transpose(2, 1, 0)
        q[..., :b] = X[lo : lo + b].T[:, None, :]
        p_b, o_b, d_b, q_b, w_b = (a[..., :b] for a in (pts, offs, d, q, w))
        for j in live:
            np.multiply(alphas[j], o_b, out=d_b)
            np.subtract(p_b, d_b, out=d_b)
            _kernel_terms(d_b, q_b, w_b, neg_s2)
            raw = out[j, lo : lo + b]
            _slab_sum(_slab_sum(d_b, d_b[0]), raw)
            raw /= K
        if drop is not None:
            live = drop(live, lo, lo + b)


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
    auto = autocorrentropy(x, cfg.order_L, s_in)
    try:
        cross = crosscorrentropy(x, data.source_z, cfg.order_L, s_in)
    except ParameterError:  # finite aligned series fail only the width check
        if cfg.sigma_input is not None:
            raise
        raise DataError(
            f"the desired signal (largest magnitude {np.abs(data.source_z).max():.3g}) "
            f"is far off the input's scale: its cross-correntropy at Silverman's "
            f"width {s_in:.3g} is 0 at every lag; rescale it"
        ) from None
    ridge, weights = _wiener_solve(auto, cross, cfg.ridge)
    # kernel similarity of each target to each weight, floored so the
    # inverse stays finite; the inverse distances are the alpha-independent
    # partner offsets
    g = np.maximum(gaussian(weights[None, :], data.targets[:, None], s_in), G_FLOOR)
    offsets = gaussian_inverse(g, s_in)
    index = neighbors.build(data.windows)
    k_eff = min(cfg.k_neighbors, len(data))
    nbr_idx, _ = neighbors.query_batch(index, data.windows, k_eff)
    return s_in, ridge, weights, offsets, index, nbr_idx


def _train_stats(raw, targets, target_mean):
    """Training bias and MSE of one row of raw outputs, given
    ``np.mean(targets)``; targets near the double limit give an infinite
    MSE, which :func:`_search_alpha` reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        bias = float(np.mean(raw) - target_mean)
        mse = float(np.mean((raw - bias - targets) ** 2))
    return bias, mse


def _pass_rows(n_train: int, order_L: int) -> int:
    """Grid alphas per pass of the alpha search over ``n_train`` windows:
    as many raw output rows as fit in ``_PASS_BYTES``, but never fewer than
    ``order_L``.  Each pass gathers the neighbors' points and offsets anew,
    so the floor keeps that a small share of the pass; where it applies, a
    pass holds the bytes of the training windows."""
    return max(order_L, _PASS_BYTES // (8 * n_train))


def _search_alpha(data, grid, s_in, weights, offsets, nbr_idx):
    """Find the grid alpha with the lowest training MSE, scoring fully only
    the points that can still win.

    **Bound.**  For one alpha let ``u = raw - targets``.  At any bias b,
    ``mean((u - b)**2) = Var(u) + (mean(u) - b)**2 >= Var(u)``, and
    ``N Var(u)`` is at least ``q``, the sum over disjoint row blocks of the
    squared deviations of ``u`` from each block's own mean, since that mean
    minimizes its block's sum.  So ``q / N`` bounds the training MSE from
    below, and ``q`` never falls as blocks (here, chunks) are added.

    **Margin.**  Both sides are computed in floating point, with unit
    roundoff e = 2**-53.  A block of b rows, raw outputs r and targets z,
    adds to ``q``

        Σr² - 2 Σrz + Σz² - (Σr - Σz)² / b - 8 (b + 4) e (Σr² + Σz²),

    floored at 0.  Each of those sums, in any order, is off by at most
    (b - 1) e times the sum of its terms' magnitudes, and those are at most
    Σr² + Σz² for Σrz and (Σ|r| + Σ|z|)² / b <= 2 (Σr² + Σz²) for the last
    term, so with the few operations after them the rounding moves the
    value by less than the subtracted term (b 2**-1070 more covers results
    below the normal range), and each computed block sum is at most the
    exact one.  Adding the non-negative block sums rounds ``q`` up by a
    relative (N / _ROW_CHUNK + 2) e at most.  On the MSE side every raw
    output is at most 1.01 sum|weights| in magnitude (a weight times kernel
    values in [0, 1]), so the bias is at most 1.03 A, with
    ``A = sum|weights| + max|targets|``.  Rounding moves each element of
    ``raw - bias - targets`` by at most 6 e A, so the root of N times the
    MSE by at most 6 e A sqrt(N) (the triangle inequality in the 2-norm),
    and the sum of its squares by a relative (N + 1) e.  So

        sqrt(MSE) >= sqrt(q / N) / (1 + rho) - a,
        rho = (N + 2 _ROW_CHUNK + 64) e,  a = 64 e A + 2**-500,

    the slack covering the bound's own roundings and subnormal squares.  A
    point is dropped when the square of the right side, the bound it
    records, exceeds the best computed MSE so far.  An overflow anywhere
    makes ``q`` NaN, which never drops a point.

    **Search.**  (1) Screen: evaluate every point on the first P rows in
    one sweep, so that each chunk is gathered once for all of them, and
    order the points by ascending ``q``; P is ``_SCREEN_ROWS``, or fewer
    where N or the memory bound below is smaller.  (2) Fully score the
    lowest point in a pass that cannot drop anything, and with it, up to a
    pass, the next points whose ``q`` is within ``_NEAR`` times its own:
    those would be dropped late if at all, and a pass of one would need
    its own gather of every chunk.  (3) Take the rest, in that order, in
    passes that share each chunk's gather; before a pass and after each
    chunk, drop a point whose bound exceeds the best MSE so far.  A point
    that reaches the last row is scored with :func:`_train_stats` on its
    full raw row, as an exhaustive search would score it, and a dropped
    point's MSE is strictly above the best one, so the pick, its bias and
    MSE do not depend on the pruning, and ties still go to the smaller
    alpha.  A one-point grid takes the same path: its pass starts where the
    screen stopped, so it evaluates each chunk once.

    **Memory.**  Raw outputs held at once stay within ``_pass_rows(N, L)``
    rows of N: the screen holds at most half of that, and a pass takes as
    many full rows as fit beside it (at least one).

    Returns the sorted grid; for each point its training ``(bias, mse)``,
    or ``(None, bound)`` if it was dropped, ``bound`` being the lower bound
    on its MSE that dropped it; and the index of the lowest MSE.  Raises
    :class:`DataError` when no alpha has a finite MSE.
    """
    alphas = np.sort(grid)
    X, z = data.windows, data.targets
    N, n = len(z), len(alphas)
    z_mean = np.mean(z)
    budget = _pass_rows(N, X.shape[1]) * N  # raw doubles held at once
    P = min(N, _SCREEN_ROWS, budget // (2 * n))
    stats, q = [None] * n, np.zeros(n)
    rho = (N + 2 * _ROW_CHUNK + 64) * _EPS
    with np.errstate(over="ignore", invalid="ignore"):
        a = 64 * _EPS * float(np.abs(weights).sum() + np.abs(z).max()) + 2.0**-500
    best = np.inf

    def sweep(ids, rows, start=0, drop=None):
        _sweep_outputs(X, offsets, nbr_idx, weights, s_in, alphas[ids], rows,
                       start, drop)

    def kept(js):
        """Which of the points ``js`` their rows so far do not rule out;
        records the bound of the others."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.sqrt(q[js] / N) / (1.0 + rho) - a
            bound = np.where(s > 0, s * s, 0.0)
        out = (best < bound) & (bound < np.inf)
        for j, m in zip(js[out].tolist(), bound[out].tolist()):
            stats[j] = (None, m)
        return ~out

    def bounded(ids, rows):
        """A ``drop`` for :func:`_sweep_outputs` over the points ``ids``."""

        def drop(live, lo, hi):
            # a view while every point is live; a copy once some are dropped
            raw = rows[:, lo:hi] if len(live) == len(rows) else rows[live, lo:hi]
            zc, b = z[lo:hi], hi - lo
            with np.errstate(over="ignore", invalid="ignore"):
                rr = np.einsum("ij,ij->i", raw, raw)
                zz = np.einsum("i,i", zc, zc)
                s = np.einsum("ij->i", raw) - np.einsum("i->", zc)
                block = rr - 2.0 * np.einsum("ij,j->i", raw, zc) + zz - s * s / b
                block -= 8 * (b + 4) * _EPS * (rr + zz) + b * 2.0**-1070
                q[ids[live]] += np.maximum(block, 0.0)
            return live[kept(ids[live])]

        return drop

    def run_pass(ids, prune=True):
        nonlocal best
        rows = np.empty((len(ids), N))
        rows[:, :P] = screen[ids]
        sweep(ids, rows, P, bounded(ids, rows) if prune else None)
        for j, row in zip(ids.tolist(), rows):
            if stats[j] is None:
                stats[j] = _train_stats(row, z, z_mean)
                if stats[j][1] < best:
                    best = stats[j][1]

    screen = np.empty((n, P))
    sweep(np.arange(n), screen, 0, bounded(np.arange(n), screen))
    order = np.argsort(q, kind="stable")
    r = max(1, (budget - n * P) // N)
    # the first pass, which cannot drop a point, takes the near ones too
    head = max(1, int(np.searchsorted(q[order[:r]], _NEAR * q[order[0]], "right")))
    run_pass(order[:head], prune=False)
    rest = order[head:]
    while len(rest := rest[kept(rest)]):
        run_pass(rest[:r])
        rest = rest[r:]
    best_j, best_mse = 0, np.inf
    for j, (_, mse) in enumerate(stats):
        if mse < best_mse:
            best_j, best_mse = j, mse
    if best_mse == np.inf:
        raise DataError(
            "training MSE is not finite at any alpha; the targets are too large"
        )
    return alphas, stats, best_j


def fit(data: Dataset, cfg: FwfConfig) -> FwfModel:
    """Fit the filter: weights, partner set, neighbor index, bias.

    The functional kernel on the alpha-free state picks the alpha of the
    grid (see :class:`FwfConfig`) with the lowest training MSE, fully
    scoring only the points that can still win, in passes of bounded
    memory; ties go to the smaller alpha.
    """
    s_in, ridge, weights, offsets, index, nbr_idx = _prepare(data, cfg)
    grid = DEFAULT_ALPHA_GRID if _is_auto(cfg.alpha) else cfg.alpha
    alphas, stats, best = _search_alpha(
        data, np.array(grid, dtype=float, ndmin=1), s_in, weights, offsets, nbr_idx
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
        alpha=alpha,
        ridge=ridge,
        train_mse=mse,
        neighbor_index=index,
    )


def predict_batch(m: FwfModel, X, K: int | None = None) -> np.ndarray:
    """Predict a batch of windows; K defaults to the fitted configuration
    clamped to the training-set size.

    Each window's output is the mean over its K nearest training windows of
    the functional at their partners, less the training bias.  Windows are
    taken in chunks of ``_ROW_CHUNK`` rows, each gathered in the natural
    ``b x K x L`` layout and computed in place: :func:`_kernel_terms`, then
    a numpy sum over the L lags and one over the K neighbors, each adding a
    contiguous run in pairwise order, and one division by K.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if K is None:
        K = min(m.config.k_neighbors, m.n_train)
    # the neighbor query checks the shape, finiteness and K
    nbr_idx, _ = neighbors.query_batch(m.neighbor_index, X, K)
    neg_s2 = -2.0 * m.sigma_input * m.sigma_input
    out = np.empty(len(X))
    for lo in range(0, len(X), _ROW_CHUNK):
        d = m.partners[nbr_idx[lo : lo + _ROW_CHUNK]]  # b x K x L
        _kernel_terms(d, X[lo : lo + _ROW_CHUNK, None, :], m.weights, neg_s2)
        d.sum(axis=2).sum(axis=1, out=out[lo : lo + _ROW_CHUNK])
    # the sum over K divided by K is what mean(axis=1) computes, without
    # its per-call overhead
    out /= K
    out -= m.bias
    return out


def predict(m: FwfModel, x, K: int | None = None) -> float:
    """Predict a single window: :func:`predict_batch`'s steps on one K x L
    gather, without its chunk loop, so the result is its row bitwise."""
    x = np.asarray(x, dtype=float)
    if K is None:
        K = min(m.config.k_neighbors, m.n_train)
    # a window of the wrong length or rank fails the neighbor query's checks
    nbr, _ = neighbors.query(m.neighbor_index, x, K)
    d = m.partners.take(nbr, axis=0)
    _kernel_terms(d, x, m.weights, -2.0 * m.sigma_input * m.sigma_input)
    return float(d.sum(axis=1).sum() / K - m.bias)
