"""Scalar reference copies of the filter's formulas, used as test oracles.

The library evaluates these formulas in vectorized form inside
``fwf_core.fit`` and ``fwf_core.predict_batch``; the one-window and
double-loop versions here state each formula directly so the tests can
check the fast paths against them.  The straightforward earlier forms of
six fast paths are kept too: the per-alpha search loop, the 3-vector
Lorenz integrator, the Mackey-Glass integrator with a ring-buffer history,
the KLMS recursion and the kernel expansion with one kernel expression per
block, and the neighbor correction layer built on ``take_along_axis``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lapack
from scipy.spatial.distance import cdist

from fwfilter.errors import (
    DimensionError,
    IntegrationDivergenceError,
    ParameterError,
)
from fwfilter.neighbors import _TIE_RTOL
from fwfilter.fwf_core import G_FLOOR
from fwfilter.kernel_stats import gaussian, gaussian_inverse


@dataclass(frozen=True)
class GVector:
    """Kernel similarities between one target value and every weight."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionError("GVector must be 1-d")
        if not np.all((values > 0) & (values <= 1)):
            raise ParameterError("GVector entries must lie in (0, 1]")
        object.__setattr__(self, "values", values)


def evaluate_functional(weights, centers, point, w) -> float:
    """Evaluate sum_tau weights(tau) * G_sigma(centers(tau), point(tau))."""
    weights = np.asarray(weights, dtype=float)
    centers = np.asarray(centers, dtype=float)
    point = np.asarray(point, dtype=float)
    if weights.shape != centers.shape or centers.shape != point.shape:
        raise DimensionError("weights, centers, and point must share a length")
    return float(np.sum(weights * gaussian(centers, point, w)))


def compute_g(z: float, weights, w_weight) -> GVector:
    """Kernel similarity of a target value to each weight entry.

    Values are floored at ``G_FLOOR`` so the later inversion stays finite.
    """
    weights = np.asarray(weights, dtype=float)
    g = np.maximum(gaussian(weights, z, w_weight), G_FLOOR)
    return GVector(g)


def compute_partner(x, g: GVector, alpha: float, w) -> np.ndarray:
    """Partner vector: x shifted by alpha times the kernel-inverse distance.

    The non-negative inverse branch is subtracted by convention; either
    branch yields the same kernel evaluations.
    """
    x = np.asarray(x, dtype=float)
    gv = g.values if isinstance(g, GVector) else GVector(np.asarray(g)).values
    if x.shape != gv.shape:
        raise DimensionError("window and g vector must share a length")
    return x - alpha * gaussian_inverse(gv, w)


def autocorrentropy(x, L: int, w) -> np.ndarray:
    """Auto-correntropy profile with v(0) pinned to 1 and lags 1..L-1
    averaged over their sample pairs."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    rest = [np.mean(gaussian(x[t:], x[: n - t], w)) for t in range(1, L)]
    return np.array([1.0, *rest])


def autocovariance(x, L: int) -> np.ndarray:
    """Autocovariance profile: the mean lagged product per lag."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    return np.array([np.mean(x[t:] * x[: n - t]) for t in range(L)])


def rkhs_inner(coef_a, coef_b, profile: np.ndarray) -> float:
    """Inner product of two finite expansions under a lag profile.

    Each argument is a sequence of ``(time_index, coefficient)`` pairs; the
    result is ``sum_ij a_i b_j profile(|t_i - s_j|)``.
    """
    L = len(profile)
    total = 0.0
    for ta, ca in coef_a:
        for tb, cb in coef_b:
            lag = abs(int(ta) - int(tb))
            if lag >= L:
                raise ParameterError(
                    f"lag {lag} outside profile range 0..{L - 1}"
                )
            total += ca * cb * profile[lag]
    return total


def solve_weights(V, Pv, ridge: float):
    """(V + ridge I) W = Pv through an explicit ``ridge * eye`` copy,
    ``dpotrf`` and ``cho_solve``.  Returns the weights, or ``None`` when
    the factorization fails, and LAPACK's ``info``: 0, or the 1-based index
    of the first non-positive pivot."""
    A_r = np.asarray(V, dtype=float) + ridge * np.eye(len(V))
    c, info = lapack.dpotrf(A_r, lower=1, clean=0)
    if info > 0:
        return None, info
    return cho_solve((c, True), np.asarray(Pv, dtype=float)), info


def functional_outputs(weights, partners, nbr_idx, queries, sigma_input):
    """Mean over each query's neighbors of the functional at their partners,
    evaluated as one block of ``B x K x L`` temporaries."""
    s2 = 2.0 * sigma_input * sigma_input
    d = partners[nbr_idx] - queries[:, None, :]
    ker = np.exp(-(d * d) / s2)
    return (ker * weights[None, None, :]).sum(axis=2).mean(axis=1)


def alpha_search(data, grid, sigma_input, weights, offsets, nbr_idx):
    """Per-alpha search: rebuild every partner, evaluate, score.

    Returns the chosen alpha (ties to the smaller) and the training
    ``(bias, mse)`` at each point of the sorted grid.
    """
    best_alpha, best_mse = None, np.inf
    stats = []
    for a in np.sort(grid):
        partners = data.windows - a * offsets
        raw = functional_outputs(
            weights, partners, nbr_idx, data.windows, sigma_input
        )
        bias = float(np.mean(raw) - np.mean(data.targets))
        mse = float(np.mean((raw - bias - data.targets) ** 2))
        stats.append((bias, mse))
        if mse < best_mse:
            best_alpha, best_mse = float(a), mse
    return best_alpha, stats


def gen_lorenz_vector(p, n, warmup=1000, init=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Lorenz RK4 on numpy 3-vectors; returns the sampled x component."""
    sig, rho, beta, dt = p.sigma, p.rho, p.beta, p.step

    def deriv(s):
        x, y, z = s
        return np.array([sig * (y - x), x * (rho - z) - y, x * y - beta * z])

    state = np.asarray(init, dtype=float).copy()
    total = warmup + n * p.downsample
    out = np.empty(total)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(total):
            out[i] = state[0]
            k1 = dt * deriv(state)
            k2 = dt * deriv(state + 0.5 * k1)
            k3 = dt * deriv(state + 0.5 * k2)
            k4 = dt * deriv(state + k3)
            state = state + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not np.all(np.isfinite(state)):
                raise IntegrationDivergenceError(i)
    return out[warmup :: p.downsample][:n]


def gen_mackey_glass_ring(p, n, warmup=3000, init=1.2) -> np.ndarray:
    """Mackey-Glass RK4 with a ``deriv`` call per stage and a ring-indexed
    history; returns the sampled series."""
    slots = p.history_slots
    beta, gamma, n_exp, step = p.beta, p.gamma, p.n_exp, p.step

    def deriv(xc, xd):
        return beta * xd / (1.0 + xd**n_exp) - gamma * xc

    hist = [float(init)] * slots
    x = float(init)
    total = warmup + n * p.downsample
    out = np.empty(total)
    idx = 0
    for i in range(total):
        out[i] = x
        xd = hist[idx]
        try:
            k1 = step * deriv(x, xd)
            k2 = step * deriv(x + 0.5 * k1, xd)
            k3 = step * deriv(x + 0.5 * k2, xd)
            k4 = step * deriv(x + k3, xd)
        except OverflowError:
            raise IntegrationDivergenceError(i) from None
        xn = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(xn):
            raise IntegrationDivergenceError(i)
        hist[idx] = xn
        idx = (idx + 1) % slots
        x = xn
    return out[warmup :: p.downsample][:n]


def klms_coefficients(X, z, eta, sigma, block=1024, slab=8192) -> np.ndarray:
    """KLMS recursion with each prior-block slab evaluated as one
    ``exp(...) @ alpha`` expression over all rows of the block."""
    N = X.shape[0]
    alpha = np.zeros(N)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    for lo in range(0, N, block):
        hi = min(lo + block, N)
        Xb = X[lo:hi]
        carry = np.zeros(hi - lo)
        for s in range(0, lo, slab):
            e = min(s + slab, lo)
            carry += np.exp(-cdist(Xb, X[s:e], "sqeuclidean") * inv2s2) @ alpha[s:e]
        Kb = np.exp(-cdist(Xb, Xb, "sqeuclidean") * inv2s2)
        for r in range(hi - lo):
            pred = carry[r] + float(np.dot(Kb[r, :r], alpha[lo : lo + r]))
            alpha[lo + r] = eta * (z[lo + r] - pred)
    return alpha


def kaf_predict(m, X, rows=4096):
    """Kernel expansion at the rows of ``X``, one ``exp(...) @ coefficients``
    expression per block of ``rows`` rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    inv2s2 = 1.0 / (2.0 * m.sigma**2)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        hi = min(lo + rows, X.shape[0])
        sq = cdist(X[lo:hi], m.centers, "sqeuclidean")
        out[lo:hi] = np.exp(-sq * inv2s2) @ m.coefficients
    return out


def _ref_distances(points, q):
    d = points - q
    return np.sqrt((d * d).sum(axis=-1))


def query_batch(idx, queries, K):
    """Exact K-NN correction of the tree's output in its earlier form: two
    ``take_along_axis`` gathers of the (distance, index) order and copies
    of the K kept columns, with the tie fallback over the Kth radius."""
    queries = np.ascontiguousarray(queries, dtype=float)
    k_probe = min(K + 1, len(idx))
    _, ii = idx.tree.query(queries, k=k_probe)
    ii = ii.reshape(len(queries), k_probe)
    dist = _ref_distances(idx.points[ii], queries[:, None, :])
    order = np.lexsort((ii, dist))
    ii = np.take_along_axis(ii, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    out_i = ii[:, :K].copy()
    out_d = dist[:, :K].copy()
    if k_probe > K:
        risky = dist[:, K] <= out_d[:, K - 1] * (1.0 + _TIE_RTOL)
        for r in np.nonzero(risky)[0]:
            radius = out_d[r, K - 1] * (1.0 + _TIE_RTOL)
            q = queries[r]
            cand = np.array(idx.tree.query_ball_point(q, radius), dtype=np.intp)
            d = _ref_distances(idx.points[cand], q)
            keep = np.lexsort((cand, d))[:K]
            out_i[r], out_d[r] = cand[keep], d[keep]
    return out_i, out_d
