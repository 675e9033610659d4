"""Reference filters: linear Wiener, KLMS, KRLS, and kernel ridge regression.

The kernel adaptive models share one container; KRLS and KRR are the same
batch regularized Gram solution here and differ only by variant tag.  KLMS
keeps the standard online recursion semantics but evaluates it in blocks so
large runs stay matrix-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, DimensionError, ParameterError, check_nonneg
from .fwf_core import solve_weights
from .kernel_stats import (
    autocovariance,
    check_width,
    crosscovariance,
    resolve_width,
    toeplitz,
)
from .signal_gen import Dataset

__all__ = [
    "WienerModel",
    "KafModel",
    "wiener_fit",
    "wiener_predict",
    "klms_fit",
    "krls_fit",
    "krr_fit",
    "kaf_predict",
]

KAF_VARIANTS = ("klms", "krls", "krr")

# within-block sequential span for the KLMS recursion
_KLMS_BLOCK = 1024
# center-axis slab for cross-block kernel accumulation (memory bound)
_KLMS_SLAB = 8192
# query rows per kernel block in kaf_predict (memory bound)
_PREDICT_CHUNK = 4096


def _windows(x, L: int) -> np.ndarray:
    """``x`` as one window or a B x L batch of finite length-``L`` rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionError("expected a window or a B x L batch")
    if x.shape[-1] != L:
        raise DimensionError("window length does not match the model order")
    if not np.isfinite(x).all():
        raise DataError("query windows must be finite")
    return x


@dataclass(frozen=True)
class WienerModel:
    """Linear filter weights; output is the inner product with a window,
    fitted for targets ``horizon`` samples ahead of its newest sample."""

    weights: np.ndarray
    horizon: int = 1

    kind = "wiener"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise DimensionError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def order_L(self) -> int:
        return self.weights.size

    def predict(self, X) -> float | np.ndarray:
        return wiener_predict(self, X)


@dataclass(frozen=True)
class KafModel:
    """Kernel expansion f(x) = sum_i coefficients[i] * G_sigma(centers[i], x),
    fitted for targets ``horizon`` samples ahead of the newest window sample."""

    centers: np.ndarray
    coefficients: np.ndarray
    sigma: float
    variant: str
    horizon: int = 1

    def __post_init__(self):
        c = np.ascontiguousarray(self.centers, dtype=float)
        a = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 2:
            raise DimensionError("centers must be an N x L matrix")
        if a.ndim != 1 or a.shape[0] != c.shape[0]:
            raise DimensionError("coefficients must pair 1:1 with centers")
        if self.variant not in KAF_VARIANTS:
            raise ParameterError(f"variant must be one of {KAF_VARIANTS}")
        object.__setattr__(self, "sigma", check_width("sigma", self.sigma))
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "coefficients", a)

    @property
    def kind(self) -> str:
        return self.variant

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def order_L(self) -> int:
        return self.centers.shape[1]

    def predict(self, X) -> float | np.ndarray:
        return kaf_predict(self, X)


def wiener_fit(data: Dataset, *, ridge: float | str = "auto") -> WienerModel:
    """Solve the covariance normal equations (R + ridge I) W = P at the
    dataset's order.

    ``ridge="auto"`` picks the smallest value keeping R positive definite.
    """
    x, L = data.source_x, data.order_L
    R = toeplitz(autocovariance(x, L))
    P = crosscovariance(x, data.source_z, L)
    if ridge == "auto":
        from .kernel_stats import auto_ridge

        ridge = auto_ridge(R)
    w = solve_weights(R, P, check_nonneg("ridge", ridge))
    return WienerModel(w, data.horizon)


def wiener_predict(m: WienerModel, x) -> float | np.ndarray:
    """Inner product of the weights with one window or a batch of rows."""
    x = _windows(x, m.order_L)
    return float(np.dot(m.weights, x)) if x.ndim == 1 else x @ m.weights


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cdist(a, b, "sqeuclidean")


def klms_fit(data: Dataset, eta: float = 0.5, sigma=None) -> KafModel:
    """One pass of the kernel LMS recursion over the training set.

    Every sample becomes a center: e_i = z_i - f_{i-1}(x_i), alpha_i = eta e_i,
    with the empty-model prediction defined as 0.  Contributions from earlier
    blocks are accumulated with matrix kernels; the result matches the scalar
    recursion to rounding.
    """
    eta = check_nonneg("eta", eta)
    sig = resolve_width(sigma, data.source_x)
    X, z = data.windows, data.targets
    N = X.shape[0]
    alpha = np.zeros(N)
    inv2s2 = 1.0 / (2.0 * sig * sig)
    for lo in range(0, N, _KLMS_BLOCK):
        hi = min(lo + _KLMS_BLOCK, N)
        Xb = X[lo:hi]
        # prior-block contribution to every prediction in this block
        carry = np.zeros(hi - lo)
        for s in range(0, lo, _KLMS_SLAB):
            e = min(s + _KLMS_SLAB, lo)
            carry += np.exp(-_sq_dists(Xb, X[s:e]) * inv2s2) @ alpha[s:e]
        Kb = np.exp(-_sq_dists(Xb, Xb) * inv2s2)
        for r in range(hi - lo):
            pred = carry[r] + float(np.dot(Kb[r, :r], alpha[lo : lo + r]))
            alpha[lo + r] = eta * (z[lo + r] - pred)
    return KafModel(X, alpha, sig, "klms", data.horizon)


def _gram_solve(data: Dataset, lam: float, sigma, variant: str) -> KafModel:
    lam = check_nonneg("lam", lam)
    sig = resolve_width(sigma, data.source_x)
    X, z = data.windows, data.targets
    K = np.exp(-_sq_dists(X, X) / (2.0 * sig * sig))
    alpha = solve_weights(K, z, lam)
    return KafModel(X, alpha, sig, variant, data.horizon)


def krls_fit(data: Dataset, lam: float = 1e-6, sigma=None) -> KafModel:
    """Batch solution of the regularized Gram system (K + lambda I) a = z.

    The exact recursive update converges to the same coefficients, so the
    batch solve is the contract.
    """
    return _gram_solve(data, lam, sigma, "krls")


def krr_fit(data: Dataset, lam: float = 1e-6, sigma=None) -> KafModel:
    """Kernel ridge regression; identical estimator to krls_fit."""
    return _gram_solve(data, lam, sigma, "krr")


def kaf_predict(m: KafModel, x) -> float | np.ndarray:
    """Evaluate the kernel expansion at one window or a batch of rows."""
    x = _windows(x, m.order_L)
    X = np.atleast_2d(x)
    inv2s2 = 1.0 / (2.0 * m.sigma**2)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _PREDICT_CHUNK):
        hi = min(lo + _PREDICT_CHUNK, X.shape[0])
        out[lo:hi] = np.exp(-_sq_dists(X[lo:hi], m.centers) * inv2s2) @ m.coefficients
    return float(out[0]) if x.ndim == 1 else out
