"""Reference filters: linear Wiener, KLMS, KRLS, and kernel ridge regression.

The kernel adaptive models share one container; KRLS and KRR are the same
batch regularized Gram solution here, so ``krr_fit`` is ``krls_fit``.  KLMS
keeps the standard online recursion semantics but evaluates it in blocks so
large runs stay matrix-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, DimensionError, ParameterError, check_int, check_nonneg
# unused here; perfbench/tracing.py wraps solve_weights at this site too
from .fwf_core import _solve_in_place, _wiener_solve, solve_weights  # noqa: F401
from .kernel_stats import autocovariance, check_width, crosscovariance, resolve_width
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

KAF_VARIANTS = ("klms", "krls")

# within-block sequential span for the KLMS recursion
_KLMS_BLOCK = 1024
# center-axis slab for cross-block kernel accumulation
_KLMS_SLAB = 8192
# rows per kernel block: a 32 x 8192 block (2 MB) stays in cache through
# the distance, exp and matvec passes
_PREDICT_CHUNK = 32
# kaf_predict's row blocks before the chunking; numpy computes a block of
# one row as a plain dot (see _kernel_matvec), and keeping these bounds
# keeps the bits of such a row, as at B = 4097
_PREDICT_BLOCK = 4096


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
        check_int("horizon", self.horizon, 0)
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
        if not (np.isfinite(c).all() and np.isfinite(a).all()):
            raise ParameterError("centers and coefficients must be finite")
        if self.variant not in KAF_VARIANTS:
            raise ParameterError(f"variant must be one of {KAF_VARIANTS}")
        check_int("horizon", self.horizon, 0)
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
    dataset's order, by the Wiener solve of the correntropy filter
    (``fwf_core._wiener_solve``) fed covariance profiles.

    ``ridge="auto"`` picks the smallest value keeping R positive definite.
    """
    x, L = data.source_x, data.order_L
    _, w = _wiener_solve(autocovariance(x, L), crosscovariance(x, data.source_z, L),
                         ridge)
    return WienerModel(w, data.horizon)


def wiener_predict(m: WienerModel, x) -> float | np.ndarray:
    """Inner product of the weights with one window or a batch of rows."""
    x = _windows(x, m.order_L)
    return float(np.dot(m.weights, x)) if x.ndim == 1 else x @ m.weights


def _kernel_matvec(X, C, coef, inv2s2, out, buf):
    """``out = exp(-|X_r - C_c|^2 * inv2s2) @ coef``, ``_PREDICT_CHUNK`` rows
    of ``X`` at a time, each block computed in place in the flat ``buf``
    (room for ``_PREDICT_CHUNK + 1`` rows).

    Every element takes the same operations as the one-block expression.
    The BLAS matrix-vector product rounds a row the same in a chunk as in
    the whole block when it runs on one thread, since the chunks start at
    multiples of 32.  numpy computes a one-row product as a plain dot, which
    rounds differently, so a lone last row joins the chunk before it.
    """
    n, lo = X.shape[0], 0
    while lo < n:
        hi = n if n - lo <= _PREDICT_CHUNK + 1 else lo + _PREDICT_CHUNK
        k = buf[: (hi - lo) * C.shape[0]].reshape(hi - lo, C.shape[0])
        cdist(X[lo:hi], C, "sqeuclidean", out=k)
        np.negative(k, out=k)
        np.multiply(k, inv2s2, out=k)
        np.exp(k, out=k)
        np.matmul(k, coef, out=out[lo:hi])
        lo = hi


def check_eta(key: str, value) -> float:
    """``value`` as a float if it is a KLMS step size in [0, 2] (see
    :func:`klms_fit`)."""
    eta = check_nonneg(key, value)
    if eta > 2.0:
        raise ParameterError(f"{key} must be at most 2 for KLMS, got {value!r}")
    return eta


def klms_fit(data: Dataset, eta: float = 0.5, sigma=None) -> KafModel:
    """One pass of the kernel LMS recursion over the training set.

    Every sample becomes a center: e_i = z_i - f_{i-1}(x_i), alpha_i = eta e_i,
    with the empty-model prediction defined as 0.  Contributions from earlier
    blocks are accumulated with matrix kernels; the result matches the scalar
    recursion to rounding.

    Adding a center scales the error at its own sample by 1 - eta k(x, x),
    and k(x, x) = 1 for the Gaussian kernel, so a step size above 2 amplifies
    errors and is rejected (Liu, Pokharel and Principe, "The Kernel
    Least-Mean-Square Algorithm", IEEE TSP 2008).
    """
    eta = check_eta("eta", eta)
    sig = resolve_width(sigma, data.source_x)
    X, z = data.windows, data.targets
    N = X.shape[0]
    alpha = np.zeros(N)
    inv2s2 = 1.0 / (2.0 * sig * sig)
    buf = np.empty((_PREDICT_CHUNK + 1) * min(_KLMS_SLAB, N))
    part = np.empty(min(_KLMS_BLOCK, N))
    kbuf = np.empty(min(_KLMS_BLOCK, N) ** 2)
    for lo in range(0, N, _KLMS_BLOCK):
        hi = min(lo + _KLMS_BLOCK, N)
        Xb = X[lo:hi]
        # prior-block contribution to every prediction in this block
        carry = np.zeros(hi - lo)
        for s in range(0, lo, _KLMS_SLAB):
            e = min(s + _KLMS_SLAB, lo)
            _kernel_matvec(Xb, X[s:e], alpha[s:e], inv2s2, part[: hi - lo], buf)
            carry += part[: hi - lo]
        # exp(-d * inv2s2) in one buffer reused across blocks
        Kb = kbuf[: (hi - lo) ** 2].reshape(hi - lo, hi - lo)
        cdist(Xb, Xb, "sqeuclidean", out=Kb)
        np.negative(Kb, out=Kb)
        Kb *= inv2s2
        np.exp(Kb, out=Kb)
        # targets near the double limit can overflow an error; the check
        # below reports it, so numpy's warning is noise
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(hi - lo):
                pred = carry[r] + float(np.dot(Kb[r, :r], alpha[lo : lo + r]))
                alpha[lo + r] = eta * (z[lo + r] - pred)
        if not np.isfinite(alpha[lo:hi]).all():
            raise DataError(
                "KLMS coefficients are not finite; the targets are too large"
            )
    return KafModel(X, alpha, sig, "klms", data.horizon)


def krls_fit(data: Dataset, lam: float = 1e-6, sigma=None) -> KafModel:
    """Batch solution of the regularized Gram system (K + lambda I) a = z.

    The exact recursive update converges to the same coefficients, so the
    batch solve is the contract.  The Gram is the only N x N array: it is
    built in place and factored in place (``fwf_core._solve_in_place``),
    whose residual check reads the Gram's upper triangle, which the
    factorization leaves alone.
    """
    lam = check_nonneg("lam", lam)
    sig = resolve_width(sigma, data.source_x)
    X, z = data.windows, data.targets
    K = cdist(X, X, "sqeuclidean")
    # -d / s2 and exp in place, so the Gram is the only N x N array
    np.negative(K, out=K)
    K /= 2.0 * sig * sig
    np.exp(K, out=K)
    # cdist's output is C-ordered and bitwise symmetric, so its transpose
    # is the same matrix in Fortran order, with no copy
    alpha = _solve_in_place(K.T, np.asarray(z, dtype=float), lam)
    return KafModel(X, alpha, sig, "krls", data.horizon)


krr_fit = krls_fit


def kaf_predict(m: KafModel, x) -> float | np.ndarray:
    """Evaluate the kernel expansion at one window or a batch of rows."""
    x = _windows(x, m.order_L)
    X = np.atleast_2d(x)
    inv2s2 = 1.0 / (2.0 * m.sigma**2)
    out = np.empty(X.shape[0])
    buf = np.empty((_PREDICT_CHUNK + 1) * m.n_centers)
    for lo in range(0, X.shape[0], _PREDICT_BLOCK):
        hi = min(lo + _PREDICT_BLOCK, X.shape[0])
        _kernel_matvec(X[lo:hi], m.centers, m.coefficients, inv2s2, out[lo:hi], buf)
    return float(out[0]) if x.ndim == 1 else out
