"""Gaussian kernel primitives and lag-profile estimators.

Implements the unnormalized Gaussian kernel, its inverse, empirical
correntropy/covariance lag profiles, and the Toeplitz lift from profile
to matrix.  Estimators average over all valid pairs per lag (1/(N-tau)
normalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AlignmentError,
    DegenerateSeriesError,
    DimensionError,
    DomainError,
    ParameterError,
)

__all__ = [
    "KernelWidth",
    "LagProfile",
    "LagMatrix",
    "gaussian",
    "gaussian_inverse",
    "autocorrentropy",
    "crosscorrentropy",
    "autocovariance",
    "crosscovariance",
    "toeplitz",
    "silverman_sigma",
    "resolve_width",
    "auto_ridge",
]

PROFILE_KINDS = ("correntropy", "covariance", "cross_correntropy", "cross_covariance")


@dataclass(frozen=True)
class KernelWidth:
    """Gaussian kernel bandwidth sigma."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ParameterError("kernel width sigma must be positive and finite")


def _sigma(w) -> float:
    """Accept a KernelWidth or a bare positive float."""
    if isinstance(w, KernelWidth):
        return w.sigma
    return KernelWidth(float(w)).sigma


def _values(s) -> np.ndarray:
    """Accept a Series or a 1-d array."""
    v = np.asarray(getattr(s, "values", s), dtype=float)
    if v.ndim != 1:
        raise DimensionError("expected a 1-d series")
    return v


@dataclass(frozen=True)
class LagProfile:
    """Per-lag statistic vector indexed by tau = 0..L-1."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ParameterError(f"unknown profile kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise DimensionError("profile values must be a non-empty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ParameterError("profile entries must be finite")
        if self.kind in ("correntropy", "cross_correntropy"):
            if not np.all((values > 0) & (values <= 1)):
                raise ParameterError("correntropy entries must lie in (0, 1]")
        if self.kind == "correntropy" and values[0] != 1.0:
            raise ParameterError("correntropy profile must have value 1 at lag 0")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class LagMatrix:
    """Symmetric (Toeplitz when profile-built) L x L matrix."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError("lag matrix must be square")
        if not np.allclose(entries, entries.T, rtol=0.0, atol=1e-12):
            raise ParameterError("lag matrix must be symmetric to 1e-12")
        object.__setattr__(self, "entries", entries)


def gaussian(x, y, w) -> np.ndarray | float:
    """Unnormalized Gaussian kernel exp(-(x-y)^2 / (2 sigma^2)).

    Broadcasts over array inputs; values lie in (0, 1] with
    ``gaussian(a, a, w) == 1`` exactly.
    """
    sg = _sigma(w)
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    # d*d may overflow to inf for extreme separations; exp(-inf) = 0 is the
    # right limit, so the warning is noise
    with np.errstate(over="ignore"):
        out = np.exp(-(d * d) / (2.0 * sg * sg))
    return float(out) if out.ndim == 0 else out


def gaussian_inverse(g, w) -> np.ndarray | float:
    """Non-negative distance d with gaussian(x, x - d, w) = g.

    Only the non-negative branch is returned; g must lie in (0, 1].
    """
    sg = _sigma(w)
    garr = np.asarray(g, dtype=float)
    if not np.all((garr > 0) & (garr <= 1)):
        raise DomainError("gaussian_inverse requires g in (0, 1]")
    out = sg * np.sqrt(-2.0 * np.log(garr))
    return float(out) if out.ndim == 0 else out


def _check_length(n: int, L: int):
    if L < 1:
        raise ParameterError("order L must be >= 1")
    # lag L-1 needs at least one sample pair
    if n < L:
        raise DimensionError(f"series of length {n} too short for L={L}")


def _per_lag(a, b, lags, stat) -> list:
    """Mean over t of stat(a(t), b(t - tau)) for each tau in ``lags``."""
    n = len(a)
    return [np.mean(stat(a[t:], b[: n - t])) for t in lags]


def _cross_values(x, z, L):
    xv, zv = _values(x), _values(z)
    if len(xv) != len(zv):
        raise AlignmentError("cross profile requires equal-length series")
    _check_length(len(xv), L)
    return xv, zv


def autocorrentropy(s, L: int, w) -> LagProfile:
    """Empirical auto-correntropy profile v(tau), tau = 0..L-1.

    v(tau) = mean over t of G_sigma(X(t), X(t - tau)); v(0) = 1 exactly.
    """
    x = _values(s)
    _check_length(len(x), L)
    sg = _sigma(w)
    vals = _per_lag(x, x, range(1, L), lambda a, b: gaussian(a, b, sg))
    return LagProfile("correntropy", [1.0, *vals])


def crosscorrentropy(x, z, L: int, w) -> LagProfile:
    """Empirical cross-correntropy profile P_v(tau), tau = 0..L-1.

    P_v(tau) = mean over t of G_sigma(Z(t), X(t - tau)) for aligned series.
    """
    xv, zv = _cross_values(x, z, L)
    sg = _sigma(w)
    vals = _per_lag(zv, xv, range(L), lambda a, b: gaussian(a, b, sg))
    return LagProfile("cross_correntropy", vals)


def autocovariance(s, L: int) -> LagProfile:
    """Empirical autocovariance profile for a zero-mean series."""
    x = _values(s)
    _check_length(len(x), L)
    return LagProfile("covariance", _per_lag(x, x, range(L), np.multiply))


def crosscovariance(x, z, L: int) -> LagProfile:
    """Empirical cross-covariance profile for aligned zero-mean series."""
    xv, zv = _cross_values(x, z, L)
    return LagProfile("cross_covariance", _per_lag(zv, xv, range(L), np.multiply))


def toeplitz(profile: LagProfile) -> LagMatrix:
    """Lift a lag profile to its symmetric Toeplitz matrix."""
    return LagMatrix(scipy.linalg.toeplitz(profile.values))


def silverman_sigma(s) -> KernelWidth:
    """Silverman's rule bandwidth: 1.06 * std * N^(-1/5)."""
    x = _values(s)
    if len(x) < 2:
        raise ParameterError("silverman_sigma requires at least 2 samples")
    sd = float(np.std(x))
    if sd == 0.0:
        raise DegenerateSeriesError("cannot pick a bandwidth for a constant series")
    return KernelWidth(1.06 * sd * len(x) ** (-0.2))


def resolve_width(w, x) -> float:
    """Sigma of a KernelWidth or positive float; ``None`` applies
    Silverman's rule to the series ``x``."""
    return silverman_sigma(x).sigma if w is None else _sigma(w)


def auto_ridge(mat, base_scale: float = 1e-8) -> float:
    """Ridge that guarantees a positive-definite system.

    Starts from the default ``base_scale * trace / L``; when the smallest
    eigenvalue does not clear that base (correntropy matrices of smooth
    series can be indefinite), escalates to ``2 |lambda_min| + base``.
    """
    m = np.asarray(getattr(mat, "entries", mat), dtype=float)
    L = m.shape[0]
    base = base_scale * np.trace(m) / L
    lam = scipy.linalg.eigvalsh(m, subset_by_index=[0, 0])[0]
    if lam > base:
        return float(base)
    return float(2.0 * abs(lam) + base)
