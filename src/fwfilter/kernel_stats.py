"""Gaussian kernel primitives and lag-profile estimators.

Implements the unnormalized Gaussian kernel, its inverse, empirical
correntropy/covariance lag profiles, and the Toeplitz lift from profile
to matrix.  Estimators average over all valid pairs per lag (1/(N-tau)
normalization).  A profile is a 1-d float array indexed by lag (the
auto-correntropy one has v[0] == 1.0), its lift an L x L array, and a kernel
width a float that :func:`check_width` checks wherever it enters.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    AlignmentError,
    DataError,
    DegenerateSeriesError,
    DimensionError,
    DomainError,
    ParameterError,
    check_real,
)
from .signal_gen import _scale_error

__all__ = [
    "check_width",
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

# auto_ridge's base ridge as a fraction of the mean diagonal entry
_RIDGE_SCALE = 1e-8


def check_width(key: str, w) -> float:
    """``w`` as a float if it is a usable kernel width: a real whose ``2 w**2``
    and ``1 / (2 w**2)`` are positive finite doubles (about 5.3e-155 to
    9.5e153); bools and strings fail."""
    w = check_real(key, w)
    s2 = 2.0 * w * w
    if not (w > 0 and 0 < s2 < np.inf and 1.0 / s2 < np.inf):
        raise ParameterError(
            f"{key} must be a kernel width of about 5.3e-155 to 9.5e153, got {w!r}"
        )
    return w


def _values(s) -> np.ndarray:
    """The samples of a Series or a 1-d array, which must be finite."""
    v = np.asarray(getattr(s, "values", s), dtype=float)
    if v.ndim != 1:
        raise DimensionError("expected a 1-d series")
    if not np.isfinite(v).all():
        raise ParameterError("series samples must be finite")
    return v


def gaussian(x, y, w) -> np.ndarray | float:
    """Unnormalized Gaussian kernel exp(-(x-y)^2 / (2 sigma^2)).

    Broadcasts over array inputs; values lie in (0, 1] with
    ``gaussian(a, a, w) == 1`` exactly.
    """
    sg = check_width("sigma", w)
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
    sg = check_width("sigma", w)
    garr = np.asarray(g, dtype=float)
    if not np.all((garr > 0) & (garr <= 1)):
        raise DomainError("gaussian_inverse requires g in (0, 1]")
    out = sg * np.sqrt(-2.0 * np.log(garr))
    return float(out) if out.ndim == 0 else out


def _lag_profile(x, z, L: int, stat, correntropy: bool) -> np.ndarray:
    """Mean over t of stat(z(t), x(t - tau)) for tau = 0..L-1, for aligned
    series; user data can make either entry check fail."""
    xv, zv = _values(x), _values(z)
    if len(xv) != len(zv):
        raise AlignmentError("cross profile requires equal-length series")
    n = len(xv)
    if L < 1:
        raise ParameterError("order L must be >= 1")
    # lag L-1 needs at least one sample pair
    if n < L:
        raise DimensionError(f"series of length {n} too short for L={L}")
    # covariance products or sums of finite samples can pass the double
    # range; the check below reports it, so numpy's warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.array([np.mean(stat(zv[t:], xv[: n - t])) for t in range(L)])
    if not np.all(np.isfinite(v)):
        raise DataError("profile entries are not finite; the series are too large")
    if correntropy and not np.all(v > 0):
        raise ParameterError(
            "correntropy entries must lie in (0, 1]; the kernel width is too small"
        )
    return v


def autocorrentropy(s, L: int, w) -> np.ndarray:
    """Empirical auto-correntropy profile v(tau), tau = 0..L-1: the
    cross-correntropy of ``s`` with itself, so v(0) = 1 exactly."""
    return _lag_profile(s, s, L, lambda a, b: gaussian(a, b, w), True)


def crosscorrentropy(x, z, L: int, w) -> np.ndarray:
    """Empirical cross-correntropy profile P_v(tau), tau = 0..L-1.

    P_v(tau) = mean over t of G_sigma(Z(t), X(t - tau)) for aligned series.
    """
    return _lag_profile(x, z, L, lambda a, b: gaussian(a, b, w), True)


def autocovariance(s, L: int) -> np.ndarray:
    """Empirical autocovariance profile for a zero-mean series: the
    cross-covariance of ``s`` with itself."""
    return _lag_profile(s, s, L, np.multiply, False)


def crosscovariance(x, z, L: int) -> np.ndarray:
    """Empirical cross-covariance profile for aligned zero-mean series."""
    return _lag_profile(x, z, L, np.multiply, False)


def toeplitz(profile) -> np.ndarray:
    """Lift a lag profile to its symmetric Toeplitz matrix."""
    return scipy.linalg.toeplitz(profile)


def silverman_sigma(s) -> float:
    """Silverman's rule bandwidth: 1.06 * std * N^(-1/5); a non-constant
    series whose scale gives no width :func:`check_width` accepts raises
    :class:`DataError`."""
    x = _values(s)
    if len(x) < 2:
        raise ParameterError("silverman_sigma requires at least 2 samples")
    # values near 1e153 or beyond overflow the sum of squares
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(x))
    if sd == 0.0 and (x == x[0]).all():
        raise DegenerateSeriesError("cannot pick a bandwidth for a constant series")
    try:
        return check_width("sigma", 1.06 * sd * len(x) ** (-0.2))
    except ParameterError:
        raise _scale_error(x, sd, "Silverman's rule") from None


def resolve_width(w, x) -> float:
    """The checked width ``w``; ``None`` applies Silverman's rule to the
    series ``x``."""
    return silverman_sigma(x) if w is None else check_width("sigma", w)


def auto_ridge(mat) -> float:
    """Ridge that guarantees a positive-definite system.

    Starts from the base ``_RIDGE_SCALE * trace / L``; when the smallest
    eigenvalue does not clear that base (correntropy matrices of smooth
    series can be indefinite), escalates to ``2 |lambda_min| + base``.
    """
    m = np.asarray(mat, dtype=float)
    L = m.shape[0]
    base = _RIDGE_SCALE * np.trace(m) / L
    lam = scipy.linalg.eigvalsh(m, subset_by_index=[0, 0])[0]
    if lam > base:
        return float(base)
    return float(2.0 * abs(lam) + base)
