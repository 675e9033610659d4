"""Scalar reference copies of the filter's formulas, used as test oracles.

The library evaluates these formulas in vectorized form inside
``fwf_core.fit`` and ``fwf_core.predict_batch``; the one-window and
double-loop versions here state each formula directly so the tests can
check the fast paths against them.
"""

from dataclasses import dataclass

import numpy as np

from fwfilter.errors import DimensionError, ParameterError
from fwfilter.fwf_core import G_FLOOR
from fwfilter.kernel_stats import LagProfile, gaussian, gaussian_inverse


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


def rkhs_inner(coef_a, coef_b, profile: LagProfile) -> float:
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
            total += ca * cb * profile.values[lag]
    return total
