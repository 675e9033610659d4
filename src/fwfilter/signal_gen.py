"""Benchmark signal generation and supervised embedding.

Provides the Mackey-Glass delay differential equation, the Lorenz system,
and a synthetic FIR/white-noise process, plus the windowing step that turns
a scalar series into (window, target) pairs for filtering experiments.

All generators are deterministic given their parameters (the FIR process
additionally takes a seed; noise comes from ``numpy.random.default_rng``,
i.e. the PCG64 generator).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DegenerateSeriesError,
    DimensionError,
    IntegrationDivergenceError,
    ParameterError,
    check_int,
    check_real,
)

__all__ = [
    "Series",
    "MGParams",
    "LorenzParams",
    "Dataset",
    "gen_mackey_glass",
    "gen_lorenz",
    "gen_fir_process",
    "embed",
    "embed_pair",
    "standardize",
    "write_csv",
    "write_series_csv",
    "read_series_csv",
]


@dataclass(frozen=True)
class Series:
    """A uniformly sampled scalar time series.

    ``mean`` and ``std`` are populated by :func:`standardize` and record the
    statistics of the original series so predictions can be mapped back.
    """

    values: np.ndarray
    mean: float | None = None
    std: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ParameterError("series must be a 1-d array with length >= 1")
        if not np.all(np.isfinite(values)):
            raise DataError("series contains non-finite samples")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


def _check_positive(params, names) -> None:
    """Check that each named field of ``params`` is a positive finite real;
    an infinite rate or step would only end in a diverged integration."""
    cls = type(params).__name__
    for name in names:
        if not 0 < check_real(f"{cls}.{name}", getattr(params, name)) < math.inf:
            raise ParameterError(f"{cls}.{name} must be positive and finite")


@dataclass(frozen=True)
class MGParams:
    """Mackey-Glass equation parameters.

    Defaults are the standard benchmark configuration; ``tau_delay`` must be
    an integer multiple of ``step`` so the delay maps onto whole history
    slots.
    """

    beta: float = 0.2
    gamma: float = 0.1
    n_exp: float = 10.0
    tau_delay: float = 30.0
    step: float = 0.1
    downsample: int = 6

    def __post_init__(self):
        _check_positive(self, ("beta", "gamma", "n_exp", "tau_delay", "step"))
        check_int("MGParams.downsample", self.downsample, 1)
        # a subnormal step can make the slot count overflow to infinity
        slots = self.tau_delay / self.step
        if not (math.isfinite(slots) and abs(slots - round(slots)) <= 1e-9):
            raise ParameterError(
                "tau_delay/step must be a finite integer number of history slots"
            )

    @property
    def history_slots(self) -> int:
        return int(round(self.tau_delay / self.step))


@dataclass(frozen=True)
class LorenzParams:
    """Lorenz system parameters (x component is the output)."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    step: float = 0.01
    downsample: int = 5

    def __post_init__(self):
        _check_positive(self, ("sigma", "rho", "beta", "step"))
        check_int("LorenzParams.downsample", self.downsample, 1)


@dataclass(frozen=True)
class Dataset:
    """Embedded windows paired with prediction targets.

    ``windows[r]`` holds the L most recent samples newest-first for time
    index ``i = order_L - 1 + r``; ``targets[r]`` is the source value at
    ``i + horizon``.  ``source_x``/``source_z`` are the aligned scalar pair
    arrays the lag-profile estimators consume: ``source_z[t]`` is the
    desired value paired with input sample ``source_x[t]``.
    """

    windows: np.ndarray
    targets: np.ndarray
    order_L: int
    horizon: int
    source_x: np.ndarray = field(repr=False)
    source_z: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.windows.ndim != 2 or self.windows.shape[1] != self.order_L:
            raise DimensionError("windows must be N x order_L")
        if self.windows.shape[0] != self.targets.shape[0]:
            raise DimensionError("windows row count must equal targets length")
        if len(self.source_x) != len(self.source_z):
            raise DimensionError("source pair arrays must be aligned")

    def __len__(self):
        return self.windows.shape[0]


def _sample_count(total: int) -> int:
    """``total`` if numpy can size an array of that many doubles."""
    if total > np.iinfo(np.intp).max // 8:
        raise ParameterError("the requested series is too long for any array")
    return total


def gen_mackey_glass(
    p: MGParams, n: int, warmup: int = 3000, init: float = 1.2
) -> Series:
    """Integrate the Mackey-Glass equation and return ``n`` samples.

    Fourth-order Runge-Kutta with the delayed term held constant within a
    step; the pre-history is a constant buffer at ``init``.  ``warmup`` raw
    integration steps are discarded, then every ``downsample``-th sample is
    kept.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    slots = p.history_slots
    if warmup < slots:
        raise ParameterError(
            f"warmup must cover the delay history ({slots} steps), got {warmup}"
        )
    beta, gamma, n_exp, step = p.beta, p.gamma, p.n_exp, p.step
    # the last ``slots`` states, oldest first: popping one gives the delayed
    # sample of the current step
    hist = deque([float(init)] * slots)
    x = float(init)
    total = _sample_count(warmup + n * p.downsample)
    out = np.empty(total)
    for i in range(total):
        out[i] = x
        xd = hist.popleft()
        # the delayed term is the same in all four stages
        try:
            f = beta * xd / (1.0 + xd**n_exp)
        except OverflowError:
            raise IntegrationDivergenceError(i) from None
        k1 = step * (f - gamma * x)
        k2 = step * (f - gamma * (x + 0.5 * k1))
        k3 = step * (f - gamma * (x + 0.5 * k2))
        k4 = step * (f - gamma * (x + k3))
        x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(x):
            raise IntegrationDivergenceError(i)
        hist.append(x)
    return Series(out[warmup :: p.downsample][:n])


def gen_lorenz(
    p: LorenzParams,
    n: int,
    warmup: int = 1000,
    init: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Series:
    """Integrate the Lorenz system with RK4 and return the x component."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    init = np.asarray(init, dtype=float)
    if init.shape != (3,):
        raise ParameterError("init must be a 3-vector")
    sig, rho, beta, dt = p.sigma, p.rho, p.beta, p.step
    # scalar floats: the same IEEE operations as the 3-vector form, without
    # a numpy call per stage
    x, y, z = (float(v) for v in init)
    total = _sample_count(warmup + n * p.downsample)
    out = np.empty(total)
    for i in range(total):
        out[i] = x
        k1x = dt * (sig * (y - x))
        k1y = dt * (x * (rho - z) - y)
        k1z = dt * (x * y - beta * z)
        x2, y2, z2 = x + 0.5 * k1x, y + 0.5 * k1y, z + 0.5 * k1z
        k2x = dt * (sig * (y2 - x2))
        k2y = dt * (x2 * (rho - z2) - y2)
        k2z = dt * (x2 * y2 - beta * z2)
        x3, y3, z3 = x + 0.5 * k2x, y + 0.5 * k2y, z + 0.5 * k2z
        k3x = dt * (sig * (y3 - x3))
        k3y = dt * (x3 * (rho - z3) - y3)
        k3z = dt * (x3 * y3 - beta * z3)
        x4, y4, z4 = x + k3x, y + k3y, z + k3z
        k4x = dt * (sig * (y4 - x4))
        k4y = dt * (x4 * (rho - z4) - y4)
        k4z = dt * (x4 * y4 - beta * z4)
        x = x + (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y = y + (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z = z + (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise IntegrationDivergenceError(i)
    return Series(out[warmup :: p.downsample][:n])


def gen_fir_process(coeffs, n: int, noise_seed: int) -> tuple[Series, Series]:
    """White Gaussian noise through a known FIR filter.

    Returns ``(input, desired)`` with
    ``desired(t) = sum_k coeffs[k] * input(t - k)`` (zero initial state).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ParameterError("coeffs must be a non-empty 1-d sequence")
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = np.random.default_rng(noise_seed)
    x = rng.standard_normal(_sample_count(n))
    z = np.convolve(coeffs, x)[:n]
    return Series(x), Series(z)


def embed(s: Series, L: int, horizon: int) -> Dataset:
    """Window a single series for the self-prediction task.

    Window row r is ``[X(i), X(i-1), ..., X(i-L+1)]`` with ``i = L-1+r``;
    the target is ``X(i+horizon)``.
    """
    return embed_pair(s, s, L, horizon)


def embed_pair(x: Series, z: Series, L: int, horizon: int) -> Dataset:
    """Window input series ``x`` against desired series ``z``.

    The prediction task maps window ``x_i`` to ``z`` at index
    ``i + horizon``; :func:`embed` is the ``z = x`` special case.
    """
    if L < 1:
        raise ParameterError("order L must be >= 1")
    if horizon < 0:
        raise ParameterError("horizon must be >= 0")
    xv, zv = x.values, z.values
    if len(xv) != len(zv):
        raise DimensionError("input and desired series must have equal length")
    M = len(xv)
    n_rows = M - (L - 1) - horizon
    if n_rows < 1:
        raise DimensionError(
            f"series of length {M} too short for L={L}, horizon={horizon}"
        )
    # sliding_window_view row r = x[r:r+L]; reverse columns for newest-first
    windows = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(xv[: M - horizon], L)[:, ::-1]
    )[:n_rows]
    targets = zv[L - 1 + horizon :].copy()
    # pair arrays: z at t+horizon against x at t, both length M - horizon
    source_x = xv[: M - horizon].copy()
    source_z = zv[horizon:].copy()
    return Dataset(
        windows=windows,
        targets=targets,
        order_L=L,
        horizon=horizon,
        source_x=source_x,
        source_z=source_z,
    )


# the smallest standard deviation whose variance is a normal double, 2**-511
# (about 1.5e-154); a subnormal variance has lost significant bits
_MIN_SD = float(np.sqrt(np.finfo(float).tiny))


def standardize(s: Series) -> Series:
    """Center and scale to zero mean, unit population variance.

    The original mean and standard deviation are recorded on the result.  A
    non-constant series whose standard deviation passes the double range,
    or is under ``_MIN_SD``, raises :class:`DataError`.
    """
    if len(s) < 2:
        raise ParameterError("standardize requires at least 2 samples")
    v = s.values
    # the sums can pass the double range; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.mean(v))
        sd = float(np.std(v))
    if sd == 0.0 and (v == v[0]).all():
        raise DegenerateSeriesError("cannot standardize a zero-variance series")
    if not _MIN_SD <= sd < np.inf:
        raise _scale_error(v, sd, "standardization")
    return Series((v - mu) / sd, mean=mu, std=sd)


def _scale_error(v: np.ndarray, sd: float, use: str) -> DataError:
    """The error for a non-constant series whose standard deviation ``sd``
    is out of the range that ``use`` can work with."""
    side = "small" if sd < 1.0 else "large"
    return DataError(
        f"the series is too {side} for {use} (standard deviation {sd:.3g}, "
        f"largest magnitude {np.abs(v).max():.3g}); rescale it"
    )


def write_csv(path, header: str, fmt: str, rows) -> None:
    """Write the ``header`` line, then ``fmt % row`` for each row; the one
    writer of every CSV file the package writes."""
    line = fmt + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(line % row for row in rows)


def write_series_csv(s: Series, path) -> None:
    """Write a series as single-column CSV with header ``value``."""
    write_csv(path, "value", "%.17g", s.values)


def read_series_csv(path) -> Series:
    """Read a series written by :func:`write_series_csv`; a file that
    cannot be read as UTF-8 text, or holds a non-numeric or non-finite
    sample, raises :class:`DataError` naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if header != "value":
                raise DataError(
                    f"expected header 'value' in {str(path)!r}, got {header!r}"
                )
            values = np.array([float(line) for line in f if line.strip()])
    # UnicodeDecodeError is a ValueError, so it is caught first
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read series file {str(path)!r}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"non-numeric sample in {str(path)!r}: {exc}") from exc
    if values.size == 0:
        raise DataError(f"no samples in {str(path)!r}")
    if not np.isfinite(values).all():
        raise DataError(f"non-finite sample in {str(path)!r}")
    return Series(values)
