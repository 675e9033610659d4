"""Exception hierarchy shared across the toolkit.

Two families matter to the command-line layer: configuration/validation
problems (exit code 2) and runtime/data problems (exit code 3).  Every
exception carries its family in ``exit_code`` so the CLI can map errors
without inspecting types one by one.  ``check_int``, ``check_real`` and
``check_nonneg`` are the scalar checks behind the configuration family.
"""

import numbers


class FilterError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 3


class ConfigError(FilterError):
    """Invalid configuration or arguments detected before any work runs."""

    exit_code = 2


class ParameterError(ConfigError):
    """An operation argument is out of its documented range."""


class DimensionError(ConfigError):
    """Shapes or lengths do not line up (window order, series length)."""


class AlignmentError(ConfigError):
    """Paired series have mismatched lengths."""


class DomainError(ConfigError):
    """A scalar argument is outside the mathematical domain of the op."""


class DataError(FilterError):
    """Runtime data problem: missing file, unusable series."""


class DegenerateSeriesError(DataError):
    """Series has zero variance, so standardization is undefined."""


class IntegrationDivergenceError(DataError):
    """Numerical integration produced a non-finite state."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(
            message or f"integration diverged at step {step_index}"
        )


class ConditioningError(FilterError):
    """A matrix factorization failed because the system is not positive
    definite; carries the offending pivot so callers can report it."""

    def __init__(self, message, pivot=None):
        self.pivot = pivot
        super().__init__(message)


def check_int(key: str, value, minimum: int) -> int:
    """``value`` if it is an integer >= ``minimum``; bools and strings fail."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ParameterError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(key: str, value) -> float:
    """``value`` as a float if it is a real number; bools and strings fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{key} must be a number, got {value!r}")
    return float(value)


def check_nonneg(key: str, value) -> float:
    """``value`` as a float if it is a non-negative finite real number."""
    v = check_real(key, value)
    if not 0 <= v < float("inf"):
        raise ParameterError(f"{key} must be a finite number >= 0, got {value!r}")
    return v
