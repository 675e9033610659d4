"""Correntropy-domain Wiener filtering with nearest-neighbor evaluation.

A time-domain filtering toolkit built around Gaussian-kernel lag
statistics: the core filter solves a correntropy Toeplitz system and
predicts through partner vectors of the nearest training windows, with
linear Wiener and kernel-adaptive baselines plus a reproducible benchmark
harness for chaotic series.  The package exports each module's ``__all__``.
"""

from . import baselines, errors, evalbench, fwf_core, kernel_stats, model_io, neighbors, signal_gen
from .baselines import *  # noqa: F403
from .errors import *  # noqa: F403
from .evalbench import *  # noqa: F403
from .fwf_core import *  # noqa: F403
from .kernel_stats import *  # noqa: F403
from .model_io import *  # noqa: F403
from .neighbors import *  # noqa: F403
from .signal_gen import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *signal_gen.__all__, *kernel_stats.__all__,
           *fwf_core.__all__, *neighbors.__all__, *baselines.__all__, *model_io.__all__,
           *evalbench.__all__]
