"""Versioned model serialization.

All fitted models share one npz envelope: a format version, a ``kind`` tag
(``fwf``, ``wiener``, or a kernel-adaptive variant), the float64 arrays of
the model, and a JSON blob for scalar configuration.  Round-trips are
bitwise: a reloaded model reproduces every prediction of the original.
The neighbor index of a reloaded filter is rebuilt from the stored training
windows.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import neighbors
from .baselines import KafModel, WienerModel
from .errors import DataError
from .fwf_core import FwfConfig, FwfModel
from .kernel_stats import KernelWidth

__all__ = ["save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def _config_dict(cfg: FwfConfig) -> dict:
    d = dataclasses.asdict(cfg)
    for key in ("sigma_input", "sigma_weight"):
        if isinstance(d[key], dict):
            d[key] = d[key]["sigma"]
    return d


def save_model(model, path) -> None:
    """Write a fitted model to ``path`` in the npz envelope."""
    if isinstance(model, FwfModel):
        meta = {
            "config": _config_dict(model.config),
            "sigma_input": model.sigma_input,
            "sigma_weight": model.sigma_weight,
            "alpha": model.alpha,
            "ridge": model.ridge,
            "bias": model.bias,
            "train_mse": model.train_mse,
        }
        np.savez(
            path,
            format_version=FORMAT_VERSION,
            kind="fwf",
            weights=model.weights,
            partners=model.partners,
            train_windows=model.train_windows,
            train_targets=model.train_targets,
            meta=json.dumps(meta),
        )
    elif isinstance(model, WienerModel):
        np.savez(
            path,
            format_version=FORMAT_VERSION,
            kind="wiener",
            weights=model.weights,
            meta=json.dumps({}),
        )
    elif isinstance(model, KafModel):
        np.savez(
            path,
            format_version=FORMAT_VERSION,
            kind=model.variant,
            centers=model.centers,
            coefficients=model.coefficients,
            meta=json.dumps({"sigma": model.sigma.sigma}),
        )
    else:
        raise DataError(f"cannot serialize object of type {type(model).__name__}")


def load_model(path):
    """Load a model written by :func:`save_model`."""
    try:
        with np.load(path, allow_pickle=False) as f:
            data = {k: f[k] for k in f.files}
    except FileNotFoundError as exc:
        raise DataError(f"model file not found: {path}") from exc
    except (ValueError, OSError) as exc:
        raise DataError(f"unreadable model file {path}: {exc}") from exc
    try:
        version = int(data["format_version"])
        kind = str(data["kind"])
        meta = json.loads(str(data["meta"]))
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    if version != FORMAT_VERSION:
        raise DataError(
            f"model format version {version} not supported (expected {FORMAT_VERSION})"
        )
    try:
        if kind == "fwf":
            cfg = FwfConfig(**meta["config"])
            windows = data["train_windows"]
            return FwfModel(
                weights=data["weights"],
                partners=data["partners"],
                train_windows=windows,
                train_targets=data["train_targets"],
                bias=float(meta["bias"]),
                config=cfg,
                sigma_input=float(meta["sigma_input"]),
                sigma_weight=float(meta["sigma_weight"]),
                alpha=float(meta["alpha"]),
                ridge=float(meta["ridge"]),
                train_mse=float(meta["train_mse"]),
                neighbor_index=neighbors.build(windows),
            )
        if kind == "wiener":
            return WienerModel(data["weights"])
        if kind in ("klms", "krls", "krr"):
            return KafModel(
                data["centers"],
                data["coefficients"],
                KernelWidth(float(meta["sigma"])),
                kind,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    raise DataError(f"unknown model kind {kind!r} in {path}")
