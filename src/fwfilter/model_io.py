"""Versioned model serialization.

All fitted models share one npz envelope: a format version, a ``kind`` tag
(``fwf``, ``wiener``, or a kernel-adaptive variant), the float64 arrays of
the model, and a JSON blob for its scalars.  ``_FIELDS`` names each kind's
constructor and fields once; saving and loading both follow it.  The model
classes alone check a file's values: each scalar must be a JSON number in
range.  Round-trips are bitwise: a reloaded model predicts as the original.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np

from .baselines import KAF_VARIANTS, KafModel, WienerModel
from .errors import DataError, FilterError
from .fwf_core import FwfConfig, FwfModel

__all__ = ["save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = 1

# each kind's constructor, array members and meta scalars, in file order
_FIELDS = {
    "fwf": (FwfModel, ("weights", "partners", "train_windows", "train_targets"),
            ("config", "sigma_input", "alpha", "ridge", "bias", "train_mse")),
    "wiener": (WienerModel, ("weights",), ("horizon",)),
    **{v: (functools.partial(KafModel, variant=v), ("centers", "coefficients"),
           ("sigma", "horizon")) for v in KAF_VARIANTS},
}


def _from_json(name: str, value):
    if name == "config":
        value = {**value}  # a TypeError unless the config is an object
        value.pop("sigma_weight", None)  # files from before it was removed
        return FwfConfig(**value)
    return value


def save_model(model, path) -> None:
    """Write a fitted model in the npz envelope to exactly ``path``: the
    file is opened here, so no ``.npz`` is appended to the name."""
    kind = getattr(model, "kind", None)
    if not (isinstance(kind, str) and kind in _FIELDS):
        raise DataError(f"cannot serialize object of type {type(model).__name__}")
    _, arrays, scalars = _FIELDS[kind]
    # a config is a dataclass; asdict gives its JSON object
    meta = json.dumps({k: getattr(model, k) for k in scalars}, default=dataclasses.asdict)
    with open(path, "wb") as f:
        np.savez(f, format_version=FORMAT_VERSION, kind=kind,
                 **{k: getattr(model, k) for k in arrays}, meta=meta)


def load_model(path):
    """Load a model written by :func:`save_model`; a baseline file from
    before the horizon was recorded takes its class's default, 1."""
    try:
        with np.load(path, allow_pickle=False) as f:
            data = {k: f[k] for k in f.files}
    except FileNotFoundError as exc:
        raise DataError(f"model file not found: {str(path)!r}") from exc
    except (ValueError, OSError) as exc:
        raise DataError(f"unreadable model file {str(path)!r}: {exc}") from exc
    try:
        version = int(data["format_version"])
        # krr files from before it became a name of the krls fit
        kind = {"krr": "krls"}.get(str(data["kind"]), str(data["kind"]))
        meta = json.loads(str(data["meta"]))
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed model file {str(path)!r}: {exc}") from exc
    if version != FORMAT_VERSION:
        raise DataError(
            f"model format version {version} not supported (expected {FORMAT_VERSION})"
        )
    if kind not in _FIELDS:
        raise DataError(f"unknown model kind {kind!r} in {str(path)!r}")
    model, arrays, scalars = _FIELDS[kind]
    try:
        fields = {k: data[k] for k in arrays}
        fields.update((k, _from_json(k, meta[k])) for k in scalars if k in meta)
        return model(**fields)
    except (FilterError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file {str(path)!r}: {exc}") from exc
