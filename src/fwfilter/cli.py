"""Command-line entry point.

Subcommands cover the full pipeline: ``generate`` produces benchmark
series, ``fit`` trains a model on a series CSV (an fwf fit picks alpha over
a grid), ``predict`` scores a model against a series at the task the model
file records, and ``bench`` runs the cross-validated comparison plus timing
sweep.  Configuration is a single JSON document per command; every command
validates fully before writing anything.  ``generate``, ``fit`` and
``predict`` write exactly ``--out`` and echo the effective configuration to
``<out-stem>.config.json``; ``bench`` writes into the directory ``--out``,
echo included, as ``config.json``.  Errors, usage errors included, map to
one stderr line and exit code 2 (configuration or usage) or 3 (runtime/data).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import evalbench, model_io
from .errors import DataError, DimensionError, FilterError, ParameterError, check_int
from .signal_gen import (embed, embed_pair, read_series_csv, standardize, write_csv,
                         write_series_csv)

__all__ = ["main"]

_EPILOG = (
    "Environment: FWF_THREADS caps worker parallelism for neighbor queries "
    "(0 = one worker per core; default 1)."
)


# the files bench writes into its --out directory
_BENCH_FILES = ("results.csv", "timing.csv", "summary.json", "config.json")


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {str(path)!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # invalid JSON, or an integer over 4300 digits
        raise ParameterError(
            f"config file {str(path)!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ParameterError(f"config file {str(path)!r} must hold a JSON object")
    return cfg


def _sibling(out, suffix: str) -> str:
    """The file beside ``out`` that shares its stem: ``m.npz`` gives
    ``m<suffix>``, and so does ``m``."""
    return Path(out).with_suffix("").as_posix() + suffix


def _check_file(path: str) -> None:
    """Reject an output file that is a directory or has no directory to go in."""
    if Path(path).is_dir():
        raise DataError(f"output file {path!r} is a directory")
    if not Path(path).parent.is_dir():
        raise DataError(f"no directory {str(Path(path).parent)!r} to write {path!r} in")


def _check_out(args) -> None:
    """Reject an ``--out`` that cannot take the command's output, before any
    work: ``bench`` makes its directory, so the nearest existing path on the
    way up must be a directory, and none of its four files may be one; the
    others write ``--out`` and its config echo into an existing directory.
    A FIR ``generate`` checks its desired file once its config is read."""
    if args.command != "bench":
        for path in (args.out, _sibling(args.out, ".config.json")):
            _check_file(path)
        return
    out = Path(args.out)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise DataError(f"cannot make output directory {args.out!r}: "
                        f"{str(found)!r} is not a directory")
    for name in _BENCH_FILES:
        if (out / name).is_dir():
            raise DataError(f"output file {str(out / name)!r} is a directory")


def _standardize(s, path):
    """``standardize(s)``; a series it cannot scale names its file."""
    try:
        return standardize(s)
    except DataError as exc:
        raise type(exc)(f"series file {str(path)!r}: {exc}") from None


def _embed_from(args, cfg: dict, L: int, horizon: int, source: str = "config"):
    """The (window, target) pairs of ``--series`` (and ``--desired``),
    standardized unless the config's ``standardize`` is false.  A series too
    short for L and the horizon exits 2 if they come from the config, else 3;
    files of unequal lengths, or of one sample to standardize, exit 3, as
    does a file that cannot be standardized, named by :func:`_standardize`."""
    scaled = cfg.get("standardize", True)
    if not isinstance(scaled, bool):
        raise ParameterError(f"standardize must be true or false, got {scaled!r}")
    s = read_series_csv(args.series)
    desired = read_series_csv(args.desired) if args.desired else None
    files = " and ".join(repr(str(p)) for p in (args.series, args.desired) if p)
    if desired is not None and len(desired) != len(s):
        raise DataError(f"series files {files} must have equal length, "
                        f"got {len(s)} and {len(desired)} samples")
    if scaled and len(s) < 2:
        raise DataError(f"cannot standardize {files}: 1 sample, at least 2 needed")
    if scaled:
        s = _standardize(s, args.series)
        if desired is not None:
            desired = _standardize(desired, args.desired)
    if len(s) < L + horizon:
        error = DimensionError if source == "config" else DataError
        raise error(f"series of length {len(s)} too short for the {source}'s "
                    f"L={L}, horizon={horizon}")
    if desired is not None:
        return embed_pair(s, desired, L, horizon)
    return embed(s, L, horizon)


def cmd_generate(args) -> int:
    """Write ``n`` samples of the configured dataset, seeded by ``seed``."""
    cfg = _load_json(args.config)
    dataset, n = cfg.get("dataset"), check_int("n", cfg.get("n"), 1)
    seed = check_int("seed", cfg.get("seed", 0), 0)
    params = {k: v for k, v in cfg.items() if k not in ("dataset", "n", "seed")}
    desired_path = _sibling(args.out, ".desired.csv")
    if dataset == "fir":
        _check_file(desired_path)
    # checks the dataset and every generator key before anything is written
    out = evalbench.make_series(dataset, params, seed, n)
    if dataset == "fir":
        x, z = out
        write_series_csv(x, args.out)
        write_series_csv(z, desired_path)
        print(f"wrote {len(x)} samples to {args.out} (input) and {desired_path} (desired)")
        values = x.values
    else:
        write_series_csv(out, args.out)
        print(f"wrote {len(out)} samples to {args.out}")
        values = out.values
    print(
        "mean %.6g  std %.6g  min %.6g  max %.6g"
        % (values.mean(), values.std(), values.min(), values.max())
    )
    evalbench.write_json({**cfg, "dataset": dataset, "n": n, "seed": seed},
                         _sibling(args.out, ".config.json"))
    return 0


def cmd_fit(args) -> int:
    """Fit the configured method to ``--series`` and save the model."""
    cfg = _load_json(args.config)
    L = check_int("order_L", cfg.get("order_L", 10), 1)
    horizon = check_int("horizon", cfg.get("horizon", 1), 0)
    hyper = {k: v for k, v in cfg.items()
             if k not in ("order_L", "horizon", "standardize")}
    method = hyper.pop("method", None)
    fit_fn = evalbench.make_fitter(method, hyper, L, horizon)
    data = _embed_from(args, cfg, L, horizon)
    tic = time.perf_counter()
    model = fit_fn(data)
    fit_seconds = time.perf_counter() - tic
    if model.kind == "fwf":
        train_mse = model.train_mse  # computed by fit; no second self-query
    else:
        train_mse = evalbench.mse(model.predict(data.windows), data.targets)
    model_io.save_model(model, args.out)
    print(f"fitted {method} on {len(data)} windows in {fit_seconds:.3f} s")
    print("training MSE %.17g" % train_mse)
    if model.kind == "fwf":
        print("alpha %.17g" % model.alpha)
    if model.kind == "wiener":
        print("weights", " ".join("%.17g" % w for w in model.weights))
    evalbench.write_json(
        {**cfg, "method": method, "order_L": L, "horizon": horizon,
         "standardize": cfg.get("standardize", True)},
        _sibling(args.out, ".config.json"),
    )
    return 0


def cmd_predict(args) -> int:
    """Score a model at the order, horizon and K its file records; the
    config may set only ``standardize``."""
    cfg = _load_json(args.config) if args.config else {}
    unknown = sorted(set(cfg) - {"standardize"})
    if unknown:
        raise ParameterError(
            f"unknown predict config keys: {unknown}; the model file sets the "
            "order, horizon and number of neighbors"
        )
    model = model_io.load_model(args.model)
    data = _embed_from(args, cfg, model.order_L, model.horizon, "model file")
    pred = model.predict(data.windows)
    err = evalbench.squared_errors(pred, data.targets)
    write_csv(args.out, "index,prediction,target,squared_error",
              "%d,%.17g,%.17g,%.17g", zip(range(len(data)), pred, data.targets, err))
    total = evalbench.mse(pred, data.targets)
    print("test MSE %.17g over %d windows" % (total, len(data)))
    evalbench.write_json({"standardize": cfg.get("standardize", True)},
                         _sibling(args.out, ".config.json"))
    return 0


def cmd_bench(args) -> int:
    """Run the cross-validated experiment and the timing sweep."""
    raw = _load_json(args.config)
    timing_cfg = raw.pop("timing", None)
    try:
        cfg = evalbench.ExperimentConfig(**raw)
    except TypeError as exc:  # an unknown or missing field
        raise ParameterError(f"invalid bench config: {exc}") from exc
    # check the sweep before the experiment runs
    sweep, hyper = evalbench.check_timing(timing_cfg, cfg)
    # a failure in the experiment or the sweep exits before any file exists
    table = evalbench.run_experiment(cfg)
    timing = evalbench.timing_scaling(**sweep, hyper=hyper)
    summary = evalbench.summarize(table)
    summary["timing"] = {
        "method": timing.method,
        "sizes": list(timing.sizes),
        "fit_slope": timing.fit_slope(),
        "predict_slope": timing.predict_slope(),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    evalbench.write_results_csv(table, out_dir / "results.csv")
    evalbench.write_timing_csv(timing, out_dir / "timing.csv")
    evalbench.write_json(summary, out_dir / "summary.json")
    evalbench.write_json({**dataclasses.asdict(cfg), "timing": sweep},
                         out_dir / "config.json")
    print(
        f"wrote {len(table.rows)} result rows "
        f"({len(table.errors)} errored cells) to {out_dir / 'results.csv'}"
    )
    for entry in summary["results"]:
        print(
            "%s N=%d mean MSE %.6g (std %.6g)"
            % (entry["method"], entry["n_train"], entry["mean_mse"], entry["std_mse"])
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach :func:`main`'s handler;
    subparsers are made from the same class."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fwf",
        description="Correntropy-domain Wiener filtering toolkit",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, required=True):
        p.add_argument("--config", required=required, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output path")
        p.set_defaults(handler=handler)

    common(sub.add_parser("generate", help="produce a benchmark series CSV"),
           cmd_generate)

    p = sub.add_parser("fit", help="train a model on a series CSV")
    common(p, cmd_fit)
    p.add_argument("--series", required=True, help="training series CSV")
    p.add_argument("--desired", help="optional desired-signal series CSV")

    p = sub.add_parser("predict", help="score a model against a series CSV")
    common(p, cmd_predict, required=False)
    p.add_argument("--model", required=True, help="fitted model file (.npz)")
    p.add_argument("--series", required=True, help="evaluation series CSV")
    p.add_argument("--desired", help="optional desired-signal series CSV")

    common(sub.add_parser("bench", help="run the cross-validated benchmark"),
           cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command; every error ends here, as one ``error:`` line on
    stderr and exit 2 (configuration or usage) or 3 (runtime or data).
    Running out of memory is a runtime failure too, and ends a bench run."""
    try:
        args = _build_parser().parse_args(argv)
        _check_out(args)
        return args.handler(args)
    except (FilterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
