"""Command-line entry point.

Subcommands cover the full pipeline: ``generate`` produces benchmark
series, ``fit`` trains a model on a series CSV, ``predict`` scores a model
against a series, ``bench`` runs the cross-validated comparison plus timing
sweep, and ``tune`` searches the alpha grid.  Configuration is a single
JSON document per command; every command validates fully before writing
anything, echoes the effective configuration next to its output, and maps
errors to exit code 2 (configuration) or 3 (runtime/data).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import evalbench, fwf_core, model_io
from .errors import DataError, FilterError, ParameterError, check_int
from .signal_gen import (
    Series,
    embed,
    embed_pair,
    read_series_csv,
    standardize,
    write_series_csv,
)

__all__ = ["main"]

_EPILOG = (
    "Environment: FWF_THREADS caps worker parallelism for neighbor queries "
    "(0 = one worker per core; default 1)."
)


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return cfg


def _echo_config(cfg: dict, out_path) -> None:
    """Write the fully resolved config next to the command's output."""
    out_path = Path(out_path)
    if out_path.suffix:
        echo = out_path.with_suffix("").as_posix() + ".config.json"
    else:
        echo = (out_path / "config.json").as_posix()
    with open(echo, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_series(path) -> Series:
    try:
        return read_series_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read series file {path}: {exc}") from exc


def _embed_from(args, cfg: dict, L: int, horizon: int):
    s = _read_series(args.series)
    desired = _read_series(args.desired) if getattr(args, "desired", None) else None
    if cfg.get("standardize", True):
        s = standardize(s)
        if desired is not None:
            desired = standardize(desired)
    if desired is not None:
        return embed_pair(s, desired, L, horizon)
    return embed(s, L, horizon)


def cmd_generate(args) -> int:
    cfg = _load_json(args.config)
    dataset, n = cfg.get("dataset"), check_int("n", cfg.get("n"), 1)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    seed = check_int("seed", seed, 0)
    params = {k: v for k, v in cfg.items() if k not in ("dataset", "n", "seed")}
    # checks the dataset and every generator key before anything is written
    out = evalbench.make_series(dataset, params, seed, n)
    if dataset == "fir":
        x, z = out
        desired_path = Path(args.out).with_suffix("").as_posix() + ".desired.csv"
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
    _echo_config({**cfg, "dataset": dataset, "n": n, "seed": seed}, args.out)
    return 0


# config keys every task command reads itself; the rest are hyperparameters
_TASK_KEYS = ("order_L", "horizon", "standardize")


def _task(cfg: dict, L: int, horizon: int):
    """Validated ``order_L`` and ``horizon`` of a fit, tune or predict config
    (``L`` and ``horizon`` where absent) and its remaining keys; checks that
    ``standardize`` is a bool."""
    L = check_int("order_L", cfg.get("order_L", L), 1)
    horizon = check_int("horizon", cfg.get("horizon", horizon), 0)
    if not isinstance(cfg.get("standardize", True), bool):
        raise ParameterError(
            f"standardize must be true or false, got {cfg['standardize']!r}"
        )
    return L, horizon, {k: v for k, v in cfg.items() if k not in _TASK_KEYS}


def cmd_fit(args) -> int:
    cfg = _load_json(args.config)
    L, horizon, hyper = _task(cfg, 10, 1)
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
    if model.kind == "wiener":
        print("weights", " ".join("%.17g" % w for w in model.weights))
    _echo_config(
        {**cfg, "method": method, "order_L": L, "horizon": horizon,
         "standardize": cfg.get("standardize", True)},
        args.out,
    )
    return 0


def cmd_predict(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    model = model_io.load_model(args.model)
    L, horizon, rest = _task(cfg, model.order_L, model.horizon)
    if L != model.order_L:
        raise ParameterError(
            f"config order_L={L} does not match model order_L={model.order_L}"
        )
    k = rest.pop("k_neighbors", None)
    if rest:
        raise ParameterError(f"unknown predict config keys: {sorted(rest)}")
    if k is not None:
        if model.kind != "fwf":
            raise ParameterError("k_neighbors applies only to fwf models")
        check_int("k_neighbors", k, 1)
    data = _embed_from(args, cfg, L, horizon)
    if k is None:
        pred = model.predict(data.windows)
    else:
        pred = fwf_core.predict_batch(model, data.windows, k)
    pred = np.atleast_1d(np.asarray(pred, dtype=float))
    err = (pred - data.targets) ** 2
    with open(args.out, "w") as f:
        f.write("index,prediction,target,squared_error\n")
        for i in range(len(data)):
            f.write(
                "%d,%.17g,%.17g,%.17g\n" % (i, pred[i], data.targets[i], err[i])
            )
    total = evalbench.mse(pred, data.targets)
    print("test MSE %.17g over %d windows" % (total, len(data)))
    _echo_config({**cfg, "order_L": L, "horizon": horizon}, args.out)
    return 0


def cmd_bench(args) -> int:
    raw = _load_json(args.config)
    timing_cfg = raw.pop("timing", None)
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        cfg = evalbench.ExperimentConfig(**raw)
    except TypeError as exc:  # an unknown or missing field
        raise ParameterError(f"invalid bench config: {exc}") from exc
    # check the sweep before the experiment writes anything
    sweep, hyper = evalbench.check_timing(timing_cfg, cfg)
    # the experiment generates the series first, so a bad generator key
    # exits before the output directory exists
    table = evalbench.run_experiment(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    evalbench.write_results_csv(table, out_dir / "results.csv")
    summary = evalbench.summarize(table)
    timing = evalbench.timing_scaling(**sweep, hyper=hyper)
    evalbench.write_timing_csv(timing, out_dir / "timing.csv")
    summary["timing"] = {
        "method": timing.method,
        "sizes": list(timing.sizes),
        "fit_slope": timing.fit_slope(),
        "predict_slope": timing.predict_slope(),
    }
    evalbench.write_summary_json(summary, out_dir / "summary.json")
    _echo_config({**dataclasses.asdict(cfg), "timing": sweep}, out_dir)
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


def cmd_tune(args) -> int:
    cfg = _load_json(args.config)
    L, horizon, hyper = _task(cfg, 10, 1)
    grid = hyper.pop("grid", None)
    if grid is not None:
        grid = evalbench._reals("grid", grid)
    fwf_cfg = evalbench.fwf_config(hyper, L, horizon)
    data = _embed_from(args, cfg, L, horizon)
    alpha = fwf_core.tune_alpha(data, fwf_cfg, grid)
    print("alpha %.17g" % alpha)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"alpha": alpha}, f)
            f.write("\n")
        _echo_config({**cfg, "order_L": L, "horizon": horizon}, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwf",
        description="Correntropy-domain Wiener filtering toolkit",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", required=out_required, help="output path")

    p = sub.add_parser("generate", help="produce a benchmark series CSV")
    common(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=cmd_generate, config_required=True)

    p = sub.add_parser("fit", help="train a model on a series CSV")
    common(p)
    p.add_argument("--series", required=True, help="training series CSV")
    p.add_argument("--desired", help="optional desired-signal series CSV")
    p.set_defaults(handler=cmd_fit, config_required=True)

    p = sub.add_parser("predict", help="score a model against a series CSV")
    common(p)
    p.add_argument("--model", required=True, help="fitted model file (.npz)")
    p.add_argument("--series", required=True, help="evaluation series CSV")
    p.add_argument("--desired", help="optional desired-signal series CSV")
    p.set_defaults(handler=cmd_predict, config_required=False)

    p = sub.add_parser("bench", help="run the cross-validated benchmark")
    common(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=cmd_bench, config_required=True)

    p = sub.add_parser("tune", help="search the alpha grid on a series")
    common(p, out_required=False)
    p.add_argument("--series", required=True, help="training series CSV")
    p.add_argument("--desired", help="optional desired-signal series CSV")
    p.set_defaults(handler=cmd_tune, config_required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.config_required and not args.config:
        print("error: --config is required for this command", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except FilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
