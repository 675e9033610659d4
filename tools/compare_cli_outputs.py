"""Compare the command-line outputs of two fwfilter source trees.

Usage::

    python tools/compare_cli_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``fwfilter`` package, such as the
``src`` of a checkout; a parent commit's tree can come from ``git archive``.
The script runs one fixed matrix of ``fwf`` commands against each tree, in
a temporary directory of its own, and compares:

- each command's exit code, stdout (the fit's wall time masked) and stderr,
  and any command that fails in both trees;
- the set of files the matrix leaves;
- every CSV and JSON file byte for byte, less the timing columns of the
  bench CSVs and the timing slopes of ``summary.json``;
- every npz member: its bytes, dtype and shape.

It prints one line per difference and exits 1 if there is any, else 0.  It
needs numpy only, and runs in well under a minute on two cores.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# config file -> its JSON, written before the first command
CONFIGS = {
    "mg.json": {"dataset": "mackey_glass", "n": 2100, "downsample": 60},
    # long enough that the alpha search drops grid points in mid-series
    "mg_long.json": {"dataset": "mackey_glass", "n": 20000, "downsample": 1},
    "fir.json": {"dataset": "fir", "n": 1500, "seed": 3},
    "fwf_auto.json": {"method": "fwf", "order_L": 5},
    "fwf_fixed.json": {"method": "fwf", "order_L": 5, "alpha": 0.4,
                       "k_neighbors": 3, "horizon": 2},
    # a narrow width and large alphas: exp underflows to 0 on part of every
    # search block and of the predict
    "fwf_far.json": {"method": "fwf", "order_L": 5, "sigma_input": 0.05,
                     "alpha": [2.0, 4.0, 8.0]},
    "wiener.json": {"method": "wiener", "order_L": 5},
    "wiener_fir.json": {"method": "wiener", "order_L": 3, "horizon": 0,
                        "standardize": False},
    # the predict config of the FIR pair, which may set only standardize
    "unscaled.json": {"standardize": False},
    "klms.json": {"method": "klms", "order_L": 5, "sigma": 1.0},
    "krls.json": {"method": "krls", "order_L": 5, "sigma": 1.0, "lam": 1e-3},
    "bench.json": {
        "dataset": "mackey_glass", "generator": {"downsample": 6}, "order_L": 5,
        "horizon": 1, "train_sizes": [100, 200], "folds": 2, "test_size": 50,
        "methods": [{"name": "fwf"}, {"name": "wiener"},
                    {"name": "klms", "sigma": 1.0}, {"name": "krls", "sigma": 1.0}],
        "timing": {"method": "wiener", "sizes": [100, 200, 400], "repeats": 1,
                   "queries": 50},
    },
}


def _matrix() -> list[list[str]]:
    """The commands, in run order; paths are relative to the run directory."""
    runs = [["generate", "--config", "mg.json", "--out", "mg.csv"],
            ["generate", "--config", "mg_long.json", "--out", "mg_long.csv"],
            ["generate", "--config", "fir.json", "--out", "fir.csv"]]
    for name in ("fwf_auto", "fwf_fixed", "fwf_far", "wiener", "klms", "krls"):
        runs += [["fit", "--config", f"{name}.json", "--series", "mg.csv",
                  "--out", f"{name}.npz"],
                 ["predict", "--model", f"{name}.npz", "--series", "mg.csv",
                  "--out", f"{name}.pred.csv"]]
    runs += [["fit", "--config", "fwf_auto.json", "--series", "mg_long.csv",
              "--out", "fwf_long.npz"],
             ["predict", "--model", "fwf_long.npz", "--series", "mg_long.csv",
              "--out", "fwf_long.pred.csv"]]
    pair = ["--series", "fir.csv", "--desired", "fir.desired.csv"]
    runs += [["fit", "--config", "wiener_fir.json", *pair, "--out", "wiener_fir.npz"],
             ["predict", "--config", "unscaled.json", "--model", "wiener_fir.npz",
              *pair, "--out", "wiener_fir.pred.csv"]]
    runs.append(["bench", "--config", "bench.json", "--out", "bench"])
    return runs


# the fit's wall time, the bench CSVs' timing columns and summary's slopes
_FIT_TIME = re.compile(r"(in )\d+\.\d+( s)$", re.M)
_TIMING_COLUMNS = {"fit_seconds", "predict_us_per_query"}
_SLOPE = re.compile(r'("(?:fit|predict)_slope": )[^,\n]+')


def _run_matrix(src: Path, root: Path) -> list[tuple[int, str, str]]:
    """Write the configs into ``root`` and run the matrix there against the
    package in ``src``; returns each command's (exit code, stdout, stderr)."""
    for name, doc in CONFIGS.items():
        (root / name).write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "OPENBLAS_NUM_THREADS": "1"}
    results = []
    for argv in _matrix():
        p = subprocess.run([sys.executable, "-m", "fwfilter.cli", *argv], cwd=root,
                           env=env, capture_output=True, text=True)
        results.append((p.returncode, _FIT_TIME.sub(r"\1*\2", p.stdout), p.stderr))
    return results


def _masked_csv(path: Path) -> bytes:
    """The CSV's bytes with every timing column's values masked."""
    lines = path.read_bytes().split(b"\n")
    header = lines[0].decode().split(",")
    drop = {i for i, name in enumerate(header) if name in _TIMING_COLUMNS}
    return b"\n".join(b",".join(b"*" if i in drop else v
                                for i, v in enumerate(line.split(b",")))
                      if line else line for line in lines)


def _compare_file(rel: str, a: Path, b: Path) -> list[str]:
    if rel.endswith(".npz"):
        with np.load(a) as fa, np.load(b) as fb:
            if sorted(fa.files) != sorted(fb.files):
                return [f"{rel}: members {sorted(fa.files)} != {sorted(fb.files)}"]
            diffs = []
            for k in fa.files:
                x, y = fa[k], fb[k]
                if (x.dtype, x.shape) != (y.dtype, y.shape):
                    diffs.append(f"{rel}[{k}]: {x.dtype}{x.shape} != {y.dtype}{y.shape}")
                elif x.tobytes() != y.tobytes():
                    diffs.append(f"{rel}[{k}]: bytes differ")
            return diffs
    if rel.endswith(".csv"):
        same = _masked_csv(a) == _masked_csv(b)
    elif rel.endswith(".json"):
        same = _SLOPE.sub(r"\1*", a.read_text()) == _SLOPE.sub(r"\1*", b.read_text())
    else:
        same = a.read_bytes() == b.read_bytes()
    return [] if same else [f"{rel}: contents differ"]


def compare(parent_src: Path, change_src: Path) -> list[str]:
    """Every difference between the two trees' matrix runs, one line each."""
    with tempfile.TemporaryDirectory() as d:
        roots = Path(d, "parent"), Path(d, "change")
        runs = []
        for src, root in zip((parent_src, change_src), roots):
            root.mkdir()
            runs.append(_run_matrix(src, root))
        # every command of the matrix is valid, so a failure in both trees
        # is a broken matrix, not an agreement
        diffs = [f"fwf {' '.join(argv)}: exit {pa[0]} in both trees"
                 for argv, pa, ch in zip(_matrix(), *runs) if pa[0] == ch[0] != 0]
        for argv, (pa, ch) in zip(_matrix(), zip(*runs)):
            for what, x, y in zip(("exit code", "stdout", "stderr"), pa, ch):
                if x != y:
                    diffs.append(f"fwf {' '.join(argv)}: {what} {x!r} != {y!r}")
        files = [{p.relative_to(r).as_posix() for p in r.rglob("*") if p.is_file()}
                 for r in roots]
        for rel in sorted(files[0] ^ files[1]):
            diffs.append(f"{rel}: only in {'parent' if rel in files[0] else 'change'}")
        for rel in sorted(files[0] & files[1]):
            diffs += _compare_file(rel, roots[0] / rel, roots[1] / rel)
        print(f"{len(_matrix())} commands, {len(files[0] & files[1])} files compared")
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    diffs = compare(Path(args[0]), Path(args[1]))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)" if diffs else "no difference")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
