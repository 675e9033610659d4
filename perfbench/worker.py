"""One workload process: set up, run the timed loop, check the outputs.

Started by ``run.py`` from the root of a checkout with ``PYTHONPATH=src``.
Its first stdout line is ``READY <json>`` once set-up is done; with
``--setup-only`` it exits there.  Otherwise it runs the workload for
``--seconds`` seconds after one warm-up operation, checks the outputs, and
prints ``RESULT <json>`` as its last line.  A fixed reference computation
that does not use fwfilter runs before each timed operation and after the
last one, so that each operation can be set against the machine's speed at
that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

clock = time.perf_counter

ORDER_L = 10
HORIZON = 1
K = 2

# sizes: training rows, held-out windows, predict_batch calls per serving
# round, sampled neighbor checks; the crossval configs scale with them
SIZES = {
    "full": {"rows": 100_000, "heldout": 10_000, "batches": 10, "nbr_checks": 20},
    "tiny": {"rows": 2_000, "heldout": 200, "batches": 2, "nbr_checks": 5},
}

HERE = Path(__file__).resolve().parent


def _seed_rng(seed):
    import numpy as np

    return np.random.default_rng(seed)


def _perturb(seed, rng, base):
    """Generator initial condition: the default for seed 0, else a small
    seeded offset from it (the attractor, and so the workload, is the same)."""
    if seed == 0:
        return base
    return tuple(float(b + 0.05 * rng.uniform(-1.0, 1.0)) for b in base)


def _mg_dataset(rows, init):
    """Criterion-4 series: default MGParams with downsample=1, standardized,
    embedded with L=10 and horizon 1 (as evalbench.timing_scaling does)."""
    from fwfilter import signal_gen

    s = signal_gen.gen_mackey_glass(
        signal_gen.MGParams(downsample=1), ORDER_L - 1 + HORIZON + rows, init=init
    )
    return signal_gen.embed(signal_gen.standardize(s), ORDER_L, HORIZON)


def _prefix(data, n):
    """First ``n`` rows of a Dataset with the matching source prefix."""
    from fwfilter.signal_gen import Dataset

    m = n + data.order_L - 1
    return Dataset(
        windows=data.windows[:n],
        targets=data.targets[:n],
        order_L=data.order_L,
        horizon=data.horizon,
        source_x=data.source_x[:m],
        source_z=data.source_z[:m],
    )


def _p(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


class Reference:
    """A fixed CPU reference that does not use fwfilter: three rounds of a
    pure-Python loop and numpy sorts and arithmetic over a 16 MB array, the
    two about equal in time (some 0.3 s in all on a quiet core).  The
    workloads mix interpreter and numpy work, and a slow spell of a shared
    host slows the two by different factors, so the reference holds both.
    The machine's speed also jitters within a second, and the operations
    last seconds, so the reference runs long enough to average it out."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(0).standard_normal(2_000_000)
        self.run()  # warm-up

    def run(self):
        np, a = self.np, self.a
        t = clock()
        for _ in range(3):
            x = 0
            for i in range(500_000):
                x += i * i
            for _ in range(3):
                np.sort(a[:400_000])
                (a * 1.5 + a).sum()
        return clock() - t


def _timing(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


class Workload:
    """Base: subclasses fill ``setup``, ``op`` and ``final_checks``."""

    def __init__(self, size, seed, workdir, expected):
        self.size = SIZES[size]
        self.full = size == "full"
        self.seed = seed
        self.workdir = workdir
        self.expected = expected if (self.full and seed == 0) else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_times: list[float] = []

    def count(self, attempted, failed, what):
        """Count library calls or output checks; ``failed`` of them failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok, what):
        """One library call or check whose output must satisfy ``ok``."""
        self.count(1, int(not ok), what)

    def run_op(self, record):
        t = clock()
        try:
            self.op()
        except Exception as exc:  # a failed call is counted, not fatal
            self.count(1, 1, f"{type(exc).__name__}: {exc}")
        if record:
            self.op_times.append(clock() - t)


class FitAuto(Workload):
    """Repeated fwf_core.fit with alpha="auto" on the criterion-4 series."""

    name = "fit_auto_100k"

    def setup(self):
        from fwfilter import fwf_core

        rng = _seed_rng(self.seed)
        (init,) = _perturb(self.seed, rng, (1.2,))
        self.rng = rng
        self.data = _mg_dataset(self.size["rows"], init)
        self.cfg = fwf_core.FwfConfig(order_L=ORDER_L, horizon=HORIZON, alpha="auto", k_neighbors=K)
        self.first = None
        self.fit_times = []

    def op(self):
        from fwfilter import fwf_core

        t = clock()
        m = fwf_core.fit(self.data, self.cfg)
        self.fit_times.append(clock() - t)
        if self.first is None:
            self.first = m
        self.check(
            (m.alpha, m.train_mse) == (self.first.alpha, self.first.train_mse),
            f"fit {len(self.fit_times)}: alpha/train_mse differ from the first fit",
        )

    def final_checks(self):
        if self.first is None:
            return
        if self.expected is not None:
            e = self.expected
            self.check(self.first.alpha == e["alpha"], f"alpha {self.first.alpha!r} != recorded {e['alpha']!r}")
            self.check(
                self.first.train_mse == e["train_mse"],
                f"train_mse {self.first.train_mse!r} != recorded {e['train_mse']!r}",
            )
        pick = self.rng.choice(len(self.data), self.size["nbr_checks"], replace=False)
        _check_neighbors(self, self.first.neighbor_index, self.data.windows[pick])

    def report(self):
        return {"fit_s_p50": _timing(_p(self.fit_times[1:], 50), "s", len(self.fit_times) - 1)}

    def working_set(self):
        from tracing import alpha_search_working_set

        return alpha_search_working_set(self.size["rows"], ORDER_L, K)


class Serve(Workload):
    """Fixed-alpha fit saved and reloaded, then rounds of refit, batched
    predict, and one closed-loop client calling predict per window."""

    name = "serve_100k"

    def setup(self):
        from fwfilter import fwf_core, model_io

        rng = _seed_rng(self.seed)
        (init,) = _perturb(self.seed, rng, (1.2,))
        rows, q = self.size["rows"], self.size["heldout"]
        gap = ORDER_L + HORIZON
        data = _mg_dataset(rows + gap + q, init)
        self.train = _prefix(data, rows)
        order = rng.permutation(q)
        self.queries = data.windows[rows + gap :][order]
        self.rng = rng
        self.cfg = fwf_core.FwfConfig(order_L=ORDER_L, horizon=HORIZON, alpha=0.5, k_neighbors=K)
        self.fitted = fwf_core.fit(self.train, self.cfg)
        path = self.workdir / "model.npz"
        model_io.save_model(self.fitted, path)
        self.model = model_io.load_model(path)
        self.fit_times, self.batch_times, self.one_times = [], [], []
        self.ref_batch = None

    def op(self):
        import numpy as np
        from fwfilter import fwf_core

        t = clock()
        m = fwf_core.fit(self.train, self.cfg)
        self.fit_times.append(clock() - t)
        self.check(
            (m.alpha, m.train_mse, m.bias) == (self.model.alpha, self.model.train_mse, self.model.bias),
            "refit alpha/train_mse/bias differ from the served model",
        )
        X = self.queries
        for _ in range(self.size["batches"]):
            t = clock()
            pb = fwf_core.predict_batch(self.model, X)
            self.batch_times.append(clock() - t)
            if self.ref_batch is None:
                self.ref_batch = pb
            self.check(np.array_equal(pb, self.ref_batch), "predict_batch differs between calls")
        ref, lat, bad = self.ref_batch, self.one_times, 0
        predict = fwf_core.predict
        for j in range(X.shape[0]):
            t = clock()
            y = predict(self.model, X[j])
            lat.append(clock() - t)
            bad += y != ref[j]
        self.count(X.shape[0], int(bad), f"{bad} predict results differ from their predict_batch row")

    def final_checks(self):
        import numpy as np
        from fwfilter import fwf_core

        orig = fwf_core.predict_batch(self.fitted, self.queries)
        self.check(
            np.array_equal(orig, fwf_core.predict_batch(self.model, self.queries)),
            "reloaded model predictions differ from the fitted model",
        )
        if self.expected is not None:
            e = self.expected
            self.check(self.model.train_mse == e["train_mse"], f"train_mse {self.model.train_mse!r} != recorded")
            self.check(self.model.bias == e["bias"], f"bias {self.model.bias!r} != recorded")
        pick = self.rng.choice(len(self.queries), self.size["nbr_checks"], replace=False)
        _check_neighbors(self, self.model.neighbor_index, self.queries[pick])

    def report(self):
        q = self.queries.shape[0]
        fits, batches, ones = self.fit_times[1:], self.batch_times[self.size["batches"]:], self.one_times[q:]
        return {
            "fit_s_p50": _timing(_p(fits, 50), "s", len(fits)),
            "predict_batch_qps": _timing(q / _p(batches, 50) if batches else 0.0, "1/s", len(batches)),
            "predict_one_us_p50": _timing(_p(ones, 50) * 1e6, "us", len(ones)),
            "predict_one_us_p90": _timing(_p(ones, 90) * 1e6, "us", len(ones)),
        }

    def working_set(self):
        n, q = self.size["rows"], self.size["heldout"]
        # model windows, partners and targets, the query block, and two
        # Q x K x L temporaries of the functional evaluation
        return 2 * n * ORDER_L * 8 + n * 8 + q * ORDER_L * 8 + 2 * q * K * ORDER_L * 8


# criterion-2 and criterion-3 bench configs; the timing block is explicit
# because `fwf bench` needs >= 3 timing sizes
def _bench_configs(full, mg_init, lorenz_init):
    if full:
        c2_sizes, c3_sizes, folds, test = [500, 1000, 2000], [2000], 5, 200
        timing = {"sizes": [500, 1000, 2000]}
    else:
        c2_sizes, c3_sizes, folds, test = [100, 200], [200], 2, 50
        timing = {"sizes": [100, 200, 400], "queries": 50, "repeats": 1}
    c2 = {
        "dataset": "mackey_glass",
        "generator": {"downsample": 60, "init": mg_init},
        "order_L": 10, "horizon": 1,
        "train_sizes": c2_sizes, "folds": folds, "test_size": test,
        "methods": [
            {"name": "fwf", "sigma_input": 3.0},
            {"name": "wiener"},
            {"name": "krls", "sigma": 1.0, "lam": 1e-6},
            {"name": "klms", "sigma": 1.0},
        ],
        "seed": 0,
        "timing": timing,
    }
    c3 = {
        "dataset": "lorenz",
        "generator": {"init": list(lorenz_init)},
        "order_L": 10, "horizon": 10,
        "train_sizes": c3_sizes, "folds": folds, "test_size": test,
        "methods": [{"name": "fwf", "sigma_input": 2.0}, {"name": "wiener"}],
        "seed": 0,
        "timing": timing,
    }
    return {"criterion2": c2, "criterion3": c3}


class Crossval(Workload):
    """`fwf bench` on the criterion-2 and criterion-3 configs, in-process."""

    name = "crossval_bench"

    def setup(self):
        from fwfilter import cli  # noqa: F401  (part of set-up: the CLI import)

        rng = _seed_rng(self.seed)
        (mg_init,) = _perturb(self.seed, rng, (1.2,))
        lorenz_init = _perturb(self.seed, rng, (1.0, 1.0, 1.0))
        self.paths = {}
        for key, cfg in _bench_configs(self.full, mg_init, lorenz_init).items():
            path = self.workdir / f"{key}.json"
            path.write_text(json.dumps(cfg))
            self.paths[key] = path
        self.mse_bytes = None
        self.errored = 0
        self.bench_times = []

    def op(self):
        from fwfilter import cli

        got = {}
        t = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["bench", "--config", str(p), "--out", str(self.workdir / k)])
                for k, p in self.paths.items()
            ]
        self.bench_times.append(clock() - t)
        for key, code in zip(self.paths, codes):
            out = self.workdir / key
            self.check(code == 0, f"{key}: fwf bench exit code {code}")
            summary = json.loads((out / "summary.json").read_text())
            errors = len(summary["errors"])
            cells = sum(r["folds"] for r in summary["results"]) + errors
            self.errored += errors
            self.count(cells, errors, f"{key}: {errors} errored bench cells")
            got[key] = _mse_columns(out / "results.csv")
        if self.mse_bytes is None:
            self.mse_bytes = got
        else:
            self.check(got == self.mse_bytes, "bench MSE columns differ between repetitions")

    def final_checks(self):
        if self.expected is not None and self.mse_bytes is not None:
            for key, want in self.expected["mse_sha256"].items():
                have = hashlib.sha256(self.mse_bytes[key]).hexdigest()
                self.check(have == want, f"{key}: MSE columns sha256 {have} != recorded {want}")

    def report(self):
        pairs = self.bench_times[1:]
        return {
            "bench_s_p50": _timing(_p(pairs, 50), "s", len(pairs)),
            "errored_cells": {"value": self.errored, "unit": "count", "n": len(self.bench_times)},
        }

    def working_set(self):
        # the largest Gram matrix and its regularized copy at N = 2000
        n = 2000 if self.full else 400
        return 2 * n * n * 8


def _mse_columns(path) -> bytes:
    """method,n_train,fold,mse columns of results.csv (fit/predict times vary)."""
    lines = Path(path).read_bytes().splitlines()
    return b"\n".join(b",".join(line.split(b",")[:4]) for line in lines)


def _check_neighbors(w, index, queries):
    """query_batch must equal the linear scan bitwise on each sampled query."""
    import numpy as np
    from fwfilter import neighbors

    ii, dd = neighbors.query_batch(index, queries, K)
    for r, q in enumerate(queries):
        i_ref, d_ref = neighbors.linear_scan_query(index.points, q, K)
        w.check(
            np.array_equal(ii[r], i_ref) and np.array_equal(dd[r], d_ref),
            f"query_batch differs from linear_scan_query on sampled query {r}",
        )


WORKLOADS = {w.name: w for w in (FitAuto, Serve, Crossval)}


def _emit(tag, payload):
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = clock()
    import fwfilter
    import_s = clock() - t

    src = (Path.cwd() / "src").resolve()
    if Path(fwfilter.__file__).resolve().parent.parent != src:
        print(f"fwfilter imported from {fwfilter.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing  # beside this file, so on sys.path

    tracer = None
    region = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        region = tracer.region

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text())
    w = WORKLOADS[args.workload](args.size, args.seed, workdir, expected.get(args.workload))

    with region("workload"):
        with region("setup"):
            w.setup()
        _emit("READY", {"import_s": import_s})
        if args.setup_only:
            return 0
        with region("timed"):
            ref = Reference()
            w.run_op(record=False)  # warm-up: caches and lazy set-up
            ref_times = [ref.run()]
            t0 = clock()
            while True:
                w.run_op(record=True)
                ref_times.append(ref.run())
                if clock() - t0 >= args.seconds:
                    break

    layers, unnested = None, None
    if tracer:
        import fwfilter.fwf_core as fc

        unnested = tracing.nesting_violations(tracer)
        layers = tracing.layer_metrics(tracer, len(fc.DEFAULT_ALPHA_GRID), import_s)
        w.check(unnested == 0, f"{unnested} spans are not inside their parent span")
    w.final_checks()

    import numpy
    import scipy

    _emit(
        "RESULT",
        {
            "attempted": w.attempted,
            "failed": w.failed,
            "problems": w.problems,
            "op_times": w.op_times,
            "ref_times": ref_times,
            "report": w.report(),
            "working_set_bytes": w.working_set(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "import_s": import_s,
            "layers": layers,
            "unnested_spans": unnested,
            "spans": len(tracer.spans) if tracer else 0,
            "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
