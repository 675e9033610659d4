"""fwfilter benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit_auto_100k --seed 0 --seconds 25 --trace 0

Set-up is timed from the spawn of a fresh interpreter to the moment the
workload is ready, in several separate processes, and reported as their
median.  The last process then runs the workload's timed loop
(``perfbench/worker.py``).  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it holds the per-layer metrics from the span tracer.  The lines before it
report every metric with its unit and sample count, the machine and the
settings.  The full record goes to ``.perfbench_out/`` in the checkout.

The program is run from ``src/`` of the checkout; nothing is installed.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS  # beside this file, so on sys.path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit_auto_100k", "serve_100k", "crossval_bench")
# every run, worker processes included, ends within this many seconds
BUDGET_S = 170.0
# set-up is measured in this many fresh processes, the timed one included
SETUP_SAMPLES = {"full": 3, "tiny": 2}
OUT_DIR = ".perfbench_out"


def _env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        PYTHONPATH=str(root / "src"),
        FWF_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def _l3_bytes() -> int:
    """L3 size as the C library reports it; 0 when unknown."""
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=5
        ).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.SubprocessError):
        return 0


class WorkerError(RuntimeError):
    pass


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _read_ready(proc, deadline):
    """Block until the worker's first line; return (time read, line, rest)."""
    buf = b""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0:
            raise WorkerError("worker set-up ran out of time")
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            raise WorkerError(f"worker exited during set-up (code {proc.wait()})")
        buf += chunk
    t = time.perf_counter()
    line, rest = buf.split(b"\n", 1)
    if not line.startswith(b"READY "):
        raise WorkerError(f"unexpected worker output: {line[:200]!r}")
    return t, json.loads(line[6:]), rest


def _worker(args, root, env, deadline, setup_only, workdir):
    """Run one worker; return (setup seconds, ready payload, result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        t1, ready, rest = _read_ready(proc, deadline)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran out of time") from None
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
    finally:
        _stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_only:
        return t1 - t0, ready, None
    lines = (rest + out).decode().splitlines()
    results = [ln for ln in lines if ln.startswith("RESULT ")]
    if not results:
        raise WorkerError("worker printed no result")
    return t1 - t0, ready, json.loads(results[-1][7:])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def op_rel(result) -> list:
    """Each operation's time over the mean of the reference runs around it."""
    ops, refs = result["op_times"], result["ref_times"]
    return [op / ((a + b) / 2) for op, a, b in zip(ops, refs, refs[1:])]


def end_to_end(setup, result) -> dict:
    """The BENCHMARK.json end-to-end metrics (every workload has each)."""
    return {
        "setup_s": {"value": _median(setup), "unit": "s"},
        "op_rel_p50": {"value": _median(op_rel(result)), "unit": "x"},
        "peak_rss_mb": {"value": result["peak_rss_mib"], "unit": "MiB"},
    }


def _report_lines(args, machine, setup, result, e2e, overhead):
    att, failed = result["attempted"], result["failed"]
    lines = [
        "machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace} size {args.size}",
        f"  setup_s            {e2e['setup_s']['value']:.4f} s (median, n={len(setup)})",
        f"  op_rel_p50         {e2e['op_rel_p50']['value']:.4f} x (median, n={len(result['op_times'])})",
    ]
    for name, m in result["report"].items():
        lines.append(f"  {name:<18} {m['value']:.6g} {m['unit']} (n={m['n']})")
    lines += [
        f"  peak_rss_mb        {result['peak_rss_mib']:.1f} MiB",
        f"  fail_ratio         {failed / att:.6g} ({failed} failed of {att} attempted)",
        f"  working_set_bytes  {result['working_set_bytes']} (computed from array sizes; "
        f"L3 {machine['l3_bytes']})",
    ]
    if result["layers"] is not None:
        lines.append(
            f"  trace: {result['spans']} spans, {result['unnested_spans']} "
            f"not inside their parent span"
        )
        for name, (unit, _) in LAYER_METRICS.items():
            lines.append(f"  {name:<40} {result['layers'][name]:.6g} {unit}")
    if overhead:
        for name, d in overhead.items():
            lines.append(f"  tracing overhead {name}: {d['delta']:+.6g} {d['unit']} ({d['share']:+.2%})")
    for p in result["problems"]:
        lines.append(f"  FAILED: {p}")
    return lines


def _overhead(out_dir, args, record):
    """Traced minus untraced end-to-end metrics for this workload and seed."""
    base = out_dir / f"{args.workload}-seed{args.seed}-{args.size}-trace0.json"
    if not args.trace or not base.exists():
        return None
    before = json.loads(base.read_text())
    if before["seconds"] != args.seconds:
        return None
    before = before["metrics_all"]
    out = {}
    for name, m in record["metrics_all"].items():
        b = before.get(name)
        if b and b["value"]:
            out[name] = {
                "delta": m["value"] - b["value"],
                "share": (m["value"] - b["value"]) / b["value"],
                "unit": m["unit"],
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the workload at a small N (self-check only)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "fwfilter" / "__init__.py").is_file():
        print(f"error: no fwfilter sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    env = _env(root)
    out_dir = root / OUT_DIR
    work = out_dir / "work"

    setup, imports = [], []
    try:
        for i in range(SETUP_SAMPLES[args.size] - 1):
            s, ready, _ = _worker(args, root, env, deadline, True, work / f"probe{i}")
            setup.append(s)
            imports.append(ready["import_s"])
        s, ready, result = _worker(args, root, env, deadline, False, work / "main")
        setup.append(s)
        imports.append(ready["import_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if result["layers"] is not None:
        # cli.import_s: fresh-interpreter import time, median over the workers
        result["layers"]["cli.import_s"] = _median(imports)
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["versions"]["numpy"],
        "scipy": result["versions"]["scipy"],
        "FWF_THREADS": env["FWF_THREADS"],
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "l3_bytes": _l3_bytes(),
    }
    e2e = end_to_end(setup, result)
    result["report"]["op_s_p50"] = {"value": _median(result["op_times"]), "unit": "s",
                                    "n": len(result["op_times"])}
    result["report"]["ref_s_p50"] = {"value": _median(result["ref_times"]), "unit": "s",
                                     "n": len(result["ref_times"])}
    metrics_all = dict(e2e)
    for name, m in result["report"].items():
        metrics_all[name] = {"value": m["value"], "unit": m["unit"]}
    metrics_all["fail_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine,
        "setup_samples_s": setup, "import_samples_s": imports,
        "metrics_all": metrics_all, "result": result,
    }
    overhead = _overhead(out_dir, args, record)
    record["tracing_overhead"] = overhead
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for line in _report_lines(args, machine, setup, result, e2e, overhead):
        print(line)
    if args.trace:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, (u, _) in LAYER_METRICS.items()}
    else:
        metrics = e2e
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
