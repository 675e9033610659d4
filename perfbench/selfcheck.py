"""Fast self-check of the benchmark (about a minute on two cores).

Runs every workload at a tiny size, untraced and traced, and checks that
each run exits 0, that its last line carries exactly the end-to-end (or
per-layer) metrics of BENCHMARK.json with their units, and that the report
lines name every end-to-end metric that applies to the workload.  It then
checks that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and ``perfbench/``.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# end-to-end metrics each workload prints in its report lines
REPORTED = {
    "fit_auto_100k": ["setup_s", "op_s_p50", "fit_s_p50", "peak_rss_mb", "fail_ratio"],
    "serve_100k": [
        "setup_s", "op_s_p50", "fit_s_p50", "predict_batch_qps", "predict_one_us_p50",
        "predict_one_us_p90", "peak_rss_mb", "fail_ratio",
    ],
    "crossval_bench": ["setup_s", "op_s_p50", "bench_s_p50", "peak_rss_mb", "fail_ratio"],
}


def _run(cwd, workload, trace):
    cmd = [
        sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, name, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            have = {n: m["unit"] for n, m in result["metrics"].items()}
            if have != want:
                problems.append(f"{name} trace {trace}: metrics {have} != {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed")
            report = "\n".join(lines[:-1])
            for metric in REPORTED[name]:
                if f"  {metric} " not in report:
                    problems.append(f"{name} trace {trace}: report lacks {metric}")
            print(f"ran {name} trace {trace}: {len(have)} metrics, {result['attempted']} attempted")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
