#!/usr/bin/env python3
"""Seeded CLI benchmark for `collectivity`.

Usage, from the repository root:

    python3 perfbench/run.py --workload rolling-spectrum --seed 1 --seconds 20 --trace 0

Workloads: rolling-spectrum, cross-market, lppl-fit (see workloads.py for
why each exists). This script

1. generates the workload's inputs from --seed with `collectivity.synthetic`
   and `lppl.evaluate_model`, cached under .perfbench/inputs/ per seed and
   never timed;
2. with --trace 0, times `import collectivity.cli` in several fresh
   interpreters (setup_s, the median);
3. starts one fresh child interpreter (child.py) with OpenBLAS pinned to one
   thread; the child calls `collectivity.cli.main(argv)` for every op of the
   workload, repeating the ops for --seconds, and checks every output;
4. prints a summary, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of the traced passes with --trace 1.

Metric values are medians over the passes of the run. main_op_s is the
workload's dominant op: `spectrum` on rolling-spectrum, the median of the two
`global-spectrum` ops on cross-market, the median of the four cosine
`lppl-fit` ops on lppl-fit. Short ops (spacing-stats, extrema) and the
abs-cosine fit count in wall_s and are printed by name in the summary.

Failed ops are counted in `failed`/`attempted`; ops_ok_frac is
1 - failed/attempted (a metric that is never 0 while anything succeeds).
Spans of traced passes go to .perfbench/work/<workload>/spans.jsonl and the
full record of the run to .perfbench/work/<workload>/result.json.

Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_IMPORTS = 7
DEADLINE_S = 170.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import collectivity.cli; "
                "print(repr(time.perf_counter() - t))")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS thread: two threads gave no gain on these sizes and add jitter.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def ensure_inputs(workload, name: str, seed: int) -> Path:
    """Inputs for (workload, seed), generated once and reused by later runs."""
    target = STATE / "inputs" / name / f"seed-{seed}"
    if target.is_dir():
        return target
    partial = target.with_name(f"{target.name}.partial-{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    workload.generate(partial, seed)
    try:
        partial.rename(target)
    except OSError:  # another run finished the same inputs first
        shutil.rmtree(partial, ignore_errors=True)
    return target


def measure_setup(env: dict[str, str], deadline: float) -> float:
    """Median seconds of `import collectivity.cli` in fresh interpreters."""
    samples = []
    for i in range(SETUP_IMPORTS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if i:  # the first import also writes bytecode caches
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def run_child(name: str, inputs: Path, seconds: int, trace: int, env: dict[str, str],
              deadline: float) -> dict:
    work = STATE / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    log_path = work / "child.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--inputs", str(inputs),
           "--work", str(work), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result_path)]
    with open(log_path, "w") as log:
        code = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic())).returncode
    if code != 0 or not result_path.is_file():
        tail = log_path.read_text()[-2000:]
        raise RuntimeError(f"benchmark child exited with {code}:\n{tail}")
    return json.loads(result_path.read_text())


def pass_median(passes: list[dict], ops: tuple[str, ...] | None = None) -> float:
    """Median over passes of the pass time, or of the median time of `ops`."""
    if ops is None:
        return statistics.median(sum(p["op_seconds"].values()) for p in passes)
    return statistics.median(workloads.group_median(p["op_seconds"], ops) for p in passes)


def summarize(workload, result: dict, trace: int, setup_s: float | None) -> tuple[dict, list[str]]:
    """Contract metrics plus human-readable lines for the run."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    wall = pass_median(untraced)
    lines = [f"machine: {json.dumps(result['facts'], sort_keys=True)}",
             f"passes: {len(untraced)} untraced, {len(traced)} traced"]
    for op in untraced[0]["op_seconds"]:
        times = [p["op_seconds"][op] for p in untraced]
        lines.append(f"op {op}: median {statistics.median(times):.4f} s over {len(times)} passes")
    for metric, group in workload.named.items():
        lines.append(f"{metric} = {pass_median(untraced, group):.6f} s")
    for op, digest in sorted(result["digests"].items()):
        for file, sha in digest.items():
            lines.append(f"sha256 {op}/{file} {sha}")
    for op, facts in sorted(result["checks"].items()):
        lines.append(f"check {op}: ok {json.dumps(facts, sort_keys=True)}")
    for failure in result["failures"]:
        lines.append(f"FAILED pass {failure['pass']} {failure['op']}: {failure['error']}")

    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "ops_ok_frac": (1.0 - len(result["failures"]) / result["attempted"], "ratio"),
            "main_op_s": (pass_median(untraced, workload.main), "s"),
        }
    else:
        keys = traced[0]["layers"].keys()
        metrics = {k: (statistics.median(p["layers"][k] for p in traced), unit_of(k)) for k in keys}
        traced_wall = pass_median(traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        for op, layers in traced[0]["op_layers"].items():
            parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
            lines.append(f"self {op}: {parts}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value!r} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written") or metric.endswith("bytes_held"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "collectivity" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    env = child_env()
    inputs = ensure_inputs(workload, args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(env, deadline)
    try:
        result = run_child(args.workload, inputs, args.seconds, args.trace, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    metrics, lines = summarize(workload, result, args.trace, setup_s)
    for line in lines:
        print(line)
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
