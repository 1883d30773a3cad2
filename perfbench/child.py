"""One benchmark run inside a fresh interpreter: CLI ops, checks, optional tracing.

Started by run.py with the BLAS thread count pinned and `src` on PYTHONPATH.
It repeats the workload's ops (one "pass") as often as fits in --seconds,
at least once, and writes everything it measured to
--result as JSON. With --trace 1 passes alternate untraced / traced, so the
tracing overhead is measured in the same process.

Outputs of the first pass are checked against the workload's ground truth;
every later pass must reproduce their bytes exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from collectivity import cli
from tracer import EIGH, Tracer, layer_of

# Per-window spectral work outside LAPACK (spacing statistics excluded).
SPECTRAL_WINDOW_SPANS = ("spectral.eigendecompose", "spectral.spectrum_trace",
                         "spectral.collectivity_metrics")
LAYERS = ("cli", "marketdata", "corr", "spectral", "lppl", "output")


def blas_facts() -> dict:
    """OpenBLAS version and live thread count, read from numpy's bundled library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **blas_facts(),
    }


def layer_metrics(tracer, op_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    st = tracer.self_times()
    get = lambda name: st.get(name, 0.0)  # noqa: E731
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in st.items() if layer_of(k) == layer)
    for name in ("load_price_series", "merge_price_series", "compute_returns", "align_calendars",
                 "shift_returns", "load_value_series"):
        m[f"marketdata.{name}_s"] = get(f"marketdata.{name}")
    m["marketdata.rows_parsed"] = tracer.counts["marketdata.rows_parsed"]
    m["corr.rolling_correlation_s"] = get("corr.rolling_correlation")
    m["corr.merge_panels_s"] = get("corr.merge_panels")
    m["corr.windows"] = tracer.counts["corr.windows"]
    m["corr.matrix_bytes_held"] = tracer.counts["corr.matrix_bytes_held"]
    for name in ("eigendecompose", "spectrum_trace", "collectivity_metrics", "spacing_statistics"):
        m[f"spectral.{name}_s"] = get(f"spectral.{name}")
    lapack = get(EIGH)
    m["spectral.lapack_eigh_s"] = lapack
    m["spectral.eigh_calls"] = tracer.span_count(EIGH)
    outside = sum(get(n) for n in SPECTRAL_WINDOW_SPANS)
    m["spectral.overhead_ratio"] = outside / lapack if lapack > 0 else 0.0
    m["lppl.fit_model_cosine_s"] = get("lppl.fit_model_cosine")
    m["lppl.fit_model_abs_s"] = get("lppl.fit_model_abs")
    m["lppl.extrema_progression_s"] = get("lppl.extrema_progression")
    for key in ("grid_nodes", "nodes_skipped", "refine_sweeps"):
        m[f"lppl.{key}"] = sum(f[key] for f in tracer.fits)
    for variant in ("cosine", "abs"):
        span = f"lppl.fit_model_{variant}"
        nodes = sum(f["grid_nodes"] for f in tracer.fits if f["span"] == span)
        m[f"lppl.{variant}.grid_nodes_per_s"] = nodes / get(span) if get(span) > 0 else 0.0
    m["output.write_s"] = sum(v for k, v in st.items() if k.startswith("output.write_"))
    m["output.read_spectrum_trace_s"] = get("output.read_spectrum_trace")
    m["output.bytes_written"] = sum(op_bytes.values())
    return m


def check_trace(tracer, pass_index: int, ops, op_seconds: dict[str, float]) -> dict[str, str]:
    """Tracer invariants: self times add up to each op, and LPPL grids have the intended size."""
    errors = {}
    for op in ops:
        total = sum(tracer.self_times(f"{pass_index}:{op.name}").values())
        if abs(total - op_seconds[op.name]) > 1e-3 + 1e-4 * op_seconds[op.name]:
            errors[op.name] = f"self times sum to {total} s, op took {op_seconds[op.name]} s"
    for fit in tracer.fits:
        want = (workloads.COSINE_GRID_NODES if fit["span"] == "lppl.fit_model_cosine"
                else workloads.ABS_GRID_NODES)
        if fit["grid_nodes"] != want:
            op = fit["op"].split(":", 1)[1]
            errors[op] = f"grid_nodes {fit['grid_nodes']}, intended {want}"
    return errors


def run_pass(index: int, ops, tracer, digests: dict[str, dict]) -> tuple[dict, dict[str, str]]:
    """Run every op once; returns the pass record and {op name: error} for failed ops."""
    op_seconds: dict[str, float] = {}
    op_bytes: dict[str, int] = {}
    failed: dict[str, str] = {}
    for op in ops:
        shutil.rmtree(op.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(op.argv)
            else:
                with tracer.installed():
                    code = tracer.run_op(f"{index}:{op.name}", op.argv)
        except Exception:  # an uncaught error is a failed op, not a failed run
            code = traceback.format_exc(limit=3)
        op_seconds[op.name] = time.perf_counter() - t0
        if code != 0:
            failed[op.name] = f"exit code {code}" if isinstance(code, int) else code
            continue
        op_bytes[op.name] = sum(p.stat().st_size for p in op.out_dir.iterdir() if p.is_file())
        digest = workloads.output_digest(op.out_dir)
        if digests.setdefault(op.name, digest) != digest:
            failed[op.name] = "outputs differ from the first pass"
    record = {"traced": tracer is not None, "op_seconds": op_seconds}
    if tracer is not None:
        failed.update(check_trace(tracer, index, ops, op_seconds))
        record["layers"] = layer_metrics(tracer, op_bytes)
        record["op_layers"] = {op.name: tracer.self_times(f"{index}:{op.name}") for op in ops}
    return record, failed


def run_checks(workload, ops, failed: dict[str, str]) -> dict:
    """Ground-truth checks of the first pass's outputs; failures go into `failed`."""
    facts = {}
    for name, check in workload.checks(ops):
        if name in failed:
            continue
        try:
            facts[name] = check()
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            failed[name] = f"check failed: {exc}"
    return facts


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    ops = workload.ops(Path(args.inputs), work)
    facts = machine_facts()
    passes: list[dict] = []
    failures: list[dict] = []
    checks: dict = {}
    digests: dict[str, dict] = {}
    tracers = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        tracer = Tracer() if args.trace and index % 2 == 1 else None
        record, failed = run_pass(index, ops, tracer, digests)
        if index == 0:
            checks = run_checks(workload, ops, failed)
        if tracer is not None:
            tracers.append(tracer)
        failures += [{"pass": index, "op": k, "error": v} for k, v in failed.items()]
        passes.append(record)
        # Stop before a further pass would overrun --seconds; the first pass
        # (both kinds of pass when tracing) always runs.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds and len(passes) >= 1 + args.trace:
            break

    with open(work / "spans.jsonl", "w") as fh:
        for tracer in tracers:
            tracer.dump(fh)
    return {
        "workload": args.workload,
        "facts": facts,
        "attempted": len(passes) * len(ops),
        "failures": failures,
        "checks": checks,
        "digests": digests,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    Path(args.work).mkdir(parents=True, exist_ok=True)
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
