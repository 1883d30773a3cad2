"""Workload definitions: seeded input generation, CLI operations and output checks.

Each workload is a fixed list of `collectivity` CLI invocations over inputs
generated from the benchmark seed. Inputs are built with the package's own
`synthetic` and `lppl.evaluate_model` helpers, so every output has a known
ground truth to check against.

Why these three workloads:

- rolling-spectrum: many mid-size windows (N=100, 2,381 windows) through
  ingest -> rolling correlation -> per-window eigh -> write, then a
  re-read for spacing statistics. Window 120 > N keeps every window full rank.
- cross-market: the same layers used differently: two files to ingest and
  merge, and few large windows (N=200, ~250 per op), so LAPACK dominates.
- lppl-fit: the deterministic LPPL grid and refinement; no correlation or
  spectral code runs, so a change there predicts no change here.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# rolling-spectrum
RS_ASSETS, RS_DAYS, RS_WINDOW = 100, 2500, 120
RS_FACTOR_SHARE = 0.3
RS_SPACING_REPEATS = 8
# cross-market
CM_ASSETS, CM_DAYS, CM_WINDOW, CM_STEP = 100, 1500, 250, 5
CM_NOISE_SHARE = 0.2
# lppl-fit
LPPL_COSINE_FITS = 4
LPPL_POINTS, LPPL_TC = 500, 550.0
ABS_POINTS, ABS_TC = 300, 330.0
ABS_TC_MIN, ABS_TC_MAX, ABS_TC_NODES = 300.5, 600.0, 50
LPPL_NOISE = 0.01
LPPL_ORIGIN = dt.date(2000, 1, 1)
# Default grid: 199 t_c nodes left after clipping x 41 lam x 21 alpha.
COSINE_GRID_NODES = 199 * 41 * 21
# Explicit grid: 50 t_c x 41 lam x 21 alpha x 64 phi scan points.
ABS_GRID_NODES = ABS_TC_NODES * 41 * 21 * 64


class CheckFailed(Exception):
    """An output of a CLI operation is wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `argv` is passed to `collectivity.cli.main` as is."""

    name: str
    argv: list[str]
    out_dir: Path


@dataclass
class Workload:
    generate: Callable[[Path, int], None]
    ops: Callable[[Path, Path], list[Op]]
    # Returns (op name, check) pairs; a check returns facts or raises CheckFailed.
    checks: Callable[[list[Op]], list[tuple[str, Callable[[], dict]]]]
    # Op names whose per-pass median gives main_op_s.
    main: tuple[str, ...]
    # Per-op metric names printed in the summary, each a group of op names.
    named: dict[str, tuple[str, ...]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and the numeric columns (all but the leading date) of a TSV output."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t")[1:] for line in fh]
    return header, np.array(rows, dtype=float)


def _check_eigen_rows(values: np.ndarray, n: int, label: str) -> None:
    """Descending rows summing to N (trace of a correlation matrix), PSD to 1e-9."""
    _require(values.shape[1] == n, f"{label}: {values.shape[1]} eigenvalue columns, expected {n}")
    _require(bool(np.all(np.diff(values, axis=1) <= 0.0)), f"{label}: eigenvalues not descending")
    worst = float(np.max(np.abs(values.sum(axis=1) - n)))
    _require(worst <= 1e-9 * n, f"{label}: eigenvalue sum off N by {worst:.3e}")
    _require(float(values.min()) >= -1e-9, f"{label}: eigenvalue {values.min():.3e} below -1e-9")


def output_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of each data output; manifests echo input paths and are left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and not p.name.endswith("_manifest.json")
    }


# ---------------------------------------------------------------- rolling-spectrum

def _generate_rolling(inputs: Path, seed: int) -> None:
    from collectivity import synthetic

    ramp = np.linspace(0.5, 1.5, RS_DAYS)
    panel = synthetic.one_factor_panel(RS_ASSETS, RS_DAYS, RS_FACTOR_SHARE, seed, loading_ramp=ramp)
    synthetic.write_price_csv(inputs / "prices.csv", synthetic.prices_from_returns(panel))


def _ops_rolling(inputs: Path, work: Path) -> list[Op]:
    spec = work / "spectrum"
    ops = [Op("spectrum", ["spectrum", "--input", str(inputs / "prices.csv"),
                           "--window-length", str(RS_WINDOW), "--vectors", "--out-dir", str(spec)], spec)]
    # spacing-stats takes ~0.3 s, and its first runs after the large spectrum op
    # are slower; 8 repeats per pass give its median enough samples.
    for k in range(RS_SPACING_REPEATS):
        out = work / f"spacing{k}"
        ops.append(Op(f"spacing-stats-{k}", ["spacing-stats", "--input", str(spec / "spectrum_trace.tsv"),
                                            "--out-dir", str(out)], out))
    return ops


def _checks_rolling(ops: list[Op]) -> list[tuple[str, Callable[[], dict]]]:
    spec = ops[0].out_dir
    expected = RS_DAYS - RS_WINDOW + 1

    def spectrum() -> dict:
        _, values = _read_table(spec / "spectrum_trace.tsv")
        _require(len(values) == expected, f"spectrum: {len(values)} windows, expected {expected}")
        _check_eigen_rows(values, RS_ASSETS, "spectrum")
        _, vectors = _read_table(spec / "spectrum_vectors.tsv")
        _require(len(vectors) == expected, f"spectrum: {len(vectors)} vector rows, expected {expected}")
        worst = float(np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1.0)))
        _require(worst <= 1e-9, f"spectrum: leading vector norm off 1 by {worst:.3e}")
        return {"windows": len(values)}

    def spacing(op: Op) -> Callable[[], dict]:
        def check() -> dict:
            record = json.loads((op.out_dir / "spacing_stats.json").read_text())
            _require(record["ks_wigner"] < record["ks_poisson"],
                     f"{op.name}: KS Wigner {record['ks_wigner']} not below Poisson {record['ks_poisson']}")
            return {"ks_wigner": record["ks_wigner"], "ks_poisson": record["ks_poisson"]}
        return check

    return [(ops[0].name, spectrum)] + [(op.name, spacing(op)) for op in ops[1:]]


# ---------------------------------------------------------------- cross-market

def _generate_cross(inputs: Path, seed: int) -> None:
    from collectivity import synthetic

    panel_a, panel_b = synthetic.lagged_copy_markets(CM_ASSETS, CM_DAYS, CM_NOISE_SHARE, seed)
    synthetic.write_price_csv(inputs / "market_a.csv", synthetic.prices_from_returns(panel_a))
    synthetic.write_price_csv(inputs / "market_b.csv", synthetic.prices_from_returns(panel_b))


def _ops_cross(inputs: Path, work: Path) -> list[Op]:
    ops = []
    for shift in (0, 1):
        out = work / f"shift{shift}"
        ops.append(Op(f"global-spectrum-shift{shift}", [
            "global-spectrum", "--input-a", str(inputs / "market_a.csv"),
            "--input-b", str(inputs / "market_b.csv"), "--shift-days", str(shift),
            "--window-length", str(CM_WINDOW), "--step", str(CM_STEP), "--out-dir", str(out),
        ], out))
    return ops


def _checks_cross(ops: list[Op]) -> list[tuple[str, Callable[[], dict]]]:
    medians: dict[int, float] = {}

    def trace(shift: int, op: Op) -> Callable[[], dict]:
        def check() -> dict:
            header, table = _read_table(op.out_dir / "global_trace.tsv")
            expected = (CM_DAYS - shift - CM_WINDOW) // CM_STEP + 1
            _require(len(table) == expected, f"{op.name}: {len(table)} windows, expected {expected}")
            _require(header[4] == "lambda_1", f"{op.name}: unexpected header {header[:5]}")
            _check_eigen_rows(table[:, 3:], 2 * CM_ASSETS, op.name)
            medians[shift] = float(np.median(table[:, 0]))
            if shift == 1:
                # The one-day echo merges the blocks only once market A is shifted.
                _require(0 in medians and medians[1] >= 2.0 * medians[0],
                         f"{op.name}: median gap ratio {medians[1]:.3f} is not twice "
                         f"{medians.get(0, math.nan):.3f} at shift 0")
            return {"windows": len(table), "median_gap_ratio": medians[shift]}
        return check

    return [(op.name, trace(shift, op)) for shift, op in enumerate(ops)]


# ---------------------------------------------------------------- lppl-fit

def _series_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("date,price\n")
        for t, v in zip(times, values):
            fh.write(f"{(LPPL_ORIGIN + dt.timedelta(days=int(t))).isoformat()},{float(v)!r}\n")


def _truth(variant: str):
    from collectivity import lppl

    tc = LPPL_TC if variant == "cosine" else ABS_TC
    return lppl.LogPeriodicModel(tc=tc, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3, variant=variant)


def _generate_lppl(inputs: Path, seed: int) -> None:
    from collectivity import lppl

    times = np.arange(float(LPPL_POINTS))
    clean = lppl.evaluate_model(_truth("cosine"), times)
    _series_csv(inputs / "clean.csv", times, clean)
    for k in range(LPPL_COSINE_FITS):
        rng = np.random.default_rng([seed, k])
        noisy = clean + LPPL_NOISE * float(np.std(clean)) * rng.standard_normal(len(times))
        _series_csv(inputs / f"cosine{k}.csv", times, noisy)
    times = np.arange(float(ABS_POINTS))
    clean = lppl.evaluate_model(_truth("abs-cosine"), times)
    rng = np.random.default_rng([seed, LPPL_COSINE_FITS])
    noisy = clean + LPPL_NOISE * float(np.std(clean)) * rng.standard_normal(len(times))
    _series_csv(inputs / "abs.csv", times, noisy)


def _ops_lppl(inputs: Path, work: Path) -> list[Op]:
    ops = []
    for k in range(LPPL_COSINE_FITS):
        out = work / f"cosine{k}"
        ops.append(Op(f"lppl-fit-cosine{k}", ["lppl-fit", "--input", str(inputs / f"cosine{k}.csv"),
                                               "--no-log", "--out-dir", str(out)], out))
    out = work / "extrema"
    ops.append(Op("extrema", ["extrema", "--input", str(inputs / "clean.csv"), "--no-log",
                              "--t-c", repr(LPPL_TC), "--out-dir", str(out)], out))
    # --tc-nodes alone is ignored by the CLI (it falls back to the 200-node
    # default grid), so the bounds are always passed with it.
    out = work / "abs"
    ops.append(Op("lppl-fit-abs", [
        "lppl-fit", "--input", str(inputs / "abs.csv"), "--no-log", "--variant", "abs-cosine",
        "--tc-min", repr(ABS_TC_MIN), "--tc-max", repr(ABS_TC_MAX), "--tc-nodes", str(ABS_TC_NODES),
        "--out-dir", str(out),
    ], out))
    return ops


def _fit_check(op: Op, truth, span: float) -> Callable[[], dict]:
    def check() -> dict:
        record = json.loads((op.out_dir / "lppl_fit.json").read_text())
        lam_err = abs(record["lambda"] - truth.lam) / truth.lam
        tc_err = abs(record["t_c"] - truth.tc) / span
        _require(lam_err < 0.05, f"{op.name}: lambda {record['lambda']:.4f} off {truth.lam} by {lam_err:.1%}")
        _require(tc_err < 0.01, f"{op.name}: t_c {record['t_c']:.2f} off {truth.tc} by {tc_err:.2%} of span")
        return {"lambda": record["lambda"], "t_c": record["t_c"]}
    return check


def _checks_lppl(ops: list[Op]) -> list[tuple[str, Callable[[], dict]]]:
    checks = []
    for op in ops:
        if op.name.startswith("lppl-fit-cosine"):
            checks.append((op.name, _fit_check(op, _truth("cosine"), LPPL_POINTS - 1.0)))
        elif op.name == "lppl-fit-abs":
            checks.append((op.name, _fit_check(op, _truth("abs-cosine"), ABS_POINTS - 1.0)))
        else:
            def extrema(op: Op = op) -> dict:
                lam_hat = json.loads((op.out_dir / "extrema.json").read_text())["lambda_estimate"]
                _require(math.isfinite(lam_hat) and abs(lam_hat - 2.0) < 0.01 * 2.0,
                         f"{op.name}: lambda estimate {lam_hat} not within 1% of 2")
                return {"lambda_estimate": lam_hat}
            checks.append((op.name, extrema))
    return checks


WORKLOADS: dict[str, Workload] = {
    "rolling-spectrum": Workload(
        _generate_rolling, _ops_rolling, _checks_rolling,
        main=("spectrum",),
        named={"spectrum_s": ("spectrum",),
               "spacing_stats_s": tuple(f"spacing-stats-{k}" for k in range(RS_SPACING_REPEATS))},
    ),
    "cross-market": Workload(
        _generate_cross, _ops_cross, _checks_cross,
        main=("global-spectrum-shift0", "global-spectrum-shift1"),
        named={"global_spectrum_s": ("global-spectrum-shift0", "global-spectrum-shift1")},
    ),
    "lppl-fit": Workload(
        _generate_lppl, _ops_lppl, _checks_lppl,
        main=tuple(f"lppl-fit-cosine{k}" for k in range(LPPL_COSINE_FITS)),
        named={
            "lppl_fit_s": tuple(f"lppl-fit-cosine{k}" for k in range(LPPL_COSINE_FITS)),
            "lppl_fit_abs_s": ("lppl-fit-abs",),
            "extrema_s": ("extrema",),
        },
    ),
}


def group_median(op_seconds: dict[str, float], names: tuple[str, ...]) -> float:
    return statistics.median(op_seconds[n] for n in names)
