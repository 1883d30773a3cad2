"""Plain-text output formats: tab-separated tables, JSON records, run manifests.

Every writer formats floats through repr(), which round-trips exactly and
is byte-stable across runs, so identical configurations produce identical
files. Nothing time-dependent is ever written. The run manifest records the
BLAS thread settings and the worker-pool size the run saw, because the last
bits of an eigenvalue can change with them.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import os
import platform
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .corr import CorrelationMatrix
from .errors import DataError
from .lppl import LpplFitResult
from .marketdata import ReturnPanel, open_utf8, parse_date
from .resources import pool_workers
from .spectral import CollectivityMetrics, RollingSpectrumTrace


def format_cell(value) -> str:
    # Floats first: most cells of a mixed table are floats. np.float64 is a float.
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(map(format_cell, row)) + "\n")


def write_rows(path: str | Path, header: Sequence[str], labels: Sequence,
               table: np.ndarray) -> None:
    """Per label (a date or an id), the label and that row of a float table.

    write_tsv's bytes without its per-cell dispatch: the label goes through
    format_cell, the row through repr of its Python floats. Rows are
    converted one at a time; a whole (2,381, 100) table would hold about 7 MB.
    """
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for label, row in zip(labels, table, strict=True):
            fh.write(format_cell(label) + "\t" + "\t".join(map(repr, row.tolist())) + "\n")


def write_json(path: str | Path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def run_manifest(subcommand: str, config: dict, seed: int | None, outputs: list[str]) -> dict:
    """Everything needed to reproduce a run: config echo, seed, versions, BLAS threads."""
    return {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "versions": {
            "collectivity": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "pool_workers": pool_workers(),
        },
        "outputs": outputs,
    }


def write_panel_tsv(path: str | Path, panel: ReturnPanel) -> None:
    """Return panel as dates-by-assets table."""
    write_rows(path, ["date"] + list(panel.assets), panel.dates, panel.returns.T)


def write_matrix_tsv(path: str | Path, matrix: CorrelationMatrix) -> None:
    """Correlation matrix with asset-id header row and column."""
    write_rows(path, ["asset"] + list(matrix.assets), matrix.assets, matrix.entries)


def write_matrix_metadata(path: str | Path, matrix: CorrelationMatrix) -> None:
    write_json(
        path,
        {
            "assets": list(matrix.assets),
            "window_start": matrix.window.start.isoformat(),
            "window_end": matrix.window.end.isoformat(),
            "T": matrix.window.length,
            "block_split": matrix.block_split,
        },
    )


def write_spectrum_trace(path: str | Path, trace: RollingSpectrumTrace) -> None:
    """Columns: window_end_date, lambda_1 ... lambda_N (descending)."""
    write_rows(path, _trace_header(trace.eigenvalues.shape[1]), trace.window_ends, trace.eigenvalues)


def write_global_trace(path: str | Path, trace: RollingSpectrumTrace,
                       metrics: CollectivityMetrics) -> None:
    """Columns: window_end_date, gap_ratio, dominance, participation_ratio,
    lambda_1 ... lambda_N (descending); metrics holds one entry per window."""
    table = np.column_stack([metrics.gap_ratio, metrics.dominance, metrics.participation_ratio,
                             trace.eigenvalues])
    header = _trace_header(trace.eigenvalues.shape[1],
                           ["gap_ratio", "dominance", "participation_ratio"])
    write_rows(path, header, trace.window_ends, table)


def _trace_header(n: int, metric_columns: Sequence[str] = ()) -> list[str]:
    """window_end_date, then the metric columns, then lambda_1 ... lambda_n."""
    return ["window_end_date", *metric_columns] + [f"lambda_{i + 1}" for i in range(n)]


def read_spectrum_trace(path: str | Path) -> np.ndarray:
    """The (windows, N) eigenvalue table of a spectrum trace file (inverse of write_spectrum_trace).

    The header must be exactly window_end_date, lambda_1 ... lambda_N, and
    window end dates YYYY-MM-DD dates, strictly increasing as in a
    RollingSpectrumTrace. A fault names the earliest faulty line. The cells
    are parsed by float() into one flat buffer, which becomes the table.
    """
    values = array("d")
    prev_end = None
    with open_utf8(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        want = _trace_header(max(1, len(header) - 1))
        for column, (got, expected) in enumerate(itertools.zip_longest(header, want), start=1):
            if got != expected:
                raise DataError(f"{path}: not a spectrum trace file: column {column} is "
                                f"{'missing' if got is None else repr(got)}, expected {expected!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
            try:
                end = parse_date(parts[0])
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable window_end_date {parts[0]!r}") from None
            if prev_end is not None and end <= prev_end:
                raise DataError(f"{path}:{lineno}: window ends not strictly increasing at {end}")
            prev_end = end
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable eigenvalue row") from None
            # A non-finite value makes the sum non-finite; so can an overflow.
            if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                raise DataError(f"{path}:{lineno}: non-finite eigenvalue")
            values.extend(row)
    if not values:
        raise DataError(f"{path}: no eigenvalue rows")
    return np.frombuffer(values).reshape(-1, len(header) - 1)


def write_leading_vectors(path: str | Path, trace: RollingSpectrumTrace, assets: Sequence[str]) -> None:
    write_rows(path, ["window_end_date"] + list(assets), trace.window_ends, trace.leading_vectors)


def fit_record(result: LpplFitResult, origin: dt.date | None = None) -> dict:
    """Structured fit record; t_c is reported both as days and as an ISO date
    when the series origin date is known."""
    model = result.model
    record = {
        "t_c": model.tc,
        "t_c_date": None,
        "alpha": model.alpha,
        "lambda": model.lam,
        "omega": model.omega,
        "phi": model.phi,
        "A": model.a,
        "B": model.b,
        "variant": model.variant,
        "direction": model.direction,
        "sse": result.sse,
        "n_points": result.n_points,
    }
    if origin is not None:
        record["t_c_date"] = (origin + dt.timedelta(days=int(round(model.tc)))).isoformat()
    return record


def write_fit_record(path: str | Path, result: LpplFitResult, origin: dt.date | None = None) -> None:
    write_json(path, fit_record(result, origin))


def write_fit_curve(path: str | Path, times, observed, fitted) -> None:
    write_tsv(path, ["time", "observed", "fitted"], zip(times, observed, fitted))
