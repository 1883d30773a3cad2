"""Plain-text output formats: tab-separated tables, JSON records, run manifests.

Every writer formats floats through repr(), which round-trips exactly and
is byte-stable across runs, so identical configurations produce identical
files. Nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import datetime as dt
import json
import platform
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .corr import CorrelationMatrix
from .errors import DataError
from .lppl import LpplFitResult
from .marketdata import ReturnPanel
from .spectral import RollingSpectrumTrace


def format_cell(value) -> str:
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
            fh.write("\t".join(format_cell(cell) for cell in row) + "\n")


def write_json(path: str | Path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def run_manifest(subcommand: str, config: dict, seed: int | None, outputs: list[str]) -> dict:
    """Everything needed to reproduce a run: config echo, seed, versions."""
    return {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "versions": {
            "collectivity": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": outputs,
    }


def write_panel_tsv(path: str | Path, panel: ReturnPanel) -> None:
    """Return panel as dates-by-assets table."""
    header = ["date"] + list(panel.assets)
    rows = ([panel.dates[t]] + list(panel.returns[:, t]) for t in range(panel.n_dates))
    write_tsv(path, header, rows)


def write_matrix_tsv(path: str | Path, matrix: CorrelationMatrix) -> None:
    """Correlation matrix with asset-id header row and column."""
    header = ["asset"] + list(matrix.assets)
    rows = ([asset] + list(matrix.entries[i]) for i, asset in enumerate(matrix.assets))
    write_tsv(path, header, rows)


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
    n = len(trace.snapshots[0].eigenvalues)
    header = ["window_end_date"] + [f"lambda_{i + 1}" for i in range(n)]
    rows = ([s.window_end] + list(s.eigenvalues) for s in trace.snapshots)
    write_tsv(path, header, rows)


def read_spectrum_trace(path: str | Path) -> list[np.ndarray]:
    """Eigenvalue rows of a spectrum trace file (inverse of write_spectrum_trace)."""
    sets = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if not header or header[0] != "window_end_date":
            raise DataError(f"{path}: not a spectrum trace file (header {header[:2]}...)")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
            try:
                sets.append(np.array([float(v) for v in parts[1:]]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable eigenvalue row") from None
    if not sets:
        raise DataError(f"{path}: no eigenvalue rows")
    return sets


def write_leading_vectors(path: str | Path, trace: RollingSpectrumTrace, assets: Sequence[str]) -> None:
    header = ["window_end_date"] + list(assets)
    rows = ([s.window_end] + list(s.leading_vector) for s in trace.snapshots)
    write_tsv(path, header, rows)


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
