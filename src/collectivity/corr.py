"""Windowed empirical correlation matrices, including the 2-block cross-market form.

Entries follow the product-moment definition with population (divisor T)
window averages,

    C_ij = (<G_i G_j> - <G_i><G_j>) / (sigma(G_i) sigma(G_j)),

which is the only symmetric, unit-diagonal normalization; correlation is
divisor-invariant, so using T rather than T-1 only affects intermediate
quantities. The matrix is built symmetrically and the diagonal is set to 1
exactly, so trace(C) = N holds by construction.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import marketdata
from .errors import DataError
from .marketdata import ReturnPanel

DEFAULT_WINDOW = 30         # trading days, single market
DEFAULT_GLOBAL_WINDOW = 60  # trading days, two-market global matrix


@dataclass(frozen=True)
class WindowInfo:
    """Date range and observation count a matrix was estimated on."""

    start: dt.date
    end: dt.date
    length: int


@dataclass
class CorrelationMatrix:
    """Symmetric unit-diagonal correlation matrix with window metadata.

    block_split, when set, is the number of leading assets that form the
    first market of a 2-block global matrix.
    """

    assets: list[str]
    entries: np.ndarray
    window: WindowInfo
    block_split: int | None = None

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        n = len(self.assets)
        if self.entries.shape != (n, n):
            raise DataError(f"matrix shape {self.entries.shape} does not match {n} assets")

    @property
    def n(self) -> int:
        return len(self.assets)


def _window_slice(panel: ReturnPanel, window: tuple[dt.date, dt.date] | None) -> tuple[int, int]:
    if window is None:
        return 0, panel.n_dates
    start, end = window
    lo = int(np.searchsorted(np.array(panel.dates), start, side="left"))
    hi = int(np.searchsorted(np.array(panel.dates), end, side="right"))
    if hi <= lo:
        raise DataError(f"window [{start}, {end}] selects no panel dates")
    return lo, hi


def _correlation_entries(block: np.ndarray, assets: list[str], window: WindowInfo) -> np.ndarray:
    centered = block - block.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    flat = np.flatnonzero(norms == 0.0)
    if flat.size:
        raise DataError(
            f"zero volatility for {assets[flat[0]]} in window "
            f"[{window.start}, {window.end}]: correlation undefined"
        )
    entries = (centered @ centered.T) / np.outer(norms, norms)
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 1.0)
    return entries


def correlation_matrix(
    panel: ReturnPanel,
    window: tuple[dt.date, dt.date] | None = None,
    block_split: int | None = None,
) -> CorrelationMatrix:
    """Correlation matrix of the panel over a contiguous date range (default: all dates)."""
    lo, hi = _window_slice(panel, window)
    if hi - lo < 2:
        raise DataError(f"window length {hi - lo} is too short, need T >= 2")
    info = WindowInfo(panel.dates[lo], panel.dates[hi - 1], hi - lo)
    entries = _correlation_entries(panel.returns[:, lo:hi], panel.assets, info)
    return CorrelationMatrix(list(panel.assets), entries, info, block_split)


def rolling_windows(panel: ReturnPanel, window_length: int, step: int = 1) -> Iterator[CorrelationMatrix]:
    """Correlation matrices of the windows advancing by step days, built one at a time.

    The arguments are checked when this is called, not at the first next(),
    so a bad window or step fails before any work starts. Only the matrix
    the consumer holds is alive, so memory stays O(N^2) over any number of
    windows.
    """
    if window_length < 2:
        raise DataError(f"window_length must be >= 2, got {window_length}")
    if step < 1:
        raise DataError(f"step must be >= 1, got {step}")
    if panel.n_dates < window_length:
        raise DataError(f"panel has {panel.n_dates} dates, shorter than window {window_length}")

    def windows() -> Iterator[CorrelationMatrix]:
        for lo in range(0, panel.n_dates - window_length + 1, step):
            hi = lo + window_length
            info = WindowInfo(panel.dates[lo], panel.dates[hi - 1], window_length)
            entries = _correlation_entries(panel.returns[:, lo:hi], panel.assets, info)
            yield CorrelationMatrix(list(panel.assets), entries, info)

    return windows()


def rolling_correlation(panel: ReturnPanel, window_length: int, step: int = 1) -> list[CorrelationMatrix]:
    """One correlation matrix per window, windows advancing by step days, all held at once."""
    return list(rolling_windows(panel, window_length, step))


def merge_panels(panel_a: ReturnPanel, panel_b: ReturnPanel, shift_days: int = 0) -> ReturnPanel:
    """Stack two markets on the intersection of their date axes.

    A nonzero shift_days then re-indexes market A by that many trading days
    (marketdata.shift_returns): with shift_days = 1 the A returns from one
    trading day earlier are paired with same-day B returns, which merges the
    blocks when market B follows market A by one day.
    """
    overlap = set(panel_a.assets).intersection(panel_b.assets)
    if overlap:
        raise DataError(f"markets share asset ids: {sorted(overlap)}")
    if panel_a.lag_days != panel_b.lag_days:
        raise DataError(
            f"markets use different return lags: {panel_a.lag_days} vs {panel_b.lag_days}"
        )
    common = sorted(set(panel_a.dates).intersection(panel_b.dates))
    if not common:
        raise DataError("markets have no trading dates in common")

    def restrict(panel: ReturnPanel) -> np.ndarray:
        pos = {d: i for i, d in enumerate(panel.dates)}
        cols = [pos[d] for d in common]
        return panel.returns[:, cols]

    merged = ReturnPanel(
        list(panel_a.assets) + list(panel_b.assets),
        common,
        np.vstack([restrict(panel_a), restrict(panel_b)]),
        panel_a.lag_days,
    )
    if shift_days != 0:
        merged = marketdata.shift_returns(merged, panel_a.assets, shift_days)
    return merged

