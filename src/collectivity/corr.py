"""Windowed empirical correlation matrices, including the 2-block cross-market form.

Entries follow the product-moment definition with population (divisor T)
window averages,

    C_ij = (<G_i G_j> - <G_i><G_j>) / (sigma(G_i) sigma(G_j)),

which is the only symmetric, unit-diagonal normalization; correlation is
divisor-invariant, so using T rather than T-1 only affects intermediate
quantities. The matrix is built symmetrically and the diagonal is set to 1
exactly, so trace(C) = N holds by construction. One batched formula builds
every matrix: a single window is a stack of one, so a window's entries have
the same bits whichever stack it is built in.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import marketdata
from .errors import DataError
from .marketdata import ReturnPanel


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


def _correlation_stack(
    blocks: np.ndarray, assets: list[str], window_of: Callable[[int], WindowInfo]
) -> np.ndarray:
    """Correlation entries of a (k, N, T) stack of return windows, one batched matmul.

    Raises a DataError for the first window, then the first series in it,
    whose correlation is undefined: a non-finite return, a zero-volatility
    series (its T returns all equal), or finite returns whose centred sum of
    squares overflows (a root-mean-square deviation above about
    1.3e154 / sqrt(T)). The error names the series and its window
    (window_of(j) is the WindowInfo of window j). A finite sum of squares
    bounds every entry of a window's matmul (Cauchy-Schwarz), so the
    entries of a stack that passes do not overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = blocks - blocks.mean(axis=2, keepdims=True)
        norms = np.sqrt(np.einsum("kij,kij->ki", centered, centered))
    # Centring leaves a row of T equal returns x at most about T^1.5 eps/2 |x|
    # of rounding, so only rows within twice that take the exact test. A
    # non-finite return makes its row's norm non-finite.
    tiny = norms <= blocks.shape[2] ** 1.5 * np.finfo(float).eps * abs(blocks[..., 0])
    for j, asset in np.argwhere(tiny | ~np.isfinite(norms)):  # window order, then asset order
        series = blocks[j, asset]
        if not np.isfinite(series).all():
            fault = "non-finite return for {} in window [{}, {}]"
        elif series.max() == series.min():
            fault = "zero volatility for {} in window [{}, {}]: correlation undefined"
        elif not np.isfinite(norms[j, asset]):
            fault = ("returns of {} overflow in window [{}, {}]: "
                     "centred sum of squares is not finite")
        else:
            continue
        window = window_of(int(j))
        raise DataError(fault.format(assets[asset], window.start, window.end))
    entries = np.matmul(centered, centered.transpose(0, 2, 1))
    entries /= norms[:, :, None] * norms[:, None, :]
    entries = 0.5 * (entries + entries.transpose(0, 2, 1))
    n = entries.shape[1]
    entries[:, np.arange(n), np.arange(n)] = 1.0
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
    entries = _correlation_stack(panel.returns[None, :, lo:hi], panel.assets, lambda _: info)[0]
    return CorrelationMatrix(list(panel.assets), entries, info, block_split)


def _check_rolling(panel: ReturnPanel, window_length: int, step: int) -> None:
    if window_length < 2:
        raise DataError(f"window_length must be >= 2, got {window_length}")
    if step < 1:
        raise DataError(f"step must be >= 1, got {step}")
    if panel.n_dates < window_length:
        raise DataError(f"panel has {panel.n_dates} dates, shorter than window {window_length}")


def rolling_window_ends(panel: ReturnPanel, window_length: int, step: int = 1) -> list[dt.date]:
    """End dates of the windows of rolling_windows(panel, window_length, step), one per window.

    The arguments are checked as rolling_windows checks them.
    """
    _check_rolling(panel, window_length, step)
    return panel.dates[window_length - 1 :: step]


def rolling_correlation_stack(
    panel: ReturnPanel, window_length: int, step: int, first: int, last: int
) -> np.ndarray:
    """Entries of windows first .. last - 1 of rolling_windows, as one (k, N, N) stack.

    The windows are a (k, N, T) view of the panel's returns, so only the
    stack's own temporaries are allocated. As in _correlation_stack, the
    first window in the range holding a faulty series raises the DataError
    naming it. The arguments are not checked.
    """
    views = sliding_window_view(panel.returns, window_length, axis=1)
    blocks = views[:, first * step : (last - 1) * step + 1 : step].transpose(1, 0, 2)

    def window_of(j: int) -> WindowInfo:
        lo = (first + j) * step
        return WindowInfo(panel.dates[lo], panel.dates[lo + window_length - 1], window_length)

    return _correlation_stack(blocks, panel.assets, window_of)


def rolling_windows(panel: ReturnPanel, window_length: int, step: int = 1) -> Iterator[CorrelationMatrix]:
    """Correlation matrices of the windows advancing by step days, built one at a time.

    The arguments are checked when this is called, not at the first next(),
    so a bad window or step fails before any work starts. Only the matrix
    the consumer holds is alive, so memory stays O(N^2) over any number of
    windows. spectral.rolling_spectrum decomposes the same windows, with the
    same bits, without building a CorrelationMatrix for each.
    """
    _check_rolling(panel, window_length, step)

    def windows() -> Iterator[CorrelationMatrix]:
        for lo in range(0, panel.n_dates - window_length + 1, step):
            hi = lo + window_length
            info = WindowInfo(panel.dates[lo], panel.dates[hi - 1], window_length)
            entries = _correlation_stack(panel.returns[None, :, lo:hi], panel.assets,
                                         lambda _: info)[0]
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

