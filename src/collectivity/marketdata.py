"""Price ingestion, log returns, trading-calendar alignment and cross-market day shifts.

The pipeline is: load per-asset price series from delimited text, turn them
into log returns G(t) = ln x(t+tau) - ln x(t), intersect the per-asset
trading calendars into a dense panel, and (for cross-market studies)
re-index one market's returns by a whole number of trading days.

Missing dates are never filled: the common axis is the intersection of the
input calendars, so no prices are invented for days an exchange was closed.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for delimited price files (header row required)."""

    date: str = "date"
    asset: str = "asset"
    price: str = "price"
    delimiter: str = ","

    def __post_init__(self) -> None:
        _check_delimiter(self.delimiter)


def _check_delimiter(delimiter: str) -> None:
    # csv.reader raises a TypeError for any other delimiter.
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DataError(f"delimiter must be one character, got {delimiter!r}")


@dataclass
class PriceSeries:
    """Closing prices of one asset on strictly increasing calendar days."""

    asset_id: str
    dates: list[dt.date]
    prices: np.ndarray

    def __post_init__(self) -> None:
        self.prices = np.asarray(self.prices, dtype=float)
        if len(self.dates) != len(self.prices):
            raise DataError(f"{self.asset_id}: {len(self.dates)} dates vs {len(self.prices)} prices")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DataError(f"{self.asset_id}: dates not strictly increasing at {cur}")
        if not np.all(self.prices > 0):
            bad = self.dates[int(np.argmin(self.prices > 0))]
            raise DataError(f"{self.asset_id}: non-positive price on {bad}")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class ReturnSeries:
    """Per-asset log returns, labelled by the start date of each tau-day window."""

    asset_id: str
    dates: list[dt.date]
    values: np.ndarray
    lag_days: int


@dataclass
class ReturnPanel:
    """Dense return matrix: one row per asset, one column per common trading date."""

    assets: list[str]
    dates: list[dt.date]
    returns: np.ndarray
    lag_days: int

    def __post_init__(self) -> None:
        self.returns = np.asarray(self.returns, dtype=float)
        if self.returns.shape != (len(self.assets), len(self.dates)):
            raise DataError(
                f"panel shape {self.returns.shape} does not match "
                f"{len(self.assets)} assets x {len(self.dates)} dates"
            )

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_dates(self) -> int:
        return len(self.dates)


def _read_records(
    source: str | Path | TextIO,
    date_col: str,
    value_col: str,
    delimiter: str,
    noun: str,
    key_col: str | None = None,
) -> Iterator[tuple[int, dt.date, str | None, float]]:
    """Yield (line number, date, key, value) for each non-blank record.

    The header row maps the column names; every record needs an ISO-8601
    date and a finite number in the value column, plus a non-empty id in
    the key column when one is mapped. Faults are DataErrors naming the
    line, with the value called `noun` in their messages.
    """
    opened = open(source, newline="") if isinstance(source, (str, Path)) else nullcontext(source)
    with opened as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError("empty input: no header row") from None
        try:
            i_date, i_value = header.index(date_col), header.index(value_col)
            i_key = None if key_col is None else header.index(key_col)
        except ValueError:
            mapped = [c for c in (date_col, key_col, value_col) if c is not None]
            raise DataError(
                f"header {header} is missing one of the mapped columns "
                f"({', '.join(map(repr, mapped))})"
            ) from None
        width = max(i_date, i_value, i_key or 0)

        # One date object per distinct date text: a panel repeats each date once per asset.
        days: dict[str, dt.date] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            if len(row) <= width:
                raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            day = days.get(row[i_date])
            if day is None:
                try:
                    day = days[row[i_date]] = dt.date.fromisoformat(row[i_date].strip())
                except ValueError:
                    raise DataError(f"line {lineno}: unparseable date {row[i_date]!r}") from None
            key = None
            if i_key is not None:
                key = row[i_key].strip()
                if not key:
                    raise DataError(f"line {lineno}: empty asset id")
            try:
                value = float(row[i_value])
            except ValueError:
                raise DataError(f"line {lineno}: unparseable {noun} {row[i_value]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"line {lineno}: non-finite {noun}")
            yield lineno, day, key, value


def _bucketed_series(per_asset: dict[str, dict[dt.date, float]]) -> list[PriceSeries]:
    """One date-sorted PriceSeries per asset, in asset-id order."""
    if not per_asset:
        raise DataError("no price records found")
    out = []
    for asset in sorted(per_asset):
        days = sorted(per_asset[asset])
        out.append(PriceSeries(asset, days, np.array([per_asset[asset][d] for d in days])))
    return out


def load_price_series(source: str | Path | TextIO, schema: ColumnSchema | None = None) -> list[PriceSeries]:
    """Parse delimited price records into one sorted PriceSeries per asset.

    Each record needs an ISO-8601 date, an asset id and a positive, finite
    price. Bad records are hard errors naming the offending line; duplicate
    (asset, date) pairs are rejected rather than silently overwritten.
    """
    schema = schema or ColumnSchema()
    records = _read_records(source, schema.date, schema.price, schema.delimiter, "price", schema.asset)
    per_asset: dict[str, dict[dt.date, float]] = {}
    for lineno, day, asset, price in records:
        if price <= 0:
            raise DataError(f"line {lineno}: non-positive price {price} for {asset}")
        bucket = per_asset.setdefault(asset, {})
        if day in bucket:
            raise DataError(f"line {lineno}: duplicate record for ({asset}, {day})")
        bucket[day] = price
    return _bucketed_series(per_asset)


def merge_price_series(groups: Iterable[list[PriceSeries]]) -> list[PriceSeries]:
    """Merge per-file loader outputs into one series per asset.

    An asset may be spread over several files, but a repeated (asset, date)
    pair is still a hard error.
    """
    per_asset: dict[str, dict[dt.date, float]] = {}
    for group in groups:
        for s in group:
            bucket = per_asset.setdefault(s.asset_id, {})
            for day, price in zip(s.dates, s.prices):
                if day in bucket:
                    raise DataError(f"duplicate record for ({s.asset_id}, {day}) across inputs")
                bucket[day] = float(price)
    return _bucketed_series(per_asset)


def load_value_series(
    source: str | Path | TextIO,
    date_col: str = "date",
    value_col: str = "price",
    delimiter: str = ",",
) -> tuple[list[dt.date], np.ndarray]:
    """Parse a single (date, value) series from delimited text with a header row.

    Values only need to be finite numbers. Rows may arrive in any order;
    they are sorted by date and duplicate dates are rejected.
    """
    _check_delimiter(delimiter)
    seen: dict[dt.date, float] = {}
    for lineno, day, _, value in _read_records(source, date_col, value_col, delimiter, "value"):
        if day in seen:
            raise DataError(f"line {lineno}: duplicate date {day}")
        seen[day] = value
    if not seen:
        raise DataError("no records found")
    days = sorted(seen)
    return days, np.array([seen[d] for d in days])


def compute_returns(series: Sequence[PriceSeries], tau: int = 1) -> list[ReturnSeries]:
    """Log returns over a tau trading-day lag, one ReturnSeries per asset.

    The return labelled with date t is ln(price at t+tau) - ln(price at t),
    so each series shrinks by tau observations.
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    out = []
    for s in series:
        if len(s) <= tau:
            raise DataError(f"{s.asset_id}: {len(s)} observations, need more than tau={tau}")
        logp = np.log(s.prices)
        out.append(ReturnSeries(s.asset_id, s.dates[:-tau], logp[tau:] - logp[:-tau], tau))
    return out


def align_calendars(series: Sequence[ReturnSeries], min_coverage: float = 1.0) -> ReturnPanel:
    """Intersect per-asset calendars into a dense ReturnPanel.

    The date axis is the intersection of the surviving assets' dates. With
    min_coverage < 1, assets covering less than that fraction of the
    majority calendar (dates held by at least half the assets) are dropped
    with a warning before intersecting, so one short or exotic calendar
    cannot wipe out the common axis. At the default 1.0 nothing is dropped.
    """
    if len(series) < 2:
        raise DataError(f"alignment needs at least 2 assets, got {len(series)}")
    lags = {s.lag_days for s in series}
    if len(lags) > 1:
        raise DataError(f"mixed return lags in alignment input: {sorted(lags)}")

    kept = list(series)
    if min_coverage < 1.0:
        counts: dict[dt.date, int] = {}
        for s in series:
            for d in s.dates:
                counts[d] = counts.get(d, 0) + 1
        majority = {d for d, c in counts.items() if c >= len(series) / 2}
        kept = []
        for s in series:
            coverage = len(majority.intersection(s.dates)) / len(majority) if majority else 0.0
            if coverage < min_coverage:
                warnings.warn(
                    f"dropping {s.asset_id}: covers {coverage:.1%} of the majority "
                    f"calendar, below {min_coverage:.1%}"
                )
            else:
                kept.append(s)
        if len(kept) < 2:
            raise DataError("fewer than 2 assets left after coverage filtering")

    common = set(kept[0].dates)
    for s in kept[1:]:
        common.intersection_update(s.dates)
    if not common:
        raise DataError("empty intersection of trading calendars")
    axis = sorted(common)

    rows = []
    for s in kept:
        lookup = dict(zip(s.dates, s.values))
        rows.append([lookup[d] for d in axis])
    return ReturnPanel([s.asset_id for s in kept], axis, np.array(rows), kept[0].lag_days)


def shift_returns(panel: ReturnPanel, market_assets: Iterable[str], offset_days: int) -> ReturnPanel:
    """Re-index the tagged assets' returns by offset_days trading-day positions.

    With offset_days = k > 0 the tagged assets' return from k positions
    earlier is paired with the untagged assets' same-day return, i.e. the
    tagged market's information runs k days in advance of the rest. The
    overlapping region is kept, so the panel shrinks by |k| dates.
    """
    tagged = set(market_assets)
    unknown = tagged.difference(panel.assets)
    if unknown:
        raise DataError(f"unknown assets in market tag: {sorted(unknown)}")
    k = int(offset_days)
    n = panel.n_dates
    if abs(k) >= n:
        raise DataError(f"offset of {k} days exceeds panel length {n}")
    if k == 0:
        return ReturnPanel(list(panel.assets), list(panel.dates), panel.returns.copy(), panel.lag_days)

    m = abs(k)
    mask = np.array([a in tagged for a in panel.assets])
    if k > 0:
        axis = panel.dates[m:]
        shifted = np.where(mask[:, None], panel.returns[:, :n - m], panel.returns[:, m:])
    else:
        axis = panel.dates[:n - m]
        shifted = np.where(mask[:, None], panel.returns[:, m:], panel.returns[:, :n - m])
    return ReturnPanel(list(panel.assets), list(axis), shifted, panel.lag_days)
