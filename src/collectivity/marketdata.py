"""Price ingestion, log returns, trading-calendar alignment and cross-market day shifts.

The pipeline is: load per-asset price series from delimited text, turn them
into log returns G(t) = ln x(t+tau) - ln x(t), intersect the per-asset
trading calendars into a dense panel, and (for cross-market studies)
re-index one market's returns by a whole number of trading days.

Missing dates are never filled: the common axis is the intersection of the
input calendars, so no prices are invented for days an exchange was closed.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import math
import operator
import re
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import islice
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
        dates = self.dates
        if not all(map(operator.lt, dates, islice(dates, 1, None))):
            cur = next(cur for prev, cur in zip(dates, dates[1:]) if cur <= prev)
            raise DataError(f"{self.asset_id}: dates not strictly increasing at {cur}")
        if not np.all(self.prices > 0):
            bad = self.dates[int(np.argmin(self.prices > 0))]
            raise DataError(f"{self.asset_id}: non-positive price on {bad}")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class ReturnSeries:
    """Per-asset log returns, labelled by the start date of each tau-day window.

    The dates increase strictly, as `compute_returns` makes them;
    `align_calendars` relies on that.
    """

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


@contextmanager
def open_utf8(source: str | Path | TextIO, newline: str | None = None) -> Iterator[TextIO]:
    """A path opened as UTF-8 text (newline as for open), or a stream as given.

    A decode error while reading becomes a DataError naming the file, so the
    bytes accepted do not depend on the locale.
    """
    if isinstance(source, (str, Path)):
        opened, name = open(source, newline=newline, encoding="utf-8"), source
    else:
        opened, name = nullcontext(source), getattr(source, "name", "input")
    try:
        with opened as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8 text ({exc.reason})") from None


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """The calendar date of a YYYY-MM-DD text (ASCII digits, nothing around it).

    date.fromisoformat alone accepts more on Python 3.11 and later, such as
    20200102 and the week date 2020-W02-2, which Python 3.10 rejects; this
    grammar is the same on every supported Python. Raises ValueError.
    """
    if not _DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _read_columns(
    source: str | Path | TextIO,
    date_col: str,
    value_col: str,
    delimiter: str,
    noun: str,
    key_col: str | None = None,
) -> list[tuple[str, list[dt.date], np.ndarray]]:
    """(key, dates, values) of each key's records, in key order with dates sorted.

    The header row maps the column names; a byte-order mark before it is
    dropped. Every non-blank record needs a YYYY-MM-DD date and a finite
    number in the value column, plus a non-empty id in the key column when
    one is mapped. A keyed file holds prices, which must be positive, one
    per (id, date); without a key column all records form one series, keyed
    "", with one value per date. Faults are DataErrors naming the earliest
    faulty line, with the value called `noun`; within a line the checks run
    in the order field count, date, asset id, value parse, finite,
    non-positive, duplicate.
    """
    with open_utf8(source, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: no header row") from None
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        header = [h.strip() for h in header]
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

        # Records are appended to column buffers per raw key text: day code,
        # value and record number. The raw date texts are coded through a
        # dict, so each distinct text is parsed once, after the loop. A
        # record's line number is recovered from the record counts at which
        # blank rows were skipped. The read stops at a short row or an
        # unparseable value; the records before it are still checked, since an
        # earlier fault wins. Per-key buffers keep every array one asset long,
        # so ingest allocates and frees no array as long as the file.
        day_code: dict[str, int] = {}
        by_key: dict[str, tuple[array, array, array]] = {}
        skipped = array("q")
        n = 0  # records read
        stop = None  # (record number, check rank, message) of the row that ended the read
        for row in reader:
            if len(row) <= width:
                if "".join(row).strip():
                    stop = (n, 0, f"expected {len(header)} fields, got {len(row)}")
                    break
                skipped.append(n)
                continue
            text = row[i_date]
            day = day_code.get(text)
            if day is None:
                # A blank row has a blank date text. A non-blank row with a blank
                # date is a fault on its own line, so rows after it need no test.
                if not text.strip() and not "".join(row).strip():
                    skipped.append(n)
                    continue
                day = day_code[text] = len(day_code)
            text = "" if i_key is None else row[i_key]
            columns = by_key.get(text)
            if columns is None:
                columns = by_key[text] = (array("q"), array("d"), array("q"))
            days, values, numbers = columns
            days.append(day)
            numbers.append(n)
            n += 1
            try:
                values.append(float(row[i_value]))
            except ValueError:
                values.append(math.nan)
                stop = (n - 1, 3, f"unparseable {noun} {row[i_value]!r}")
                break

    # Rank the distinct date texts by parsed date, so padded spellings of one
    # day share a rank, and merge the buffers of padded spellings of one id.
    # A bad date ranks -1.
    texts = list(day_code)
    parsed = []
    for text in texts:
        try:
            parsed.append(parse_date(text.strip()))
        except ValueError:
            parsed.append(None)
    calendar = sorted({d for d in parsed if d is not None})
    rank = {d: r for r, d in enumerate(calendar)}
    day_rank = np.array([rank.get(d, -1) for d in parsed], dtype=np.int64)
    day_of = np.array(calendar, dtype=object)
    parts: dict[str, list[tuple[array, array, array]]] = {}
    for text, columns in by_key.items():
        parts.setdefault(text.strip(), []).append(columns)

    faults = [] if stop is None else [stop]
    out = []
    for key in sorted(parts):
        days, values, numbers = (np.concatenate([np.frombuffer(c[j], dtype=t) for c in parts[key]])
                                 for j, t in enumerate((np.int64, float, np.int64)))
        day = day_rank[days]
        # Date order, line order within a date: a valid date equal to its
        # left neighbour's repeats an earlier line.
        order = np.lexsort((numbers, day))
        day_sorted = day[order]
        repeat = np.zeros(len(day), dtype=bool)
        repeat[order[1:]] = (day_sorted[1:] == day_sorted[:-1]) & (day_sorted[1:] >= 0)
        # (failed records, check rank, message of record k); the rank orders
        # the checks within a line.
        checks = [
            (day < 0, 1, lambda k: f"unparseable date {texts[days[k]]!r}"),
            (~np.isfinite(values), 4, lambda k: f"non-finite {noun}"),
        ]
        if i_key is None:
            checks.append((repeat, 6, lambda k: f"duplicate date {calendar[day[k]]}"))
        else:
            checks += [
                (np.full(len(day), key == ""), 2, lambda k: "empty asset id"),
                (values <= 0, 5, lambda k: f"non-positive price {float(values[k])} for {key}"),
                (repeat, 6, lambda k: f"duplicate record for ({key}, {calendar[day[k]]})"),
            ]
        for failed, check, describe in checks:
            if failed.any():
                k = int(np.flatnonzero(failed)[np.argmin(numbers[failed])])
                faults.append((int(numbers[k]), check, describe(k)))
        if not faults:
            out.append((key, day_of[day_sorted].tolist(), values[order]))
    if faults:
        i, _, message = min(faults)
        raise DataError(f"line {i + 2 + bisect.bisect_right(skipped, i)}: {message}")
    return out


def load_price_series(source: str | Path | TextIO, schema: ColumnSchema | None = None) -> list[PriceSeries]:
    """Parse delimited price records into one sorted PriceSeries per asset.

    Each record needs a YYYY-MM-DD date, an asset id and a positive, finite
    price. Bad records are hard errors naming the offending line; duplicate
    (asset, date) pairs are rejected rather than silently overwritten.
    """
    schema = schema or ColumnSchema()
    series = _read_columns(source, schema.date, schema.price, schema.delimiter, "price", schema.asset)
    if not series:
        raise DataError("no price records found")
    return [PriceSeries(asset, days, prices) for asset, days, prices in series]


def merge_price_series(groups: Iterable[list[PriceSeries]]) -> list[PriceSeries]:
    """Merge per-file loader outputs into one series per asset, in asset-id order.

    An asset found in one input passes through unchanged. An asset may be
    spread over several inputs, but a repeated (asset, date) pair is still a
    hard error, reported at its first repeat in input order.
    """
    pieces: dict[str, list[tuple[int, PriceSeries]]] = {}
    position = 0  # of a series' first record in input order
    for group in groups:
        for s in group:
            pieces.setdefault(s.asset_id, []).append((position, s))
            position += len(s)
    if not pieces:
        raise DataError("no price records found")

    merged = {asset: parts[0][1] for asset, parts in pieces.items()}
    repeat = None  # (input position, asset, date) of the earliest repeat
    for asset, parts in pieces.items():
        if len(parts) == 1:
            continue
        dates = [d for _, s in parts for d in s.dates]
        ordinal = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
        order = np.argsort(ordinal, kind="stable")
        ordinal = ordinal[order]
        repeats = order[1:][ordinal[1:] == ordinal[:-1]]
        if repeats.size:
            at = np.concatenate([np.arange(len(s)) + p for p, s in parts])[repeats]
            k = int(at.argmin())
            if repeat is None or at[k] < repeat[0]:
                repeat = (int(at[k]), asset, dates[repeats[k]])
            continue
        prices = np.concatenate([s.prices for _, s in parts])
        merged[asset] = PriceSeries(asset, [dates[i] for i in order.tolist()], prices[order])
    if repeat is not None:
        raise DataError(f"duplicate record for ({repeat[1]}, {repeat[2]}) across inputs")
    return [merged[asset] for asset in sorted(merged)]


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
    series = _read_columns(source, date_col, value_col, delimiter, "value")
    if not series:
        raise DataError("no records found")
    [(_, days, values)] = series
    return days, values


def compute_returns(series: Sequence[PriceSeries], tau: int = 1) -> list[ReturnSeries]:
    """Log returns over a tau trading-day lag, one ReturnSeries per asset.

    The return labelled with date t is ln(price at t+tau) - ln(price at t),
    so each series shrinks by tau observations.
    """
    if tau < 1:
        raise DataError(f"tau must be a positive integer, got {tau}")
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
        counts = Counter(d for s in series for d in s.dates)
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
    # Each series' dates increase strictly, so its dates in the common
    # calendar come out in axis order.
    rows = []
    for s in kept:
        in_common = np.fromiter(map(common.__contains__, s.dates), dtype=bool, count=len(s.dates))
        rows.append(np.asarray(s.values)[in_common])
    return ReturnPanel([s.asset_id for s in kept], sorted(common), np.array(rows), kept[0].lag_days)


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
