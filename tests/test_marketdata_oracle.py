"""The columnar loaders against a row-by-row reference reader.

The reference below reads one record at a time and buckets prices in dicts,
raising at the first faulty line. The loaders must return the same series
(ids, dates, price bits) or raise the same DataError message on any body.
"""

import csv
import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity.errors import DataError
from collectivity.marketdata import (
    PriceSeries,
    compute_returns,
    load_price_series,
    load_value_series,
    merge_price_series,
)


def reference_records(fh, date_col, value_col, noun, key_col=None):
    reader = csv.reader(fh)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError("empty input: no header row") from None
    i_date, i_value = header.index(date_col), header.index(value_col)
    i_key = None if key_col is None else header.index(key_col)
    width = max(i_date, i_value, i_key or 0)
    for lineno, row in enumerate(reader, start=2):
        if not row or not "".join(row).strip():
            continue
        if len(row) <= width:
            raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[i_date].strip())
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


def reference_buckets(per_asset):
    if not per_asset:
        raise DataError("no price records found")
    out = []
    for asset in sorted(per_asset):
        days = sorted(per_asset[asset])
        out.append(PriceSeries(asset, days, np.array([per_asset[asset][d] for d in days])))
    return out


def reference_prices(text):
    per_asset = {}
    for lineno, day, asset, price in reference_records(io.StringIO(text), "date", "price", "price", "asset"):
        if price <= 0:
            raise DataError(f"line {lineno}: non-positive price {price} for {asset}")
        bucket = per_asset.setdefault(asset, {})
        if day in bucket:
            raise DataError(f"line {lineno}: duplicate record for ({asset}, {day})")
        bucket[day] = price
    return reference_buckets(per_asset)


def reference_values(text):
    seen = {}
    for lineno, day, _, value in reference_records(io.StringIO(text), "date", "price", "value"):
        if day in seen:
            raise DataError(f"line {lineno}: duplicate date {day}")
        seen[day] = value
    if not seen:
        raise DataError("no records found")
    days = sorted(seen)
    return days, np.array([seen[d] for d in days])


def reference_merge(groups):
    per_asset = {}
    for group in groups:
        for s in group:
            bucket = per_asset.setdefault(s.asset_id, {})
            for day, price in zip(s.dates, s.prices):
                if day in bucket:
                    raise DataError(f"duplicate record for ({s.asset_id}, {day}) across inputs")
                bucket[day] = float(price)
    return reference_buckets(per_asset)


def outcome(fn, *args):
    """("ok", comparable result) or ("error", message)."""
    try:
        result = fn(*args)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(result, tuple):
        days, values = result
        return "ok", (days, values.tobytes())
    return "ok", [(s.asset_id, s.dates, s.prices.tobytes()) for s in result]


DATES = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-06"]
CLEAN_DATE = st.sampled_from(DATES)
MESSY_DATE = st.sampled_from([" 2020-01-02", "2020-01-03 ", "\t2020-01-01", "2020-02-30", "x", "", "  "])
CLEAN_ID = st.sampled_from(["A", "B", "C"])
MESSY_ID = st.sampled_from([" A", "B ", "", "  "])
CLEAN_PRICE = st.floats(min_value=1e-3, max_value=1e6).map(repr)
MESSY_PRICE = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1.5", "abc", "", " 3.25 ", "1e400"])
BLANK_ROW = st.sampled_from(["", "   ", ",,", " , , ", "\t"])


def either(clean, messy):
    # Mostly clean fields, so many bodies load and the rest fail at varied lines.
    return st.one_of(clean, clean, clean, messy)


PRICE_ROW = st.one_of(
    st.tuples(either(CLEAN_DATE, MESSY_DATE), either(CLEAN_ID, MESSY_ID),
              either(CLEAN_PRICE, MESSY_PRICE)).map(",".join),
    st.tuples(CLEAN_DATE, CLEAN_ID, CLEAN_PRICE).map(",".join),
    BLANK_ROW,
    st.tuples(CLEAN_DATE, CLEAN_ID).map(",".join),
)
VALUE_ROW = st.one_of(
    st.tuples(either(CLEAN_DATE, MESSY_DATE),
              either(st.floats(-1e6, 1e6).map(repr), MESSY_PRICE)).map(",".join),
    BLANK_ROW,
    CLEAN_DATE,
)


def body(header, rows):
    return header + "\n" + "\n".join(rows) + "\n"


class TestPriceReaderAgainstReference:
    @given(rows=st.lists(PRICE_ROW, max_size=24))
    @settings(max_examples=400)
    def test_same_series_or_same_error(self, rows):
        text = body("date,asset,price", rows)
        assert outcome(load_price_series, io.StringIO(text)) == outcome(reference_prices, text)

    @given(rows=st.lists(st.tuples(CLEAN_DATE, CLEAN_ID, CLEAN_PRICE).map(",".join),
                         min_size=1, max_size=16).flatmap(st.permutations))
    @settings(max_examples=100)
    def test_clean_rows_in_any_order(self, rows):
        # Clean fields still collide on (asset, date), so duplicates come in every order.
        text = body("date,asset,price", rows)
        assert outcome(load_price_series, io.StringIO(text)) == outcome(reference_prices, text)

    @pytest.mark.parametrize("text, message", [
        ("date,asset,price\n2020-01-01,A,1\n 2020-01-01,A,2\n",
         "line 3: duplicate record for (A, 2020-01-01)"),
        ("date,asset,price\n2020-01-01,A,1\n2020-01-01, A ,2\n",
         "line 3: duplicate record for (A, 2020-01-01)"),
        ("date,asset,price\n2020-01-01,A,0\n2020-01-02,A\n", "line 2: non-positive price 0.0 for A"),
        ("date,asset,price\n2020-01-01,A,1\n\n2020-01-01,A,oops\n2020-01-02,A,1\n",
         "line 4: unparseable price 'oops'"),
        ("date,asset,price\nbad,,oops\n", "line 2: unparseable date 'bad'"),
        ("date,asset,price\n2020-01-01,,oops\n", "line 2: empty asset id"),
    ], ids=["padded-date", "padded-id", "fault-before-short-row", "blank-row-shifts-lines",
            "date-first", "id-before-value"])
    def test_known_bodies(self, text, message):
        assert outcome(load_price_series, io.StringIO(text)) == ("error", message)
        assert outcome(reference_prices, text) == ("error", message)


class TestValueReaderAgainstReference:
    @given(rows=st.lists(VALUE_ROW, max_size=24))
    @settings(max_examples=300)
    def test_same_series_or_same_error(self, rows):
        text = body("date,price", rows)
        assert outcome(load_value_series, io.StringIO(text)) == outcome(reference_values, text)


GROUP = st.dictionaries(st.tuples(CLEAN_ID, CLEAN_DATE), CLEAN_PRICE, min_size=1, max_size=8)


class TestMergeAgainstReference:
    @given(groups=st.lists(GROUP, min_size=2, max_size=3))
    @settings(max_examples=200)
    def test_same_series_or_same_error(self, groups):
        loaded = [
            load_price_series(io.StringIO(body("date,asset,price",
                                               [f"{d},{a},{p}" for (a, d), p in g.items()])))
            for g in groups
        ]
        assert outcome(merge_price_series, loaded) == outcome(reference_merge, loaded)

    def test_single_input_asset_passes_through(self):
        a = PriceSeries("A", [dt.date(2020, 1, 1)], np.array([1.0]))
        b1 = PriceSeries("B", [dt.date(2020, 1, 2)], np.array([2.0]))
        b2 = PriceSeries("B", [dt.date(2020, 1, 1)], np.array([3.0]))
        merged = merge_price_series([[b1], [a, b2]])
        assert merged[0] is a
        assert merged[1].dates == [dt.date(2020, 1, 1), dt.date(2020, 1, 2)]
        assert list(merged[1].prices) == [3.0, 2.0]


class TestByteOrderMark:
    def test_prices_header_after_a_bom(self):
        (series,) = load_price_series(io.StringIO("\ufeffdate,asset,price\n2020-01-01,A,1.5\n"))
        assert series.asset_id == "A"
        assert list(series.prices) == [1.5]

    def test_values_header_after_a_bom(self):
        days, values = load_value_series(io.StringIO("\ufeffdate,price\n2020-01-01,-2\n"))
        assert days == [dt.date(2020, 1, 1)]
        assert list(values) == [-2.0]


@pytest.mark.parametrize("tau", [0, -1])
def test_non_positive_tau_is_a_data_error(tau):
    series = PriceSeries("A", [dt.date(2020, 1, 1), dt.date(2020, 1, 2)], np.array([1.0, 2.0]))
    with pytest.raises(DataError, match=f"tau must be a positive integer, got {tau}"):
        compute_returns([series], tau)
