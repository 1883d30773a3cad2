import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity.errors import DataError
from collectivity.marketdata import (
    ColumnSchema,
    PriceSeries,
    ReturnPanel,
    align_calendars,
    compute_returns,
    load_price_series,
    load_value_series,
    merge_price_series,
    shift_returns,
)
from collectivity.synthetic import business_dates


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text.strip() + "\n")


class TestLoadPriceSeries:
    def test_three_rows_single_asset(self):
        series = load_price_series(csv_stream(
            """
            date,asset,price
            2020-01-01,A,10.0
            2020-01-02,A,10.5
            2020-01-03,A,10.2
            """
        ))
        assert len(series) == 1
        assert series[0].asset_id == "A"
        assert len(series[0]) == 3
        assert series[0].dates[0] == dt.date(2020, 1, 1)

    def test_zero_price_names_the_row(self):
        with pytest.raises(DataError, match="line 3"):
            load_price_series(csv_stream(
                """
                date,asset,price
                2020-01-01,A,10.0
                2020-01-02,A,0
                """
            ))

    def test_negative_price_rejected(self):
        with pytest.raises(DataError, match="non-positive"):
            load_price_series(csv_stream("date,asset,price\n2020-01-01,A,-3.0"))

    def test_unparseable_date_names_the_row(self):
        with pytest.raises(DataError, match="line 2"):
            load_price_series(csv_stream("date,asset,price\nnot-a-date,A,1.0"))

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf"])
    def test_non_finite_price_names_the_row(self, price):
        with pytest.raises(DataError, match="line 3: non-finite price"):
            load_price_series(csv_stream(f"date,asset,price\n2020-01-01,A,1.0\n2020-01-02,A,{price}"))

    def test_empty_input_is_an_error(self):
        with pytest.raises(DataError, match="no price records"):
            load_price_series(csv_stream("date,asset,price"))
        with pytest.raises(DataError, match="header"):
            load_price_series(io.StringIO(""))

    def test_duplicate_asset_date_is_an_error(self):
        with pytest.raises(DataError, match="duplicate"):
            load_price_series(csv_stream(
                """
                date,asset,price
                2020-01-01,A,10.0
                2020-01-01,A,10.1
                """
            ))

    def test_unsorted_input_comes_out_sorted(self):
        series = load_price_series(csv_stream(
            """
            date,asset,price
            2020-01-03,A,3
            2020-01-01,A,1
            2020-01-02,A,2
            """
        ))
        assert [d.day for d in series[0].dates] == [1, 2, 3]
        assert list(series[0].prices) == [1.0, 2.0, 3.0]

    def test_two_files_interleaved_against_sort_and_group_oracle(self):
        # Oracle: explicitly group raw rows by asset, then sort by date.
        rows_one = [("2020-01-02", "A", 2.0), ("2020-01-01", "B", 10.0), ("2020-01-01", "A", 1.0)]
        rows_two = [("2020-01-03", "B", 30.0), ("2020-01-02", "B", 20.0), ("2020-01-03", "A", 3.0)]
        grouped: dict[str, list[tuple[str, float]]] = {}
        for day, asset, price in rows_one + rows_two:
            grouped.setdefault(asset, []).append((day, price))
        oracle = {
            asset: sorted(entries) for asset, entries in grouped.items()
        }

        def render(rows):
            body = "\n".join(f"{d},{a},{p}" for d, a, p in rows)
            return csv_stream("date,asset,price\n" + body)

        merged = merge_price_series(
            [load_price_series(render(rows_one)), load_price_series(render(rows_two))]
        )
        assert [s.asset_id for s in merged] == sorted(oracle)
        for s in merged:
            assert [d.isoformat() for d in s.dates] == [d for d, _ in oracle[s.asset_id]]
            assert list(s.prices) == [p for _, p in oracle[s.asset_id]]

    def test_custom_schema_and_delimiter(self):
        series = load_price_series(
            csv_stream("day;ticker;close\n2020-01-01;X;5.0"),
            ColumnSchema(date="day", asset="ticker", price="close", delimiter=";"),
        )
        assert series[0].asset_id == "X"


class TestComputeReturns:
    def make(self, prices, start=dt.date(2020, 1, 1)):
        days = [start + dt.timedelta(days=i) for i in range(len(prices))]
        return PriceSeries("A", days, np.asarray(prices, dtype=float))

    def test_exponential_prices_give_unit_returns(self):
        out = compute_returns([self.make([1.0, math.e, math.e**2])], tau=1)[0]
        assert np.allclose(out.values, [1.0, 1.0])
        assert len(out.dates) == 2

    def test_constant_prices_give_zero_returns(self):
        out = compute_returns([self.make([5.0, 5.0, 5.0, 5.0])], tau=1)[0]
        assert np.allclose(out.values, [0.0, 0.0, 0.0])

    def test_values_match_independent_logs(self):
        out = compute_returns([self.make([100.0, 101.0, 99.0])], tau=1)[0]
        assert out.values == pytest.approx([math.log(1.01), math.log(99.0 / 101.0)], abs=1e-15)

    def test_short_series_error_names_the_asset(self):
        with pytest.raises(DataError, match="A"):
            compute_returns([self.make([1.0, 2.0])], tau=2)

    def test_return_labelled_by_window_start(self):
        out = compute_returns([self.make([1.0, 2.0, 3.0])], tau=2)[0]
        assert out.dates == [dt.date(2020, 1, 1)]
        assert out.values == pytest.approx([math.log(3.0)])

    @given(
        steps=st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=40),
        tau=st.integers(1, 3),
    )
    def test_cumulative_returns_reconstruct_price_ratios(self, steps, tau):
        prices = 50.0 * np.exp(np.cumsum(steps))
        if len(prices) <= tau:
            return
        series = self.make(list(prices))
        out = compute_returns([series], tau=tau)[0]
        # Invariant: exponentiating cumulated tau-strided returns recovers price ratios.
        strided = out.values[::tau]
        k = len(strided)
        reconstructed = prices[0] * np.exp(np.cumsum(strided))
        expected = prices[tau : (k + 1) * tau : tau]
        assert np.allclose(reconstructed, expected, rtol=1e-12)


class TestAlignCalendars:
    def series(self, asset, days, values):
        return compute_returns(
            [PriceSeries(asset, days, np.exp(np.concatenate([[0.0], np.cumsum(values)])))],
            tau=1,
        )[0]

    def test_identical_dates_unchanged(self, start_date):
        days = business_dates(start_date, 6)
        a = self.series("A", days, np.arange(5) * 0.01)
        b = self.series("B", days, np.arange(5) * -0.01)
        panel = align_calendars([a, b])
        assert panel.dates == a.dates
        assert np.allclose(panel.returns[0], a.values)
        assert np.allclose(panel.returns[1], b.values)

    def test_partial_overlap_intersects(self):
        d = [dt.date(2020, 1, i) for i in range(1, 6)]
        a = self.series("A", [d[0], d[1], d[2], d[3]], [0.1, 0.2, 0.3])
        b = self.series("B", [d[1], d[2], d[3], d[4]], [0.1, 0.2, 0.3])
        panel = align_calendars([a, b])
        assert panel.dates == sorted(set(a.dates) & set(b.dates))

    def test_holiday_removed_from_some_assets_against_intersection_oracle(self, start_date):
        days = business_dates(start_date, 31)
        holiday = days[10]
        rng = np.random.default_rng(0)
        series = []
        for i in range(30):
            own = [d for d in days if not (i < 5 and d == holiday)]
            series.append(self.series(f"A{i:02d}", own, rng.normal(0, 0.01, len(own) - 1)))
        panel = align_calendars(series)
        oracle_axis = set(series[0].dates)
        for s in series[1:]:
            oracle_axis &= set(s.dates)
        assert panel.dates == sorted(oracle_axis)
        assert holiday not in panel.dates
        assert panel.n_assets == 30

    def test_axis_is_subset_of_every_input(self, start_date):
        days = business_dates(start_date, 20)
        rng = np.random.default_rng(1)
        series = []
        for i in range(4):
            drop = set(rng.choice(len(days), size=i, replace=False).tolist())
            own = [d for j, d in enumerate(days) if j not in drop]
            series.append(self.series(f"A{i}", own, rng.normal(0, 0.01, len(own) - 1)))
        panel = align_calendars(series)
        for s in series:
            assert set(panel.dates) <= set(s.dates)

    def test_empty_intersection_is_an_error(self):
        a = self.series("A", [dt.date(2020, 1, 1), dt.date(2020, 1, 2)], [0.1])
        b = self.series("B", [dt.date(2020, 2, 1), dt.date(2020, 2, 2)], [0.1])
        with pytest.raises(DataError, match="empty intersection"):
            align_calendars([a, b])

    def test_single_asset_is_an_error(self):
        a = self.series("A", [dt.date(2020, 1, 1), dt.date(2020, 1, 2)], [0.1])
        with pytest.raises(DataError, match="at least 2"):
            align_calendars([a])

    def test_low_coverage_asset_dropped_with_warning(self, start_date):
        days = business_dates(start_date, 40)
        rng = np.random.default_rng(2)
        full = [
            self.series(f"A{i}", days, rng.normal(0, 0.01, len(days) - 1)) for i in range(3)
        ]
        short = self.series("S", days[:8], rng.normal(0, 0.01, 7))
        with pytest.warns(UserWarning, match="dropping S"):
            panel = align_calendars(full + [short], min_coverage=0.5)
        assert "S" not in panel.assets
        # With the sparse asset gone, the full calendar survives.
        assert panel.dates == full[0].dates


class TestShiftReturns:
    def panel(self, start_date):
        days = business_dates(start_date, 8)
        values = np.arange(16, dtype=float).reshape(2, 8)
        return ReturnPanel(["A", "B"], days, values, 1)

    def test_zero_offset_is_identity(self, start_date):
        panel = self.panel(start_date)
        out = shift_returns(panel, ["A"], 0)
        assert out.dates == panel.dates
        assert np.array_equal(out.returns, panel.returns)

    def test_shift_then_unshift_restores_overlap(self, start_date):
        panel = self.panel(start_date)
        out = shift_returns(shift_returns(panel, ["A"], 1), ["A"], -1)
        lo = panel.dates.index(out.dates[0])
        hi = lo + out.n_dates
        assert out.dates == panel.dates[lo:hi]
        assert np.array_equal(out.returns, panel.returns[:, lo:hi])

    @given(k=st.integers(-5, 5))
    @settings(max_examples=11)
    def test_shift_inverse_property(self, k):
        days = business_dates(dt.date(2001, 1, 1), 12)
        rng = np.random.default_rng(abs(k) + 1)
        panel = ReturnPanel(["A", "B", "C"], days, rng.normal(size=(3, 12)), 1)
        out = shift_returns(shift_returns(panel, ["B"], k), ["B"], -k)
        lo = panel.dates.index(out.dates[0])
        assert np.array_equal(out.returns, panel.returns[:, lo : lo + out.n_dates])

    def test_lagged_copy_becomes_perfectly_correlated(self, start_date):
        # B(t) = A(t-1); shifting A by +1 pairs A(t-1) with B(t).
        rng = np.random.default_rng(7)
        n = 40
        a = rng.normal(size=n)
        b = np.concatenate([[rng.normal()], a[:-1]])
        days = business_dates(start_date, n)
        panel = ReturnPanel(["A", "B"], days, np.vstack([a, b]), 1)
        shifted = shift_returns(panel, ["A"], 1)
        corr = np.corrcoef(shifted.returns)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_oversized_offset_is_an_error(self, start_date):
        with pytest.raises(DataError, match="exceeds"):
            shift_returns(self.panel(start_date), ["A"], 8)

    def test_unknown_tag_is_an_error(self, start_date):
        with pytest.raises(DataError, match="unknown assets"):
            shift_returns(self.panel(start_date), ["Z"], 1)


class TestLoadValueSeries:
    def test_reads_sorted_series(self):
        days, values = load_value_series(
            csv_stream("date,price\n2020-01-02,2.0\n2020-01-01,1.0")
        )
        assert [d.day for d in days] == [1, 2]
        assert list(values) == [1.0, 2.0]

    def test_duplicate_date_is_an_error(self):
        with pytest.raises(DataError, match="duplicate date"):
            load_value_series(csv_stream("date,price\n2020-01-01,1\n2020-01-01,2"))

    def test_bad_value_names_the_line(self):
        with pytest.raises(DataError, match="line 3"):
            load_value_series(csv_stream("date,price\n2020-01-01,1\n2020-01-02,oops"))
