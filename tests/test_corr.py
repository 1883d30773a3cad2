import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity.corr import (
    correlation_matrix,
    merge_panels,
    rolling_correlation,
    rolling_windows,
)
from collectivity.errors import DataError
from collectivity.marketdata import ReturnPanel
from collectivity.synthetic import business_dates, lagged_copy_markets, random_panel


def panel_from_rows(rows, start=dt.date(2020, 1, 1), lag=1, prefix="A"):
    rows = np.asarray(rows, dtype=float)
    days = business_dates(start, rows.shape[1])
    assets = [f"{prefix}{i}" for i in range(rows.shape[0])]
    return ReturnPanel(assets, days, rows, lag)


def brute_force_correlation(rows):
    """Oracle: direct loops over the definition with population averages."""
    rows = np.asarray(rows, dtype=float)
    n, t = rows.shape
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            gi, gj = rows[i], rows[j]
            cov = np.mean(gi * gj) - np.mean(gi) * np.mean(gj)
            si = np.sqrt(np.mean(gi * gi) - np.mean(gi) ** 2)
            sj = np.sqrt(np.mean(gj * gj) - np.mean(gj) ** 2)
            out[i, j] = cov / (si * sj)
    return out


class TestCorrelationMatrix:
    def test_identical_series_fully_correlated(self):
        g = [0.1, -0.2, 0.05, 0.3]
        matrix = correlation_matrix(panel_from_rows([g, g]))
        assert np.allclose(matrix.entries, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_mirrored_series_anticorrelated(self):
        g = np.array([0.1, -0.2, 0.05, 0.3])
        matrix = correlation_matrix(panel_from_rows([g, -g]))
        assert np.allclose(matrix.entries, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_hand_computed_three_by_three(self):
        rows = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]
        expected = [[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        matrix = correlation_matrix(panel_from_rows(rows))
        assert np.allclose(matrix.entries, expected, atol=1e-12)
        assert np.allclose(brute_force_correlation(rows), expected, atol=1e-12)

    def test_matches_brute_force_oracle_on_random_panel(self, rng):
        rows = rng.normal(size=(5, 17))
        matrix = correlation_matrix(panel_from_rows(rows))
        assert np.allclose(matrix.entries, brute_force_correlation(rows), atol=1e-12)

    # 0.1 leaves rounding residue after its mean is subtracted; 0.5 does not.
    @pytest.mark.parametrize("value", [0.5, 0.1])
    def test_zero_volatility_error_names_asset_and_window(self, value):
        rows = [[value, value, value], [0.1, 0.2, 0.3]]
        with pytest.raises(DataError, match="A0") as err:
            correlation_matrix(panel_from_rows(rows))
        assert "2020-01-01" in str(err.value)

    def test_overflowing_window_names_asset_and_window(self, rng):
        # Correlation is scale-invariant, but squares of returns near 1e160
        # overflow; RuntimeWarnings are errors in this suite.
        rows = rng.normal(size=(3, 40)) * 1e160
        panel = panel_from_rows(rows)
        want = (f"returns of A0 overflow in window [{panel.dates[0]}, {panel.dates[-1]}]: "
                "centred sum of squares is not finite")
        with pytest.raises(DataError) as err:
            correlation_matrix(panel)
        assert str(err.value) == want

    def test_window_metadata(self):
        panel = panel_from_rows(np.random.default_rng(0).normal(size=(2, 10)))
        matrix = correlation_matrix(panel, (panel.dates[2], panel.dates[6]))
        assert matrix.window.start == panel.dates[2]
        assert matrix.window.end == panel.dates[6]
        assert matrix.window.length == 5

    def test_too_short_window_is_an_error(self):
        panel = panel_from_rows(np.random.default_rng(0).normal(size=(2, 10)))
        with pytest.raises(DataError, match="too short"):
            correlation_matrix(panel, (panel.dates[3], panel.dates[3]))

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15)
    def test_trace_is_exactly_n(self, seed):
        panel = random_panel(6, 25, seed)
        matrix = correlation_matrix(panel)
        assert np.trace(matrix.entries) == 6.0
        assert np.array_equal(matrix.entries, matrix.entries.T)
        assert np.all(np.abs(matrix.entries) <= 1.0 + 1e-12)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15)
    def test_scale_invariance_of_returns(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(4, 30))
        scales = rng.uniform(0.1, 10.0, size=4)
        base = correlation_matrix(panel_from_rows(rows))
        scaled = correlation_matrix(panel_from_rows(rows * scales[:, None]))
        assert np.allclose(base.entries, scaled.entries, atol=1e-12)

    def test_permutation_consistency(self, rng):
        rows = rng.normal(size=(5, 40))
        perm = [3, 0, 4, 1, 2]
        base = correlation_matrix(panel_from_rows(rows))
        permuted = correlation_matrix(panel_from_rows(rows[perm]))
        assert np.allclose(permuted.entries, base.entries[np.ix_(perm, perm)], atol=1e-14)


class TestRollingCorrelation:
    def test_single_window(self, rng):
        panel = panel_from_rows(rng.normal(size=(3, 30)))
        out = rolling_correlation(panel, 30)
        assert len(out) == 1

    def test_window_count(self, rng):
        panel = panel_from_rows(rng.normal(size=(3, 32)))
        out = rolling_correlation(panel, 30, step=1)
        assert len(out) == 3
        assert [m.window.end for m in out] == panel.dates[29:32]

    def test_tiny_window_is_an_error(self, rng):
        panel = panel_from_rows(rng.normal(size=(3, 30)))
        with pytest.raises(DataError, match=">= 2"):
            rolling_correlation(panel, 1)

    def test_stationary_panel_estimates_target_correlation(self):
        # Non-overlapping windows of a known 2-asset process; the mean
        # estimate must sit within 3 standard errors of the target.
        rho = 0.6
        window, n_windows = 30, 60
        rng = np.random.default_rng(99)
        z1 = rng.standard_normal(window * n_windows)
        z2 = rng.standard_normal(window * n_windows)
        rows = np.vstack([z1, rho * z1 + np.sqrt(1 - rho**2) * z2])
        panel = panel_from_rows(rows)
        estimates = [
            m.entries[0, 1] for m in rolling_correlation(panel, window, step=window)
        ]
        mean = np.mean(estimates)
        stderr = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(mean - rho) < 3 * stderr


class TestRollingWindows:
    def test_stream_equals_the_list_bitwise(self, rng):
        panel = panel_from_rows(rng.normal(size=(6, 75)))
        streamed = list(rolling_windows(panel, 20, step=3))
        held = rolling_correlation(panel, 20, step=3)
        assert len(streamed) == len(held) == 19
        for a, b in zip(streamed, held):
            single = correlation_matrix(panel, (a.window.start, a.window.end))
            assert a.assets == b.assets == single.assets
            assert a.window == b.window == single.window
            assert a.block_split is None and b.block_split is None
            assert a.entries.tobytes() == b.entries.tobytes() == single.entries.tobytes()

    @pytest.mark.parametrize(
        "window_length, step, n_dates, message",
        [(1, 1, 30, "window_length must be >= 2"),
         (10, 0, 30, "step must be >= 1"),
         (31, 1, 30, "shorter than window 31")],
    )
    def test_bad_arguments_raise_before_the_first_next(self, rng, window_length, step, n_dates,
                                                       message):
        panel = panel_from_rows(rng.normal(size=(3, n_dates)))
        with pytest.raises(DataError, match=message):
            rolling_windows(panel, window_length, step)


class TestGlobalCorrelation:
    def test_white_noise_markets_have_small_cross_entry(self):
        t = 200
        for seed in (1, 2, 3, 4, 5):
            a = random_panel(1, t, seed)
            b = random_panel(1, t, 1000 + seed)
            b.assets[0] = "B00"
            matrix = correlation_matrix(merge_panels(a, b, 0), block_split=a.n_assets)
            assert abs(matrix.entries[0, 1]) < 3.0 / np.sqrt(t)

    def test_lagged_copy_market_merges_under_shift(self):
        a, b = lagged_copy_markets(3, 80, noise_share=0.0, seed=11)
        matrix = correlation_matrix(merge_panels(a, b, 1), block_split=a.n_assets)
        cross = matrix.entries[:3, 3:]
        assert np.allclose(np.diag(cross), 1.0, atol=1e-10)

    def test_block_split_records_market_sizes(self):
        a, b = lagged_copy_markets(4, 50, noise_share=0.2, seed=5)
        matrix = correlation_matrix(merge_panels(a, b, 1), block_split=a.n_assets)
        assert matrix.block_split == 4
        assert matrix.n == 8

    def test_diagonal_blocks_match_single_market_matrices(self):
        from collectivity.marketdata import shift_returns

        a, b = lagged_copy_markets(4, 70, noise_share=0.3, seed=21)
        matrix = correlation_matrix(merge_panels(a, b, 1), block_split=a.n_assets)

        merged = merge_panels(a, b)
        shifted = shift_returns(merged, a.assets, 1)
        idx_a = [shifted.assets.index(x) for x in a.assets]
        idx_b = [shifted.assets.index(x) for x in b.assets]
        single_a = correlation_matrix(
            ReturnPanel(a.assets, shifted.dates, shifted.returns[idx_a], 1)
        )
        single_b = correlation_matrix(
            ReturnPanel(b.assets, shifted.dates, shifted.returns[idx_b], 1)
        )
        assert np.allclose(matrix.entries[:4, :4], single_a.entries, atol=1e-14)
        assert np.allclose(matrix.entries[4:, 4:], single_b.entries, atol=1e-14)

    def test_duplicate_asset_ids_rejected(self):
        a = random_panel(2, 30, 1)
        b = random_panel(2, 30, 2)
        with pytest.raises(DataError, match="share asset ids"):
            merge_panels(a, b)
