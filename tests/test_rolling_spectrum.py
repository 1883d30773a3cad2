"""rolling_spectrum against the spectrum_trace(rolling_windows(...)) adapter it replaces."""

import math
import os
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity import spectral
from collectivity.corr import correlation_matrix, rolling_correlation, rolling_windows
from collectivity.errors import DataError, NumericError
from collectivity.marketdata import ReturnPanel
from collectivity.resources import pool_workers
from collectivity.spectral import rolling_spectrum, spectrum_trace
from collectivity.synthetic import one_factor_panel

POOL_WORKERS = 3  # more workers than the two cores of a small runner


@pytest.fixture(params=["inline", "pooled"])
def mode(request, monkeypatch):
    """Run in the calling thread, or on a pool of POOL_WORKERS threads.

    The pool is switched on the way a pinned BLAS switches it on; the CPU
    count is fixed so the pool is used on a one-CPU machine too.
    """
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if request.param == "pooled":
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(POOL_WORKERS)),
                            raising=False)
    else:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert pool_workers() == (POOL_WORKERS if request.param == "pooled" else 1)
    return request.param


def windows_per_chunk(n: int) -> int:
    return max(1, spectral.CHUNK_BYTES // (n * n * 8))


def one_per_chunk_n() -> int:
    return math.isqrt(spectral.CHUNK_BYTES // 8) + 1


def assert_same_bits(trace, reference):
    assert trace.window_ends == reference.window_ends
    assert trace.eigenvalues.shape == reference.eigenvalues.shape
    assert trace.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert trace.leading_vectors.tobytes() == reference.leading_vectors.tobytes()


def error_of(call):
    with pytest.raises((DataError, NumericError)) as info:
        call()
    return type(info.value), str(info.value)


def with_hole(panel, asset, start, length, value):
    """A copy of panel whose returns of one asset are `value` on `length` dates from `start`."""
    returns = panel.returns.copy()
    returns[asset, start : start + length] = value
    return ReturnPanel(panel.assets, panel.dates, returns, panel.lag_days)


class TestSameTraceAsTheAdapter:
    @pytest.mark.parametrize(("n", "window", "step", "windows"), [
        (40, 50, 1, 2 * windows_per_chunk(40) + 5),
        (one_per_chunk_n(), one_per_chunk_n() + 10, 1, 7),
        (40, 50, 3, 2 * windows_per_chunk(40) + 5),
        (40, 30, 1, windows_per_chunk(40) + 5),
    ], ids=["many-per-chunk", "one-per-chunk", "step-3", "T-below-N"])
    def test_bit_identical_to_spectrum_trace_of_rolling_windows(self, mode, n, window, step, windows):
        panel = one_factor_panel(n, window + (windows - 1) * step, 0.3, seed=n + step)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            trace = rolling_spectrum(panel, window, step)
        finally:
            sys.setswitchinterval(interval)
        assert len(trace) == windows
        assert_same_bits(trace, spectrum_trace(rolling_windows(panel, window, step)))

    def test_trace_holds_the_two_arrays_the_workers_filled(self, mode):
        panel = one_factor_panel(40, 50 + 2 * windows_per_chunk(40), 0.3, seed=2)
        trace = rolling_spectrum(panel, 50)
        values, leading = trace.eigenvalues, trace.leading_vectors
        assert len(trace.window_ends) == 2 * windows_per_chunk(40) + 1
        assert values.shape == leading.shape == (len(trace), 40)
        assert values.base is None and leading.base is None
        assert not np.shares_memory(values, leading)

    @pytest.mark.parametrize(("window", "step", "match"), [
        (1, 1, "^window_length must be >= 2, got 1$"),
        (5, 0, "^step must be >= 1, got 0$"),
        (21, 1, "^panel has 20 dates, shorter than window 21$"),
    ])
    def test_bad_arguments_fail_at_the_call_with_rolling_windows_messages(self, window, step, match):
        panel = one_factor_panel(4, 20, 0.3, seed=1)
        with pytest.raises(DataError, match=match):
            rolling_windows(panel, window, step)
        with pytest.raises(DataError, match=match):
            rolling_spectrum(panel, window, step)


    def test_panel_of_no_assets_fails_as_the_adapter_does(self):
        panel = one_factor_panel(3, 20, 0.3, seed=1)
        empty = ReturnPanel([], panel.dates, panel.returns[:0], panel.lag_days)
        want = error_of(lambda: spectrum_trace(rolling_windows(empty, 10)))
        assert want[1].startswith(f"window ending {panel.dates[9]}: expected a non-empty square matrix")
        assert error_of(lambda: rolling_spectrum(empty, 10)) == want


class TestErrorsInWindowOrder:
    N = 40
    WINDOW = 50

    def panel(self, windows):
        return one_factor_panel(self.N, self.WINDOW + windows - 1, 0.3, seed=4)

    # A constant of 0.1 leaves rounding residue after its mean is subtracted.
    @pytest.mark.parametrize("value", [0.0, 0.1])
    def test_zero_volatility_window_in_the_second_chunk(self, mode, value):
        per_chunk = windows_per_chunk(self.N)
        flat = per_chunk + 3
        panel = with_hole(self.panel(3 * per_chunk), 7, flat, self.WINDOW, value)
        start, end = panel.dates[flat], panel.dates[flat + self.WINDOW - 1]
        want = (DataError, f"zero volatility for {panel.assets[7]} in window "
                           f"[{start}, {end}]: correlation undefined")
        assert error_of(lambda: rolling_spectrum(panel, self.WINDOW)) == want
        assert error_of(lambda: spectrum_trace(rolling_windows(panel, self.WINDOW))) == want

    @pytest.mark.parametrize("where", ["earlier-chunk", "same-chunk", "later-chunk"])
    def test_first_failing_window_wins(self, mode, where):
        # A NaN return is a fault of every window holding it, as corr finds it.
        # The zero-volatility window sits inside chunk 2; the first window
        # holding the NaN sits in chunk 1, before it in chunk 2, or in chunk 3.
        per_chunk = windows_per_chunk(self.N)
        flat = per_chunk + 3
        first_bad = {"earlier-chunk": 2, "same-chunk": per_chunk + 1,
                     "later-chunk": 2 * per_chunk + 2}[where]
        panel = with_hole(self.panel(3 * per_chunk), 7, flat, self.WINDOW, 0.0)
        panel = with_hole(panel, 12, first_bad + self.WINDOW - 1, 1, np.nan)
        got = error_of(lambda: rolling_spectrum(panel, self.WINDOW))
        assert got == error_of(lambda: spectrum_trace(rolling_windows(panel, self.WINDOW)))
        if first_bad > flat:
            assert got[1].startswith(f"zero volatility for {panel.assets[7]} in window ")
        else:
            end = panel.dates[first_bad + self.WINDOW - 1]
            assert got == (DataError, f"non-finite return for {panel.assets[12]} in window "
                                      f"[{panel.dates[first_bad]}, {end}]")

    @pytest.mark.parametrize("where", ["earlier-chunk", "same-chunk", "later-chunk"])
    def test_overflowing_window_fails_in_window_order(self, mode, where):
        # A return of 1e300 overflows the centred sum of squares of every window
        # holding it, as a zero-volatility series fails every window it fills.
        per_chunk = windows_per_chunk(self.N)
        flat = per_chunk + 3
        first_bad = {"earlier-chunk": 2, "same-chunk": per_chunk + 1,
                     "later-chunk": 2 * per_chunk + 2}[where]
        panel = with_hole(self.panel(3 * per_chunk), 7, flat, self.WINDOW, 0.0)
        panel = with_hole(panel, 12, first_bad + self.WINDOW - 1, 1, 1e300)
        got = error_of(lambda: rolling_spectrum(panel, self.WINDOW))
        assert got == error_of(lambda: spectrum_trace(rolling_windows(panel, self.WINDOW)))
        if first_bad > flat:
            assert got[1].startswith(f"zero volatility for {panel.assets[7]} in window ")
        else:
            start, end = panel.dates[first_bad], panel.dates[first_bad + self.WINDOW - 1]
            assert got == (DataError, f"returns of {panel.assets[12]} overflow in window "
                                      f"[{start}, {end}]: centred sum of squares is not finite")


class TestNonFiniteReturns:
    N = 6
    WINDOW = 10

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["correlation_matrix", "rolling_correlation",
                                       "rolling_spectrum"])
    def test_a_data_error_naming_the_asset_and_the_first_window(self, mode, monkeypatch,
                                                                entry, value):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 3 * self.N * self.N * 8)
        # Date 14 is first held by rolling window 5 (dates 5 .. 14), in the second chunk of 3.
        panel = with_hole(one_factor_panel(self.N, 30, 0.3, seed=6), 2, 14, 1, value)
        call, start, end = {
            "correlation_matrix": (lambda: correlation_matrix(panel), 0, 29),
            "rolling_correlation": (lambda: rolling_correlation(panel, self.WINDOW), 5, 14),
            "rolling_spectrum": (lambda: rolling_spectrum(panel, self.WINDOW), 5, 14),
        }[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a RuntimeWarning would fail here, not pass
            with pytest.raises(DataError) as info:
                call()
        assert str(info.value) == (f"non-finite return for {panel.assets[2]} in window "
                                   f"[{panel.dates[start]}, {panel.dates[end]}]")


def outcome(call):
    """The trace's window ends, shape and bits, or the (type, message) of its error."""
    try:
        trace = call()
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)
    return (trace.window_ends, trace.eigenvalues.shape, trace.eigenvalues.tobytes(),
            trace.leading_vectors.tobytes())


RETURN_FAULTS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "overflow": 1e300}


class TestDifferential:
    @given(data=st.data())
    @settings(max_examples=150)
    def test_same_bits_or_same_error_as_spectrum_trace_of_rolling_windows(self, data):
        n = data.draw(st.integers(1, 8), label="assets")
        window = data.draw(st.integers(2, 12), label="window")   # T <= N included
        step = data.draw(st.integers(1, 3), label="step")
        dates = window + data.draw(st.integers(0, 12), label="dates past one window")
        panel = one_factor_panel(n, dates, 0.3, seed=data.draw(st.integers(0, 999), label="seed"))
        fault = data.draw(st.sampled_from(["none", "constant", *RETURN_FAULTS]), label="fault")
        if fault != "none":
            asset = data.draw(st.integers(0, n - 1), label="asset")
            start = data.draw(st.integers(0, dates - 1), label="date")
            if fault == "constant":
                length = data.draw(st.integers(1, dates - start), label="run")
                panel = with_hole(panel, asset, start, length, panel.returns[asset, start])
            else:
                panel = with_hole(panel, asset, start, 1, RETURN_FAULTS[fault])
        per_chunk = data.draw(st.integers(1, 4), label="windows per chunk")
        workers = data.draw(st.sampled_from([1, 2, 3]), label="workers")
        with mock.patch.object(spectral, "CHUNK_BYTES", per_chunk * n * n * 8), \
                mock.patch.object(spectral, "pool_workers", lambda: workers):
            got = outcome(lambda: rolling_spectrum(panel, window, step))
        assert got == outcome(lambda: spectrum_trace(rolling_windows(panel, window, step)))


class TestPool:
    def test_at_most_one_kernel_per_worker_runs_at_once(self, mode, monkeypatch):
        n = 40
        panel = one_factor_panel(n, 50 + 6 * windows_per_chunk(n), 0.3, seed=3)
        lock = threading.Lock()
        running, peak = [0], [0]
        kernel = spectral._rolling_chunk

        def counted(*args):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.002)
                kernel(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(spectral, "_rolling_chunk", counted)
        trace = rolling_spectrum(panel, 50)
        assert len(trace) == 6 * windows_per_chunk(n) + 1
        assert 1 <= peak[0] <= pool_workers()

    def test_ranges_not_yet_started_are_cancelled_after_an_error(self, mode, monkeypatch):
        n = one_per_chunk_n()
        chunks = 30
        panel = with_hole(one_factor_panel(n, n + 10 + chunks - 1, 0.3, seed=5), 0, 0, n + 10, 0.0)
        started = []
        kernel = spectral._rolling_chunk

        def slow(*args):
            started.append(args[-2])
            if args[-2]:
                time.sleep(0.02)
            kernel(*args)

        monkeypatch.setattr(spectral, "_rolling_chunk", slow)
        with pytest.raises(DataError, match="^zero volatility for "):
            rolling_spectrum(panel, n + 10)
        if mode == "inline":
            assert started == [0]
        else:
            assert 0 in started and len(started) <= chunks // 2
