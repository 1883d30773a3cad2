import datetime as dt
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.stats import spearmanr

from collectivity import spectral
from collectivity.corr import (
    CorrelationMatrix,
    WindowInfo,
    correlation_matrix,
    rolling_correlation,
    rolling_windows,
)
from collectivity.errors import DataError, NumericError
from collectivity.resources import pool_workers
from collectivity.spectral import (
    collectivity_metrics,
    eigendecompose,
    ks_distance,
    poisson_cdf,
    spacing_statistics,
    spectrum_trace,
    symmetric_eigendecomposition,
    unfold_spacings,
    wigner_cdf,
    wigner_surmise,
)
from collectivity.synthetic import goe_matrix, one_factor_panel, random_panel


def as_corr(entries, start=dt.date(2020, 1, 1)) -> CorrelationMatrix:
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    assets = [f"A{i}" for i in range(n)]
    return CorrelationMatrix(assets, entries, WindowInfo(start, start + dt.timedelta(days=30), 30))


RANK_ONE = [[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]


class TestEigendecompose:
    def test_identity_has_unit_eigenvalues(self):
        spec = eigendecompose(as_corr(np.eye(3)))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_rank_one_matrix(self):
        # C = v v^T with v = (1, 1, -1): eigenvalues (3, 0, 0), top vector v/sqrt(3).
        spec = eigendecompose(as_corr(RANK_ONE))
        assert np.allclose(spec.eigenvalues, [3.0, 0.0, 0.0], atol=1e-12)
        v = spec.leading_vector
        expected = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        assert np.allclose(np.abs(v @ expected), 1.0, atol=1e-12)
        # Sign convention: the largest-magnitude component is positive.
        assert v[np.argmax(np.abs(v))] > 0

    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.3, 0.99])
    def test_two_by_two_closed_form(self, rho):
        spec = eigendecompose(as_corr([[1.0, rho], [rho, 1.0]]))
        assert np.allclose(spec.eigenvalues, sorted([1 + rho, 1 - rho], reverse=True), atol=1e-12)

    def test_rejects_asymmetric_input(self):
        entries = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DataError, match="not symmetric"):
            symmetric_eigendecomposition(entries)

    def test_rejects_non_finite_input(self):
        entries = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(DataError, match="non-finite"):
            symmetric_eigendecomposition(entries)

    @given(seed=st.integers(0, 40))
    @settings(max_examples=12)
    def test_contracts_on_random_correlation_matrices(self, seed):
        matrix = correlation_matrix(random_panel(8, 40, seed))
        spec = eigendecompose(matrix)
        n = matrix.n
        assert abs(spec.eigenvalues.sum() - n) < 1e-9
        assert np.all(spec.eigenvalues >= -1e-9)
        assert np.max(np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(n))) <= 1e-9
        residual = matrix.entries @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.linalg.norm(residual, axis=0).max() <= 1e-9 * n

    def test_permutation_invariant_eigenvalues(self, rng):
        matrix = correlation_matrix(random_panel(6, 50, 3))
        perm = rng.permutation(6)
        permuted = as_corr(matrix.entries[np.ix_(perm, perm)])
        a = eigendecompose(matrix).eigenvalues
        b = eigendecompose(permuted).eigenvalues
        assert np.allclose(a, b, atol=1e-10)

    def test_all_ones_matrix(self):
        n = 7
        spec = eigendecompose(as_corr(np.ones((n, n))))
        assert abs(spec.eigenvalues[0] - n) <= 1e-9
        assert np.all(spec.eigenvalues[1:] <= 1e-9)

    def test_deterministic_on_degenerate_spectrum(self):
        a = eigendecompose(as_corr(np.eye(4)))
        b = eigendecompose(as_corr(np.eye(4)))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_overflowing_input_is_a_numeric_error_not_nan_eigenpairs(self):
        # Finite and symmetric, but symmetrising overflows and LAPACK returns NaN.
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            symmetric_eigendecomposition([[1e308, 1e308], [1e308, 1e308]])


def sorted_key_oracle(matrix):
    """The tie-break rule as a Python sort: descending eigenvalue, then the
    lexicographically smallest sign-fixed eigenvector."""
    values, vectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
    cols = np.arange(vectors.shape[1])
    flip = vectors[np.argmax(np.abs(vectors), axis=0), cols] < 0
    vectors = vectors * np.where(flip, -1.0, 1.0)
    order = sorted(range(len(values)), key=lambda k: (-values[k], vectors[:, k].tolist()))
    return values[order], vectors[:, order]


class TestEigenpairOrder:
    @pytest.mark.parametrize(
        "matrix",
        [np.eye(4), np.kron(np.eye(3), np.ones((2, 2))), np.diag([2.0, 1.0, 1.0, 2.0, 0.5])],
        ids=["eye4", "kron-blocks", "diag-ties"],
    )
    def test_exact_ties_follow_the_sorted_key(self, matrix):
        values, vectors = symmetric_eigendecomposition(matrix)
        want_values, want_vectors = sorted_key_oracle(matrix)
        assert np.any(values[1:] == values[:-1])
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()

    def test_distinct_eigenvalues_follow_the_sorted_key(self):
        matrix = correlation_matrix(random_panel(12, 60, 21)).entries
        values, vectors = symmetric_eigendecomposition(matrix)
        want_values, want_vectors = sorted_key_oracle(matrix)
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()


class TestSpectrumTrace:
    def test_single_matrix_trace(self, rng):
        matrix = correlation_matrix(random_panel(4, 30, 6))
        trace = spectrum_trace([matrix])
        assert len(trace) == 1
        assert trace.window_ends[0] == matrix.window.end

    def test_constant_matrices_give_constant_trace(self):
        panel = random_panel(4, 40, 7)
        w1 = correlation_matrix(panel, (panel.dates[0], panel.dates[29]))
        w2 = CorrelationMatrix(
            w1.assets, w1.entries.copy(), WindowInfo(panel.dates[1], panel.dates[30], 30)
        )
        trace = spectrum_trace([w1, w2])
        assert np.allclose(trace.eigenvalues[0], trace.eigenvalues[1])

    def test_ramping_factor_gives_increasing_top_eigenvalue(self):
        n_dates = 1500
        ramp = np.linspace(0.1, 1.8, n_dates)
        panel = one_factor_panel(20, n_dates, 0.4, seed=8, loading_ramp=ramp)
        matrices = rolling_correlation(panel, 60, step=60)
        trace = spectrum_trace(matrices)
        tops = trace.eigenvalues[:, 0]
        rho, _ = spearmanr(np.arange(len(tops)), tops)
        assert rho > 0.9

    def test_empty_input_is_an_error(self):
        with pytest.raises(DataError, match="at least one"):
            spectrum_trace([])

    def test_empty_generator_is_an_error(self):
        with pytest.raises(DataError, match="at least one"):
            spectrum_trace(m for m in [])

    def test_errors_carry_window_identification(self):
        good = correlation_matrix(random_panel(3, 30, 9))
        bad = as_corr(np.full((3, 3), np.nan), start=dt.date(2021, 5, 1))
        with pytest.raises(DataError, match="2021-05-31"):
            spectrum_trace([good, bad])

    def test_trace_dates_must_increase(self):
        matrix = correlation_matrix(random_panel(3, 30, 9))
        with pytest.raises(DataError, match="strictly increasing"):
            spectrum_trace([matrix, matrix])


def windows_per_chunk(n: int) -> int:
    return max(1, spectral.CHUNK_BYTES // (n * n * 8))


def serial_trace(matrices):
    """Reference trace: eigendecompose one window at a time."""
    out = []
    for m in matrices:
        spectrum = eigendecompose(m)
        out.append((m.window.end, spectrum.eigenvalues, spectrum.leading_vector))
    return out


def assert_same_bits(trace, reference):
    assert len(trace) == len(reference)
    for i, (end, values, leading) in enumerate(reference):
        assert trace.window_ends[i] == end
        assert trace.eigenvalues[i].tobytes() == values.tobytes()
        assert trace.leading_vectors[i].tobytes() == leading.tobytes()


def faulty_windows(panel, window_length, bad=None, fail_at=None):
    """rolling_windows with window `bad` made asymmetric and a generator error at `fail_at`."""
    for i, m in enumerate(rolling_windows(panel, window_length)):
        if i == fail_at:
            raise DataError(f"generator fault at window {i}")
        if i == bad:
            m.entries[0, 1] += 1e-6
        yield m


class TestChunkedTrace:
    @pytest.mark.parametrize("n", [40, math.isqrt(spectral.CHUNK_BYTES // 8) + 1],
                             ids=["many-per-chunk", "one-per-chunk"])
    def test_trace_matches_the_serial_oracle_bit_for_bit(self, n):
        per_chunk = windows_per_chunk(n)
        count = 2 * per_chunk + 1 if per_chunk > 1 else 7
        assert count % per_chunk or per_chunk == 1
        panel = one_factor_panel(n, n + 10 + count - 1, 0.3, seed=n)
        trace = spectrum_trace(rolling_windows(panel, n + 10))
        assert_same_bits(trace, serial_trace(rolling_windows(panel, n + 10)))

    def test_windows_of_different_asset_counts_are_rejected(self):
        panels = [random_panel(n, 40, seed=n) for n in (3, 3, 5, 3)]
        matrices = [
            CorrelationMatrix(p.assets, correlation_matrix(p).entries,
                              WindowInfo(dt.date(2020, 1, 1), dt.date(2020, 2, 1 + i), 30))
            for i, p in enumerate(panels)
        ]
        with pytest.raises(DataError,
                           match="^window ending 2020-02-03: 5 assets, but the first window has 3$"):
            spectrum_trace(matrices)

    def test_trace_pulls_at_most_one_window_ahead(self, monkeypatch):
        n = 40
        per_chunk = windows_per_chunk(n)
        panel = one_factor_panel(n, 50 + 6 * per_chunk, 0.3, seed=3)
        done = [0]
        most_ahead = [0]
        lock = threading.Lock()
        kernel = spectral._decompose_windows

        def counted(stack, ends):
            result = kernel(stack, ends)
            with lock:
                done[0] += len(ends)
            return result

        def watched(matrices):
            for pulled, m in enumerate(matrices, start=1):
                with lock:
                    most_ahead[0] = max(most_ahead[0], pulled - done[0])
                yield m

        monkeypatch.setattr(spectral, "_decompose_windows", counted)
        trace = spectrum_trace(watched(rolling_windows(panel, 50)))
        assert len(trace) == done[0] == 6 * per_chunk + 1
        # Only the window just pulled is waiting to be decomposed.
        assert most_ahead[0] == 1

    @pytest.mark.parametrize("after", [1, 3, 30], ids=["same-chunk", "next-chunks", "much-later"])
    def test_first_bad_window_wins_over_a_later_generator_error(self, after):
        n = 100
        per_chunk = windows_per_chunk(n)
        assert per_chunk > 2  # so the bad window sits inside chunk 2, not at its start
        bad = per_chunk + 1
        panel = one_factor_panel(n, 120 + bad + after + 5, 0.3, seed=5)
        end = list(rolling_windows(panel, 120))[bad].window.end
        with pytest.raises(DataError, match=f"^window ending {end}: matrix is not symmetric"):
            spectrum_trace(faulty_windows(panel, 120, bad=bad, fail_at=bad + after))

    def test_generator_error_surfaces_after_good_windows(self):
        panel = one_factor_panel(40, 80, 0.3, seed=6)
        with pytest.raises(DataError, match="^generator fault at window 5$"):
            spectrum_trace(faulty_windows(panel, 50, fail_at=5))

    def test_pool_only_with_single_threaded_blas(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for openblas, omp, want in [(None, None, 1), ("1", None, 2), (None, "1", 2),
                                    ("4", "1", 1), ("1", "4", 2), ("2", None, 1)]:
            for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
                if value is None:
                    monkeypatch.delenv(var, raising=False)
                else:
                    monkeypatch.setenv(var, value)
            assert pool_workers() == want, (openblas, omp)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert pool_workers() == 1


class TestStackedDecomposition:
    def stack(self):
        tied = [np.eye(6), np.kron(np.eye(3), np.ones((2, 2))), np.diag([2.0, 1.0, 1.0, 2.0, 0.5, 1.0])]
        distinct = [correlation_matrix(random_panel(6, 40, seed)).entries for seed in (1, 2)]
        return np.stack(tied + distinct)

    def test_stack_equals_its_per_matrix_calls_bit_for_bit(self):
        stack = self.stack()
        values, vectors = symmetric_eigendecomposition(stack)
        assert values.shape == (5, 6) and vectors.shape == (5, 6, 6)
        for i, matrix in enumerate(stack):
            want_values, want_vectors = symmetric_eigendecomposition(matrix)
            assert values[i].tobytes() == want_values.tobytes()
            assert vectors[i].tobytes() == want_vectors.tobytes()

    def test_non_finite_matrix_in_a_stack_is_named(self):
        stack = self.stack()
        stack[3, 2, 2] = np.inf
        with pytest.raises(DataError, match="^matrix 3 of the stack: matrix has non-finite entries$"):
            symmetric_eigendecomposition(stack)

    def test_asymmetric_matrix_in_a_stack_is_named(self):
        stack = self.stack()
        stack[1, 0, 5] += 1e-9
        with pytest.raises(DataError, match="^matrix 1 of the stack: matrix is not symmetric"):
            symmetric_eigendecomposition(stack)

    def test_first_matrix_failing_any_check_is_named(self):
        stack = self.stack()
        stack[1, 0, 5] += 1e-9
        stack[3, 2, 2] = np.inf
        with pytest.raises(DataError, match="^matrix 1 of the stack: matrix is not symmetric"):
            symmetric_eigendecomposition(stack)

    def test_first_window_failing_any_check_is_named(self):
        stack = self.stack()
        stack[1, 0, 1] = stack[1, 1, 0] = 2.0   # an eigenvalue of -1
        stack[3, 2, 2] = np.nan
        ends = [dt.date(2020, 1, 1 + i) for i in range(len(stack))]
        with pytest.raises(NumericError, match="^window ending 2020-01-02: correlation matrix has "
                                               "eigenvalue -1.000e[+]00 below -1e-09$"):
            spectral._decompose_windows(stack, ends)

    def test_failing_window_stack_calls_eigh_once_on_finite_matrices(self, monkeypatch):
        stack = self.stack()
        stack[2, 0, 1] = np.nan
        stack[4, 1, 0] = np.inf
        stack[3, 0, 5] += 1e-6
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(bool(np.isfinite(a).all())) or eigh(a))
        ends = [dt.date(2020, 1, 1 + i) for i in range(len(stack))]
        with pytest.raises(DataError, match="^window ending 2020-01-03: matrix has non-finite entries$"):
            spectral._decompose_windows(stack, ends)
        assert calls == [True]

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2), (0, 0), (2, 0, 0)])
    def test_rejects_shapes_that_are_not_square_stacks(self, shape):
        with pytest.raises(DataError, match="square matrix"):
            symmetric_eigendecomposition(np.zeros(shape))


class TestCollectivityMetrics:
    def test_perfect_correlation(self):
        n = 6
        spec = eigendecompose(as_corr(np.ones((n, n))))
        metrics = collectivity_metrics(spec)
        assert metrics.gap_ratio == np.inf
        assert metrics.dominance == pytest.approx(1.0, abs=1e-12)
        assert metrics.participation_ratio == pytest.approx(n, abs=1e-6)

    def test_identity_dominance(self):
        n = 8
        metrics = collectivity_metrics(eigendecompose(as_corr(np.eye(n))))
        assert metrics.dominance == pytest.approx(1.0 / n)

    def test_one_factor_market_against_frozen_monte_carlo_oracle(self):
        # Oracle values frozen from an independent direct-numpy simulation
        # (10^4 windows, N=30, T=30, uniform loadings 0.8): the ensemble mean
        # dominance and participation ratio of the leading mode.
        oracle_dominance = 0.6491495606712474
        oracle_pr = 29.417959163220115
        dom, pr = [], []
        for seed in range(300):
            panel = one_factor_panel(30, 30, factor_share=0.64, seed=777 + seed)
            metrics = collectivity_metrics(eigendecompose(correlation_matrix(panel)))
            dom.append(metrics.dominance)
            pr.append(metrics.participation_ratio)
        assert np.mean(dom) == pytest.approx(oracle_dominance, rel=0.10)
        assert np.mean(pr) == pytest.approx(oracle_pr, rel=0.10)

    @pytest.mark.parametrize("n", [3, 100])
    def test_trace_metrics_equal_the_per_window_calls_bit_for_bit(self, n):
        panel = one_factor_panel(n, n + 20, 0.3, seed=n)
        matrices = list(rolling_windows(panel, n + 10, step=2))
        # A perfectly correlated last window: lambda_2 at numerical zero, so its gap is inf.
        matrices.append(as_corr(np.ones((n, n)), start=panel.dates[-1]))
        stacked = collectivity_metrics(spectrum_trace(matrices))
        per_window = [collectivity_metrics(eigendecompose(m)) for m in matrices]
        assert per_window[-1].gap_ratio == math.inf
        assert all(np.isfinite(m.gap_ratio) for m in per_window[:-1])
        for field in ("gap_ratio", "dominance", "participation_ratio"):
            want = [getattr(m, field) for m in per_window]
            assert all(type(w) is float for w in want)
            assert getattr(stacked, field).tobytes() == np.array(want).tobytes()

    def test_needs_two_eigenvalues(self):
        spec = eigendecompose(as_corr(np.eye(2)))
        spec.eigenvalues = spec.eigenvalues[:1]
        with pytest.raises(DataError):
            collectivity_metrics(spec)


class TestSpacingStatistics:
    def goe_eigenvalue_sets(self, count=6, n=80, seed0=0):
        return [np.linalg.eigvalsh(goe_matrix(n, seed0 + s)) for s in range(count)]

    def test_goe_matrices_are_closer_to_wigner(self):
        stats = spacing_statistics(self.goe_eigenvalue_sets(), drop_top=0)
        assert stats.ks_wigner < stats.ks_poisson

    def test_uncorrelated_levels_are_closer_to_poisson(self):
        rng = np.random.default_rng(4)
        sets = [np.sort(rng.uniform(0, 1, 120)) for _ in range(4)]
        stats = spacing_statistics(sets, drop_top=0)
        assert stats.ks_poisson < stats.ks_wigner

    def test_two_eigenvalues_only_is_an_error(self):
        with pytest.raises(DataError, match="pooled bulk"):
            spacing_statistics([np.array([0.5, 1.5])])

    def test_drop_top_reduces_each_set(self):
        sets = self.goe_eigenvalue_sets(count=5, n=30)
        kept_all = spacing_statistics(sets, drop_top=0)
        kept_bulk = spacing_statistics(sets, drop_top=2)
        assert len(kept_all.spacings) + kept_all.n_dropped == 5 * 29
        assert len(kept_bulk.spacings) + kept_bulk.n_dropped == 5 * 27

    @pytest.mark.parametrize(("option", "value"), [("degree", 0), ("degree", -1), ("bins", 0)])
    def test_rejects_degree_and_bins_below_one(self, option, value):
        with pytest.raises(DataError, match=f"{option} must be >= 1, got {value}"):
            spacing_statistics(self.goe_eigenvalue_sets(), **{option: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_set_is_named_by_index(self, bad):
        sets = self.goe_eigenvalue_sets()
        sets[2][7] = bad
        with pytest.raises(DataError, match="eigenvalue set 2 has a non-finite eigenvalue"):
            spacing_statistics(sets, drop_top=0)

    @pytest.mark.parametrize("shape", [(400,), (2, 3, 100)])
    def test_rejects_inputs_that_are_not_tables(self, shape):
        with pytest.raises(DataError, match=re.escape(
                f"expected a (sets, n) table of eigenvalues, got shape {shape}")):
            spacing_statistics(np.ones(shape))

    def test_rejects_ragged_sets(self):
        sets = self.goe_eigenvalue_sets(count=3)
        sets[1] = sets[1][:-1]
        with pytest.raises(DataError, match=r"^expected a \(sets, n\) table of eigenvalues: "):
            spacing_statistics(sets)

    def test_unfolded_spacings_have_unit_mean(self):
        spacings = unfold_spacings(np.linalg.eigvalsh(goe_matrix(200, 3)))
        assert np.mean(spacings) == pytest.approx(1.0, rel=0.05)

    def test_wigner_surmise_normalization(self):
        s = np.linspace(0, 8, 20001)
        mass = trapezoid(wigner_surmise(s), s)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert wigner_cdf(np.array([8.0]))[0] == pytest.approx(1.0, abs=1e-8)

    def test_ks_distance_of_exact_sample(self):
        u = (np.arange(1, 2001) - 0.5) / 2000
        sample = -np.log(1.0 - u)
        assert ks_distance(sample, poisson_cdf) < 1e-3


def reference_statistics(sets, drop_top, degree):
    """Spacings (mean 1), n_dropped and KS distances from one polyfit per set."""
    pooled, dropped = [], 0
    for ev in sets:
        bulk = np.sort(ev)[: len(ev) - drop_top]
        if len(bulk) < 2:
            continue
        if len(bulk) < degree + 2 or bulk[-1] == bulk[0]:
            dropped += len(bulk) - 1
            continue
        staircase = np.arange(1, len(bulk) + 1) - 0.5
        coeffs = np.polynomial.polynomial.polyfit(bulk, staircase, degree)
        spacings = np.diff(np.polynomial.polynomial.polyval(bulk, coeffs))
        dropped += len(bulk) - 1 - np.count_nonzero(spacings > 0)
        pooled.append(spacings[spacings > 0])
    spacings = np.concatenate(pooled)
    spacings = spacings / spacings.mean()
    return spacings, dropped, ks_distance(spacings, wigner_cdf), ks_distance(spacings, poisson_cdf)


class TestUnfoldSpacings:
    """The stacked unfolding agrees with one polyfit/polyval per set."""

    @staticmethod
    def assert_matches_reference(sets, drop_top=1, degree=5):
        stats = spacing_statistics(sets, drop_top=drop_top, degree=degree)
        spacings, dropped, ks_wigner, ks_poisson = reference_statistics(sets, drop_top, degree)
        assert stats.n_dropped == dropped
        np.testing.assert_allclose(stats.spacings, spacings, rtol=1e-8)
        assert stats.ks_wigner == pytest.approx(ks_wigner, abs=1e-12)
        assert stats.ks_poisson == pytest.approx(ks_poisson, abs=1e-12)
        return stats

    def test_goe_sets(self):
        sets = [np.linalg.eigvalsh(goe_matrix(80, s)) for s in range(6)]
        for drop_top in (0, 1, 3):
            self.assert_matches_reference(sets, drop_top=drop_top)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_rank_deficient_one_factor_windows(self, degree):
        # N = 100 assets over T = 30 days: each window has 71 eigenvalues at numerical zero.
        panel = one_factor_panel(100, 60, 0.3, seed=8)
        trace = spectrum_trace(rolling_windows(panel, 30))
        sets = list(trace.eigenvalues)
        assert all(np.sum(np.abs(ev) < 1e-9) >= 70 for ev in sets)
        self.assert_matches_reference(sets, degree=degree)

    def test_wide_spectrum_needs_the_column_scaling(self):
        # Eigenvalues spread over [0, 1000]: the norms of the raw powers
        # x**0 .. x**5 span sixteen orders of magnitude.
        sets = []
        for s in range(4):
            ev = np.linalg.eigvalsh(goe_matrix(60, s))
            sets.append(1000.0 * (ev - ev[0]) / (ev[-1] - ev[0]))
        self.assert_matches_reference(sets, drop_top=0)

    def test_zero_range_set_adds_no_spacings(self):
        rng = np.random.default_rng(6)
        sets = [rng.uniform(0.0, 1.0, 50), np.full(50, 0.7), rng.uniform(0.0, 1.0, 50)]
        stats = self.assert_matches_reference(sets, drop_top=0)
        assert stats.n_dropped >= 49
        with_flat = unfold_spacings(np.stack(sets))
        without = unfold_spacings(np.stack([sets[0], sets[2]]))
        assert with_flat.tobytes() == without.tobytes()
        assert unfold_spacings(sets[1]).size == 0

    def test_chunk_seams(self):
        n, degree = 30, 2
        # Three chunks, the last one partly filled.
        count = 2 * (spectral.CHUNK_BYTES // (n * (degree + 1) * 8)) + 3
        rng = np.random.default_rng(7)
        sets = [rng.uniform(0.0, 2.0, n + 1) for _ in range(count)]
        self.assert_matches_reference(sets, degree=degree)

    def test_rows_are_fitted_in_chunks_with_one_warning(self, monkeypatch):
        n, degree = 31, 5
        rows = spectral.CHUNK_BYTES // (n * (degree + 1) * 8)
        stack = np.random.default_rng(8).uniform(0.0, 2.0, (2 * rows + 3, n))
        # Three distinct values cannot pin down six coefficients: rank deficient
        # rows in the first and the last chunk.
        stack[[0, -1]] = np.resize([0.1, 0.5, 0.9], n)
        svd, sizes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: sizes.append(len(a)) or svd(a, **kw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spacings = unfold_spacings(stack, degree)
        assert sizes == [rows, rows, 3]
        assert [w.category for w in caught] == [spectral.RankWarning]
        monkeypatch.undo()
        with pytest.warns(spectral.RankWarning):
            by_row = np.concatenate([unfold_spacings(row, degree) for row in stack])
        np.testing.assert_allclose(spacings, by_row, rtol=1e-12)

    def test_one_set_is_a_stack_of_one(self):
        ev = np.linalg.eigvalsh(goe_matrix(50, 9))
        assert unfold_spacings(ev).tobytes() == unfold_spacings(ev[::-1][None]).tobytes()

    def test_stack_is_unfolded_row_by_row(self):
        stack = np.stack([np.linalg.eigvalsh(goe_matrix(40, s)) for s in range(3)])
        rows = np.concatenate([unfold_spacings(row) for row in stack])
        np.testing.assert_allclose(unfold_spacings(stack), rows, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(), (2, 3, 10)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(DataError, match="expected an eigenvalue set or a stack"):
            unfold_spacings(np.ones(shape))

    def test_too_few_values_for_the_degree(self):
        with pytest.raises(DataError, match="6 eigenvalues cannot support a degree-5 unfolding"):
            unfold_spacings(np.arange(6.0))

    def test_rank_deficient_bulk_warns_like_polyfit(self):
        # Three distinct values cannot pin down six coefficients.
        bulk = np.repeat([0.1, 0.5, 0.9], 10)
        sets = [np.append(bulk, 5.0)] + [np.linspace(0.0, 1.0, 31) ** p for p in (1, 2, 3)]
        with pytest.warns(spectral.RankWarning):
            stats = spacing_statistics(sets)
        with pytest.warns(spectral.RankWarning):
            spacings, dropped, _, _ = reference_statistics(sets, 1, 5)
        assert stats.n_dropped == dropped
        np.testing.assert_allclose(stats.spacings, spacings, rtol=1e-8)
