import datetime as dt
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from collectivity.spectral import (
    collectivity_metrics,
    eigendecompose,
    ks_distance,
    poisson_cdf,
    portfolio_variance,
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


class TestPortfolioVariance:
    def test_unit_vector_returns_unit_diagonal(self, rng):
        matrix = correlation_matrix(random_panel(5, 30, 4))
        p = np.zeros(5)
        p[2] = 1.0
        assert portfolio_variance(matrix, p) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_returns_its_eigenvalue(self, rng):
        matrix = correlation_matrix(random_panel(6, 45, 5))
        spec = eigendecompose(matrix)
        for k in range(6):
            got = portfolio_variance(matrix, spec.eigenvectors[:, k])
            assert got == pytest.approx(spec.eigenvalues[k], abs=1e-9)

    def test_uniform_weights_on_rank_one_matrix(self):
        # Sum of all entries is 1, so p = (1/3, 1/3, 1/3) gives 1/9.
        assert portfolio_variance(as_corr(RANK_ONE), np.full(3, 1 / 3)) == pytest.approx(1 / 9)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(DataError, match="length"):
            portfolio_variance(as_corr(np.eye(3)), [1.0, 0.0])


class TestSpectrumTrace:
    def test_single_matrix_trace(self, rng):
        matrix = correlation_matrix(random_panel(4, 30, 6))
        trace = spectrum_trace([matrix])
        assert len(trace) == 1
        assert trace.snapshots[0].window_end == matrix.window.end

    def test_constant_matrices_give_constant_trace(self):
        panel = random_panel(4, 40, 7)
        w1 = correlation_matrix(panel, (panel.dates[0], panel.dates[29]))
        w2 = CorrelationMatrix(
            w1.assets, w1.entries.copy(), WindowInfo(panel.dates[1], panel.dates[30], 30)
        )
        trace = spectrum_trace([w1, w2])
        assert np.allclose(trace.snapshots[0].eigenvalues, trace.snapshots[1].eigenvalues)

    def test_ramping_factor_gives_increasing_top_eigenvalue(self):
        n_dates = 1500
        ramp = np.linspace(0.1, 1.8, n_dates)
        panel = one_factor_panel(20, n_dates, 0.4, seed=8, loading_ramp=ramp)
        matrices = rolling_correlation(panel, 60, step=60)
        trace = spectrum_trace(matrices)
        tops = [s.eigenvalues[0] for s in trace.snapshots]
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


POOL_WORKERS = 3  # more workers than the two cores of a small runner


@pytest.fixture(params=["inline", "pooled"])
def trace_mode(request, monkeypatch):
    """Run spectrum_trace in the calling thread, or on a pool of POOL_WORKERS threads.

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
    assert spectral._pool_workers() == (POOL_WORKERS if request.param == "pooled" else 1)
    return request.param


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
    for snap, (end, values, leading) in zip(trace.snapshots, reference):
        assert snap.window_end == end
        assert snap.eigenvalues.tobytes() == values.tobytes()
        assert snap.leading_vector.tobytes() == leading.tobytes()


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
    def test_trace_matches_the_serial_oracle_bit_for_bit(self, trace_mode, n):
        per_chunk = windows_per_chunk(n)
        count = 2 * per_chunk + 1 if per_chunk > 1 else 7
        assert count % per_chunk or per_chunk == 1
        panel = one_factor_panel(n, n + 10 + count - 1, 0.3, seed=n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            trace = spectrum_trace(rolling_windows(panel, n + 10))
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(trace, serial_trace(rolling_windows(panel, n + 10)))

    def test_windows_of_different_sizes_are_not_stacked_together(self, trace_mode):
        panels = [random_panel(n, 40, seed=n) for n in (3, 3, 5, 3)]
        matrices = [
            CorrelationMatrix(p.assets, correlation_matrix(p).entries,
                              WindowInfo(dt.date(2020, 1, 1), dt.date(2020, 2, 1 + i), 30))
            for i, p in enumerate(panels)
        ]
        assert_same_bits(spectrum_trace(matrices), serial_trace(matrices))

    def test_pool_holds_at_most_one_chunk_per_worker(self, trace_mode, monkeypatch):
        n = 40
        per_chunk = windows_per_chunk(n)
        panel = one_factor_panel(n, 50 + 6 * per_chunk, 0.3, seed=3)
        done = [0]
        lock = threading.Lock()
        kernel = spectral._chunk_snapshots

        def counted(chunk):
            snapshots = kernel(chunk)
            with lock:
                done[0] += len(chunk)
            return snapshots

        def watched(matrices):
            for pulled, m in enumerate(matrices, start=1):
                with lock:
                    ahead = pulled - done[0]
                # the chunks in flight plus the one being filled
                assert ahead <= (spectral._pool_workers() + 1) * per_chunk
                yield m

        monkeypatch.setattr(spectral, "_chunk_snapshots", counted)
        trace = spectrum_trace(watched(rolling_windows(panel, 50)))
        assert len(trace) == 6 * per_chunk + 1

    @pytest.mark.parametrize("after", [1, 3, 30], ids=["same-chunk", "next-chunks", "much-later"])
    def test_first_bad_window_wins_over_a_later_generator_error(self, trace_mode, after):
        n = 100
        per_chunk = windows_per_chunk(n)
        assert per_chunk > 2  # so the bad window sits inside chunk 2, not at its start
        bad = per_chunk + 1
        panel = one_factor_panel(n, 120 + bad + after + 5, 0.3, seed=5)
        end = list(rolling_windows(panel, 120))[bad].window.end
        with pytest.raises(DataError, match=f"^window ending {end}: matrix is not symmetric"):
            spectrum_trace(faulty_windows(panel, 120, bad=bad, fail_at=bad + after))

    def test_generator_error_surfaces_after_good_windows(self, trace_mode):
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
            assert spectral._pool_workers() == want, (openblas, omp)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert spectral._pool_workers() == 1


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

    def test_unfolded_spacings_have_unit_mean(self):
        spacings = unfold_spacings(np.linalg.eigvalsh(goe_matrix(200, 3)))
        assert np.mean(spacings) == pytest.approx(1.0, rel=0.05)

    def test_wigner_surmise_normalization(self):
        s = np.linspace(0, 8, 20001)
        mass = np.trapezoid(wigner_surmise(s), s)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert wigner_cdf(np.array([8.0]))[0] == pytest.approx(1.0, abs=1e-8)

    def test_ks_distance_of_exact_sample(self):
        u = (np.arange(1, 2001) - 0.5) / 2000
        sample = -np.log(1.0 - u)
        assert ks_distance(sample, poisson_cdf) < 1e-3
