"""Eigenspectra of correlation matrices, their time evolution, and bulk statistics.

A correlation matrix with one dominant collective mode shows a large
eigenvalue separated by a gap from a bulk of small ones; because the trace
is fixed at N, growth of the top eigenvalue must drain the rest. The
quantities reported here make that picture measurable:

* gap ratio       lambda_1 / lambda_2
* dominance       lambda_1 / N (share of total variance in the top mode)
* participation   PR = 1 / sum_i v_i^4 of the leading eigenvector,
                  ranging from 1 (single asset) to N (uniform weights)

Bulk eigenvalues are compared against random-matrix universality through
nearest-neighbor spacings, unfolded to unit mean density by a polynomial
fit of the cumulative spectral function, and scored by Kolmogorov-Smirnov
distance to the Wigner surmise P(s) = (pi s / 2) exp(-pi s^2 / 4) and to
the Poisson exponential exp(-s).
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import corr
from .corr import CorrelationMatrix
from .errors import DataError, NumericError
from .marketdata import ReturnPanel
from .resources import check_bytes, pool_map, pool_workers

SYMMETRY_TOL = 1e-12
RESIDUAL_TOL = 1e-9
MIN_BULK_COUNT = 100
# Bytes of entries per stacked call in rolling_spectrum and unfold_spacings.
CHUNK_BYTES = 512 * 1024
# np.polyfit's warning: np.exceptions.RankWarning from numpy 2.0, np.RankWarning before.
RankWarning = getattr(np.exceptions, "RankWarning", None) or np.RankWarning


@dataclass
class EigenSpectrum:
    """Descending eigenvalues with orthonormal eigenvectors (column k pairs with eigenvalue k)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def leading_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


@dataclass
class RollingSpectrumTrace:
    """Time-ordered spectra: row i of the two (windows, N) arrays belongs to window_ends[i]."""

    window_ends: list[dt.date]
    eigenvalues: np.ndarray
    leading_vectors: np.ndarray

    def __post_init__(self) -> None:
        for prev, cur in zip(self.window_ends, self.window_ends[1:]):
            if cur <= prev:
                raise DataError(f"trace window ends not strictly increasing at {cur}")

    def __len__(self) -> int:
        return len(self.window_ends)


@dataclass(frozen=True)
class CollectivityMetrics:
    gap_ratio: float | np.ndarray
    dominance: float | np.ndarray
    participation_ratio: float | np.ndarray


@dataclass
class SpacingStatistics:
    """Pooled unfolded nearest-neighbor spacings and their distance to reference laws."""

    spacings: np.ndarray
    bin_edges: np.ndarray
    densities: np.ndarray
    ks_wigner: float
    ks_poisson: float
    n_sets: int
    n_dropped: int
    n_rank_deficient: int     # sets whose unfolding fit was rank deficient


def wigner_surmise(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 0.5 * np.pi * s * np.exp(-0.25 * np.pi * s**2)


def wigner_cdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-0.25 * np.pi * s**2)


def poisson_cdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-s)


def _checked_eigenpairs(matrix: np.ndarray, semidefinite: bool, where: Callable[[int], str]):
    """Descending eigenvalues (k, N) and eigenvectors (k, N, N) of an (N, N) or (k, N, N) input.

    Every check runs on every matrix, in the order finite, symmetric,
    residual, orthonormal and, if semidefinite, smallest eigenvalue >= -1e-9.
    The first matrix in stack order that fails any check raises its first
    failed check, prefixed by where(i). A non-finite or asymmetric matrix is
    decomposed as the identity, so LAPACK never sees it.
    """
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2] or not matrix.shape[-1]:
        # Every matrix of a stack has the same shape, so the first is named.
        shape = matrix.shape[1:] if matrix.ndim == 3 else matrix.shape
        raise DataError(f"{where(0)}expected a non-empty square matrix or stack of them, got {shape}")
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    # Every (k, N, N) temporary is written into one of three buffers (work,
    # vectors, rows): a fresh large array per step costs page faults that
    # rival the arithmetic of the checks.
    transposed = stack.transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):   # inf - inf in a non-finite matrix
        work = np.subtract(stack, transposed)
        asym = np.max(np.abs(work, out=work), axis=(1, 2))
        sym = np.add(stack, transposed, out=work)
    sym *= 0.5
    # A non-finite entry makes its matrix's asymmetry NaN or infinite.
    symmetric = asym <= SYMMETRY_TOL
    if not symmetric.all():
        sym[~symmetric] = np.eye(stack.shape[-1])
    values, vectors = np.linalg.eigh(sym)
    # eigh's eigenvalues ascend: one reversed copy gives them descending, with
    # the eigenvectors as contiguous rows (rows[k, j] pairs with values[k, j]).
    values = values[:, ::-1].copy()
    rows = vectors.transpose(0, 2, 1)[:, ::-1].copy()
    # Convention: the largest-magnitude component of each eigenvector is positive.
    lead = np.take_along_axis(rows, np.argmax(np.abs(rows, out=vectors), axis=2)[..., None], axis=2)
    rows *= np.where(lead < 0, -1.0, 1.0)
    for i in np.flatnonzero(np.any(values[:, 1:] == values[:, :-1], axis=1)):
        # Key (-lambda, eigenvector components): lexsort's last row is the primary key.
        order = np.lexsort(np.vstack([rows[i].T[::-1], -values[i][None]]))
        values[i], rows[i] = values[i, order], rows[i, order]

    # The checks are written as `x <= tol` so that a NaN defect fails them.
    n = values.shape[1]
    # A backward-stable solver's residual scales with the matrix norm, so the
    # bound grows with max |lambda| once that exceeds N, which it never does
    # for a correlation matrix (its eigenvalues sum to N). np.maximum keeps a NaN.
    bound = RESIDUAL_TOL * np.maximum(n, np.max(np.abs(values), axis=1))
    residual = np.matmul(rows, sym, out=vectors)   # row j is (sym v_j)^T: sym is symmetric
    residual -= np.multiply(values[..., None], rows, out=work)  # sym is not needed again
    worst = np.max(np.sqrt(np.einsum("kij,kij->ki", residual, residual)), axis=1)
    gram = np.matmul(rows, rows.transpose(0, 2, 1), out=vectors)
    gram[:, np.arange(n), np.arange(n)] -= 1.0
    ortho = np.max(np.abs(gram, out=gram), axis=(1, 2))
    lowest = values[:, -1] if semidefinite else np.zeros(len(values))
    ok = np.array([finite, symmetric, worst <= bound, ortho <= RESIDUAL_TOL, lowest >= -RESIDUAL_TOL])
    if not ok.all():
        i = int(np.argmin(ok.all(axis=0)))
        error, text = [
            (DataError, "matrix has non-finite entries"),
            (DataError, f"matrix is not symmetric: max |M - M^T| = {asym[i]:.3e}"),
            (NumericError, f"eigenpair residual {worst[i]:.3e} exceeds {bound[i]:.3e}"),
            (NumericError, f"eigenvector orthonormality defect {ortho[i]:.3e}"),
            (NumericError, f"correlation matrix has eigenvalue {lowest[i]:.3e} below -{RESIDUAL_TOL}"),
        ][int(np.argmin(ok[:, i]))]
        raise error(where(i) + text)
    return values, rows.transpose(0, 2, 1)


def symmetric_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    matrix may also be a (k, N, N) stack. Then one LAPACK call covers the
    stack, the results are (k, N) eigenvalues and (k, N, N) eigenvectors,
    and every check below holds for each matrix on its own; an error names
    the first matrix in stack order that fails any check, and its first
    failed check. A 2-D input is a stack of one.

    The checks, in order: finite entries, asymmetry <= 1e-12, the residual
    ||M v - lambda v|| <= 1e-9 * max(N, max |lambda|) per eigenpair, and
    orthonormality within 1e-9. Exactly equal eigenvalues are ordered by the
    lexicographically smallest sign-fixed eigenvector, so the output is
    deterministic.
    """
    matrix = np.asarray(matrix, dtype=float)
    where = "matrix {} of the stack: " if matrix.ndim == 3 else ""
    values, vectors = _checked_eigenpairs(matrix, False, where.format)
    return (values, vectors) if matrix.ndim == 3 else (values[0], vectors[0])


def eigendecompose(matrix: CorrelationMatrix) -> EigenSpectrum:
    """Spectrum of a correlation matrix, enforcing positive semidefiniteness up to 1e-9."""
    values, vectors = _checked_eigenpairs(matrix.entries, True, lambda i: "")
    return EigenSpectrum(values[0], vectors[0])


def _decompose_windows(stack: np.ndarray, ends: list[dt.date]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (k, N) and leading eigenvectors (k, N) of a (k, N, N) stack of windows.

    One stacked decomposition covers the stack. An error names the first
    window in stack order, by its end date, that fails any check, and its
    first failed check, in the order finite, symmetric, residual,
    orthonormal, smallest eigenvalue >= -1e-9.
    """
    values, vectors = _checked_eigenpairs(stack, True, lambda i: f"window ending {ends[i]}: ")
    return values, vectors[:, :, 0]


def spectrum_trace(matrices: Iterable[CorrelationMatrix]) -> RollingSpectrumTrace:
    """Eigendecompose each window and keep eigenvalues plus the leading eigenvector.

    The serial reference for any iterable of matrices, one window at a time
    in the calling thread; the rolling windows of one panel go faster
    through rolling_spectrum, which gives the same bits and errors (but for
    one case its docstring names). matrices may be a generator such as
    corr.rolling_windows: a window is decomposed before the next is pulled
    and released once its rows are kept, so memory stays O(windows x N).
    An error names the first failing window and its first failed check, in
    the order of _decompose_windows. Every window must have the asset count
    of the first.
    """
    ends, values, leading = [], [], []
    for m in matrices:
        window_values, window_leading = _decompose_windows(m.entries[None], [m.window.end])
        if values and window_values.shape != values[0].shape:
            raise DataError(f"window ending {m.window.end}: {window_values.shape[1]} assets, "
                            f"but the first window has {values[0].shape[1]}")
        ends.append(m.window.end)
        values.append(window_values)
        # Copy the leading vector: a view would keep the window's N x N eigenvectors alive.
        leading.append(window_leading.copy())
    if not ends:
        raise DataError("spectrum_trace needs at least one matrix")
    return RollingSpectrumTrace(ends, np.concatenate(values), np.concatenate(leading))


def _rolling_chunk(
    panel: ReturnPanel, window_length: int, step: int, ends: list[dt.date],
    values: np.ndarray, leading: np.ndarray, first: int, last: int,
) -> None:
    """Correlate, then decompose windows first .. last - 1 into those rows of values and leading.

    corr raises the DataError of the first window in the range with a
    faulty series before any window of the range is decomposed.
    """
    entries = corr.rolling_correlation_stack(panel, window_length, step, first, last)
    values[first:last], leading[first:last] = _decompose_windows(entries, ends[first:last])


def rolling_spectrum(panel: ReturnPanel, window_length: int, step: int = 1) -> RollingSpectrumTrace:
    """Spectrum trace of the rolling windows of a panel, correlated and decomposed chunk by chunk.

    The same windows and bits as spectrum_trace(corr.rolling_windows(panel,
    window_length, step)), and its errors but for the case named below; its
    argument checks run here at the call.
    The windows are split into ranges of CHUNK_BYTES of entries (or one
    window). A worker builds its range's correlation stack straight from a
    view of the returns, decomposes it in one stacked call, and writes the
    eigenvalues and leading vectors into the trace's two (windows, N)
    arrays, allocated here. The ranges go through
    resources.pool_map: on a thread pool of the usable CPUs when BLAS is
    pinned to one thread (see resources.pool_workers), else in the calling
    thread. A range holds no memory until it runs, so memory stays
    O(workers x chunk + windows x N). The first error in window order is
    raised, and the ranges not yet started are cancelled. A range is
    correlated before it is decomposed, so a window corr rejects wins over
    a decomposition failure of an earlier window in its range, which
    spectrum_trace would raise; no finite window that corr accepts has been
    seen to fail the decomposition.
    """
    ends = corr.rolling_window_ends(panel, window_length, step)
    count, n = len(ends), panel.n_assets
    per_chunk = max(1, CHUNK_BYTES // max(1, n * n * 8))  # a panel of no assets fails in the kernel
    # Filled by the workers in place. Arrays made in a pool thread and kept
    # would pin pages of that thread's malloc arena, which the calling
    # thread's later work cannot reuse; such copies once raised the peak RSS
    # of a spectrum run followed by spacing-stats by several MB.
    values, leading = np.empty((count, n)), np.empty((count, n))
    starts = range(0, count, per_chunk)

    def run(first: int) -> None:
        _rolling_chunk(panel, window_length, step, ends, values, leading,
                       first, min(first + per_chunk, count))

    pool_map(run, starts, pool_workers())
    return RollingSpectrumTrace(ends, values, leading)


def collectivity_metrics(spectrum: EigenSpectrum | RollingSpectrumTrace) -> CollectivityMetrics:
    """Gap ratio, dominance and participation ratio of the leading mode.

    Floats for an EigenSpectrum; for a trace, arrays with one entry per window.
    """
    stacked = isinstance(spectrum, RollingSpectrumTrace)
    leading = spectrum.leading_vectors if stacked else spectrum.leading_vector
    n = spectrum.eigenvalues.shape[-1]
    if n < 2:
        raise DataError("collectivity metrics need at least 2 eigenvalues")
    top, second = spectrum.eigenvalues[..., 0], spectrum.eigenvalues[..., 1]
    # A second eigenvalue at numerical zero makes the gap the infinity sentinel.
    gap = np.divide(top, second, out=np.full(top.shape, math.inf), where=second > RESIDUAL_TOL)
    metrics = gap, top / n, 1.0 / np.sum(leading**4, axis=-1)
    return CollectivityMetrics(*metrics) if stacked else CollectivityMetrics(*map(float, metrics))


def unfold_spacings(eigenvalues: np.ndarray, degree: int = 5) -> np.ndarray:
    """Nearest-neighbor spacings after unfolding to unit mean density.

    The cumulative spectral function (staircase) is smoothed by a
    least-squares polynomial of the given degree; spacings are differences
    of the smoothed function at the sorted eigenvalues. Non-increasing
    sections of the fit yield non-positive spacings, which are discarded.

    eigenvalues may also be a (k, n) stack, one set per row; a 1-D input is
    a stack of one. The rows are fitted by stacked least-squares solves, in
    chunks of at most CHUNK_BYTES of Vandermonde entries (or one row), and
    their spacings returned row by row. A row of zero range adds none.
    The solve follows numpy's polynomial least-squares fit: Vandermonde
    columns scaled to unit norm, singular values <= n * eps * s_max counted
    as zero, and one RankWarning when any row's fit is rank deficient.
    """
    return _unfold(eigenvalues, degree)[0]


def _unfold(eigenvalues, degree):
    """unfold_spacings, and the number of rows whose fit was rank deficient.

    One chunk's (rows, n, degree + 1) Vandermonde stack is alive at a time."""
    stack = np.asarray(eigenvalues, dtype=float)
    if stack.ndim not in (1, 2):
        raise DataError(f"expected an eigenvalue set or a stack of them, got shape {stack.shape}")
    n = stack.shape[-1]
    if n < degree + 2:
        raise DataError(f"{n} eigenvalues cannot support a degree-{degree} unfolding")
    ev = np.sort(stack.reshape(-1, n), axis=1)
    ev = ev[ev[:, -1] - ev[:, 0] > 0]
    diffs = np.empty((len(ev), n - 1))
    staircase = np.arange(1, n + 1) - 0.5
    rows = max(1, CHUNK_BYTES // (n * (degree + 1) * 8))
    rank_deficient = 0
    for start in range(0, len(ev), rows):
        chunk = ev[start : start + rows]
        # (rows, n, degree + 1) Vandermonde stack, columns 1, x, ..., x**degree.
        vander = np.empty(chunk.shape + (degree + 1,))
        vander[..., 0] = 1.0
        vander[..., 1] = chunk
        for j in range(2, degree + 1):
            np.multiply(vander[..., j - 1], chunk, out=vander[..., j])
        scale = np.sqrt(np.einsum("kij,kij->kj", vander, vander))
        scale[scale == 0] = 1.0
        vander /= scale[:, None, :]
        u, s, vt = np.linalg.svd(vander, full_matrices=False)
        kept = s > n * np.finfo(float).eps * s[:, :1]
        rank_deficient += int(np.sum(~kept.all(axis=1)))
        projected = np.divide(staircase @ u, s, out=np.zeros_like(s), where=kept)
        coeffs = np.matmul(projected[:, None, :], vt)[:, 0] / scale
        smoothed = np.broadcast_to(coeffs[:, -1:], chunk.shape)
        for j in range(degree - 1, -1, -1):
            smoothed = coeffs[:, j : j + 1] + smoothed * chunk
        np.subtract(smoothed[:, 1:], smoothed[:, :-1], out=diffs[start : start + rows])
    if rank_deficient:
        warnings.warn("The fit may be poorly conditioned", RankWarning, stacklevel=3)
    return diffs[diffs > 0], rank_deficient


def ks_distance(sample: np.ndarray, cdf) -> float:
    """Supremum distance between the sample's empirical CDF and a reference CDF."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    if n == 0:
        raise DataError("KS distance of an empty sample")
    ref = cdf(s)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def check_spacing_bytes(bins: int, what: str) -> None:
    """Raise DataError if spacing_statistics' bins + 1 histogram edges exceed the array cap."""
    check_bytes(8 * (bins + 1), what)


def spacing_statistics(
    eigenvalues: np.ndarray,
    drop_top: int = 1,
    degree: int = 5,
    bins: int = 32,
) -> SpacingStatistics:
    """Pooled unfolded spacing histogram with KS distances to Wigner and Poisson laws.

    eigenvalues is a (sets, n) table, one eigenvalue set per row, for
    example one per window of a trace. The top drop_top eigenvalues of each
    set (the collective modes) are excluded before unfolding; each set is
    unfolded separately (one unfold_spacings call on the whole bulk) and
    the spacings are pooled in set order, then rescaled to mean 1.
    n_rank_deficient counts the sets whose unfolding fit was rank deficient, as
    RankWarnings also say. Bin edges over the array cap raise DataError first.
    """
    for name, value, least in (("drop_top", drop_top, 0), ("degree", degree, 1), ("bins", bins, 1)):
        if value < least:
            raise DataError(f"{name} must be >= {least}, got {value}")
    check_spacing_bytes(bins, f"bins {bins}")
    try:
        table = np.asarray(eigenvalues, dtype=float)
    except (TypeError, ValueError) as exc:   # ragged sets, or not a table at all
        raise DataError(f"expected a (sets, n) table of eigenvalues: {exc}") from None
    if table.ndim != 2:
        raise DataError(f"expected a (sets, n) table of eigenvalues, got shape {table.shape}")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise DataError(f"eigenvalue set {int(np.argmin(finite))} has a non-finite eigenvalue")
    sets, n = len(table), table.shape[1] - drop_top
    total = sets * n if n >= 2 else 0
    if total < MIN_BULK_COUNT:
        raise DataError(f"pooled bulk has {total} eigenvalues, need >= {MIN_BULK_COUNT}")

    if n >= degree + 2:
        spacings, rank_deficient = _unfold(np.sort(table, axis=1)[:, :n], degree)
    if n < degree + 2 or not len(spacings):
        raise DataError("no usable spacings after unfolding")
    spacings = spacings / spacings.mean()

    edges = np.linspace(0.0, float(spacings.max()), bins + 1)
    densities, _ = np.histogram(spacings, bins=edges, density=True)
    return SpacingStatistics(
        spacings=spacings,
        bin_edges=edges,
        densities=densities,
        ks_wigner=ks_distance(spacings, wigner_cdf),
        ks_poisson=ks_distance(spacings, poisson_cdf),
        n_sets=sets,
        n_dropped=sets * (n - 1) - len(spacings),
        n_rank_deficient=rank_deficient,
    )
