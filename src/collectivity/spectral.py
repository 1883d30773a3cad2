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
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .corr import CorrelationMatrix, WindowInfo
from .errors import DataError, NumericError

SYMMETRY_TOL = 1e-12
RESIDUAL_TOL = 1e-9
MIN_BULK_COUNT = 100
CHUNK_BYTES = 512 * 1024  # matrix entries per stacked decomposition in spectrum_trace


@dataclass
class EigenSpectrum:
    """Descending eigenvalues with orthonormal eigenvectors (column k pairs with eigenvalue k)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    window: WindowInfo | None = None

    @property
    def leading_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


@dataclass
class SpectrumSnapshot:
    """Eigenvalues and leading eigenvector of one rolling window."""

    window_end: dt.date
    eigenvalues: np.ndarray
    leading_vector: np.ndarray


@dataclass
class RollingSpectrumTrace:
    """Time-ordered spectra of a rolling-window correlation study."""

    snapshots: list[SpectrumSnapshot]

    def __post_init__(self) -> None:
        ends = [s.window_end for s in self.snapshots]
        for prev, cur in zip(ends, ends[1:]):
            if cur <= prev:
                raise DataError(f"trace window ends not strictly increasing at {cur}")

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass(frozen=True)
class CollectivityMetrics:
    gap_ratio: float
    dominance: float
    participation_ratio: float


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


def wigner_surmise(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 0.5 * np.pi * s * np.exp(-0.25 * np.pi * s**2)


def wigner_cdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-0.25 * np.pi * s**2)


def poisson_cdf(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-s)


def _first_failure(ok: np.ndarray, stacked: bool) -> tuple[int, str]:
    """Index of the first matrix failing a check, and a message prefix naming it in a stack."""
    i = int(np.argmin(ok))
    return i, f"matrix {i} of the stack: " if stacked else ""


def symmetric_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    matrix may also be a (k, N, N) stack. Then one LAPACK call covers the
    stack, the results are (k, N) eigenvalues and (k, N, N) eigenvectors,
    and every check below holds for each matrix on its own; an error names
    the first matrix that fails. A 2-D input is a stack of one.

    Rejects inputs whose asymmetry exceeds 1e-12 and verifies the residual
    ||M v - lambda v|| <= 1e-9 * N per eigenpair. Exactly equal eigenvalues
    are ordered by the lexicographically smallest sign-fixed eigenvector, so
    the output is deterministic.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2] or not matrix.shape[-1]:
        raise DataError(f"expected a non-empty square matrix or stack of them, got {matrix.shape}")
    stacked = matrix.ndim == 3
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    ok = np.all(np.isfinite(stack), axis=(1, 2))
    if not ok.all():
        _, where = _first_failure(ok, stacked)
        raise DataError(f"{where}matrix has non-finite entries")
    # Every (k, N, N) temporary is written into one of three buffers (work,
    # vectors, spare): a fresh large array per step costs page faults that
    # rival the arithmetic of the checks.
    transposed = stack.transpose(0, 2, 1)
    work = np.subtract(stack, transposed)
    asym = np.max(np.abs(work, out=work), axis=(1, 2))
    ok = asym <= SYMMETRY_TOL
    if not ok.all():
        i, where = _first_failure(ok, stacked)
        raise DataError(f"{where}matrix is not symmetric: max |M - M^T| = {asym[i]:.3e}")

    sym = np.add(stack, transposed, out=work)
    sym *= 0.5
    values, vectors = np.linalg.eigh(sym)
    # Convention: the largest-magnitude component of each eigenvector is positive.
    spare = np.abs(vectors)
    lead = np.take_along_axis(vectors, np.argmax(spare, axis=1)[:, None, :], axis=1)
    np.negative(vectors, out=vectors, where=lead < 0)
    order = np.argsort(-values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    for i in np.flatnonzero(np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)):
        # Key (-lambda, eigenvector components): lexsort's last row is the primary key.
        order[i] = np.lexsort(np.vstack([vectors[i, ::-1], -values[i][None]]))
    values = np.take_along_axis(values, order, axis=1)
    for i in range(len(order)):
        np.take(vectors[i], order[i], axis=1, out=spare[i])
    vectors, spare = spare, vectors

    # The checks are written as `not (x <= tol)` so that a NaN defect fails them.
    n = values.shape[1]
    residual = np.matmul(sym, vectors, out=spare)
    residual -= np.multiply(vectors, values[:, None, :], out=work)  # sym is not needed again
    worst = np.max(np.sqrt(np.einsum("kij,kij->kj", residual, residual)), axis=1)
    ok = worst <= RESIDUAL_TOL * n
    if not ok.all():
        i, where = _first_failure(ok, stacked)
        raise NumericError(f"{where}eigenpair residual {worst[i]:.3e} exceeds {RESIDUAL_TOL * n:.3e}")
    gram = np.matmul(vectors.transpose(0, 2, 1), vectors, out=spare)
    gram[:, np.arange(n), np.arange(n)] -= 1.0
    ortho = np.max(np.abs(gram, out=gram), axis=(1, 2))
    ok = ortho <= RESIDUAL_TOL
    if not ok.all():
        i, where = _first_failure(ok, stacked)
        raise NumericError(f"{where}eigenvector orthonormality defect {ortho[i]:.3e}")
    return (values, vectors) if stacked else (values[0], vectors[0])


def _check_semidefinite(values: np.ndarray) -> None:
    """Reject a spectrum (or a stack of them, one per row) whose smallest eigenvalue is below -1e-9."""
    lowest = values[..., -1]
    below = lowest[lowest < -RESIDUAL_TOL]
    if below.size:
        raise NumericError(f"correlation matrix has eigenvalue {below[0]:.3e} below -{RESIDUAL_TOL}")


def eigendecompose(matrix: CorrelationMatrix) -> EigenSpectrum:
    """Spectrum of a correlation matrix, enforcing positive semidefiniteness up to 1e-9."""
    values, vectors = symmetric_eigendecomposition(matrix.entries)
    _check_semidefinite(values)
    return EigenSpectrum(values, vectors, matrix.window)


def _pool_workers() -> int:
    """Threads for spectrum_trace: the usable CPUs, or 1 unless BLAS runs one thread per call.

    LAPACK releases the interpreter lock, so windows decompose in parallel;
    on top of a multi-threaded BLAS the same pool only oversubscribes the
    cores. OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS.
    """
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas_threads != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(matrices: Iterable[CorrelationMatrix]) -> Iterator[list[CorrelationMatrix]]:
    """Consecutive same-shape matrices, CHUNK_BYTES of entries per list (at least one matrix).

    An error raised by matrices comes after the windows before it have been
    yielded, so the caller decomposes those first, as a window-by-window loop would.
    """
    chunk: list[CorrelationMatrix] = []
    try:
        for m in matrices:
            if chunk and m.entries.shape != chunk[0].entries.shape:
                yield chunk
                chunk = []
            chunk.append(m)
            if (len(chunk) + 1) * m.entries.nbytes > CHUNK_BYTES:
                yield chunk
                chunk = []
    except Exception:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _window_snapshot(m: CorrelationMatrix) -> SpectrumSnapshot:
    try:
        spectrum = eigendecompose(m)
    except (DataError, NumericError) as exc:
        raise type(exc)(f"window ending {m.window.end}: {exc}") from exc
    return SpectrumSnapshot(m.window.end, spectrum.eigenvalues, spectrum.leading_vector.copy())


def _chunk_snapshots(chunk: list[CorrelationMatrix]) -> list[SpectrumSnapshot]:
    """Snapshots of a chunk of windows from one stacked decomposition.

    If any window fails a check, the chunk is redone window by window, so the
    error names the first failing window.
    """
    try:
        values, vectors = symmetric_eigendecomposition(np.stack([m.entries for m in chunk]))
        _check_semidefinite(values)
    except (DataError, NumericError):
        return [_window_snapshot(m) for m in chunk]
    # Copy the leading vectors: views would keep the chunk's eigenvector stack alive.
    leading = vectors[:, :, 0].copy()
    return [SpectrumSnapshot(m.window.end, values[i], leading[i]) for i, m in enumerate(chunk)]


def _adopted(snapshots: list[SpectrumSnapshot]) -> list[SpectrumSnapshot]:
    # Copies made by the calling thread. Arrays kept from a pool thread pin
    # pages of that thread's malloc arena, which the calling thread's later
    # work cannot reuse; without the copies the peak RSS of a spectrum run
    # followed by spacing-stats rose by several MB.
    return [SpectrumSnapshot(s.window_end, s.eigenvalues.copy(), s.leading_vector.copy())
            for s in snapshots]


def _pooled_snapshots(matrices: Iterable[CorrelationMatrix], workers: int) -> list[SpectrumSnapshot]:
    """_chunk_snapshots over a thread pool, with at most one chunk per worker in flight.

    Results and errors come back in window order. Executor.map is not used
    because it drains the matrices generator up front.
    """
    # Imported here: concurrent.futures imports logging, which would add
    # about 6 ms to every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    snapshots: list[SpectrumSnapshot] = []
    pending: deque = deque()
    chunks = _chunks(matrices)
    with ThreadPoolExecutor(workers) as pool:
        while True:
            try:
                chunk = next(chunks, None)
            except Exception:
                # The chunks in flight hold earlier windows: their errors come first.
                for future in pending:
                    future.result()
                raise
            if chunk is None:
                break
            if len(pending) == workers:
                # On an error here the later chunks still finish, and their results are dropped.
                snapshots += _adopted(pending.popleft().result())
            pending.append(pool.submit(_chunk_snapshots, chunk))
        for future in pending:
            snapshots += _adopted(future.result())
    return snapshots


def spectrum_trace(matrices: Iterable[CorrelationMatrix]) -> RollingSpectrumTrace:
    """Eigendecompose each window and keep eigenvalues plus the leading eigenvector.

    matrices may be a generator such as corr.rolling_windows. Windows are
    decomposed in chunks of at most CHUNK_BYTES of entries (or one window),
    one stacked call each, on a thread pool of the usable CPUs when BLAS is pinned to one thread (see
    _pool_workers), else in the calling thread. A matrix is released once
    its snapshot is taken, so memory stays O(workers x chunk x N^2) however
    many windows there are. The snapshots, and the first error, come in
    window order.
    """
    workers = _pool_workers()
    if workers > 1:
        snapshots = _pooled_snapshots(matrices, workers)
    else:
        snapshots = [s for chunk in _chunks(matrices) for s in _chunk_snapshots(chunk)]
    if not snapshots:
        raise DataError("spectrum_trace needs at least one matrix")
    return RollingSpectrumTrace(snapshots)


def collectivity_metrics(spectrum: EigenSpectrum | SpectrumSnapshot) -> CollectivityMetrics:
    """Gap ratio, dominance and participation ratio of the leading mode."""
    n = len(spectrum.eigenvalues)
    if n < 2:
        raise DataError("collectivity metrics need at least 2 eigenvalues")
    top, second = float(spectrum.eigenvalues[0]), float(spectrum.eigenvalues[1])
    # A second eigenvalue at numerical zero makes the gap the infinity sentinel.
    gap = top / second if second > RESIDUAL_TOL else math.inf
    v = spectrum.leading_vector
    return CollectivityMetrics(gap, top / n, float(1.0 / np.sum(v**4)))


def unfold_spacings(eigenvalues: np.ndarray, degree: int = 5) -> np.ndarray:
    """Nearest-neighbor spacings after unfolding to unit mean density.

    The cumulative spectral function (staircase) is smoothed by a
    least-squares polynomial of the given degree; spacings are differences
    of the smoothed function at the sorted eigenvalues. Non-increasing
    sections of the fit yield non-positive spacings, which are discarded.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    n = len(ev)
    if n < degree + 2:
        raise DataError(f"{n} eigenvalues cannot support a degree-{degree} unfolding")
    if ev[-1] - ev[0] <= 0:
        return np.empty(0)
    staircase = np.arange(1, n + 1) - 0.5
    coeffs = np.polynomial.polynomial.polyfit(ev, staircase, degree)
    smoothed = np.polynomial.polynomial.polyval(ev, coeffs)
    spacings = np.diff(smoothed)
    return spacings[spacings > 0]


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


def spacing_statistics(
    sets: Iterable[np.ndarray],
    drop_top: int = 1,
    degree: int = 5,
    bins: int = 32,
) -> SpacingStatistics:
    """Pooled unfolded spacing histogram with KS distances to Wigner and Poisson laws.

    sets is an iterable of eigenvalue arrays, for example one per window.
    The top drop_top eigenvalues of each set (the collective modes) are
    excluded before unfolding; each set is unfolded separately and the
    spacings are pooled, then rescaled to mean 1.
    """
    if drop_top < 0:
        raise DataError(f"drop_top must be >= 0, got {drop_top}")
    bulks = []
    for ev in sets:
        ev = np.sort(np.asarray(ev, dtype=float))
        bulk = ev[: len(ev) - drop_top] if drop_top else ev
        if len(bulk) >= 2:
            bulks.append(bulk)
    total = sum(len(b) for b in bulks)
    if total < MIN_BULK_COUNT:
        raise DataError(f"pooled bulk has {total} eigenvalues, need >= {MIN_BULK_COUNT}")

    pooled = []
    dropped = 0
    for bulk in bulks:
        if len(bulk) < degree + 2:
            dropped += len(bulk) - 1
            continue
        spacings = unfold_spacings(bulk, degree)
        dropped += (len(bulk) - 1) - len(spacings)
        pooled.append(spacings)
    if not pooled or sum(len(p) for p in pooled) == 0:
        raise DataError("no usable spacings after unfolding")
    spacings = np.concatenate(pooled)
    spacings = spacings / spacings.mean()

    edges = np.linspace(0.0, float(spacings.max()), bins + 1)
    densities, _ = np.histogram(spacings, bins=edges, density=True)
    return SpacingStatistics(
        spacings=spacings,
        bin_edges=edges,
        densities=densities,
        ks_wigner=ks_distance(spacings, wigner_cdf),
        ks_poisson=ks_distance(spacings, poisson_cdf),
        n_sets=len(bulks),
        n_dropped=dropped,
    )
