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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corr import CorrelationMatrix, WindowInfo
from .errors import DataError, NumericError

SYMMETRY_TOL = 1e-12
RESIDUAL_TOL = 1e-9
MIN_BULK_COUNT = 100


@dataclass
class EigenSpectrum:
    """Descending eigenvalues with orthonormal eigenvectors (column k pairs with eigenvalue k)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    window: WindowInfo | None = None

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

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

    def eigenvalue_sets(self) -> list[np.ndarray]:
        return [s.eigenvalues for s in self.snapshots]


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


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Convention: the largest-magnitude component of each eigenvector is positive.
    idx = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0
    vectors = vectors.copy()
    vectors[:, flip] *= -1.0
    return vectors


def symmetric_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    Rejects inputs whose asymmetry exceeds 1e-12 and verifies the residual
    ||M v - lambda v|| <= 1e-9 * N per eigenpair. Exactly equal eigenvalues
    are ordered by the lexicographically smallest sign-fixed eigenvector, so
    the output is deterministic.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise DataError("matrix has non-finite entries")
    asym = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if asym > SYMMETRY_TOL:
        raise DataError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")

    sym = 0.5 * (matrix + matrix.T)
    values, vectors = np.linalg.eigh(sym)
    vectors = _fix_signs(vectors)
    order = sorted(range(len(values)), key=lambda k: (-values[k], vectors[:, k].tolist()))
    values = values[order]
    vectors = vectors[:, order]

    n = len(values)
    residual = sym @ vectors - vectors * values
    worst = float(np.max(np.sqrt(np.einsum("ij,ij->j", residual, residual)))) if n else 0.0
    if worst > RESIDUAL_TOL * max(n, 1):
        raise NumericError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL * n:.3e}")
    gram = vectors.T @ vectors
    ortho = float(np.max(np.abs(gram - np.eye(n))))
    if ortho > RESIDUAL_TOL:
        raise NumericError(f"eigenvector orthonormality defect {ortho:.3e}")
    return values, vectors


def eigendecompose(matrix: CorrelationMatrix) -> EigenSpectrum:
    """Spectrum of a correlation matrix, enforcing positive semidefiniteness up to 1e-9."""
    values, vectors = symmetric_eigendecomposition(matrix.entries)
    if values.size and values[-1] < -RESIDUAL_TOL:
        raise NumericError(
            f"correlation matrix has eigenvalue {values[-1]:.3e} below -{RESIDUAL_TOL}"
        )
    return EigenSpectrum(values, vectors, matrix.window)


def portfolio_variance(matrix: CorrelationMatrix, weights: Sequence[float]) -> float:
    """Quadratic form sum_ij p_i C_ij p_j of a weight vector on the correlation matrix."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (matrix.n,):
        raise DataError(f"weight vector of length {weights.shape} does not match N={matrix.n}")
    return float(weights @ matrix.entries @ weights)


def spectrum_trace(matrices: Sequence[CorrelationMatrix]) -> RollingSpectrumTrace:
    """Eigendecompose each window and keep eigenvalues plus the leading eigenvector."""
    if not matrices:
        raise DataError("spectrum_trace needs at least one matrix")
    snapshots = []
    for m in matrices:
        try:
            spectrum = eigendecompose(m)
        except (DataError, NumericError) as exc:
            raise type(exc)(f"window ending {m.window.end}: {exc}") from exc
        # Copy the leading vector: a column view would keep the whole N x N
        # eigenvector matrix of every window alive.
        snapshots.append(
            SpectrumSnapshot(m.window.end, spectrum.eigenvalues, spectrum.leading_vector.copy())
        )
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


def _coerce_eigenvalue_sets(source) -> list[np.ndarray]:
    if isinstance(source, RollingSpectrumTrace):
        return source.eigenvalue_sets()
    if isinstance(source, EigenSpectrum):
        return [source.eigenvalues]
    sets = []
    for item in source:
        if isinstance(item, EigenSpectrum):
            sets.append(item.eigenvalues)
        else:
            sets.append(np.asarray(item, dtype=float))
    return sets


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
    source,
    drop_top: int = 1,
    degree: int = 5,
    bins: int = 32,
) -> SpacingStatistics:
    """Pooled unfolded spacing histogram with KS distances to Wigner and Poisson laws.

    source may be a RollingSpectrumTrace, an EigenSpectrum, or any iterable
    of eigenvalue arrays / spectra. The top drop_top eigenvalues of each set
    (the collective modes) are excluded before unfolding; each set is
    unfolded separately and the spacings are pooled, then rescaled to mean 1.
    """
    if drop_top < 0:
        raise DataError(f"drop_top must be >= 0, got {drop_top}")
    sets = _coerce_eigenvalue_sets(source)
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
