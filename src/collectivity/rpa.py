"""Schematic model of one collective state splitting off a degenerate bulk.

N degenerate configurations at energy epsilon interact through a separable
coupling built from transition amplitudes d, giving the Hamiltonian

    H = epsilon * I + kappa * d d^T.

Because the interaction is rank one, the model is exactly solvable: a
single coherent state moves to epsilon + kappa * sum(d^2) and absorbs the
entire transition strength sum(d^2); the other N-1 states stay at epsilon
with zero strength. A repulsive coupling (kappa > 0) pushes the coherent
state up in energy, an attractive one pulls it down. The closed form makes
this module an exact oracle for the numeric eigensolver and a minimal
mechanism for the collectivity seen in correlation-matrix spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .resources import check_bytes
from .spectral import symmetric_eigendecomposition

# N x N float arrays solve_numeric holds at its peak: the Hamiltonian, eigh's
# copy of it, its eigenvectors and workspace, and the eigenvector checks'
# buffers. rpa-demo's peak RSS (OpenBLAS on one thread) grew by 6.1 such
# arrays over N = 16 at N = 1024, and by 5.8 at N = 1400.
SOLVE_ARRAYS = 6


def check_solve_bytes(n: int, what: str) -> None:
    """Raise DataError if solve_numeric's SOLVE_ARRAYS n x n arrays exceed the cap together."""
    check_bytes(8 * n * n, what, SOLVE_ARRAYS)


@dataclass
class SchematicRpaModel:
    """Degenerate energy epsilon, separable coupling kappa, transition amplitudes d."""

    epsilon: float
    kappa: float
    d: np.ndarray

    def __post_init__(self) -> None:
        for name, value in (("epsilon", self.epsilon), ("kappa", self.kappa)):
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        self.d = np.asarray(self.d, dtype=float)
        if self.d.ndim != 1 or len(self.d) < 2:
            raise DataError(f"need at least 2 transition amplitudes, got shape {self.d.shape}")
        bad = np.flatnonzero(~np.isfinite(self.d))
        if bad.size:
            raise DataError(f"d must be finite, got {self.d[bad[0]]} at index {bad[0]}")
        if not np.any(self.d != 0):
            raise DataError("transition amplitudes are all zero")

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def total_strength(self) -> float:
        return float(self.d @ self.d)


@dataclass
class RpaSolution:
    """Eigenenergies (ascending) with the transition strength carried by each state."""

    energies: np.ndarray
    strengths: np.ndarray
    collective_vector: np.ndarray

    def __post_init__(self) -> None:
        self.energies = np.asarray(self.energies, dtype=float)
        self.strengths = np.asarray(self.strengths, dtype=float)

    @property
    def collective_index(self) -> int:
        return int(np.argmax(self.strengths))

    @property
    def collective_energy(self) -> float:
        return float(self.energies[self.collective_index])


def build_hamiltonian(model: SchematicRpaModel) -> np.ndarray:
    """Symmetric N x N matrix epsilon * I + kappa * outer(d, d); an overflow is a NumericError."""
    with np.errstate(over="ignore", invalid="ignore"):  # kappa = 0 times an overflowed d d^T is nan
        h = model.epsilon * np.eye(model.n) + model.kappa * np.outer(model.d, model.d)
    if not np.isfinite(h).all():
        raise NumericError("Hamiltonian epsilon * I + kappa * d d^T is not finite")
    return h


def solve_analytic(model: SchematicRpaModel) -> RpaSolution:
    """Closed-form solution: one state at epsilon + kappa * sum(d^2) with all the strength.

    Without coupling there is nothing to mix, so every state keeps its own
    strength d_i^2 instead of one state absorbing the total.
    """
    total = model.total_strength
    energies = np.full(model.n, model.epsilon)
    if model.kappa == 0:
        return RpaSolution(energies, model.d**2, model.d / np.linalg.norm(model.d))
    strengths = np.zeros(model.n)
    collective = model.epsilon + model.kappa * total
    if model.kappa > 0:
        energies[-1] = collective
        strengths[-1] = total
    else:
        energies[0] = collective
        strengths[0] = total
    return RpaSolution(energies, strengths, model.d / np.linalg.norm(model.d))


def solve_numeric(model: SchematicRpaModel) -> RpaSolution:
    """Diagonalize the Hamiltonian; strength of state k is (v_k . d)^2.

    Cross-checks the analytic solution through an independent route. The
    strength sum is conserved at sum(d^2) for any coupling because the
    eigenvectors are orthonormal. Over the array cap it raises DataError first.
    """
    check_solve_bytes(model.n, f"{model.n} transition amplitudes")
    values, vectors = symmetric_eigendecomposition(build_hamiltonian(model))
    overlaps = vectors.T @ model.d
    with np.errstate(over="ignore"):
        strengths = overlaps**2
    if not np.isfinite(strengths).all():
        raise NumericError("transition strength (v_k . d)^2 is not finite")
    order = np.argsort(values, kind="stable")
    values = values[order]
    strengths = strengths[order]
    vectors = vectors[:, order]
    collective = vectors[:, int(np.argmax(strengths))]
    if collective @ model.d < 0:
        collective = -collective
    return RpaSolution(values, strengths, collective)
