"""Weierstrass random walk: step distribution, trajectory simulation, self-similarity.

The walk takes steps of length b**j * a (j = 0, 1, 2, ...) with
geometrically decreasing probability P(j) = ((m - 1)/m) * m**-j and a
fair +/- direction, for parameters b > 1, m > 1. Half the characteristic
function of one step is the lacunary cosine series

    p(k) = ((m - 1) / (2 m)) * sum_{j>=0} m**-j * cos(k * b**j * a),

evaluated here as a partial sum truncated once the geometric tail bound
m**-J / 2 drops below a configurable tolerance. Two exact facts anchor
everything: p(0) = 1/2, and the rescaling (renewal) identity

    p(k) = (1/m) * p(b k) + ((m - 1) / (2 m)) * cos(k a),

which states the discrete self-similarity of the step hierarchy: the
function at scale b*k reproduces itself at scale k up to a weight 1/m and
one fresh cosine. The self-similarity analysis estimates the scale ratio
directly from sampled values by scanning candidate ratios L and regressing
p(k) on [p(L k), cos(k a)]; the residual vanishes only at L = b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError
from .resources import MAX_ARRAY_BYTES


@dataclass(frozen=True)
class WeierstrassParams:
    """Base step length a, step multiplier b > 1, probability divisor m > 1."""

    a: float = 1.0
    b: float = 2.0
    m: float = 4.0
    truncation_tol: float = 1e-12

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b), ("m", self.m),
                            ("truncation_tol", self.truncation_tol)):
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if self.a <= 0:
            raise DataError(f"base step length must be positive, got {self.a}")
        if self.b <= 1:
            raise DataError(f"step multiplier must exceed 1, got {self.b}")
        if self.m <= 1:
            raise DataError(f"probability divisor must exceed 1, got {self.m}")
        if self.truncation_tol <= 0:
            raise DataError(f"truncation tolerance must be positive, got {self.truncation_tol}")

    @property
    def prefactor(self) -> float:
        return (self.m - 1.0) / (2.0 * self.m)

    def step_probability(self, j) -> np.ndarray:
        """Exact mass function P(j) = ((m-1)/m) * m**-j of the step-length exponent."""
        j = np.asarray(j)
        return (self.m - 1.0) / self.m * self.m ** (-j.astype(float))


class PartialSum(NamedTuple):
    value: float
    terms: int


def series_depth(params: WeierstrassParams) -> int:
    """Smallest J whose geometric tail bound m**-J / 2 is below the truncation tolerance."""
    return max(1, math.ceil(-math.log(2.0 * params.truncation_tol) / math.log(params.m)))


def _step_lengths(params: WeierstrassParams, j: np.ndarray) -> np.ndarray:
    """b**j * a for each exponent j; a length that overflows is a NumericError naming its j."""
    with np.errstate(over="ignore"):
        steps = params.b**j * params.a
    bad = np.flatnonzero(~np.isfinite(steps))
    if bad.size:
        raise NumericError(f"step length b**j * a is not finite at j = {int(j[bad[0]])}")
    return steps


def weierstrass_values(k, params: WeierstrassParams) -> np.ndarray:
    """Truncated series values at the given wave numbers (vectorized)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    depth = series_depth(params)
    n_bytes = 8 * k.size * depth
    if n_bytes > MAX_ARRAY_BYTES:
        raise DataError(
            f"series depth {depth} (m = {params.m}, truncation_tol = {params.truncation_tol}) "
            f"at {k.size} wave numbers needs a {n_bytes:,}-byte argument matrix, "
            f"above the {MAX_ARRAY_BYTES:,}-byte cap"
        )
    j = np.arange(depth)
    weights = params.m ** (-j.astype(float))
    with np.errstate(over="ignore"):
        arguments = np.outer(k, _step_lengths(params, j))
    bad = ~np.isfinite(arguments)
    if bad.any():
        i, jj = np.argwhere(bad)[0]
        raise NumericError(f"argument k * b**j * a is not finite at k = {k[i]}, j = {jj}")
    return params.prefactor * np.cos(arguments) @ weights


def weierstrass_p(k: float, params: WeierstrassParams) -> PartialSum:
    """Partial-sum value of the step-distribution series at one wave number.

    Also reports the number of terms J used, fixed by the truncation
    tolerance; the series converges absolutely for any m > 1.
    """
    return PartialSum(float(weierstrass_values(k, params)[0]), series_depth(params))


def renewal_residual(params: WeierstrassParams, k_grid) -> float:
    """Max violation of p(k) = (1/m) p(bk) + prefactor * cos(ka) over the grid.

    The identity is algebraically exact; in double precision it holds to
    ~10x the truncation tolerance provided every term still carrying weight
    above the tolerance has an argument k * b**j * a below the ~1e15 phase
    resolution of cos. Weights must therefore decay at least as fast as
    arguments grow (in practice m >= b for grids reaching k ~ 100).
    """
    k = np.asarray(k_grid, dtype=float)
    left = weierstrass_values(k, params)
    right = weierstrass_values(params.b * k, params) / params.m + params.prefactor * np.cos(
        k * params.a
    )
    return float(np.max(np.abs(left - right)))


@dataclass
class WalkResult:
    """Trajectory of one Weierstrass walk plus the raw step draws behind it."""

    positions: np.ndarray
    exponents: np.ndarray
    displacements: np.ndarray
    seed: int


def simulate_walk(params: WeierstrassParams, n_steps: int, seed: int) -> WalkResult:
    """Simulate n_steps of the walk, deterministically for a given seed.

    Each step draws an exponent j with P(j) = ((m-1)/m) * m**-j and an
    independent fair sign; the displacement is +/- b**j * a.
    """
    if n_steps < 1:
        raise DataError(f"n_steps must be >= 1, got {n_steps}")
    if 8 * n_steps > MAX_ARRAY_BYTES:
        raise DataError(
            f"n_steps = {n_steps} needs {8 * n_steps:,} bytes per array, "
            f"above the {MAX_ARRAY_BYTES:,}-byte cap"
        )
    rng = np.random.default_rng(seed)
    exponents = rng.geometric(p=(params.m - 1.0) / params.m, size=n_steps) - 1
    signs = rng.integers(0, 2, size=n_steps) * 2 - 1
    displacements = signs * _step_lengths(params, exponents.astype(float))
    with np.errstate(over="ignore"):
        positions = np.cumsum(displacements)
    bad = np.flatnonzero(~np.isfinite(positions))
    if bad.size:
        raise NumericError(f"walk position is not finite after step {bad[0] + 1}")
    return WalkResult(positions, exponents, displacements, seed)


@dataclass
class SelfSimilarityResult:
    """Scale-ratio estimate with the regression weights that confirm it."""

    lambda_estimate: float
    relative_deviation: float
    scan_residual: float
    matched_weight: float
    matched_amplitude: float


def _scan_objective(lam: float, k: np.ndarray, pk: np.ndarray, params: WeierstrassParams):
    rescaled = weierstrass_values(lam * k, params)
    design = np.column_stack([rescaled, np.cos(k * params.a)])
    coef, *_ = np.linalg.lstsq(design, pk, rcond=None)
    resid = pk - design @ coef
    return float(resid @ resid), coef


def _golden_minimize(fn, lo: float, hi: float, iterations: int = 80) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi)


def analyze_self_similarity(params: WeierstrassParams, k_grid) -> SelfSimilarityResult:
    """Estimate the discrete scale ratio of the step distribution from sampled values.

    The primary estimate scans candidate ratios L, regressing p(k) on
    [p(L k), cos(k a)] over the grid; the self-similarity of the series
    makes the residual vanish at the true ratio, and the fitted weights
    recover 1/m and (m-1)/(2m) as an independent consistency check.

    The grid must span at least 3 decades and resolve at least 3 interior
    extrema of p: where p is monotone, p(L k) and cos(k a) are both nearly
    quadratic in k and the regression fits every L.
    """
    k = np.sort(np.asarray(k_grid, dtype=float))
    if k.ndim != 1 or len(k) < 20:
        raise DataError("k grid must be 1-D with at least 20 points")
    if np.any(k <= 0):
        raise DataError("k grid must be strictly positive")
    if k[-1] / k[0] < 1e3:
        raise DataError(
            f"k grid spans a factor of {k[-1] / k[0]:.3g}, need at least 3 decades"
        )

    pk = weierstrass_values(k, params)
    slopes = np.sign(np.diff(pk))
    extrema = int(np.count_nonzero(slopes[:-1] * slopes[1:] < 0))
    if extrema < 3:
        raise DataError(f"k grid resolves {extrema} interior extrema of p, need at least 3")

    scan = np.linspace(1.2, 4.0, 141)
    residuals = [_scan_objective(l, k, pk, params)[0] for l in scan]
    i_best = int(np.argmin(residuals))
    lo = scan[max(i_best - 1, 0)]
    hi = scan[min(i_best + 1, len(scan) - 1)]
    lam_hat = _golden_minimize(lambda l: _scan_objective(l, k, pk, params)[0], lo, hi)
    scan_residual, coef = _scan_objective(lam_hat, k, pk, params)

    return SelfSimilarityResult(
        lambda_estimate=float(lam_hat),
        relative_deviation=float(abs(lam_hat - params.b) / params.b),
        scan_residual=scan_residual,
        matched_weight=float(coef[0]),
        matched_amplitude=float(coef[1]),
    )
