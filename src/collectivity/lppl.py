"""Log-periodic power-law models: evaluation, grid + refinement fitting, extrema analysis.

A scale-invariant observable Phi(lam * x) = gamma * Phi(x) admits, besides
the pure power law x**alpha with alpha = ln(gamma)/ln(lam), solutions whose
power law is decorated by any period-one function of ln(x)/ln(lam). Keeping
the first Fourier term of that decoration gives the model used here,

    value(x) = A * x**alpha + B * x**alpha * osc((2*pi/ln lam) * ln x + phi)

with osc = cos (variant "cosine") or |cos| (variant "abs-cosine"), and
x = t_c - t before a critical time (direction "bubble") or x = t - t_c
after it (direction "antibubble"). The argument (2*pi/ln lam) * ln x makes
the discrete scale invariance x -> lam * x exact; the angular frequency
omega = 2*pi/ln(lam) is reported alongside lam.

Fitting is a deterministic two-stage search. Stage 1 scans a
(t_c, lam, alpha) grid and solves each node's subproblem, linear in
(A, B*cos, B*sin) through B*cos(theta + phi) = Bc*cos(theta) - Bs*sin(theta)
(for |cos|, phi is scanned on a fixed 64-point grid and the node is linear
in (A, B >= 0)). Stage 2 polishes the best node by coordinate descent with
shrinking steps. Rank-deficient nodes are skipped and counted.

Same-type extrema (minima with minima, maxima with maxima) of an exact
cosine model sit at geometrically spaced x, so consecutive same-type
spacing ratios estimate lam directly; for |cos| the oscillation has half
the log-period and the ratios estimate sqrt(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericError

VARIANTS = ("cosine", "abs-cosine")
DIRECTIONS = ("bubble", "antibubble")

PHI_SCAN_POINTS = 64          # |cos| has period pi, so the scan covers [0, pi)
DEGENERACY_TOL = 1e-12        # on the normalized Gram determinant
REFINE_TOL = 1e-8
MAX_REFINE_SWEEPS = 500


@dataclass
class LogPeriodicModel:
    """Parameters of one log-periodic power law around a critical time."""

    tc: float
    alpha: float
    lam: float
    phi: float
    a: float
    b: float
    variant: str = "cosine"
    direction: str = "bubble"

    def __post_init__(self) -> None:
        if self.lam <= 1.0:
            raise DataError(f"scaling ratio must exceed 1, got {self.lam}")
        if self.variant not in VARIANTS:
            raise DataError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.direction not in DIRECTIONS:
            raise DataError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / math.log(self.lam)


@dataclass
class FitDiagnostics:
    grid_nodes: int = 0
    nodes_skipped: int = 0
    refine_sweeps: int = 0
    grid_sse: float = math.inf


@dataclass
class LpplFitResult:
    model: LogPeriodicModel
    sse: float
    n_points: int
    diagnostics: FitDiagnostics


@dataclass
class ExtremaProgression:
    """Refined extremum positions in x, same-type spacing ratios, and the ratio estimate."""

    minima: np.ndarray
    maxima: np.ndarray
    min_ratios: np.ndarray
    max_ratios: np.ndarray
    lambda_estimate: float

    @property
    def ratios(self) -> np.ndarray:
        return np.concatenate([self.min_ratios, self.max_ratios])


def distance_to_critical(times: np.ndarray, tc: float, direction: str) -> np.ndarray:
    """x = |t - t_c| with the sign convention of the given direction; rejects wrong-side points."""
    times = np.asarray(times, dtype=float)
    if direction == "bubble":
        x = tc - times
    elif direction == "antibubble":
        x = times - tc
    else:
        raise DataError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    bad = np.flatnonzero(x <= 0)
    if bad.size:
        side = "before" if direction == "bubble" else "after"
        raise DataError(
            f"time {times[bad[0]]} is not strictly {side} t_c = {tc} ({direction} direction)"
        )
    return x


def _oscillation(theta: np.ndarray, variant: str) -> np.ndarray:
    osc = np.cos(theta)
    return np.abs(osc) if variant == "abs-cosine" else osc


def evaluate_model(model: LogPeriodicModel, times) -> np.ndarray:
    """Model values at the given times (all strictly on the model's side of t_c)."""
    x = distance_to_critical(times, model.tc, model.direction)
    envelope = x**model.alpha
    theta = model.omega * np.log(x) + model.phi
    return model.a * envelope + model.b * envelope * _oscillation(theta, model.variant)


def check_scale_invariance(alpha: float, lam: float, gamma: float, x_grid=None) -> float:
    """Residual max |Phi(lam x) - gamma Phi(x)| for Phi(x) = x**alpha over a test grid.

    Zero (to rounding) exactly when alpha = ln(gamma)/ln(lam).
    """
    if lam <= 1.0:
        raise DataError(f"lam must exceed 1, got {lam}")
    if gamma <= 0.0:
        raise DataError(f"gamma must be positive, got {gamma}")
    x = np.logspace(-1.0, 1.0, 101) if x_grid is None else np.asarray(x_grid, dtype=float)
    return float(np.max(np.abs((lam * x) ** alpha - gamma * x**alpha)))


@dataclass
class FitConfig:
    """Search grids and refinement settings for fit_model."""

    tc_grid: np.ndarray
    lam_grid: np.ndarray
    alpha_grid: np.ndarray
    variant: str = "cosine"
    direction: str = "bubble"
    phi_scan_points: int = PHI_SCAN_POINTS
    refine_tol: float = REFINE_TOL
    max_refine_sweeps: int = MAX_REFINE_SWEEPS

    def __post_init__(self) -> None:
        self.tc_grid = np.atleast_1d(np.asarray(self.tc_grid, dtype=float))
        self.lam_grid = np.atleast_1d(np.asarray(self.lam_grid, dtype=float))
        self.alpha_grid = np.atleast_1d(np.asarray(self.alpha_grid, dtype=float))
        if np.any(self.lam_grid <= 1.0):
            raise DataError("lam grid must lie strictly above 1")
        if self.variant not in VARIANTS:
            raise DataError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.direction not in DIRECTIONS:
            raise DataError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")


def default_fit_config(times, variant: str = "cosine", direction: str = "bubble") -> FitConfig:
    """Default grids bracketing lam ~ 2: t_c over twice the data span beyond the
    series (mirrored for antibubbles, 200 nodes), lam in [1.5, 3.5] (41 nodes),
    alpha in [-1, 1] (21 nodes)."""
    times = np.asarray(times, dtype=float)
    span = float(times.max() - times.min())
    if span <= 0:
        raise DataError("times must span a positive range")
    if direction == "bubble":
        tc_grid = np.linspace(times.max(), times.max() + 2.0 * span, 200)
    else:
        tc_grid = np.linspace(times.min() - 2.0 * span, times.min(), 200)
    return FitConfig(
        tc_grid=tc_grid,
        lam_grid=np.linspace(1.5, 3.5, 41),
        alpha_grid=np.linspace(-1.0, 1.0, 21),
        variant=variant,
        direction=direction,
    )


def _clip_tc_grid(tc_grid: np.ndarray, times: np.ndarray, direction: str) -> np.ndarray:
    if direction == "bubble":
        return tc_grid[tc_grid > times.max()]
    return tc_grid[tc_grid < times.min()]


def _sse_floor(value: float) -> float:
    # Normal-equation identities can go a hair negative at perfect fits.
    return max(float(value), 0.0)


def _node_solve(x: np.ndarray, y: np.ndarray, lam: float, alpha: float,
                variant: str, phi: float | None) -> tuple[float, float, float, float]:
    """Least-squares linear subproblem at one grid node; returns (sse, a, b, phi)."""
    with np.errstate(over="ignore", invalid="ignore"):
        logx = np.log(x)
        envelope = x**alpha
        omega = 2.0 * math.pi / math.log(lam)
        theta = omega * logx
        if variant == "cosine":
            design = np.column_stack(
                [envelope, envelope * np.cos(theta), envelope * np.sin(theta)]
            )
        else:
            design = np.column_stack([envelope, envelope * np.abs(np.cos(theta + phi))])
    if not np.all(np.isfinite(design)):
        return math.inf, 0.0, 0.0, 0.0
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if variant == "abs-cosine" and coef[1] < 0.0:
        # B >= 0 by convention; the constrained optimum sits on the boundary.
        a = float(design[:, 0] @ y / (design[:, 0] @ design[:, 0]))
        coef = np.array([a, 0.0])
    resid = y - design @ coef
    sse = float(resid @ resid)
    if variant == "cosine":
        a, bc, bs = (float(c) for c in coef)
        b = math.hypot(bc, -bs)
        phi_out = math.atan2(-bs, bc) % (2.0 * math.pi)
    else:
        a, b = float(coef[0]), float(coef[1])
        phi_out = float(phi) % math.pi
    return sse, a, b, phi_out


def _grid_stage_cosine(times, y, config, diag):
    tc_grid = config.tc_grid
    n_tc = len(tc_grid)
    if config.direction == "bubble":
        x = tc_grid[:, None] - times[None, :]
    else:
        x = times[None, :] - tc_grid[:, None]
    logx = np.log(x)
    y_sq = float(y @ y)

    best = (math.inf, None)
    for lam in config.lam_grid:
        omega = 2.0 * math.pi / math.log(lam)
        cos_t = np.cos(omega * logx)
        sin_t = np.sin(omega * logx)
        for alpha in config.alpha_grid:
            with np.errstate(over="ignore", invalid="ignore"):
                env = np.exp(alpha * logx)
                p = env * env
                pc = p * cos_t
                ps = p * sin_t
                g00 = p.sum(axis=1)
                g01 = pc.sum(axis=1)
                g02 = ps.sum(axis=1)
                g11 = np.einsum("ij,ij->i", pc, cos_t)
                g12 = np.einsum("ij,ij->i", pc, sin_t)
                g22 = np.einsum("ij,ij->i", ps, sin_t)
                b0 = env @ y
                b1 = (env * cos_t) @ y
                b2 = (env * sin_t) @ y

            gram = np.empty((n_tc, 3, 3))
            gram[:, 0, 0] = g00
            gram[:, 0, 1] = gram[:, 1, 0] = g01
            gram[:, 0, 2] = gram[:, 2, 0] = g02
            gram[:, 1, 1] = g11
            gram[:, 1, 2] = gram[:, 2, 1] = g12
            gram[:, 2, 2] = g22
            rhs = np.stack([b0, b1, b2], axis=1)

            diag.grid_nodes += n_tc
            scale = np.sqrt(np.stack([g00, g11, g22], axis=1))
            ok = np.all(np.isfinite(gram.reshape(n_tc, -1)), axis=1)
            ok &= np.all(np.isfinite(rhs), axis=1) & np.all(scale > 0.0, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                normalized = gram / scale[:, :, None] / scale[:, None, :]
                det = np.linalg.det(np.where(np.isfinite(normalized), normalized, 0.0))
            ok &= np.isfinite(det) & (det > DEGENERACY_TOL)
            diag.nodes_skipped += int(n_tc - ok.sum())
            if not ok.any():
                continue

            sol = np.linalg.solve(gram[ok], rhs[ok][:, :, None])[:, :, 0]
            sse = y_sq - np.einsum("ij,ij->i", sol, rhs[ok])
            j = int(np.argmin(sse))
            if sse[j] < best[0]:
                idx = int(np.flatnonzero(ok)[j])
                best = (_sse_floor(sse[j]), (float(tc_grid[idx]), float(lam), float(alpha), None))
    return best


def _grid_stage_abs(times, y, config, diag):
    tc_grid = config.tc_grid
    n_tc = len(tc_grid)
    if config.direction == "bubble":
        x = tc_grid[:, None] - times[None, :]
    else:
        x = times[None, :] - tc_grid[:, None]
    logx = np.log(x)
    y_sq = float(y @ y)
    phis = np.arange(config.phi_scan_points) * (math.pi / config.phi_scan_points)

    best = (math.inf, None)
    for lam in config.lam_grid:
        omega = 2.0 * math.pi / math.log(lam)
        theta = omega * logx
        osc = np.abs(np.cos(theta[None, :, :] + phis[:, None, None]))
        for alpha in config.alpha_grid:
            with np.errstate(over="ignore", invalid="ignore"):
                env = np.exp(alpha * logx)
                g00 = np.einsum("ij,ij->i", env, env)
                b0 = env @ y
                g = env[None, :, :] * osc
                g01 = np.einsum("kij,ij->ki", g, env)
                g11 = np.einsum("kij,kij->ki", g, g)
                b1 = np.einsum("kij,j->ki", g, y)

            diag.grid_nodes += n_tc * len(phis)
            with np.errstate(invalid="ignore", divide="ignore"):
                det = g00[None, :] * g11 - g01**2
                det_norm = det / (g00[None, :] * g11)
                a_hat = (g11 * b0[None, :] - g01 * b1) / det
                b_hat = (g00[None, :] * b1 - g01 * b0[None, :]) / det
            ok = (
                np.isfinite(det_norm) & (det_norm > DEGENERACY_TOL)
                & np.isfinite(a_hat) & np.isfinite(b_hat) & (g00[None, :] > 0.0)
            )
            diag.nodes_skipped += int(ok.size - ok.sum())
            if not ok.any():
                continue

            sse = np.where(
                b_hat >= 0.0,
                y_sq - (a_hat * b0[None, :] + b_hat * b1),
                y_sq - np.where(g00[None, :] > 0, b0[None, :] ** 2 / g00[None, :], np.inf),
            )
            sse = np.where(ok, sse, np.inf)
            k, i = np.unravel_index(int(np.argmin(sse)), sse.shape)
            if sse[k, i] < best[0]:
                best = (
                    _sse_floor(sse[k, i]),
                    (float(tc_grid[i]), float(lam), float(alpha), float(phis[k])),
                )
    return best


def _refine(times, y, config, start, diag):
    """Coordinate descent on the nonlinear parameters with shrinking steps.

    Trials are clamped to the grid's bounding box: refinement polishes the
    best node within the configured search region rather than re-searching
    globally, which also keeps it out of degenerate slow-oscillation basins
    far outside the intended lam range.
    """
    tc, lam, alpha, phi = start
    t_lo, t_hi = float(times.min()), float(times.max())
    span = t_hi - t_lo

    bounds = [
        (float(config.tc_grid.min()), float(config.tc_grid.max())),
        (float(config.lam_grid.min()), float(config.lam_grid.max())),
        (float(config.alpha_grid.min()), float(config.alpha_grid.max())),
        (-math.inf, math.inf),      # phi is periodic
    ]

    def valid(params) -> bool:
        p_tc, p_lam = params[0], params[1]
        if p_lam <= 1.0 + 1e-9:
            return False
        if config.direction == "bubble":
            return p_tc > t_hi
        return p_tc < t_lo

    def objective(params) -> float:
        if not valid(params):
            return math.inf
        p_tc, p_lam, p_alpha, p_phi = params
        if config.direction == "bubble":
            x = p_tc - times
        else:
            x = times - p_tc
        sse, *_ = _node_solve(x, y, p_lam, p_alpha, config.variant, p_phi)
        return sse

    params = [tc, lam, alpha, 0.0 if phi is None else phi]
    n_coords = 4 if config.variant == "abs-cosine" else 3

    def grid_step(grid, fallback):
        return float(grid[1] - grid[0]) if len(grid) > 1 else fallback

    steps = [
        grid_step(config.tc_grid, 0.1 * span),
        grid_step(config.lam_grid, 0.1),
        grid_step(config.alpha_grid, 0.1),
        math.pi / config.phi_scan_points,
    ]
    initial_steps = list(steps)

    # Re-evaluate through the same route used for trial points so the
    # improvement comparisons are apples to apples.
    best_sse = objective(params)
    sweeps = 0
    while sweeps < config.max_refine_sweeps:
        sweeps += 1
        before = best_sse
        for i in range(n_coords):
            lo, hi = bounds[i]
            for direction in (+1.0, -1.0):
                trial = list(params)
                trial[i] = min(max(params[i] + direction * steps[i], lo), hi)
                if trial[i] == params[i]:
                    continue
                sse = objective(trial)
                if sse < best_sse:
                    best_sse = sse
                    params = trial
        change = (before - best_sse) / before if before > 0 else 0.0
        if change < config.refine_tol:
            steps = [0.5 * s for s in steps]
            if max(s / s0 for s, s0 in zip(steps, initial_steps)) < 1e-6:
                break
    diag.refine_sweeps = sweeps
    return params, best_sse


def fit_model(times, values, config: FitConfig | None = None) -> LpplFitResult:
    """Two-stage deterministic fit of the log-periodic model to (time, value) data.

    Stage 1 evaluates every (t_c, lam, alpha) grid node (the t_c grid is
    clipped so all data stay strictly on the correct side of t_c); stage 2
    refines the best node by coordinate descent. Ties between equal-SSE
    nodes resolve to the first node in grid order.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise DataError(f"times {times.shape} and values {values.shape} must be equal-length 1-D")
    if len(times) < 20:
        raise DataError(f"need at least 20 points to fit, got {len(times)}")
    if config is None:
        config = default_fit_config(times)

    tc_grid = _clip_tc_grid(config.tc_grid, times, config.direction)
    if len(tc_grid) == 0:
        raise DataError("every t_c grid node leaves data on the wrong side of the critical time")
    config = replace(config, tc_grid=tc_grid)

    diag = FitDiagnostics()
    if config.variant == "cosine":
        grid_sse, node = _grid_stage_cosine(times, values, config, diag)
    else:
        grid_sse, node = _grid_stage_abs(times, values, config, diag)
    if node is None:
        raise NumericError("all grid nodes had rank-deficient normal equations")
    diag.grid_sse = grid_sse

    params, _ = _refine(times, values, config, node, diag)
    tc, lam, alpha, phi = params
    x = distance_to_critical(times, tc, config.direction)
    sse, a, b, phi_out = _node_solve(x, values, lam, alpha, config.variant, phi)
    if not math.isfinite(sse):
        raise NumericError("refinement ended on a degenerate node")

    model = LogPeriodicModel(
        tc=tc, alpha=alpha, lam=lam, phi=phi_out, a=a, b=b,
        variant=config.variant, direction=config.direction,
    )
    return LpplFitResult(model, sse, len(times), diag)


def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return values
    kernel = np.full(width, 1.0 / width)
    return np.convolve(values, kernel, mode="valid")


def _refine_extremum(u: np.ndarray, v: np.ndarray, i: int) -> float:
    """Vertex of the parabola through three samples around index i, in the u coordinate."""
    u0, u1, u2 = u[i - 1], u[i], u[i + 1]
    v0, v1, v2 = v[i - 1], v[i], v[i + 1]
    d1 = (v1 - v0) / (u1 - u0)
    d2 = (v2 - v1) / (u2 - u1)
    curvature = d2 - d1
    if curvature == 0.0:
        return float(u1)
    return float(0.5 * ((u0 + u1) - d1 * (u2 - u0) / curvature))


def extrema_progression(
    times,
    values,
    tc: float,
    direction: str = "bubble",
    smooth_width: int = 1,
) -> ExtremaProgression:
    """Locate oscillation extrema in x = |t - t_c| and report same-type spacing ratios.

    Positions are refined by parabolic interpolation in ln(x). Spacing
    ratios (x_{k+1} - x_k) / (x_k - x_{k-1}) are formed separately within
    the minima and within the maxima; the scale-ratio estimate is the
    geometric mean of all ratios. Optional centered moving-average
    smoothing (width 1 = off) is applied before extremum detection.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise DataError("times and values must be equal-length 1-D arrays")
    if smooth_width < 1:
        raise DataError(f"smooth_width must be >= 1, got {smooth_width}")
    x = distance_to_critical(times, tc, direction)
    order = np.argsort(x)
    x = x[order]
    v = values[order]
    if np.any(np.diff(x) == 0.0):
        raise DataError("duplicate time points: extremum positions would be ambiguous")
    if smooth_width > 1:
        v = _moving_average(v, smooth_width)
        lo = (smooth_width - 1) // 2
        x = x[lo : lo + len(v)]

    u = np.log(x)
    min_pos, max_pos = [], []
    for i in range(1, len(v) - 1):
        if v[i] > v[i - 1] and v[i] > v[i + 1]:
            max_pos.append(math.exp(_refine_extremum(u, v, i)))
        elif v[i] < v[i - 1] and v[i] < v[i + 1]:
            min_pos.append(math.exp(_refine_extremum(u, v, i)))
    if len(min_pos) + len(max_pos) < 3:
        raise DataError(
            f"found {len(min_pos) + len(max_pos)} interior extrema, need at least 3"
        )

    def spacing_ratios(positions: list[float]) -> np.ndarray:
        if len(positions) < 3:
            return np.empty(0)
        gaps = np.diff(np.asarray(positions))
        return gaps[1:] / gaps[:-1]

    min_ratios = spacing_ratios(min_pos)
    max_ratios = spacing_ratios(max_pos)
    ratios = np.concatenate([min_ratios, max_ratios])
    if len(ratios) == 0:
        raise DataError("no extremum type occurs at least 3 times; cannot form spacing ratios")
    lam_hat = float(np.exp(np.mean(np.log(ratios))))
    return ExtremaProgression(
        minima=np.asarray(min_pos),
        maxima=np.asarray(max_pos),
        min_ratios=min_ratios,
        max_ratios=max_ratios,
        lambda_estimate=lam_hat,
    )
