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

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericError

VARIANTS = ("cosine", "abs-cosine")
DIRECTIONS = ("bubble", "antibubble")

PHI_SCAN_POINTS = 64          # |cos| has period pi, so the scan covers [0, pi)
# A grid node is skipped when its normalized Gram determinant,
# det(G) / prod_k G_kk = prod_k d_k / G_kk over the LDL^T pivots d_k, is at or below this.
DEGENERACY_TOL = 1e-12
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
        for name, value in (("t_c", self.tc), ("alpha", self.alpha), ("lam", self.lam),
                            ("phi", self.phi), ("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if not self.lam > 1.0:
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
    ratios: np.ndarray
    lambda_estimate: float


def distance_to_critical(times: np.ndarray, tc: float, direction: str) -> np.ndarray:
    """x = |t - t_c| with the sign convention of the given direction; rejects wrong-side points."""
    times = np.asarray(times, dtype=float)
    if not math.isfinite(tc):
        raise DataError(f"t_c must be finite, got {tc}")
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


def _grid_array(values, name: str) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    if grid.size == 0:
        raise DataError(f"{name} grid is empty")
    if not np.all(np.isfinite(grid)):
        raise DataError(f"{name} grid has a non-finite node: {grid[~np.isfinite(grid)][0]}")
    return grid


@dataclass
class FitConfig:
    """Search grids, model variant and direction for fit_model."""

    tc_grid: np.ndarray
    lam_grid: np.ndarray
    alpha_grid: np.ndarray
    variant: str = "cosine"
    direction: str = "bubble"

    def __post_init__(self) -> None:
        self.tc_grid = _grid_array(self.tc_grid, "t_c")
        self.lam_grid = _grid_array(self.lam_grid, "lam")
        self.alpha_grid = _grid_array(self.alpha_grid, "alpha")
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


def _ldl_projection(gram, rhs, y_sq, last_nonnegative):
    """Residual of projecting y onto a batch of bases, and their normalized Gram determinants.

    gram[j][k] (k <= j) and rhs[j] hold the lower triangle of each node's Gram
    matrix G and its right-hand side r, as arrays that broadcast over the batch.
    Symmetric elimination without pivoting factors G = L D L^T elementwise, with
    pivots d_k, multipliers l_jk and the forward substitution z = L^-1 r, so
        SSE = y.y - r^T G^-1 r = y.y - sum_k z_k**2 / d_k,
        det(G) / prod_k G_kk = prod_k d_k / G_kk.
    The last amplitude is z_last / d_last. With last_nonnegative, a node with
    z_last < 0 (every d_k > 0 on a node that passes the degeneracy test) gets
    the boundary SSE with that amplitude pinned at 0: the residual before the
    last pivot. Returns (sse, normalized determinant).
    """
    size = len(rhs)
    schur = [list(row) for row in gram]   # reduced in place to the trailing Schur complements
    z = list(rhs)
    sse, det = y_sq, 1.0
    for k in range(size):
        d = schur[k][k]
        det = det * (d / gram[k][k])
        before = sse
        sse = sse - z[k] * z[k] / d
        for j in range(k + 1, size):
            l_jk = schur[j][k] / d
            for m in range(k + 1, j + 1):
                schur[j][m] = schur[j][m] - l_jk * schur[m][k]
            z[j] = z[j] - l_jk * z[k]
    if last_nonnegative:
        sse = np.where(z[-1] < 0.0, before, sse)
    return sse, det


def _grid_stage(times, y, config, diag):
    """Scan every (t_c, lam, alpha[, phi]) node; return (grid_sse, best node or None).

    The oscillation columns b_j of one lam (and phi) are cos(theta), sin(theta)
    for "cosine" (phi = 0 only) and |cos(theta + phi)| over the phi scan for
    "abs-cosine". With env = x**alpha, each Gram entry for all (alpha, lam*phi)
    nodes of a t_c row is one matrix product, env**2 @ (b_j * b_k).T, and each
    right-hand side is (env * y) @ b_j.T. _ldl_projection turns these entries
    into each node's SSE and normalized determinant with a closed-form LDL^T:
    no matrix is assembled and no LAPACK routine runs per node. A node is
    skipped, and counted, unless its Gram and right-hand-side entries are
    finite, its diagonal is positive and its normalized determinant is finite
    and above DEGENERACY_TOL. For "abs-cosine", B >= 0: a node whose unconstrained
    B is negative (z_last < 0) takes the SSE of the envelope column alone,
    y.y - (env.y)**2 / (env.env). Ties resolve to the first node in
    (lam, alpha, phi, t_c) order.
    """
    tc_grid = config.tc_grid
    if config.direction == "bubble":
        x = tc_grid[:, None] - times[None, :]
    else:
        x = times[None, :] - tc_grid[:, None]
    logx = np.log(x)
    y_sq = float(y @ y)
    # math.log as in _node_solve, so both stages see the same frequency for a node.
    omegas = np.array([2.0 * math.pi / math.log(lam) for lam in config.lam_grid])
    alphas = config.alpha_grid
    if config.variant == "cosine":
        phis, n_osc = np.zeros(1), 2
    else:
        phis, n_osc = np.arange(PHI_SCAN_POINTS) * (math.pi / PHI_SCAN_POINTS), 1
    n_cols = len(omegas) * len(phis)
    # Work buffers shared by every t_c row: the oscillation columns and one product of them.
    basis = np.empty((n_osc, n_cols, len(times)))
    product = np.empty((n_cols, len(times)))

    best_sse = np.full((len(alphas), n_cols), np.inf)
    best_row = np.zeros(best_sse.shape, dtype=int)
    for row, logx_row in enumerate(logx):
        theta = omegas[:, None] * logx_row[None, :]
        if config.variant == "cosine":
            np.cos(theta, out=basis[0])
            np.sin(theta, out=basis[1])
        else:
            shifted = basis[0].reshape(len(omegas), len(phis), -1)
            np.add(theta[:, None, :], phis[None, :, None], out=shifted)
            np.abs(np.cos(shifted, out=shifted), out=shifted)

        with np.errstate(over="ignore", invalid="ignore"):
            env = np.exp(alphas[:, None] * logx_row[None, :])
            env_sq = env * env
            env_y = env * y
            # Lower triangle of the Gram matrix and the right-hand side, entry by entry,
            # over (alpha, lam*phi); the constant column's entries broadcast over lam*phi.
            gram = [[env_sq.sum(axis=1)[:, None]]]
            rhs = [(env @ y)[:, None]]
            for j in range(n_osc):
                gram_row = [env_sq @ basis[j].T]
                for k in range(j + 1):
                    np.multiply(basis[j], basis[k], out=product)
                    gram_row.append(env_sq @ product.T)
                gram.append(gram_row)
                rhs.append(env_y @ basis[j].T)

        ok = np.ones(best_sse.shape, dtype=bool)
        for entry in itertools.chain(*gram, rhs):
            ok &= np.isfinite(entry)
        for k, gram_row in enumerate(gram):
            ok &= gram_row[k] > 0.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sse, det = _ldl_projection(gram, rhs, y_sq, config.variant == "abs-cosine")
        ok &= np.isfinite(det) & (det > DEGENERACY_TOL)
        diag.grid_nodes += ok.size
        diag.nodes_skipped += int(ok.size - ok.sum())
        if not ok.any():
            continue

        sse = np.where(ok, sse, np.inf)
        better = sse < best_sse
        best_sse[better] = sse[better]
        best_row[better] = row

    # Reorder (alpha, lam, phi) to grid order so that argmin takes the first of equal minima.
    shape = (len(alphas), len(omegas), len(phis))
    best_sse = best_sse.reshape(shape).transpose(1, 0, 2)
    best_row = best_row.reshape(shape).transpose(1, 0, 2)
    i_lam, i_alpha, i_phi = np.unravel_index(np.argmin(best_sse), best_sse.shape)
    grid_sse = best_sse[i_lam, i_alpha, i_phi]
    if grid_sse == math.inf:
        return math.inf, None
    phi = None if config.variant == "cosine" else float(phis[i_phi])
    tc = float(tc_grid[best_row[i_lam, i_alpha, i_phi]])
    return _sse_floor(grid_sse), (tc, float(config.lam_grid[i_lam]), float(alphas[i_alpha]), phi)


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
        math.pi / PHI_SCAN_POINTS,
    ]
    initial_steps = list(steps)

    # Re-evaluate through the same route used for trial points so the
    # improvement comparisons are apples to apples.
    best_sse = objective(params)
    sweeps = 0
    while sweeps < MAX_REFINE_SWEEPS:
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
        if change < REFINE_TOL:
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
    grid_sse, node = _grid_stage(times, values, config, diag)
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

    ratios = np.concatenate([spacing_ratios(min_pos), spacing_ratios(max_pos)])
    if len(ratios) == 0:
        raise DataError("no extremum type occurs at least 3 times; cannot form spacing ratios")
    lam_hat = float(np.exp(np.mean(np.log(ratios))))
    return ExtremaProgression(
        minima=np.asarray(min_pos),
        maxima=np.asarray(max_pos),
        ratios=ratios,
        lambda_estimate=lam_hat,
    )
