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
in (A, B >= 0)). Stage 2 polishes the best node by Levenberg-Marquardt on
the variable-projection residual, within the grid's bounding box.
Rank-deficient nodes are skipped and counted.

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

from .choices import DIRECTIONS, VARIANTS
from .errors import DataError, NumericError
from .resources import pool_map, pool_workers

PHI_SCAN_POINTS = 64          # |cos| has period pi, so the scan covers [0, pi)
# A grid node is skipped when its normalized Gram determinant,
# det(G) / prod_k G_kk = prod_k d_k / G_kk over the LDL^T pivots d_k, is at or below this.
DEGENERACY_TOL = 1e-12
REFINE_TOL = 1e-8            # relative SSE gain below which the refine has converged
STEP_TOL = 1e-10             # relative parameter step below which the refine has converged
FD_STEP = math.sqrt(np.finfo(float).eps)   # relative forward-difference step of the Jacobian
MAX_REFINE_SWEEPS = 500      # Levenberg-Marquardt iterations
# Row-buffer budget of the grid stage: the lam blocks are sized so one t_c row's
# buffers fit in it, and the t_c row batches of the pool_map tasks running at
# once, one per worker, fit in it together. A task's gathered block of Gram
# entries (_scan_rows) takes at most its batch's row-buffer bytes, or one
# batch's entries where those are larger.
GRID_BLOCK_BYTES = 4 << 20


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
    converged: bool = False   # false when the refine stopped at MAX_REFINE_SWEEPS
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


def _linear_fit(x: np.ndarray, y: np.ndarray, lam: float, alpha: float,
                variant: str, phi: float | None) -> tuple[np.ndarray, np.ndarray] | None:
    """Design matrix and least-squares coefficients of one node's linear subproblem.

    Returns None when a design column is not finite.
    """
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
        return None
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if variant == "abs-cosine" and coef[1] < 0.0:
        # B >= 0 by convention; the constrained optimum sits on the boundary.
        a = float(design[:, 0] @ y / (design[:, 0] @ design[:, 0]))
        coef = np.array([a, 0.0])
    return design, coef


def _node_solve(x: np.ndarray, y: np.ndarray, lam: float, alpha: float,
                variant: str, phi: float | None) -> tuple[float, float, float, float]:
    """Least-squares linear subproblem at one grid node; returns (sse, a, b, phi)."""
    fit = _linear_fit(x, y, lam, alpha, variant, phi)
    if fit is None:
        return math.inf, 0.0, 0.0, 0.0
    design, coef = fit
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


def _ldl_scratch(size, shape):
    """Work buffers of _ldl_projection for size x size Gram matrices over node shape `shape`."""
    return np.empty((3 + size * (size + 1) // 2,) + tuple(shape))


def _ldl_projection(gram, rhs, y_sq, last_nonnegative, scratch, flag):
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

    Every intermediate is written with out= into scratch, made by
    _ldl_scratch(size, node shape), and the node-shaped bool array flag, so a
    call allocates no node-shaped array; the first pivot reads the inputs and
    writes each reduced entry to a slot of its own, and the results are views
    into scratch. Each value takes the same elementary operations in the same
    order as an allocating loop would (a - l*b is a multiply, then a
    subtract), so the buffering moves no bit: tests/test_lppl.py keeps that
    loop as the oracle. The running determinant starts at d_0 / G_00 rather
    than 1.0 times it, which is the same value.
    """
    size = len(rhs)
    det, sse_slot, tmp, mult, *slots = scratch
    slots = iter(slots)
    schur = [list(row) for row in gram]   # reduced to the trailing Schur complements
    z = list(rhs)
    sse = y_sq
    for k in range(size):
        d = schur[k][k]
        if k == 0:
            np.divide(d, gram[k][k], out=det)
        else:
            np.divide(d, gram[k][k], out=tmp)
            np.multiply(det, tmp, out=det)
        np.multiply(z[k], z[k], out=tmp)
        np.divide(tmp, d, out=tmp)
        if k == size - 1 and last_nonnegative:
            before, sse = sse, np.subtract(sse, tmp, out=tmp)
            np.copyto(sse, before, where=np.less(z[k], 0.0, out=flag))
        else:
            sse = np.subtract(sse, tmp, out=sse_slot)
        # The first pivot reduces the inputs into slots of their own; later pivots update those.
        for j in range(k + 1, size):
            np.divide(schur[j][k], d, out=mult)
            for m in range(k + 1, j + 1):
                np.multiply(mult, schur[m][k], out=tmp)
                out = next(slots) if k == 0 else schur[j][m]
                schur[j][m] = np.subtract(schur[j][m], tmp, out=out)
            np.multiply(mult, z[k], out=tmp)
            out = next(slots) if k == 0 else z[j]
            z[j] = np.subtract(z[j], tmp, out=out)
    return sse, det


def _row_bytes(n_t, n_lam, n_phi, abs_cosine):
    """Bytes of one t_c row's buffers over n_lam lams: theta, then per phi the
    oscillation columns and their product (for |cos|, also cos and sin of theta).

    This budget sizes the lam blocks and the row batches, and the block width
    sets the last bits of every grid SSE, so it keeps the |cos| product slot
    although _scan_rows now fills that slot in place, in the scan column
    itself. The node-shaped buffers of the gathered block (the Gram entries,
    the LDL^T tail's scratch and the node masks) are not counted here:
    _scan_rows gathers as many rows as fit in the batch's row-buffer bytes."""
    n_osc = 1 if abs_cosine else 2
    return 8 * n_t * n_lam * (1 + n_phi * (n_osc + 1) + 2 * abs_cosine)


def _cos_sin(theta, cos_out, sin_out):
    """cos(theta) and sin(theta) from one t = tan(theta / 2); theta is overwritten.

    cos = (1 - t**2) / (1 + t**2) and sin = 2t / (1 + t**2): one tangent,
    which numpy runs as a SIMD kernel where the CPU has one, instead of a
    cosine and a sine, which it runs as scalar libm calls. 1 + t**2 is kept
    in theta, so no buffer is allocated. Against np.cos and np.sin the error
    is at most 2.2e-16 over |theta| <= 1e5, close to multiples of pi/2
    included; a NaN or infinite theta gives NaN in both outputs.
    """
    np.multiply(theta, 0.5, out=theta)
    np.tan(theta, out=sin_out)
    np.multiply(sin_out, sin_out, out=cos_out)
    np.add(cos_out, 1.0, out=theta)
    np.subtract(1.0, cos_out, out=cos_out)
    np.divide(cos_out, theta, out=cos_out)
    np.add(sin_out, sin_out, out=sin_out)
    np.divide(sin_out, theta, out=sin_out)


def _scan_rows(logx, y, omegas, alphas, phis, abs_cosine, batch):
    """Best SSE and its t_c row for every (alpha, lam*phi) node over the rows of logx.

    Two phases over blocks of S rows. The row phase builds each row's basis
    and Gram entries `batch` rows at a time, on buffers with a leading batch
    axis: each row's arithmetic, a matrix product per row included, is the
    same as for a batch of one. Every product writes its entries with out=
    into the block's gathered node entries, laid out along the alpha axis as
    (S, slots * alpha, lam*phi), and the constant column's sum of env**2 and
    env.y into one (S, 2, alpha, 1) buffer. The tail phase then runs the node
    masks, the LDL^T projection, the degeneracy test, the skip count and the
    best-row merge once for all S rows, so its numpy calls, whose dispatch
    holds the interpreter lock, are divided by S rather than by `batch`.

    S is a whole number of batches, as many as keep the gathered block (the
    node entries, the LDL^T tail's scratch and the two node masks) within the
    bytes of the batch's row buffers (_row_bytes), at least one batch and at
    most all rows. Returns (best_sse, best_row, nodes skipped); each node
    keeps the first row that reaches its least SSE: argmin within a block,
    and a strict < against earlier blocks.

    Every buffer is allocated once per call and written with out=. For |cos|,
    the scan column holds |cos(theta + phi)| until the cross and
    right-hand-side product has read it, and then its square, so no second
    (lam*phi, T) array is made.
    """
    n_rows, n_t = logx.shape
    n_lam, n_alpha = len(omegas), len(alphas)
    n_osc = 1 if abs_cosine else 2
    n_cols = n_lam * len(phis)
    size = n_osc + 1
    # Entry slots of a row: each oscillation column's cross entry and right-hand
    # side, then the squared entries b_j * b_m (m <= j).
    n_slots = 2 * n_osc + n_osc * (n_osc + 1) // 2
    y_sq = float(y @ y)
    batch = min(batch, n_rows)
    # Block rows: whole batches, as many as keep the node-shaped buffers of a row (its
    # entries, the tail's scratch and the two masks, each counted at 8 bytes a node)
    # within the batch's row-buffer bytes.
    n_scratch = 3 + size * (size + 1) // 2
    tail_bytes = 8 * (n_slots + n_scratch + 2) * n_alpha * n_cols
    row_bytes = _row_bytes(n_t, n_lam, len(phis), abs_cosine)
    block_rows = min(n_rows, batch * max(1, row_bytes // tail_bytes))
    # Row buffers shared by every batch; a short last batch uses their leading rows.
    theta = np.empty((batch, n_lam, n_t))
    basis = np.empty((batch, n_osc, n_cols, n_t))    # the oscillation columns
    # The |cos| scan column is squared in place once the cross and right-hand-side
    # product has read it; the cosine columns are all still read by later products.
    product = basis[:, 0] if abs_cosine else np.empty((batch, n_cols, n_t))
    env = np.empty((batch, n_alpha, n_t))
    weights = np.empty((batch, 2 * n_alpha, n_t))
    # The gathered block; a short last block uses its leading rows.
    entries = np.empty((block_rows, n_slots * n_alpha, n_cols))
    slots = entries.reshape(block_rows, n_slots, n_alpha, n_cols)
    sums = np.empty((block_rows, 2, n_alpha, 1))     # sum of env**2 and env.y
    tail = _ldl_scratch(size, (block_rows, n_alpha, n_cols))
    ok_buf = np.empty((block_rows, n_alpha, n_cols), dtype=bool)
    flag_buf = np.empty_like(ok_buf)
    if abs_cosine:
        # cos(theta + phi) = cos(phi) cos(theta) - sin(phi) sin(theta): each phi's
        # column is a fixed rotation of (cos theta, sin theta).
        rotation = np.column_stack([np.cos(phis), -np.sin(phis)])
        cos_sin = np.empty((batch, n_lam, 2, n_t))

    best_sse = np.full((n_alpha, n_cols), np.inf)
    best_row = np.zeros(best_sse.shape, dtype=int)
    skipped = 0
    for block in range(0, n_rows, block_rows):
        n = min(block_rows, n_rows - block)
        for lo in range(0, n, batch):
            logx_rows = logx[block + lo:block + min(lo + batch, n), None, :]
            k = len(logx_rows)
            theta_k, basis_k, product_k, env_k = theta[:k], basis[:k], product[:k], env[:k]
            env_sq, env_y = weights[:k, :n_alpha], weights[:k, n_alpha:]
            row_slots = slots[lo:lo + k]
            np.multiply(omegas[:, None], logx_rows, out=theta_k)
            if abs_cosine:
                _cos_sin(theta_k, cos_sin[:k, :, 0], cos_sin[:k, :, 1])
                scan = basis_k[:, 0].reshape(k, n_lam, PHI_SCAN_POINTS, n_t)
                np.matmul(rotation, cos_sin[:k], out=scan)
                np.abs(scan, out=scan)
            else:
                _cos_sin(theta_k, basis_k[:, 0], basis_k[:, 1])

            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(alphas[:, None], logx_rows, out=env_k)
                np.exp(env_k, out=env_k)
                np.multiply(env_k, env_k, out=env_sq)
                np.multiply(env_k, y, out=env_y)
                # Gram entries and right-hand sides over (row, alpha, lam*phi); the
                # constant column's entries broadcast over lam*phi.
                np.sum(env_sq, axis=2, out=sums[lo:lo + k, 0, :, 0])
                np.matmul(env_k, y, out=sums[lo:lo + k, 1, :, 0])
                if abs_cosine:
                    # One product of the stacked [env**2; env * y] gives both slots.
                    np.matmul(weights[:k], basis_k[:, 0].swapaxes(1, 2),
                              out=entries[lo:lo + k, :2 * n_alpha])
                else:
                    for j in range(n_osc):
                        b = basis_k[:, j].swapaxes(1, 2)
                        np.matmul(env_sq, b, out=row_slots[:, 2 * j])
                        np.matmul(env_y, b, out=row_slots[:, 2 * j + 1])
                for j in range(n_osc):
                    for m in range(j + 1):
                        np.multiply(basis_k[:, j], basis_k[:, m], out=product_k)
                        np.matmul(env_sq, product_k.swapaxes(1, 2),
                                  out=row_slots[:, 2 * n_osc + j * (j + 1) // 2 + m])

        # Lower triangle of each node's Gram matrix and its right-hand side.
        gram = [[sums[:n, 0]]]
        rhs = [sums[:n, 1]]
        for j in range(n_osc):
            gram.append([slots[:n, 2 * j]]
                        + [slots[:n, 2 * n_osc + j * (j + 1) // 2 + m] for m in range(j + 1)])
            rhs.append(slots[:n, 2 * j + 1])
        ok, flag = ok_buf[:n], flag_buf[:n]
        gathered = itertools.chain(*gram, rhs)
        np.isfinite(next(gathered), out=ok)
        for entry in gathered:
            ok &= np.isfinite(entry, out=flag)
        for m, gram_row in enumerate(gram):
            ok &= np.greater(gram_row[m], 0.0, out=flag)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sse, det = _ldl_projection(gram, rhs, y_sq, abs_cosine, tail[:, :n], flag)
        ok &= np.isfinite(det, out=flag)
        ok &= np.greater(det, DEGENERACY_TOL, out=flag)
        skipped += int(ok.size - np.count_nonzero(ok))
        if not ok.any():
            continue

        # Skipped nodes get an infinite SSE, and so do NaN SSEs, which never win,
        # as under a row-by-row strict <.
        blank = np.logical_not(ok, out=ok)
        blank |= np.isnan(sse, out=flag)
        np.copyto(sse, np.inf, where=blank)
        # argmin takes the first row of the block that reaches the minimum, and the
        # strict < keeps an earlier block's row on a tie.
        block_sse = sse.min(axis=0)
        better = block_sse < best_sse
        best_sse[better] = block_sse[better]
        best_row[better] = block + sse.argmin(axis=0)[better]
    return best_sse, best_row, skipped


def _scan_grid(logx, y, omegas, alphas, phis, abs_cosine, blocks):
    """Best SSE and its t_c row for every (alpha, lam*phi) node, over the lam blocks.

    Returns (best_sse, best_row, nodes skipped); best_sse and best_row have
    shape (alpha, lam*phi), lam-major, and each node keeps the first t_c row
    that reaches its least SSE.

    The t_c rows are split into W = min(pool_workers(), rows) contiguous
    slabs, and every (lam block, slab) pair is one task of a single
    resources.pool_map over W threads. A task builds its slab's Gram entries
    R rows at a time (_scan_rows), with R = max(1, GRID_BLOCK_BYTES // (W *
    one row's buffers for the block)), so the row buffers of all workers
    together stay within GRID_BLOCK_BYTES unless one row's alone exceed it,
    and runs the LDL^T tail once per gathered block of S rows, a whole number
    of batches whose entries fit in the batch's row-buffer bytes. Batching
    divides the Python-level dispatch, which holds the interpreter lock, by R
    in the row phase and by S in the tail. Each block's slabs are merged in
    row order under a strict <, so the worker count changes no output bit.
    """
    n_rows, n_t = logx.shape
    workers = min(pool_workers(), n_rows)
    slabs = [(s[0], s[-1] + 1) for s in np.array_split(np.arange(n_rows), workers)]
    tasks = [(block, slab) for block in blocks for slab in slabs]

    def scan(task):
        (lam_lo, lam_hi), (lo, hi) = task
        row_bytes = _row_bytes(n_t, lam_hi - lam_lo, len(phis), abs_cosine)
        batch = max(1, GRID_BLOCK_BYTES // (workers * row_bytes))
        return _scan_rows(logx[lo:hi], y, omegas[lam_lo:lam_hi], alphas, phis, abs_cosine, batch)

    best_sse, best_row, skipped = [], [], 0
    for (_, (lo, _)), (sse, row, slab_skipped) in zip(tasks, pool_map(scan, tasks, workers)):
        skipped += slab_skipped
        if lo == 0:     # a block's first slab
            best_sse.append(sse)
            best_row.append(row)
            continue
        better = sse < best_sse[-1]
        best_sse[-1][better] = sse[better]
        best_row[-1][better] = lo + row[better]
    return np.concatenate(best_sse, axis=1), np.concatenate(best_row, axis=1), skipped


def _grid_stage(times, y, config, diag):
    """Scan every (t_c, lam, alpha[, phi]) node; return (grid_sse, best node or None).

    The oscillation columns b_j of one lam (and phi) are cos(theta), sin(theta)
    for "cosine" (phi = 0 only) and |cos(theta + phi)| over the phi scan for
    "abs-cosine"; the |cos| scan rotates (cos theta, sin theta) by every phi in
    one batched product. With env = x**alpha, each Gram entry for all
    (alpha, lam*phi) nodes of a t_c row is one matrix product, env**2 @ (b_j * b_k).T,
    and each right-hand side is (env * y) @ b_j.T; for "abs-cosine" the cross
    entry and the right-hand side come from one product of the stacked
    [env**2; env * y]. _ldl_projection turns these entries into each node's SSE
    and normalized determinant with a closed-form LDL^T: no matrix is assembled
    and no LAPACK routine runs per node. The entries are gathered over blocks
    of t_c rows, and the tail runs once per block (_scan_rows): each row's
    products keep their operand shapes and the tail is elementwise, so the
    block size moves no bit. A node is skipped, and counted, unless
    its Gram and right-hand-side entries are finite, its diagonal is positive
    and its normalized determinant is finite and above DEGENERACY_TOL. For
    "abs-cosine", B >= 0: a node whose unconstrained B is negative (z_last < 0)
    takes the SSE of the envelope column alone, y.y - (env.y)**2 / (env.env).

    cos(theta) and sin(theta) come from one tan(theta / 2) (_cos_sin), within
    2.2e-16 of np.cos and np.sin over |theta| <= 1e5. numpy runs tan on a
    SIMD kernel where the CPU has one and cos and sin as scalar libm calls,
    so this cut a 500-point default-grid cosine stage from about 130 to
    80 ms (2-core Xeon VM with AVX-512, numpy 2.4, BLAS on one thread and
    2 pool workers). A grid SSE's last bits therefore follow numpy's SIMD dispatch, as
    they already follow the BLAS kernel. The grid only picks a node:
    _node_solve, _refine and evaluate_model keep np.cos and np.sin, so a fit
    that starts its refine from the same node gives the same bytes.

    The lam grid is scanned in contiguous blocks, as few as keep one block's
    row buffers (theta, the oscillation columns and their product) within
    GRID_BLOCK_BYTES, sized evenly; the block count depends only on the grids
    and the series length, since the block width sets the last bits of a
    node's SSE. _scan_grid maps every (block, slab of t_c rows) pair in one
    resources.pool_map; their numpy and BLAS work releases the interpreter
    lock. The blocks' best-SSE and best-row arrays are joined in lam order,
    so ties resolve to the first node in (lam, alpha, phi, t_c) order, as in
    a single scan.
    """
    tc_grid = config.tc_grid
    if config.direction == "bubble":
        x = tc_grid[:, None] - times[None, :]
    else:
        x = times[None, :] - tc_grid[:, None]
    logx = np.log(x, out=x)
    # math.log as in _node_solve, so both stages see the same frequency for a node.
    omegas = np.array([2.0 * math.pi / math.log(lam) for lam in config.lam_grid])
    alphas = config.alpha_grid
    abs_cosine = config.variant == "abs-cosine"
    if abs_cosine:
        phis = np.arange(PHI_SCAN_POINTS) * (math.pi / PHI_SCAN_POINTS)
    else:
        phis = np.zeros(1)
    lam_bytes = _row_bytes(len(times), 1, len(phis), abs_cosine)
    n_blocks = min(len(omegas), -(-len(omegas) * lam_bytes // GRID_BLOCK_BYTES))
    blocks = [(b[0], b[-1] + 1) for b in np.array_split(np.arange(len(omegas)), n_blocks)]

    best_sse, best_row, skipped = _scan_grid(logx, y, omegas, alphas, phis, abs_cosine, blocks)
    diag.grid_nodes += len(tc_grid) * best_sse.size
    diag.nodes_skipped += skipped

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
    """Projected Levenberg-Marquardt on the variable-projection residual.

    The nonlinear parameters p = (t_c, lam, alpha), plus phi for "abs-cosine",
    are polished on r(p) = y - X(p) beta(p), where beta(p) solves the node's
    linear subproblem (_linear_fit), so the amplitudes never enter the search
    (Golub & Pereyra). The Jacobian of r is taken by forward differences.
    Each iteration solves the damped normal equations
    (J^T J + mu diag(J^T J)) d = -J^T r and clamps p + d to the grid's
    bounding box; mu falls tenfold after a step that lowers the SSE and rises
    tenfold after one that does not. A coordinate on a bound whose descent
    direction leaves the box, or whose Jacobian column is zero, is held for
    the iteration. The clamp makes the refine polish the best node within the
    configured search region rather than re-search globally, which also keeps
    it out of degenerate slow-oscillation basins far outside the intended lam
    range. Returns [t_c, lam, alpha, phi] (phi 0 for "cosine").

    diag.refine_sweeps counts the iterations. The refine has converged when an
    accepted step lowers the SSE by at most REFINE_TOL of it, when every
    coordinate of a step is below STEP_TOL of its scale max(|p_i|, 1), or
    when no coordinate is free to move; it stops unconverged after
    MAX_REFINE_SWEEPS iterations.
    """
    tc, lam, alpha, phi = start
    n_params = 4 if config.variant == "abs-cosine" else 3
    p = np.array([tc, lam, alpha, 0.0 if phi is None else phi])[:n_params]
    grids = (config.tc_grid, config.lam_grid, config.alpha_grid)
    lo = np.array([float(g.min()) for g in grids] + [-math.inf])[:n_params]
    hi = np.array([float(g.max()) for g in grids] + [math.inf])[:n_params]   # phi is periodic

    def residual(q):
        x = q[0] - times if config.direction == "bubble" else times - q[0]
        fit = _linear_fit(x, y, q[1], q[2], config.variant, q[3] if n_params == 4 else None)
        return None if fit is None else y - fit[0] @ fit[1]

    def jacobian(q, r):
        h = FD_STEP * np.maximum(np.abs(q), 1.0)
        h = np.where(q + h <= hi, h, -h)    # difference into the box
        jac = np.zeros((len(y), n_params))
        for i in range(n_params):
            probe = q.copy()
            probe[i] += h[i]
            r_probe = residual(probe) if lo[i] <= probe[i] <= hi[i] else None
            if r_probe is not None:     # otherwise the column stays zero and p_i is held
                jac[:, i] = (r_probe - r) / h[i]
        return jac

    r = residual(p)
    iterations = 0
    if r is not None:
        sse = float(r @ r)
        jac = jacobian(p, r)
        mu = 1e-3
        while iterations < MAX_REFINE_SWEEPS and sse > 0.0:
            iterations += 1
            grad = jac.T @ r
            free = (np.any(jac != 0.0, axis=0)
                    & ((p > lo) | (grad < 0.0)) & ((p < hi) | (grad > 0.0)))
            if not free.any():
                diag.converged = True
                break
            sub = jac[:, free]
            normal = sub.T @ sub
            normal[np.diag_indices_from(normal)] *= 1.0 + mu
            trial = p.copy()
            trial[free] += np.linalg.solve(normal, -grad[free])
            np.clip(trial, lo, hi, out=trial)
            if np.all(np.abs(trial - p) <= STEP_TOL * np.maximum(np.abs(p), 1.0)):
                diag.converged = True
                break
            r_trial = residual(trial)
            sse_trial = math.inf if r_trial is None else float(r_trial @ r_trial)
            if not sse_trial < sse:
                mu *= 10.0
                continue
            gain = sse - sse_trial
            p, r, sse = trial, r_trial, sse_trial
            mu = max(0.1 * mu, np.finfo(float).eps)   # keeps the damping 1 + mu above 1
            if gain <= REFINE_TOL * (sse + gain):
                diag.converged = True
                break
            jac = jacobian(p, r)
        else:
            diag.converged = sse == 0.0
    diag.refine_sweeps = iterations
    return [float(v) for v in p] + [0.0] * (4 - n_params)


def fit_model(times, values, config: FitConfig | None = None) -> LpplFitResult:
    """Two-stage deterministic fit of the log-periodic model to (time, value) data.

    Stage 1 evaluates every (t_c, lam, alpha) grid node (the t_c grid is
    clipped so all data stay strictly on the correct side of t_c); stage 2
    refines the best node by Levenberg-Marquardt (see _refine). Ties between
    equal-SSE nodes resolve to the first node in grid order.
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

    tc, lam, alpha, phi = _refine(times, values, config, node, diag)
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
    if smooth_width > len(times):
        raise DataError(f"smooth_width {smooth_width} exceeds the {len(times)} points of the series")
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
