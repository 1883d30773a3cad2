"""Single entry-point command wiring the library to files.

Subcommands cover the full pipeline: `returns`, `corr`, `spectrum`,
`global-spectrum`, `lppl-fit`, `extrema`, `weierstrass-eval`,
`weierstrass-walk`, `rpa-demo` and `spacing-stats`. Every run writes its
output files plus a `<subcommand>_manifest.json` echoing the resolved
configuration, the seed (where randomness is involved) and library
versions, so any output can be reproduced byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Failures also emit one machine-readable JSON line on stderr.

A JSON config file may preload option values per subcommand
(`{"spectrum": {"window_length": 30}}`); explicit flags override it.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, corr, lppl, marketdata, output, rpa, spectral, weierstrass
from .errors import DataError, NumericError


def _echo_config(params: dict) -> dict:
    """Manifest-ready echo of the resolved options (output location excluded)."""
    echo = {}
    for key, value in sorted(params.items()):
        if key in ("out_dir",):
            continue
        if isinstance(value, tuple):
            value = list(value)
        if isinstance(value, Path):
            value = str(value)
        echo[key] = value
    return echo


def _finish(
    subcommand: str,
    out_dir: str,
    params: dict,
    outputs: list[str],
    seed: int | None = None,
    extra: dict | None = None,
) -> None:
    config = _echo_config(params)
    if extra:
        config.update(extra)
    manifest = output.run_manifest(subcommand, config, seed, outputs)
    name = subcommand.replace("-", "_") + "_manifest.json"
    output.write_json(Path(out_dir) / name, manifest)
    click.echo(f"{subcommand}: wrote {', '.join(outputs)} and {name} in {out_dir}")


def _ensure_out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_panel(paths, schema, tau: int, min_coverage: float) -> marketdata.ReturnPanel:
    series = marketdata.merge_price_series(marketdata.load_price_series(p, schema) for p in paths)
    return marketdata.align_calendars(marketdata.compute_returns(series, tau), min_coverage)


_INPUT_OPTIONS = [
    click.option("--date-col", default="date", show_default=True, help="Date column name."),
    click.option("--asset-col", default="asset", show_default=True, help="Asset-id column name."),
    click.option("--price-col", default="price", show_default=True, help="Price column name."),
    click.option("--delimiter", default=",", show_default=True, help="Field delimiter."),
    click.option("--tau", default=1, show_default=True, type=click.IntRange(min=1),
                 help="Return lag in trading days."),
    click.option("--min-coverage", default=1.0, show_default=True, type=click.FloatRange(0.0, 1.0),
                 help="Drop assets covering less of the majority calendar."),
]


_SERIES_OPTIONS = [
    click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False),
                 help="Series file with date and value columns."),
    click.option("--date-col", default="date", show_default=True, help="Date column name."),
    click.option("--value-col", default="price", show_default=True, help="Value column name."),
    click.option("--delimiter", default=",", show_default=True, help="Field delimiter."),
    click.option("--log/--no-log", "take_log", default=True, show_default=True,
                 help="Use the natural log of the values."),
]


def _with_options(options):
    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return decorate


def _load_series(input_path, date_col, value_col, delimiter, take_log):
    """(origin date, days since origin, values or their log) of a series file."""
    dates, values = marketdata.load_value_series(input_path, date_col, value_col, delimiter)
    if take_log:
        if np.any(values <= 0):
            raise DataError("cannot take the log of non-positive values; use --no-log")
        values = np.log(values)
    origin = dates[0]
    return origin, np.array([(d - origin).days for d in dates], dtype=float), values


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with per-subcommand option defaults.")
@click.version_option(version=__version__, prog_name="collectivity")
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Collectivity diagnostics: correlation spectra, log-periodic fits, exact oracles."""
    if config_path:
        with open(config_path) as fh:
            try:
                ctx.default_map = json.load(fh)
            except json.JSONDecodeError as exc:
                raise click.UsageError(f"config file {config_path}: {exc}") from exc


@cli.command()
@click.option("--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Price file(s).")
@_with_options(_INPUT_OPTIONS)
@click.option("--out-dir", default=".", show_default=True, help="Output directory.")
@click.pass_context
def returns(ctx, inputs, date_col, asset_col, price_col, delimiter, tau, min_coverage, out_dir):
    """Compute the aligned log-return panel from price files."""
    out = _ensure_out_dir(out_dir)
    schema = marketdata.ColumnSchema(date_col, asset_col, price_col, delimiter)
    panel = _load_panel(inputs, schema, tau, min_coverage)
    output.write_panel_tsv(out / "returns.tsv", panel)
    _finish("returns", out_dir, ctx.params, ["returns.tsv"],
            extra={"alignment_policy": "intersect"})


@cli.command(name="corr")
@click.option("--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Price file(s).")
@_with_options(_INPUT_OPTIONS)
@click.option("--window-start", default=None, help="ISO date; first day of the window.")
@click.option("--window-end", default=None, help="ISO date; last day of the window.")
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def corr_cmd(ctx, inputs, date_col, asset_col, price_col, delimiter, tau, min_coverage,
             window_start, window_end, out_dir):
    """Correlation matrix over one window (default: the whole panel)."""
    out = _ensure_out_dir(out_dir)
    schema = marketdata.ColumnSchema(date_col, asset_col, price_col, delimiter)
    panel = _load_panel(inputs, schema, tau, min_coverage)
    window = None
    if (window_start is None) != (window_end is None):
        raise click.UsageError("--window-start and --window-end must be given together")
    if window_start is not None:
        try:
            window = (dt.date.fromisoformat(window_start), dt.date.fromisoformat(window_end))
        except ValueError as exc:
            raise click.UsageError(f"bad window date: {exc}") from exc
    matrix = corr.correlation_matrix(panel, window)
    output.write_matrix_tsv(out / "corr_matrix.tsv", matrix)
    output.write_matrix_metadata(out / "corr_matrix.meta.json", matrix)
    _finish("corr", out_dir, ctx.params, ["corr_matrix.tsv", "corr_matrix.meta.json"],
            extra={"alignment_policy": "intersect"})


@cli.command()
@click.option("--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Price file(s).")
@_with_options(_INPUT_OPTIONS)
@click.option("--window-length", default=corr.DEFAULT_WINDOW, show_default=True,
              type=click.IntRange(min=2), help="Rolling window length in trading days.")
@click.option("--step", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--vectors/--no-vectors", default=True, show_default=True,
              help="Also write the leading eigenvector per window.")
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def spectrum(ctx, inputs, date_col, asset_col, price_col, delimiter, tau, min_coverage,
             window_length, step, vectors, out_dir):
    """Rolling eigenspectrum trace of the single-market correlation matrix."""
    out = _ensure_out_dir(out_dir)
    schema = marketdata.ColumnSchema(date_col, asset_col, price_col, delimiter)
    panel = _load_panel(inputs, schema, tau, min_coverage)
    trace = spectral.spectrum_trace(corr.rolling_windows(panel, window_length, step))
    files = ["spectrum_trace.tsv"]
    output.write_spectrum_trace(out / "spectrum_trace.tsv", trace)
    if vectors:
        output.write_leading_vectors(out / "spectrum_vectors.tsv", trace, panel.assets)
        files.append("spectrum_vectors.tsv")
    _finish("spectrum", out_dir, ctx.params, files, extra={"alignment_policy": "intersect"})


@cli.command(name="global-spectrum")
@click.option("--input-a", "inputs_a", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Market A price file(s).")
@click.option("--input-b", "inputs_b", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Market B price file(s).")
@_with_options(_INPUT_OPTIONS)
@click.option("--shift-days", default=0, show_default=True, type=int,
              help="Trading-day shift applied to market A before correlating.")
@click.option("--window-length", default=corr.DEFAULT_GLOBAL_WINDOW, show_default=True,
              type=click.IntRange(min=2))
@click.option("--step", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def global_spectrum(ctx, inputs_a, inputs_b, date_col, asset_col, price_col, delimiter, tau,
                    min_coverage, shift_days, window_length, step, out_dir):
    """Rolling spectrum of the 2-block cross-market correlation matrix.

    Emits per-window collectivity metrics (gap ratio, dominance,
    participation ratio) alongside the eigenvalues.
    """
    out = _ensure_out_dir(out_dir)
    schema = marketdata.ColumnSchema(date_col, asset_col, price_col, delimiter)
    panel_a = _load_panel(inputs_a, schema, tau, min_coverage)
    panel_b = _load_panel(inputs_b, schema, tau, min_coverage)
    merged = corr.merge_panels(panel_a, panel_b, shift_days)
    trace = spectral.spectrum_trace(corr.rolling_windows(merged, window_length, step))
    header = ["window_end_date", "gap_ratio", "dominance", "participation_ratio"] + [
        f"lambda_{i + 1}" for i in range(merged.n_assets)
    ]
    metrics = [spectral.collectivity_metrics(s) for s in trace.snapshots]
    output.write_tsv(
        out / "global_trace.tsv",
        header,
        ([s.window_end, m.gap_ratio, m.dominance, m.participation_ratio]
         + s.eigenvalues.tolist() for s, m in zip(trace.snapshots, metrics)),
    )
    output.write_json(
        out / "global_blocks.json",
        {
            "assets": merged.assets,
            "block_split": panel_a.n_assets,
            "shift_days": shift_days,
            "alignment_policy": "intersect",
        },
    )
    _finish("global-spectrum", out_dir, ctx.params,
            ["global_trace.tsv", "global_blocks.json"],
            extra={"alignment_policy": "intersect"})


def _grid(lo: float | None, hi: float | None, nodes: int, default: np.ndarray) -> np.ndarray:
    """nodes points from lo to hi; with neither bound given, the default grid's span."""
    if lo is None and hi is None:
        lo, hi = default[0], default[-1]
    elif lo is None or hi is None:
        raise click.UsageError("grid bounds must be given as a min/max pair")
    if hi < lo:
        raise click.UsageError(f"grid bounds out of order: [{lo}, {hi}]")
    # Non-finite bounds give a non-finite grid, which FitConfig rejects by name.
    with np.errstate(invalid="ignore"):
        return np.linspace(lo, hi, nodes)


@cli.command(name="lppl-fit")
@_with_options(_SERIES_OPTIONS)
@click.option("--variant", type=click.Choice(lppl.VARIANTS), default="cosine", show_default=True)
@click.option("--direction", type=click.Choice(lppl.DIRECTIONS), default="bubble", show_default=True)
@click.option("--tc-min", type=float, default=None, help="t_c grid start, days from series start.")
@click.option("--tc-max", type=float, default=None, help="t_c grid end, days from series start.")
@click.option("--tc-nodes", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--lam-min", type=float, default=None)
@click.option("--lam-max", type=float, default=None)
@click.option("--lam-nodes", type=click.IntRange(min=1), default=41, show_default=True)
@click.option("--alpha-min", type=float, default=None)
@click.option("--alpha-max", type=float, default=None)
@click.option("--alpha-nodes", type=click.IntRange(min=1), default=21, show_default=True)
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def lppl_fit(ctx, input_path, date_col, value_col, delimiter, take_log, variant, direction,
             tc_min, tc_max, tc_nodes, lam_min, lam_max, lam_nodes,
             alpha_min, alpha_max, alpha_nodes, out_dir):
    """Fit the log-periodic power law; t_c is searched in days since the series start."""
    out = _ensure_out_dir(out_dir)
    origin, times, values = _load_series(input_path, date_col, value_col, delimiter, take_log)
    defaults = lppl.default_fit_config(times, variant, direction)
    config = lppl.FitConfig(
        tc_grid=_grid(tc_min, tc_max, tc_nodes, defaults.tc_grid),
        lam_grid=_grid(lam_min, lam_max, lam_nodes, defaults.lam_grid),
        alpha_grid=_grid(alpha_min, alpha_max, alpha_nodes, defaults.alpha_grid),
        variant=variant,
        direction=direction,
    )
    result = lppl.fit_model(times, values, config)
    fitted = lppl.evaluate_model(result.model, times)
    output.write_fit_record(out / "lppl_fit.json", result, origin)
    output.write_fit_curve(out / "lppl_curve.tsv", times, values, fitted)
    _finish("lppl-fit", out_dir, ctx.params, ["lppl_fit.json", "lppl_curve.tsv"],
            extra={"origin_date": origin.isoformat()})


@cli.command()
@_with_options(_SERIES_OPTIONS)
@click.option("--t-c", "tc_text", required=True,
              help="Critical time: ISO date or float days since the series start.")
@click.option("--direction", type=click.Choice(lppl.DIRECTIONS), default="bubble", show_default=True)
@click.option("--smooth-width", default=1, show_default=True, type=click.IntRange(min=1),
              help="Moving-average width before extremum detection (1 = off).")
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def extrema(ctx, input_path, date_col, value_col, delimiter, take_log, tc_text, direction,
            smooth_width, out_dir):
    """Locate oscillation extrema around t_c and report their spacing ratios."""
    out = _ensure_out_dir(out_dir)
    origin, times, values = _load_series(input_path, date_col, value_col, delimiter, take_log)
    try:
        tc = float(tc_text)
    except ValueError:
        try:
            tc = float((dt.date.fromisoformat(tc_text) - origin).days)
        except ValueError:
            raise click.UsageError(f"--t-c {tc_text!r} is neither a number nor an ISO date") from None

    progression = lppl.extrema_progression(times, values, tc, direction, smooth_width)
    output.write_json(
        out / "extrema.json",
        {
            "t_c_days": tc,
            "direction": direction,
            "smooth_width": smooth_width,
            "minima_x": list(progression.minima),
            "maxima_x": list(progression.maxima),
            "spacing_ratios": list(progression.ratios),
            "lambda_estimate": progression.lambda_estimate,
        },
    )
    _finish("extrema", out_dir, ctx.params, ["extrema.json"])


@cli.command(name="weierstrass-eval")
@click.option("--a", default=1.0, show_default=True, help="Base step length.")
@click.option("--b", default=2.0, show_default=True, help="Step-length multiplier (> 1).")
@click.option("--m", default=4.0, show_default=True, help="Probability divisor (> 1).")
@click.option("--tol", default=1e-12, show_default=True, help="Series truncation tolerance.")
@click.option("--k-min", default=0.01, show_default=True)
@click.option("--k-max", default=100.0, show_default=True)
@click.option("--k-points", default=601, show_default=True, type=click.IntRange(min=2))
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def weierstrass_eval(ctx, a, b, m, tol, k_min, k_max, k_points, out_dir):
    """Tabulate the step-distribution series p(k) on a log-spaced grid."""
    out = _ensure_out_dir(out_dir)
    if not 0 < k_min < k_max < np.inf:
        raise click.UsageError(f"need 0 < k-min < k-max, both finite, got [{k_min}, {k_max}]")
    params = weierstrass.WeierstrassParams(a=a, b=b, m=m, truncation_tol=tol)
    k = np.logspace(np.log10(k_min), np.log10(k_max), k_points)
    values = weierstrass.weierstrass_values(k, params)
    depth = weierstrass.series_depth(params)
    output.write_tsv(
        out / "weierstrass_p.tsv",
        ["k", "p", "terms"],
        ((ki, vi, depth) for ki, vi in zip(k, values)),
    )
    _finish("weierstrass-eval", out_dir, ctx.params, ["weierstrass_p.tsv"])


@cli.command(name="weierstrass-walk")
@click.option("--a", default=1.0, show_default=True, help="Base step length.")
@click.option("--b", default=2.0, show_default=True, help="Step-length multiplier (> 1).")
@click.option("--m", default=4.0, show_default=True, help="Probability divisor (> 1).")
@click.option("--steps", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def weierstrass_walk(ctx, a, b, m, steps, seed, out_dir):
    """Simulate the hierarchical-step random walk."""
    out = _ensure_out_dir(out_dir)
    params = weierstrass.WeierstrassParams(a=a, b=b, m=m)
    walk = weierstrass.simulate_walk(params, steps, seed)
    rows = [(0, 0.0)] + [(i + 1, pos) for i, pos in enumerate(walk.positions)]
    output.write_tsv(out / "weierstrass_walk.tsv", ["step", "position"], rows)
    _finish("weierstrass-walk", out_dir, ctx.params, ["weierstrass_walk.tsv"], seed=seed)


@cli.command(name="rpa-demo")
@click.option("--epsilon", default=1.0, show_default=True, help="Degenerate state energy.")
@click.option("--kappa", default=0.5, show_default=True,
              help="Separable coupling (positive repulsive, negative attractive).")
@click.option("--n", default=10, show_default=True, type=click.IntRange(min=2),
              help="Number of states (used when --amplitudes is not given).")
@click.option("--amplitudes", default=None,
              help="Comma-separated transition amplitudes; defaults to n ones.")
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def rpa_demo(ctx, epsilon, kappa, n, amplitudes, out_dir):
    """Two-panel strength table: degenerate states vs the diagonalized solution."""
    out = _ensure_out_dir(out_dir)
    if amplitudes is not None:
        try:
            d = np.array([float(v) for v in amplitudes.split(",")])
        except ValueError:
            raise click.UsageError(f"--amplitudes {amplitudes!r} is not a comma-separated float list") from None
    else:
        d = np.ones(n)
    model = rpa.SchematicRpaModel(epsilon=epsilon, kappa=kappa, d=d)
    solution = rpa.solve_numeric(model)
    rows = [(epsilon, float(di**2), "unperturbed") for di in model.d]
    rows += [
        (float(e), float(s), "rpa") for e, s in zip(solution.energies, solution.strengths)
    ]
    output.write_tsv(out / "rpa_demo.tsv", ["energy", "strength", "panel_tag"], rows)
    _finish("rpa-demo", out_dir, ctx.params, ["rpa_demo.tsv"])


@cli.command(name="spacing-stats")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Spectrum trace file produced by the spectrum subcommand.")
@click.option("--drop-top", default=1, show_default=True, type=click.IntRange(min=0),
              help="Collective eigenvalues to drop from the top of each window.")
@click.option("--degree", default=5, show_default=True, type=click.IntRange(min=1),
              help="Polynomial degree of the unfolding fit.")
@click.option("--bins", default=32, show_default=True, type=click.IntRange(min=4))
@click.option("--out-dir", default=".", show_default=True)
@click.pass_context
def spacing_stats(ctx, input_path, drop_top, degree, bins, out_dir):
    """Unfolded nearest-neighbor spacing histogram with Wigner/Poisson KS distances."""
    out = _ensure_out_dir(out_dir)
    sets = output.read_spectrum_trace(input_path)
    stats = spectral.spacing_statistics(sets, drop_top=drop_top, degree=degree, bins=bins)
    output.write_tsv(
        out / "spacing_hist.tsv",
        ["s_lower", "s_upper", "density"],
        zip(stats.bin_edges[:-1], stats.bin_edges[1:], stats.densities),
    )
    output.write_json(
        out / "spacing_stats.json",
        {
            "ks_wigner": stats.ks_wigner,
            "ks_poisson": stats.ks_poisson,
            "n_spacings": int(len(stats.spacings)),
            "n_sets": stats.n_sets,
            "n_dropped": stats.n_dropped,
        },
    )
    _finish("spacing-stats", out_dir, ctx.params, ["spacing_hist.tsv", "spacing_stats.json"])


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Console entry point mapping failures to documented exit codes."""
    try:
        cli.main(args=argv, prog_name="collectivity", standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        if exc.ctx is not None:
            sys.stderr.write(exc.ctx.get_usage() + "\n")
        _error_record("usage", exc.format_message())
        return 1
    except click.ClickException as exc:
        _error_record("usage", exc.format_message())
        return 1
    except click.exceptions.Abort:
        _error_record("usage", "aborted")
        return 1
    except DataError as exc:
        _error_record("data", str(exc))
        return 2
    except NumericError as exc:
        _error_record("numeric", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
