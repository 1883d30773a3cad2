"""Single entry-point command wiring the library to files.

Subcommands cover the full pipeline: `returns`, `corr`, `spectrum`,
`global-spectrum`, `lppl-fit`, `extrema`, `weierstrass-eval`,
`weierstrass-walk`, `rpa-demo` and `spacing-stats`. Every run writes its
output files plus a `<subcommand>_manifest.json` echoing the resolved
configuration, the seed (where randomness is involved), library versions
and the BLAS thread setting, so any output can be reproduced byte for byte
under the same BLAS setting; across settings, eigenvalues can differ in
their last bits. When neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS is
set and numpy is not loaded yet, main() sets both to 1, so a default run
gets the worker pool and the one-thread bytes; a value the user set is kept.

This module loads only click and the package's numpy-free modules. Each
subcommand imports the library modules it calls, and calls them through
the module (`marketdata.load_price_series(...)`), so `--version`, `--help`
and a misspelt option run without numpy.

Exit codes: 0 success, 1 usage error, 2 data error (a file that cannot be
read or written included), 3 numeric failure.
Failures also emit one machine-readable JSON line on stderr.

A JSON config file may preload option values per subcommand
(`{"spectrum": {"window_length": 30}}`); explicit flags override it. A
section that names no subcommand, or a key that names no parameter of its
subcommand, is a usage error.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__
from .choices import DIRECTIONS, VARIANTS
from .errors import DataError, NumericError
from .resources import BLAS_THREAD_VARS

if TYPE_CHECKING:
    import numpy as np

    from .marketdata import ReturnPanel

DEFAULT_WINDOW = 30         # trading days, single market
DEFAULT_GLOBAL_WINDOW = 60  # trading days, two-market global matrix


def _echo_config(params: dict) -> dict:
    """Manifest-ready echo of the resolved options."""
    echo = {}
    for key, value in sorted(params.items()):
        if isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    return echo


def _load_panel(inputs, date_col, asset_col, price_col, delimiter, tau,
                min_coverage) -> tuple[ReturnPanel, dict]:
    """Aligned return panel of the price files, and its manifest extras (the dropped asset ids)."""
    from . import marketdata

    schema = marketdata.ColumnSchema(date_col, asset_col, price_col, delimiter)
    series = marketdata.merge_price_series(marketdata.load_price_series(p, schema) for p in inputs)
    returns = marketdata.compute_returns(series, tau)
    panel = marketdata.align_calendars(returns, min_coverage)
    kept = set(panel.assets)
    dropped = [s.asset_id for s in returns if s.asset_id not in kept]
    return panel, {"alignment_policy": "intersect", "assets_dropped": dropped}


def _one_character(ctx, param, value: str) -> str:
    # csv.reader takes only a one-character delimiter.
    if len(value) != 1:
        raise click.BadParameter(f"must be one character, got {value!r}", ctx, param)
    return value


_INPUT_OPTIONS = [
    click.option("--date-col", default="date", show_default=True, help="Date column name."),
    click.option("--asset-col", default="asset", show_default=True, help="Asset-id column name."),
    click.option("--price-col", default="price", show_default=True, help="Price column name."),
    click.option("--delimiter", default=",", show_default=True, callback=_one_character,
                 help="Field delimiter."),
    click.option("--tau", default=1, show_default=True, type=click.IntRange(min=1),
                 help="Return lag in trading days."),
    click.option("--min-coverage", default=1.0, show_default=True, type=click.FloatRange(0.0, 1.0),
                 help="Drop assets covering less of the majority calendar."),
]


_PRICE_FILE_OPTIONS = [
    click.option("--input", "inputs", multiple=True, required=True,
                 type=click.Path(exists=True, dir_okay=False), help="Price file(s)."),
    *_INPUT_OPTIONS,
]


_SERIES_OPTIONS = [
    click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False),
                 help="Series file with date and value columns."),
    click.option("--date-col", default="date", show_default=True, help="Date column name."),
    click.option("--value-col", default="price", show_default=True, help="Value column name."),
    click.option("--delimiter", default=",", show_default=True, callback=_one_character,
                 help="Field delimiter."),
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
    import numpy as np

    from . import marketdata

    dates, values = marketdata.load_value_series(input_path, date_col, value_col, delimiter)
    if take_log:
        if np.any(values <= 0):
            raise DataError("cannot take the log of non-positive values; use --no-log")
        values = np.log(values)
    origin = dates[0]
    return origin, np.array([(d - origin).days for d in dates], dtype=float), values


def _json_type(value) -> str:
    names = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
    return names.get(type(value), "a number")


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with per-subcommand option defaults.")
@click.version_option(version=__version__, prog_name="collectivity")
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Collectivity diagnostics: correlation spectra, log-periodic fits, exact oracles."""
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                default_map = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise click.UsageError(f"config file {config_path}: {exc}") from exc
        if not isinstance(default_map, dict):
            raise click.BadParameter(f"{config_path}: the top level must be a JSON object, "
                                     f"got {_json_type(default_map)}", param_hint="'--config'")
        for name, section in default_map.items():
            command = ctx.command.commands.get(name)
            if command is None:
                raise click.BadParameter(f"{config_path}: section {name!r} names no subcommand",
                                         param_hint="'--config'")
            if not isinstance(section, dict):
                raise click.BadParameter(f"{config_path}: section {name!r} must be a JSON object, "
                                         f"got {_json_type(section)}", param_hint="'--config'")
            known = sorted(p.name for p in command.params)
            for key in section:
                if key not in known:
                    raise click.BadParameter(
                        f"{config_path}: section {name!r} has no parameter {key!r} "
                        f"(its parameters: {', '.join(known)})", param_hint="'--config'")
        ctx.default_map = default_map


def _subcommand(name: str):
    """Register the decorated body as subcommand `name`, run by the shared runner.

    The runner adds `--out-dir` as the last option and creates that directory;
    a path it cannot create (a file, or a path below one) is a usage error.
    The body takes it as `out`, with its options as keywords, and returns the
    names of the files it wrote and extra manifest entries. The runner then
    writes `<name>_manifest.json`: the resolved options followed by the
    extras, and the seed of a `--seed` option where the command has one.
    """
    def decorate(body):
        @functools.wraps(body)
        def run(out_dir: str, **params):
            from . import output

            out = Path(out_dir)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:   # the path or one of its parents is a file, say
                raise click.BadParameter(f"cannot create directory {out_dir!r}: {exc.strerror}",
                                         param_hint="'--out-dir'") from None
            outputs, extra = body(out, **params)
            manifest = output.run_manifest(name, {**_echo_config(params), **extra},
                                           params.get("seed"), outputs)
            manifest_name = name.replace("-", "_") + "_manifest.json"
            output.write_json(out / manifest_name, manifest)
            click.echo(f"{name}: wrote {', '.join(outputs)} and {manifest_name} in {out_dir}")

        command = cli.command(name=name)(run)
        command.params.append(click.Option(["--out-dir"], default=".", show_default=True,
                                           help="Output directory."))
        return command
    return decorate


@_subcommand("returns")
@_with_options(_PRICE_FILE_OPTIONS)
def returns(out, inputs, **reading):
    """Compute the aligned log-return panel from price files."""
    from . import output

    panel, extra = _load_panel(inputs, **reading)
    output.write_panel_tsv(out / "returns.tsv", panel)
    return ["returns.tsv"], extra


@_subcommand("corr")
@_with_options(_PRICE_FILE_OPTIONS)
@click.option("--window-start", default=None, help="YYYY-MM-DD; first day of the window.")
@click.option("--window-end", default=None, help="YYYY-MM-DD; last day of the window.")
def corr_cmd(out, inputs, window_start, window_end, **reading):
    """Correlation matrix over one window (default: the whole panel)."""
    from . import corr, marketdata, output

    panel, extra = _load_panel(inputs, **reading)
    window = None
    if (window_start is None) != (window_end is None):
        raise click.UsageError("--window-start and --window-end must be given together")
    if window_start is not None:
        try:
            window = (marketdata.parse_date(window_start), marketdata.parse_date(window_end))
        except ValueError as exc:
            raise click.UsageError(f"bad window date: {exc}") from exc
    matrix = corr.correlation_matrix(panel, window)
    output.write_matrix_tsv(out / "corr_matrix.tsv", matrix)
    output.write_matrix_metadata(out / "corr_matrix.meta.json", matrix)
    return ["corr_matrix.tsv", "corr_matrix.meta.json"], extra


@_subcommand("spectrum")
@_with_options(_PRICE_FILE_OPTIONS)
@click.option("--window-length", default=DEFAULT_WINDOW, show_default=True,
              type=click.IntRange(min=2), help="Rolling window length in trading days.")
@click.option("--step", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--vectors/--no-vectors", default=True, show_default=True,
              help="Also write the leading eigenvector per window.")
def spectrum(out, inputs, window_length, step, vectors, **reading):
    """Rolling eigenspectrum trace of the single-market correlation matrix."""
    from . import output, spectral

    panel, extra = _load_panel(inputs, **reading)
    trace = spectral.rolling_spectrum(panel, window_length, step)
    files = ["spectrum_trace.tsv"]
    output.write_spectrum_trace(out / "spectrum_trace.tsv", trace)
    if vectors:
        output.write_leading_vectors(out / "spectrum_vectors.tsv", trace, panel.assets)
        files.append("spectrum_vectors.tsv")
    return files, {**extra, "windows": len(trace)}


@_subcommand("global-spectrum")
@click.option("--input-a", "inputs_a", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Market A price file(s).")
@click.option("--input-b", "inputs_b", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False), help="Market B price file(s).")
@_with_options(_INPUT_OPTIONS)
@click.option("--shift-days", default=0, show_default=True, type=int,
              help="Trading-day shift applied to market A before correlating.")
@click.option("--window-length", default=DEFAULT_GLOBAL_WINDOW, show_default=True,
              type=click.IntRange(min=2))
@click.option("--step", default=1, show_default=True, type=click.IntRange(min=1))
def global_spectrum(out, inputs_a, inputs_b, shift_days, window_length, step, **reading):
    """Rolling spectrum of the 2-block cross-market correlation matrix.

    Emits per-window collectivity metrics (gap ratio, dominance,
    participation ratio) alongside the eigenvalues.
    """
    from . import corr, output, spectral

    panel_a, extra_a = _load_panel(inputs_a, **reading)
    panel_b, extra_b = _load_panel(inputs_b, **reading)
    merged = corr.merge_panels(panel_a, panel_b, shift_days)
    trace = spectral.rolling_spectrum(merged, window_length, step)
    output.write_global_trace(out / "global_trace.tsv", trace, spectral.collectivity_metrics(trace))
    output.write_json(
        out / "global_blocks.json",
        {
            "assets": merged.assets,
            "block_split": panel_a.n_assets,
            "shift_days": shift_days,
            "alignment_policy": "intersect",
        },
    )
    dropped = {"a": extra_a["assets_dropped"], "b": extra_b["assets_dropped"]}
    return ["global_trace.tsv", "global_blocks.json"], {
        **extra_a, "assets_dropped": dropped, "windows": len(trace)}


def _grid(lo: float | None, hi: float | None, nodes: int, default: np.ndarray) -> np.ndarray:
    """nodes points from lo to hi; with neither bound given, the default grid's span."""
    import numpy as np

    if lo is None and hi is None:
        lo, hi = default[0], default[-1]
    elif lo is None or hi is None:
        raise click.UsageError("grid bounds must be given as a min/max pair")
    if hi < lo:
        raise click.UsageError(f"grid bounds out of order: [{lo}, {hi}]")
    # Non-finite bounds give a non-finite grid, which FitConfig rejects by name.
    with np.errstate(invalid="ignore"):
        return np.linspace(lo, hi, nodes)


@_subcommand("lppl-fit")
@_with_options(_SERIES_OPTIONS)
@click.option("--variant", type=click.Choice(VARIANTS), default="cosine", show_default=True)
@click.option("--direction", type=click.Choice(DIRECTIONS), default="bubble", show_default=True)
@click.option("--tc-min", type=float, default=None, help="t_c grid start, days from series start.")
@click.option("--tc-max", type=float, default=None, help="t_c grid end, days from series start.")
@click.option("--tc-nodes", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--lam-min", type=float, default=None)
@click.option("--lam-max", type=float, default=None)
@click.option("--lam-nodes", type=click.IntRange(min=1), default=41, show_default=True)
@click.option("--alpha-min", type=float, default=None)
@click.option("--alpha-max", type=float, default=None)
@click.option("--alpha-nodes", type=click.IntRange(min=1), default=21, show_default=True)
def lppl_fit(out, variant, direction, tc_min, tc_max, tc_nodes, lam_min, lam_max, lam_nodes,
             alpha_min, alpha_max, alpha_nodes, **series):
    """Fit the log-periodic power law; t_c is searched in days since the series start."""
    from . import lppl, output

    origin, times, values = _load_series(**series)
    lppl.check_grid_bytes(len(times), tc_nodes, lam_nodes, alpha_nodes, variant, (
        f"--tc-nodes {tc_nodes}", f"--lam-nodes {lam_nodes}", f"--alpha-nodes {alpha_nodes}"))
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
    diag = result.diagnostics
    return ["lppl_fit.json", "lppl_curve.tsv"], {
        "origin_date": origin.isoformat(), "grid_nodes": diag.grid_nodes,
        "nodes_skipped": diag.nodes_skipped, "refine_sweeps": diag.refine_sweeps,
        "converged": diag.converged}


@_subcommand("extrema")
@_with_options(_SERIES_OPTIONS)
@click.option("--t-c", "tc_text", required=True,
              help="Critical time: YYYY-MM-DD date or float days since the series start, not YYYYMMDD.")
@click.option("--direction", type=click.Choice(DIRECTIONS), default="bubble", show_default=True)
@click.option("--smooth-width", default=1, show_default=True, type=click.IntRange(min=1),
              help="Moving-average width before extremum detection (1 = off).")
def extrema(out, tc_text, direction, smooth_width, **series):
    """Locate oscillation extrema around t_c and report their spacing ratios."""
    from . import lppl, marketdata, output

    origin, times, values = _load_series(**series)
    try:
        tc = float(tc_text)
    except ValueError:
        try:
            tc = float((marketdata.parse_date(tc_text) - origin).days)
        except ValueError:
            raise click.UsageError(f"--t-c {tc_text!r} is neither a number nor an ISO date") from None
    else:
        # float() strips whitespace, so the date test reads the stripped text too.
        digits = tc_text.strip()
        iso = f"{digits[:4]}-{digits[4:6]}-{digits[6:]}"   # a date only if digits is 8 digits
        try:
            marketdata.parse_date(iso)
        except ValueError:
            pass   # no YYYYMMDD date, so days
        else:
            raise click.UsageError(f"--t-c {tc_text!r} is both a YYYYMMDD date and a number: "
                                   f"write {iso} for the date or {tc!r} for days")

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
    return ["extrema.json"], {}


@_subcommand("weierstrass-eval")
@click.option("--a", default=1.0, show_default=True, help="Base step length.")
@click.option("--b", default=2.0, show_default=True, help="Step-length multiplier (> 1).")
@click.option("--m", default=4.0, show_default=True, help="Probability divisor (> 1).")
@click.option("--tol", default=1e-12, show_default=True, help="Series truncation tolerance.")
@click.option("--k-min", default=0.01, show_default=True)
@click.option("--k-max", default=100.0, show_default=True)
@click.option("--k-points", default=601, show_default=True, type=click.IntRange(min=2))
def weierstrass_eval(out, a, b, m, tol, k_min, k_max, k_points):
    """Tabulate the step-distribution series p(k) on a log-spaced grid."""
    import numpy as np

    from . import output, resources, weierstrass

    if not 0 < k_min < k_max < np.inf:
        raise click.UsageError(f"need 0 < k-min < k-max, both finite, got [{k_min}, {k_max}]")
    params = weierstrass.WeierstrassParams(a=a, b=b, m=m, truncation_tol=tol)
    resources.check_bytes(8 * k_points, f"--k-points {k_points}")
    k = np.logspace(np.log10(k_min), np.log10(k_max), k_points)
    values = weierstrass.weierstrass_values(k, params)
    depth = weierstrass.series_depth(params)
    output.write_tsv(
        out / "weierstrass_p.tsv",
        ["k", "p", "terms"],
        ((ki, vi, depth) for ki, vi in zip(k, values)),
    )
    return ["weierstrass_p.tsv"], {}


@_subcommand("weierstrass-walk")
@click.option("--a", default=1.0, show_default=True, help="Base step length.")
@click.option("--b", default=2.0, show_default=True, help="Step-length multiplier (> 1).")
@click.option("--m", default=4.0, show_default=True, help="Probability divisor (> 1).")
@click.option("--steps", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
def weierstrass_walk(out, a, b, m, steps, seed):
    """Simulate the hierarchical-step random walk."""
    from . import output, weierstrass

    params = weierstrass.WeierstrassParams(a=a, b=b, m=m)
    walk = weierstrass.simulate_walk(params, steps, seed)
    rows = itertools.chain([(0, 0.0)], enumerate(walk.positions, start=1))
    output.write_tsv(out / "weierstrass_walk.tsv", ["step", "position"], rows)
    return ["weierstrass_walk.tsv"], {}


@_subcommand("rpa-demo")
@click.option("--epsilon", default=1.0, show_default=True, help="Degenerate state energy.")
@click.option("--kappa", default=0.5, show_default=True,
              help="Separable coupling (positive repulsive, negative attractive).")
@click.option("--n", default=10, show_default=True, type=click.IntRange(min=2),
              help="Number of states (used when --amplitudes is not given).")
@click.option("--amplitudes", default=None,
              help="Comma-separated transition amplitudes; defaults to n ones.")
def rpa_demo(out, epsilon, kappa, n, amplitudes):
    """Two-panel strength table: degenerate states vs the diagonalized solution."""
    import numpy as np

    from . import output, rpa

    if amplitudes is not None:
        try:
            d = np.array([float(v) for v in amplitudes.split(",")])
        except ValueError:
            raise click.UsageError(f"--amplitudes {amplitudes!r} is not a comma-separated float list") from None
        rpa.check_solve_bytes(len(d), f"--amplitudes of {len(d)} values")
    else:
        rpa.check_solve_bytes(n, f"--n {n}")
        d = np.ones(n)
    model = rpa.SchematicRpaModel(epsilon=epsilon, kappa=kappa, d=d)
    solution = rpa.solve_numeric(model)
    rows = [(epsilon, float(di**2), "unperturbed") for di in model.d]
    rows += [
        (float(e), float(s), "rpa") for e, s in zip(solution.energies, solution.strengths)
    ]
    output.write_tsv(out / "rpa_demo.tsv", ["energy", "strength", "panel_tag"], rows)
    return ["rpa_demo.tsv"], {}


@_subcommand("spacing-stats")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Spectrum trace file produced by the spectrum subcommand.")
@click.option("--drop-top", default=1, show_default=True, type=click.IntRange(min=0),
              help="Collective eigenvalues to drop from the top of each window.")
@click.option("--degree", default=5, show_default=True, type=click.IntRange(min=1),
              help="Polynomial degree of the unfolding fit.")
@click.option("--bins", default=32, show_default=True, type=click.IntRange(min=4))
def spacing_stats(out, input_path, drop_top, degree, bins):
    """Unfolded nearest-neighbor spacing histogram with Wigner/Poisson KS distances."""
    from . import output, spectral

    spectral.check_spacing_bytes(bins, f"--bins {bins}")
    table = output.read_spectrum_trace(input_path)
    stats = spectral.spacing_statistics(table, drop_top=drop_top, degree=degree, bins=bins)
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
            "n_rank_deficient": stats.n_rank_deficient,
        },
    )
    return ["spacing_hist.tsv", "spacing_stats.json"], {}


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _pin_blas() -> None:
    """Run BLAS on one thread unless the user chose a count or numpy is loaded already.

    OpenBLAS reads its thread count once, when numpy loads it, so the
    setting must come first. With both variables set to 1 the pooled
    kernels run on resources.pool_workers() threads, and the output bytes
    no longer follow the host's core count. A process that imported numpy
    before calling main (a test, a benchmark harness) keeps its setting.
    """
    if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"


def main(argv: list[str] | None = None) -> int:
    """Console entry point mapping failures to documented exit codes."""
    _pin_blas()
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
    except OSError as exc:   # a file that cannot be read or written
        _error_record("data", f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
