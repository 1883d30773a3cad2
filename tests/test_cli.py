import datetime as dt
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from collectivity import cli, lppl, output, rpa, spectral, synthetic, weierstrass
from collectivity.cli import main
from collectivity.marketdata import PriceSeries


@pytest.fixture
def market_csv(tmp_path):
    panel = synthetic.one_factor_panel(30, 80, 0.5, seed=10)
    path = tmp_path / "prices.csv"
    synthetic.write_price_csv(path, synthetic.prices_from_returns(panel))
    return path


@pytest.fixture
def two_market_csvs(tmp_path):
    a, b = synthetic.lagged_copy_markets(8, 60, 0.2, seed=4)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    synthetic.write_price_csv(pa, synthetic.prices_from_returns(a))
    synthetic.write_price_csv(pb, synthetic.prices_from_returns(b))
    return pa, pb


@pytest.fixture
def lppl_series_csv(tmp_path):
    model = lppl.LogPeriodicModel(tc=400.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3)
    t = np.arange(0.0, 361.0, 2.0)
    values = np.exp(lppl.evaluate_model(model, t))
    origin = dt.date(2005, 1, 1)
    path = tmp_path / "series.csv"
    with open(path, "w") as fh:
        fh.write("date,price\n")
        for ti, vi in zip(t, values):
            fh.write(f"{(origin + dt.timedelta(days=int(ti))).isoformat()},{float(vi)!r}\n")
    return path


def read_trace_header(path: Path) -> list[str]:
    return path.read_text().splitlines()[0].split("\t")


def gap_ratio_of(trace_path: Path) -> float:
    lines = trace_path.read_text().splitlines()
    header = lines[0].split("\t")
    row = lines[1].split("\t")
    return float(row[header.index("gap_ratio")])


def lambda1_of(trace_path: Path) -> float:
    lines = trace_path.read_text().splitlines()
    header = lines[0].split("\t")
    row = lines[1].split("\t")
    return float(row[header.index("lambda_1")])


class TestSpectrumCommand:
    def test_thirty_asset_window_gives_thirty_eigenvalue_columns(self, market_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", str(market_csv), "--window-length", "30",
                   "--out-dir", str(out)])
        assert rc == 0
        header = read_trace_header(out / "spectrum_trace.tsv")
        assert header[0] == "window_end_date"
        assert header[1:] == [f"lambda_{i}" for i in range(1, 31)]
        manifest = json.loads((out / "spectrum_manifest.json").read_text())
        assert manifest["config"]["window_length"] == 30
        assert manifest["versions"]["collectivity"]

    def test_eigenvalue_rows_sum_to_n(self, market_csv, tmp_path):
        out = tmp_path / "out"
        main(["spectrum", "--input", str(market_csv), "--window-length", "40",
              "--out-dir", str(out)])
        for line in (out / "spectrum_trace.tsv").read_text().splitlines()[1:]:
            values = [float(v) for v in line.split("\t")[1:]]
            assert sum(values) == pytest.approx(30.0, abs=1e-9)


class TestGlobalSpectrumCommand:
    def test_shift_merges_the_markets(self, two_market_csvs, tmp_path):
        pa, pb = two_market_csvs
        gaps, tops = {}, {}
        for shift in (0, 1):
            out = tmp_path / f"shift{shift}"
            rc = main(["global-spectrum", "--input-a", str(pa), "--input-b", str(pb),
                       "--shift-days", str(shift), "--window-length", "59",
                       "--out-dir", str(out)])
            assert rc == 0
            gaps[shift] = gap_ratio_of(out / "global_trace.tsv")
            tops[shift] = lambda1_of(out / "global_trace.tsv")
        assert tops[1] > tops[0]
        assert gaps[1] > 2.0 * gaps[0]
        blocks = json.loads((tmp_path / "shift1" / "global_blocks.json").read_text())
        assert blocks["block_split"] == 8
        assert blocks["alignment_policy"] == "intersect"


class TestLpplCommands:
    def test_fit_record_and_curve(self, lppl_series_csv, tmp_path):
        out = tmp_path / "fit"
        rc = main(["lppl-fit", "--input", str(lppl_series_csv),
                   "--tc-nodes", "60", "--lam-nodes", "11", "--alpha-nodes", "5",
                   "--out-dir", str(out)])
        assert rc == 0
        record = json.loads((out / "lppl_fit.json").read_text())
        assert record["lambda"] == pytest.approx(2.0, rel=0.05)
        assert record["t_c"] == pytest.approx(400.0, abs=4.0)
        assert record["t_c_date"].startswith("2006-02")
        curve = (out / "lppl_curve.tsv").read_text().splitlines()
        assert curve[0].split("\t") == ["time", "observed", "fitted"]
        assert len(curve) == 1 + record["n_points"]
        manifest = json.loads((out / "lppl_fit_manifest.json").read_text())
        assert manifest["config"]["origin_date"] == "2005-01-01"

    def test_manifest_records_the_fit_diagnostics(self, lppl_series_csv, tmp_path):
        out = tmp_path / "fit"
        rc = main(["lppl-fit", "--input", str(lppl_series_csv),
                   "--tc-nodes", "60", "--lam-nodes", "11", "--alpha-nodes", "5",
                   "--out-dir", str(out)])
        assert rc == 0
        config = json.loads((out / "lppl_fit_manifest.json").read_text())["config"]
        # The default t_c grid starts at the last time, which the fit clips.
        assert config["grid_nodes"] == 59 * 11 * 5
        assert config["nodes_skipped"] == 0
        assert 0 < config["refine_sweeps"] < lppl.MAX_REFINE_SWEEPS
        assert config["converged"] is True

    def test_refine_stopped_at_the_cap_is_reported(self, lppl_series_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(lppl, "MAX_REFINE_SWEEPS", 3)
        out = tmp_path / "fit"
        rc = main(["lppl-fit", "--input", str(lppl_series_csv),
                   "--tc-nodes", "60", "--lam-nodes", "11", "--alpha-nodes", "5",
                   "--out-dir", str(out)])
        assert rc == 0
        config = json.loads((out / "lppl_fit_manifest.json").read_text())["config"]
        assert config["refine_sweeps"] == 3
        assert config["converged"] is False
        record = json.loads((out / "lppl_fit.json").read_text())
        assert "converged" not in record and "refine_sweeps" not in record

    def test_extrema_accepts_iso_critical_time(self, lppl_series_csv, tmp_path):
        out = tmp_path / "ex"
        rc = main(["extrema", "--input", str(lppl_series_csv),
                   "--t-c", "2006-02-05", "--out-dir", str(out)])
        assert rc == 0
        record = json.loads((out / "extrema.json").read_text())
        assert record["lambda_estimate"] == pytest.approx(2.0, rel=0.05)

    def test_extrema_rejects_a_week_date(self, lppl_series_csv, tmp_path, capsys):
        # parse_date takes only YYYY-MM-DD, and a week date is no number either.
        rc = main(["extrema", "--input", str(lppl_series_csv),
                   "--t-c", "2006-W05-7", "--out-dir", str(tmp_path / "ex")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record == {"error": "usage",
                          "message": "--t-c '2006-W05-7' is neither a number nor an ISO date"}

    def test_extrema_rejects_days_that_read_as_a_basic_format_date(self, lppl_series_csv,
                                                                    tmp_path, capsys):
        rc = main(["extrema", "--input", str(lppl_series_csv),
                   "--t-c", "20060205", "--out-dir", str(tmp_path / "ex")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record == {"error": "usage",
                          "message": "--t-c '20060205' is both a YYYYMMDD date and a number: "
                                     "write 2006-02-05 for the date or 20060205.0 for days"}
        assert not (tmp_path / "ex" / "extrema.json").exists()

    @pytest.mark.parametrize("tc_text", [" 20060205", "20060205 ", "\t20060205\n"])
    def test_extrema_rejects_padded_days_that_read_as_a_basic_format_date(
            self, lppl_series_csv, tmp_path, capsys, tc_text):
        # float() strips the padding, so the date test must too.
        rc = main(["extrema", "--input", str(lppl_series_csv),
                   "--t-c", tc_text, "--out-dir", str(tmp_path / "ex")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record == {"error": "usage",
                          "message": f"--t-c {tc_text!r} is both a YYYYMMDD date and a number: "
                                     "write 2006-02-05 for the date or 20060205.0 for days"}
        assert not (tmp_path / "ex" / "extrema.json").exists()

    def test_price_file_mixing_date_spellings_is_a_data_error(self, tmp_path, capsys):
        # On Python 3.11 date.fromisoformat reads all of A's dates, and would align
        # A's week date 2020-W02-2 with B's 2020-01-07.
        rows = ["20200102,A,1.0", "20200103,A,1.1", "20200106,A,1.2", "2020-W02-2,A,1.3",
                "2020-01-02,B,2.0", "2020-01-03,B,2.1", "2020-01-06,B,2.2", "2020-01-07,B,2.3"]
        path = tmp_path / "mixed.csv"
        path.write_text("date,asset,price\n" + "\n".join(rows) + "\n")
        rc = main(["returns", "--input", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record == {"error": "data", "message": "line 2: unparseable date '20200102'"}


class TestGridNodes:
    @pytest.fixture
    def fit_configs(self, monkeypatch):
        configs = []
        fit_model = lppl.fit_model

        def capture(times, values, config=None):
            configs.append(config)
            return fit_model(times, values, config)

        monkeypatch.setattr(lppl, "fit_model", capture)
        return configs

    def test_node_count_alone_keeps_the_default_span(self, lppl_series_csv, tmp_path, fit_configs):
        rc = main(["lppl-fit", "--input", str(lppl_series_csv), "--tc-nodes", "7",
                   "--lam-nodes", "5", "--alpha-nodes", "3", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        (config,) = fit_configs
        assert len(config.tc_grid) == 7
        assert len(config.lam_grid) == 5
        assert len(config.alpha_grid) == 3
        times = np.arange(0.0, 361.0, 2.0)
        defaults = lppl.default_fit_config(times)
        assert config.tc_grid[0] == defaults.tc_grid[0]
        assert config.tc_grid[-1] == defaults.tc_grid[-1]
        assert (config.lam_grid[0], config.lam_grid[-1]) == (1.5, 3.5)
        assert (config.alpha_grid[0], config.alpha_grid[-1]) == (-1.0, 1.0)

    def test_no_grid_flags_give_the_default_grids(self, lppl_series_csv, tmp_path, fit_configs):
        rc = main(["lppl-fit", "--input", str(lppl_series_csv), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        (config,) = fit_configs
        defaults = lppl.default_fit_config(np.arange(0.0, 361.0, 2.0))
        for name in ("tc_grid", "lam_grid", "alpha_grid"):
            assert np.array_equal(getattr(config, name), getattr(defaults, name))

    def test_half_given_bounds_are_a_usage_error(self, lppl_series_csv, tmp_path, capsys):
        rc = main(["lppl-fit", "--input", str(lppl_series_csv), "--tc-min", "400",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert "min/max pair" in record["message"]


class TestOracleCommands:
    def test_rpa_demo_panels(self, tmp_path):
        out = tmp_path / "rpa"
        rc = main(["rpa-demo", "--epsilon", "1.0", "--kappa", "0.5", "--n", "10",
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "rpa_demo.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["energy", "strength", "panel_tag"]
        rows = [line.split("\t") for line in lines[1:]]
        unperturbed = [r for r in rows if r[2] == "unperturbed"]
        solved = [r for r in rows if r[2] == "rpa"]
        assert len(unperturbed) == len(solved) == 10
        energies = sorted(float(r[0]) for r in solved)
        assert energies[-1] == pytest.approx(6.0, abs=1e-9)
        strengths = sorted(float(r[1]) for r in solved)
        assert strengths[-1] == pytest.approx(10.0, abs=1e-9)

    def test_weierstrass_eval_table(self, tmp_path):
        out = tmp_path / "we"
        rc = main(["weierstrass-eval", "--k-min", "0.01", "--k-max", "10",
                   "--k-points", "51", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "weierstrass_p.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["k", "p", "terms"]
        assert len(lines) == 52
        first = lines[1].split("\t")
        # p(0.01) has already rolled off 1/2 by O(k^2).
        assert float(first[1]) == pytest.approx(0.5, abs=1e-3)

    def test_weierstrass_walk_starts_at_origin(self, tmp_path):
        out = tmp_path / "ww"
        rc = main(["weierstrass-walk", "--steps", "20", "--seed", "9",
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "weierstrass_walk.tsv").read_text().splitlines()
        assert lines[1].split("\t") == ["0", "0.0"]
        assert len(lines) == 22
        manifest = json.loads((out / "weierstrass_walk_manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_spacing_stats_on_goe_like_trace(self, tmp_path):
        # Hand-written trace file with GOE eigenvalue rows.
        trace = tmp_path / "trace.tsv"
        n = 60
        header = "window_end_date\t" + "\t".join(f"lambda_{i+1}" for i in range(n))
        rows = []
        for s in range(4):
            ev = np.sort(np.linalg.eigvalsh(synthetic.goe_matrix(n, 50 + s)))[::-1]
            day = dt.date(2020, 1, 1) + dt.timedelta(days=s)
            rows.append(day.isoformat() + "\t" + "\t".join(repr(float(v)) for v in ev))
        trace.write_text(header + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "sp"
        rc = main(["spacing-stats", "--input", str(trace), "--drop-top", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        record = json.loads((out / "spacing_stats.json").read_text())
        assert record["ks_wigner"] < record["ks_poisson"]
        hist = (out / "spacing_hist.tsv").read_text().splitlines()
        assert hist[0].split("\t") == ["s_lower", "s_upper", "density"]

    @pytest.mark.parametrize(("cells", "extra"), [
        (["nan"], []),
        (["nan", "nan"], []),
        (["nan"], ["--drop-top", "0"]),
        (["inf"], ["--drop-top", "0"]),
        (["-inf"], []),
    ])
    def test_non_finite_trace_cell_is_a_data_error_without_warnings(self, tmp_path, capsys,
                                                                    cells, extra):
        n = 30
        header = "window_end_date\t" + "\t".join(f"lambda_{i+1}" for i in range(n))
        rows = []
        for s in range(5):
            ev = [repr(float(v)) for v in np.linalg.eigvalsh(synthetic.goe_matrix(n, s))[::-1]]
            if s == 3:
                ev[4 : 4 + len(cells)] = cells
            rows.append((dt.date(2020, 1, 1) + dt.timedelta(days=s)).isoformat() + "\t" + "\t".join(ev))
        trace = tmp_path / "trace.tsv"
        trace.write_text(header + "\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["spacing-stats", "--input", str(trace), *extra, "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": "data", "message": f"{trace}:5: non-finite eigenvalue"}
        assert not (tmp_path / "o" / "spacing_stats.json").exists()

    @pytest.mark.parametrize(("dates", "message"), [
        (["2020-01-01", "2020-01-02", "not-a-date", "2020-01-04", "2020-01-05"],
         "4: unparseable window_end_date 'not-a-date'"),
        (["2020-01-01", "2020-01-02", "2020-01-04", "2020-01-03", "2020-01-05"],
         "5: window ends not strictly increasing at 2020-01-03"),
        (["2020-01-01", "2020-01-02", "2020-01-02", "2020-01-03", "2020-01-04"],
         "4: window ends not strictly increasing at 2020-01-02"),
    ])
    def test_bad_window_end_date_is_a_data_error(self, tmp_path, capsys, dates, message):
        n = 30
        header = "window_end_date\t" + "\t".join(f"lambda_{i+1}" for i in range(n))
        rows = []
        for s, date in enumerate(dates):
            ev = np.linalg.eigvalsh(synthetic.goe_matrix(n, s))[::-1]
            rows.append(date + "\t" + "\t".join(repr(float(v)) for v in ev))
        trace = tmp_path / "trace.tsv"
        trace.write_text(header + "\n" + "\n".join(rows) + "\n")
        rc = main(["spacing-stats", "--input", str(trace), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "data", "message": f"{trace}:{message}"}
        assert not (tmp_path / "o" / "spacing_stats.json").exists()

    @pytest.mark.parametrize(("name", "column"), [("spectrum_vectors.tsv", "A00"),
                                                   ("global_trace.tsv", "gap_ratio")])
    def test_other_tables_are_not_spectrum_traces(self, market_csv, two_market_csvs, tmp_path,
                                                  capsys, name, column):
        pa, pb = two_market_csvs
        assert main(["spectrum", "--input", str(market_csv), "--window-length", "40",
                     "--out-dir", str(tmp_path / "t")]) == 0
        assert main(["global-spectrum", "--input-a", str(pa), "--input-b", str(pb),
                     "--window-length", "40", "--out-dir", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        table = tmp_path / "t" / name
        rc = main(["spacing-stats", "--input", str(table), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "data",
            "message": f"{table}: not a spectrum trace file: column 2 is {column!r}, "
                       "expected 'lambda_1'"}
        assert not (tmp_path / "o" / "spacing_stats.json").exists()

    def test_tiny_series_tolerance_sets_the_depth(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["weierstrass-eval", "--tol", "1e-310", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        depth = weierstrass.series_depth(weierstrass.WeierstrassParams(truncation_tol=1e-310))
        assert depth == 515
        rows = (tmp_path / "o" / "weierstrass_p.tsv").read_text().splitlines()[1:]
        assert {row.split("\t")[2] for row in rows} == {str(depth)}


class TestCorrWindowFlags:
    def test_window_bounds_select_the_range(self, market_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["corr", "--input", str(market_csv),
                   "--window-start", "2000-02-01", "--window-end", "2000-03-01",
                   "--out-dir", str(out)])
        assert rc == 0
        meta = json.loads((out / "corr_matrix.meta.json").read_text())
        assert meta["window_start"] >= "2000-02-01"
        assert meta["window_end"] <= "2000-03-01"
        assert meta["block_split"] is None

    @pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
    @pytest.mark.parametrize("text", ["20000201", "2000-W05-2"])
    def test_window_dates_are_yyyy_mm_dd(self, market_csv, tmp_path, capsys, flag, text):
        dates = {"--window-start": "2000-02-01", "--window-end": "2000-03-01", flag: text}
        rc = main(["corr", "--input", str(market_csv), *[arg for item in dates.items() for arg in item],
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "usage"
        assert record["message"] == f"bad window date: not a YYYY-MM-DD date: {text!r}"

    def test_half_open_window_is_usage_error(self, market_csv, tmp_path, capsys):
        rc = main(["corr", "--input", str(market_csv), "--window-start", "2000-02-01",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "usage"


class TestLogHandling:
    def test_no_log_fits_raw_values(self, tmp_path):
        model = lppl.LogPeriodicModel(tc=200.0, alpha=0.5, lam=2.0, phi=0.3, a=1.0, b=0.2)
        t = np.arange(0.0, 180.0, 1.0)
        origin = dt.date(2012, 1, 1)
        path = tmp_path / "raw.csv"
        with open(path, "w") as fh:
            fh.write("date,price\n")
            for ti, vi in zip(t, lppl.evaluate_model(model, t)):
                fh.write(f"{(origin + dt.timedelta(days=int(ti))).isoformat()},{float(vi)!r}\n")
        out = tmp_path / "out"
        rc = main(["lppl-fit", "--input", str(path), "--no-log",
                   "--tc-nodes", "40", "--lam-nodes", "11", "--alpha-nodes", "7",
                   "--out-dir", str(out)])
        assert rc == 0
        record = json.loads((out / "lppl_fit.json").read_text())
        assert record["lambda"] == pytest.approx(2.0, rel=0.05)
        assert record["t_c"] == pytest.approx(200.0, abs=2.0)

    def test_log_of_nonpositive_values_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        origin = dt.date(2012, 1, 1)
        with open(path, "w") as fh:
            fh.write("date,price\n")
            for i in range(25):
                value = -1.0 if i == 10 else 100.0 + i
                fh.write(f"{(origin + dt.timedelta(days=i)).isoformat()},{value}\n")
        rc = main(["lppl-fit", "--input", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert "non-positive" in record["message"]


class TestErrorSurface:
    def test_unknown_subcommand_prints_usage(self, capsys):
        rc = main(["no-such-command"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Usage:" in captured.err
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"] == "usage"

    def test_data_error_exits_two_with_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,asset,price\n2020-01-01,A,-5\n")
        rc = main(["returns", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"] == "data"
        assert "non-positive" in record["message"]

    def test_numeric_error_exits_three(self, tmp_path, capsys):
        series = tmp_path / "flat.csv"
        origin = dt.date(2020, 1, 1)
        with open(series, "w") as fh:
            fh.write("date,price\n")
            for i in range(40):
                fh.write(f"{(origin + dt.timedelta(days=i)).isoformat()},{100.0 + i}\n")
        rc = main([
            "lppl-fit", "--input", str(series),
            "--tc-min", "2e9", "--tc-max", "2e9", "--tc-nodes", "1",
            "--lam-min", "1e9", "--lam-max", "1e9", "--lam-nodes", "1",
            "--alpha-min", "0", "--alpha-max", "0", "--alpha-nodes", "1",
            "--out-dir", str(tmp_path / "o"),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"] == "numeric"

    @pytest.mark.parametrize(("grid", "bound"), [("alpha", "nan"), ("lam", "inf")])
    def test_non_finite_grid_is_a_data_error_without_warnings(self, tmp_path, capsys,
                                                             lppl_series_csv, grid, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["lppl-fit", "--input", str(lppl_series_csv),
                       f"--{grid}-min", bound, f"--{grid}-max", bound,
                       "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        record = json.loads(line)
        assert record["error"] == "data"
        assert record["message"].startswith(f"{grid} grid has a non-finite node")

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_price_is_a_data_error_without_warnings(self, tmp_path, capsys, price):
        bad = tmp_path / "bad.csv"
        rows = [f"2020-01-{d:02d},{a},{100.0 + d + i}" for d in range(1, 11) for i, a in enumerate("AB")]
        rows[5] = rows[5].rsplit(",", 1)[0] + "," + price
        bad.write_text("date,asset,price\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["spectrum", "--input", str(bad), "--window-length", "5",
                       "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        record = json.loads(line)
        assert record == {"error": "data", "message": "line 7: non-finite price"}

    @pytest.mark.parametrize("tc", ["nan", "inf", "-inf"])
    def test_non_finite_critical_time_is_a_data_error_without_warnings(self, tmp_path, capsys,
                                                                      lppl_series_csv, tc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["extrema", "--input", str(lppl_series_csv), "--t-c", tc,
                       "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": "data", "message": f"t_c must be finite, got {tc}"}

    def test_flat_asset_in_a_middle_window_names_asset_and_window(self, tmp_path, capsys):
        # B's price holds still from 2020-01-11 to 2020-01-21, so its returns
        # labelled 2020-01-11 .. 2020-01-20 are exactly zero; the first window
        # of 5 inside that stretch is the first to fail, after earlier good ones.
        origin = dt.date(2020, 1, 1)
        rows = []
        for d in range(30):
            day = (origin + dt.timedelta(days=d)).isoformat()
            a = 100.0 + d + 3 * np.sin(d)
            b = 80.0 if 10 <= d <= 20 else 50.0 + d + 2 * np.cos(1.7 * d)
            c = 70.0 + 0.5 * d + np.sin(2.3 * d)
            rows += [f"{day},{asset},{float(price)!r}" for asset, price in zip("ABC", (a, b, c))]
        prices = tmp_path / "flat.csv"
        prices.write_text("date,asset,price\n" + "\n".join(rows) + "\n")
        rc = main(["spectrum", "--input", str(prices), "--window-length", "5",
                   "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "data",
            "message": "zero volatility for B in window [2020-01-11, 2020-01-15]: "
                       "correlation undefined",
        }

    @pytest.mark.parametrize(("command", "content"), [
        ("returns", b"date,asset,price\n2020-01-01,A,1\xff\n"),
        ("returns", "date,asset,price\n2020-01-01,A,1\n".encode("utf-16")),
        # past the first block the reader decodes
        ("returns", b"date,asset,price\n" + b"2020-01-01,A,1.0\n" * 2000 + b"2020-01-02,\xff,1\n"),
        ("lppl-fit", b"date,price\n2020-01-01,\xff1\n"),
        ("spacing-stats", b"window_end_date\tlambda_1\n2020-01-01\t1\xff\n"),
    ], ids=["returns", "returns-utf16", "returns-late-byte", "lppl-fit", "spacing-stats"])
    def test_non_utf8_input_is_a_data_error_naming_the_file(self, tmp_path, capsys, command,
                                                             content):
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        rc = main([command, "--input", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "data"
        assert record["message"].startswith(f"{path}: not UTF-8 text")

    @pytest.mark.parametrize(("command", "content", "message"), [
        ("returns", "date,asset,price\n2020-01-01,A,1.0\n2020-01-02,A,{field}\n",
         "line 3: unreadable record: field larger than field limit (131072)"),
        ("lppl-fit", "date,price\n2020-01-01,1.0\n\n2020-01-02,{field}\n",
         "line 4: unreadable record: field larger than field limit (131072)"),
        ("returns", "date,asset,price\n2020-01-01,A,-1.0\n2020-01-02,A,{field}\n",
         "line 2: non-positive price -1.0 for A"),
        ("returns", "date,asset,{field}\n2020-01-01,A,1.0\n",
         "line 1: unreadable header: field larger than field limit (131072)"),
    ], ids=["returns", "lppl-fit", "earlier-fault-wins", "header"])
    def test_a_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys, command, content,
                                                         message):
        path = tmp_path / "input.csv"
        path.write_text(content.format(field="1" * 200_000))
        rc = main([command, "--input", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "data", "message": message}

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["returns", "--input", str(tmp_path / "absent.csv")])
        assert rc == 1

    def test_bad_k_range_is_usage_error(self, tmp_path, capsys):
        rc = main(["weierstrass-eval", "--k-min", "10", "--k-max", "1",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "usage"

    @pytest.mark.parametrize(("k_min", "k_max"), [("nan", "100"), ("0.01", "nan"),
                                                  ("0.01", "inf"), ("nan", "nan")])
    def test_non_finite_k_range_is_usage_error(self, tmp_path, capsys, k_min, k_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["weierstrass-eval", "--k-min", k_min, "--k-max", k_max,
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        records = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
        assert len(records) == 1
        assert json.loads(records[0])["error"] == "usage"
        assert not (tmp_path / "o" / "weierstrass_p.tsv").exists()

    @pytest.mark.parametrize(("command", "option", "field"), [
        ("weierstrass-eval", "--a", "a"),
        ("weierstrass-eval", "--b", "b"),
        ("weierstrass-eval", "--m", "m"),
        ("weierstrass-eval", "--tol", "truncation_tol"),
        ("weierstrass-walk", "--a", "a"),
        ("weierstrass-walk", "--b", "b"),
        ("weierstrass-walk", "--m", "m"),
    ])
    def test_nan_weierstrass_parameter_is_a_data_error(self, tmp_path, capsys, command, option,
                                                        field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, option, "nan", "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"error": "data", "message": f"{field} must be finite, got nan"}

    @pytest.mark.parametrize(("args", "message"), [
        (["weierstrass-eval", "--b", "10", "--tol", "1e-300"],
         "step length b**j * a is not finite at j = 309"),
        (["weierstrass-walk", "--b", "1e300", "--steps", "50"],
         "step length b**j * a is not finite at j = "),
    ])
    def test_weierstrass_overflow_is_a_numeric_error(self, tmp_path, capsys, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(args + ["--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 3
        (line,) = captured.err.splitlines()
        record = json.loads(line)
        assert record["error"] == "numeric"
        assert record["message"].startswith(message)
        assert not list((tmp_path / "o").glob("*.tsv"))


    @pytest.mark.parametrize(("args", "message"), [
        (["--kappa", "inf"], "kappa must be finite, got inf"),
        (["--epsilon", "nan"], "epsilon must be finite, got nan"),
        (["--amplitudes", "1,nan,2"], "d must be finite, got nan at index 1"),
    ], ids=["kappa", "epsilon", "amplitudes"])
    def test_non_finite_rpa_input_is_a_data_error_naming_it(self, tmp_path, capsys, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["rpa-demo", *args, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "data", "message": message}
        assert not (tmp_path / "o" / "rpa_demo.tsv").exists()

    def test_overflowing_rpa_hamiltonian_is_a_numeric_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["rpa-demo", "--kappa", "1e308", "--amplitudes", "1e200,1e200",
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "numeric",
                                    "message": "Hamiltonian epsilon * I + kappa * d d^T is not finite"}
        assert not (tmp_path / "o" / "rpa_demo.tsv").exists()

    @pytest.mark.parametrize(("args", "collective_energy"), [
        (["--kappa", "1e7", "--n", "10"], 1.0 + 1e8),
        (["--kappa", "1e-300", "--amplitudes", "9e153,9e153"], 1.0 + 1.62e8),
    ], ids=["norm-1e8", "tiny-kappa-huge-d"])
    def test_large_norm_rpa_hamiltonian_passes_the_residual_check(self, tmp_path, args,
                                                                  collective_energy):
        # The eigenpair residual bound scales with max |lambda| once that exceeds N.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["rpa-demo", *args, "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        rows = [line.split("\t") for line in
                (tmp_path / "o" / "rpa_demo.tsv").read_text().splitlines()[1:]]
        top = max(float(r[0]) for r in rows if r[2] == "rpa")
        assert top == pytest.approx(collective_energy, rel=1e-12)

    def test_overflowing_rpa_strength_is_a_numeric_error(self, tmp_path, capsys):
        # The eigenpairs pass; the collective strength 2e308 is not a double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["rpa-demo", "--kappa", "1e-300", "--amplitudes", "1e154,1e154",
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "numeric",
                                    "message": "transition strength (v_k . d)^2 is not finite"}
        assert not (tmp_path / "o" / "rpa_demo.tsv").exists()

    def test_smoothing_wider_than_the_series_is_a_data_error(self, tmp_path, capsys,
                                                              lppl_series_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["extrema", "--input", str(lppl_series_csv), "--t-c", "400",
                       "--smooth-width", "200", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "data",
                                    "message": "smooth_width 200 exceeds the 181 points of the series"}
        assert not (tmp_path / "o" / "extrema.json").exists()

    @pytest.mark.parametrize(("args", "message"), [
        (["weierstrass-eval", "--m", "1.0000001"],
         "series depth 269378753 (m = 1.0000001, truncation_tol = 1e-12) at 601 wave numbers "
         "needs a 1,295,173,044,424-byte argument matrix, above the 134,217,728-byte cap"),
        (["weierstrass-walk", "--steps", "1000000000000"],
         "n_steps = 1000000000000 needs 8,000,000,000,000 bytes per array, "
         "above the 134,217,728-byte cap"),
    ], ids=["eval-depth", "walk-steps"])
    def test_weierstrass_allocation_over_the_cap_is_a_data_error(self, tmp_path, capsys, args,
                                                                 message):
        tracemalloc.start()
        try:
            rc = main(args + ["--out-dir", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "data", "message": message}
        # numpy reports its buffers to tracemalloc: nothing near the estimate was allocated.
        assert peak < 2**20
        assert not list((tmp_path / "o").glob("*.tsv"))


class TestOptionArrayCap:
    """Options that size an array are checked against MAX_ARRAY_BYTES before it exists."""

    @pytest.mark.parametrize(("args", "message"), [
        (["lppl-fit", "--tc-nodes", "1000000000"],
         "--tc-nodes 1000000000 at 181 points needs a 1,448,000,000,000-byte array"),
        (["lppl-fit", "--alpha-nodes", "10000000"],
         "--alpha-nodes 10000000 at 181 points needs a 28,960,000,000-byte array"),
        (["lppl-fit", "--variant", "abs-cosine", "--alpha-nodes", "20000"],
         "--alpha-nodes 20000 x --lam-nodes 41 x 64 phi nodes needs a 419,840,000-byte array"),
        (["lppl-fit", "--lam-nodes", "1000000000"],
         "--alpha-nodes 21 x --lam-nodes 1000000000 x 1 phi nodes "
         "needs a 168,000,000,000-byte array"),
        (["weierstrass-eval", "--k-points", "100000000000"],
         "--k-points 100000000000 needs a 800,000,000,000-byte array"),
        (["spacing-stats", "--bins", "10000000000000"],
         "--bins 10000000000000 needs a 80,000,000,000,008-byte array"),
        (["rpa-demo", "--n", "10000000"],
         "--n 10000000 needs a 800,000,000,000,000-byte array"),
        (["rpa-demo", "--amplitudes", ",".join(["1"] * 4097)],
         "--amplitudes of 4097 values needs a 134,283,272-byte array"),
    ], ids=["tc-nodes", "alpha-nodes", "abs-nodes", "lam-nodes", "k-points", "bins", "rpa-n",
            "rpa-amplitudes"])
    def test_over_the_cap_is_a_data_error(self, tmp_path, capsys, lppl_series_csv, args,
                                          message):
        # The check comes before spacing-stats reads its input, so any file will do.
        if args[0] in ("lppl-fit", "spacing-stats"):
            args = args + ["--input", str(lppl_series_csv)]
        tracemalloc.start()
        try:
            rc = main(args + ["--out-dir", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "data",
                                    "message": message + ", above the 134,217,728-byte cap"}
        assert peak < 2**20
        assert not list((tmp_path / "o").glob("*.tsv"))

    # rpa-demo holds rpa.SOLVE_ARRAYS n x n arrays at once: 6 * 8 * n**2 bytes
    # fit the cap up to n = 1672.
    @pytest.mark.parametrize("args", [["--n", "1673"], ["--amplitudes", ",".join(["1"] * 1673)]],
                             ids=["n", "amplitudes"])
    def test_rpa_demo_counts_every_n_by_n_array(self, tmp_path, capsys, args):
        assert rpa.SOLVE_ARRAYS == 6
        what = "--n 1673" if args[0] == "--n" else "--amplitudes of 1673 values"
        tracemalloc.start()
        try:
            rc = main(["rpa-demo", *args, "--out-dir", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "data",
            "message": f"{what} needs 6 22,391,432-byte arrays at once, "
                       "above the 134,217,728-byte cap"}
        assert peak < 2**20
        assert not (tmp_path / "o" / "rpa_demo.tsv").exists()
        # n = 1672 passes the same check; it is not run, since its solve would
        # hold about 134 MB.
        cli._check_array_bytes(8 * 1672**2, "--n 1672", rpa.SOLVE_ARRAYS)

    def test_rpa_demo_limit_is_exact(self, tmp_path, monkeypatch):
        # With a cap of six 10 x 10 arrays, n = 10 runs and n = 11 does not.
        monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", rpa.SOLVE_ARRAYS * 8 * 10**2)
        assert main(["rpa-demo", "--n", "10", "--out-dir", str(tmp_path / "ten")]) == 0
        assert main(["rpa-demo", "--n", "11", "--out-dir", str(tmp_path / "eleven")]) == 2
        assert main(["rpa-demo", "--amplitudes", ",".join(["1"] * 11),
                     "--out-dir", str(tmp_path / "eleven")]) == 2

    def test_defaults_and_bench_grids_sit_far_below_the_cap(self, tmp_path, monkeypatch):
        # A 500-point series with the default grids (as in acceptance criterion 5)
        # and the benchmark's |cos| grid still pass with a cap 100 times smaller.
        monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", cli.MAX_ARRAY_BYTES // 100)
        model = lppl.LogPeriodicModel(tc=550.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3)
        series = tmp_path / "series.csv"
        origin = dt.date(2000, 1, 1)
        with open(series, "w") as fh:
            fh.write("date,price\n")
            for ti in range(500):
                value = float(lppl.evaluate_model(model, [float(ti)])[0])
                fh.write(f"{(origin + dt.timedelta(days=ti)).isoformat()},{value!r}\n")
        for args in (["lppl-fit"],
                     ["lppl-fit", "--variant", "abs-cosine", "--tc-min", "500.5",
                      "--tc-max", "800", "--tc-nodes", "50"]):
            rc = main(args + ["--input", str(series), "--no-log", "--out-dir", str(tmp_path / "o")])
            assert rc == 0
        assert main(["weierstrass-eval", "--out-dir", str(tmp_path / "w")]) == 0


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, market_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": {"window_length": 40, "vectors": False},
        }))
        out1 = tmp_path / "via-config"
        rc = main(["--config", str(config), "spectrum", "--input", str(market_csv),
                   "--out-dir", str(out1)])
        assert rc == 0
        manifest = json.loads((out1 / "spectrum_manifest.json").read_text())
        assert manifest["config"]["window_length"] == 40
        assert not (out1 / "spectrum_vectors.tsv").exists()

        out2 = tmp_path / "flag-override"
        rc = main(["--config", str(config), "spectrum", "--input", str(market_csv),
                   "--window-length", "50", "--out-dir", str(out2)])
        assert rc == 0
        manifest = json.loads((out2 / "spectrum_manifest.json").read_text())
        assert manifest["config"]["window_length"] == 50


def run_twice_and_compare(args_builder, tmp_path) -> None:
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        rc = main(args_builder(out))
        assert rc == 0
        outputs.append(sorted(p for p in out.iterdir()))
    names_one = [p.name for p in outputs[0]]
    names_two = [p.name for p in outputs[1]]
    assert names_one == names_two
    for p1, p2 in zip(*outputs):
        assert p1.read_bytes() == p2.read_bytes(), p1.name


class TestDeterminism:
    def test_returns(self, market_csv, tmp_path):
        run_twice_and_compare(
            lambda out: ["returns", "--input", str(market_csv), "--out-dir", str(out)],
            tmp_path,
        )

    def test_corr(self, market_csv, tmp_path):
        run_twice_and_compare(
            lambda out: ["corr", "--input", str(market_csv), "--out-dir", str(out)],
            tmp_path,
        )

    def test_spectrum(self, market_csv, tmp_path):
        run_twice_and_compare(
            lambda out: ["spectrum", "--input", str(market_csv),
                         "--window-length", "40", "--out-dir", str(out)],
            tmp_path,
        )

    def test_global_spectrum(self, two_market_csvs, tmp_path):
        pa, pb = two_market_csvs
        run_twice_and_compare(
            lambda out: ["global-spectrum", "--input-a", str(pa), "--input-b", str(pb),
                         "--shift-days", "1", "--window-length", "59",
                         "--out-dir", str(out)],
            tmp_path,
        )

    def test_lppl_fit(self, lppl_series_csv, tmp_path):
        run_twice_and_compare(
            lambda out: ["lppl-fit", "--input", str(lppl_series_csv),
                         "--tc-nodes", "30", "--lam-nodes", "7", "--alpha-nodes", "5",
                         "--out-dir", str(out)],
            tmp_path,
        )

    def test_extrema(self, lppl_series_csv, tmp_path):
        run_twice_and_compare(
            lambda out: ["extrema", "--input", str(lppl_series_csv), "--t-c", "400",
                         "--out-dir", str(out)],
            tmp_path,
        )

    def test_weierstrass_eval(self, tmp_path):
        run_twice_and_compare(
            lambda out: ["weierstrass-eval", "--k-points", "40", "--out-dir", str(out)],
            tmp_path,
        )

    def test_weierstrass_walk(self, tmp_path):
        run_twice_and_compare(
            lambda out: ["weierstrass-walk", "--steps", "200", "--seed", "11",
                         "--out-dir", str(out)],
            tmp_path,
        )

    def test_rpa_demo(self, tmp_path):
        run_twice_and_compare(
            lambda out: ["rpa-demo", "--kappa", "-0.3", "--out-dir", str(out)],
            tmp_path,
        )

    def test_spacing_stats(self, market_csv, tmp_path):
        trace_dir = tmp_path / "trace"
        main(["spectrum", "--input", str(market_csv), "--window-length", "30",
              "--out-dir", str(trace_dir)])
        run_twice_and_compare(
            lambda out: ["spacing-stats", "--input", str(trace_dir / "spectrum_trace.tsv"),
                         "--out-dir", str(out)],
            tmp_path,
        )


class TestLpplWorkers:
    @pytest.mark.parametrize(("variant", "grid"), [
        ("cosine", ["--tc-nodes", "60", "--lam-nodes", "11", "--alpha-nodes", "5"]),
        ("abs-cosine", ["--tc-nodes", "7", "--lam-nodes", "5", "--alpha-nodes", "3"]),
    ])
    def test_fit_record_does_not_depend_on_the_worker_count(self, lppl_series_csv, tmp_path,
                                                            monkeypatch, variant, grid):
        records = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(lppl, "pool_workers", lambda: workers)
            out = tmp_path / f"w{workers}"
            rc = main(["lppl-fit", "--input", str(lppl_series_csv), "--variant", variant,
                       *grid, "--out-dir", str(out)])
            assert rc == 0
            records.append((out / "lppl_fit.json").read_bytes())
        assert records[1] == records[0]
        assert records[2] == records[0]


def usage_records(err: str) -> list[dict]:
    return [json.loads(line) for line in err.splitlines() if line.startswith("{")]


class TestBoundaryOptions:
    @pytest.mark.parametrize("delimiter", [";;", ""])
    @pytest.mark.parametrize("command", ["returns", "spectrum", "lppl-fit", "extrema"])
    def test_delimiter_must_be_one_character(self, tmp_path, capsys, market_csv, lppl_series_csv,
                                             command, delimiter):
        if command in ("returns", "spectrum"):
            args = [command, "--input", str(market_csv)]
        else:
            args = [command, "--input", str(lppl_series_csv)]
            if command == "extrema":
                args += ["--t-c", "400"]
        rc = main(args + ["--delimiter", delimiter, "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        (record,) = usage_records(capsys.readouterr().err)
        assert record["error"] == "usage"
        assert "'--delimiter'" in record["message"]
        assert f"must be one character, got {delimiter!r}" in record["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(("config", "fault"), [
        ([{"spectrum": {"window_length": 40}}], "the top level must be a JSON object, got an array"),
        ({"spectrum": 5}, "section 'spectrum' must be a JSON object, got a number"),
        ({"spectrum": {}, "lppl-fit": ["--tc-nodes", "5"]},
         "section 'lppl-fit' must be a JSON object, got an array"),
    ], ids=["array", "number-section", "array-section"])
    def test_config_file_must_hold_objects(self, tmp_path, capsys, market_csv, config, fault):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["--config", str(path), "spectrum", "--input", str(market_csv),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        (record,) = usage_records(capsys.readouterr().err)
        assert record["error"] == "usage"
        assert record["message"] == f"Invalid value for '--config': {path}: {fault}"
        assert not (tmp_path / "o").exists()


    def test_config_file_must_be_utf8(self, tmp_path, capsys, market_csv):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"spectrum": {"window_length": 40}}\xff')
        rc = main(["--config", str(path), "spectrum", "--input", str(market_csv),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        (record,) = usage_records(capsys.readouterr().err)
        assert record["error"] == "usage"
        assert record["message"].startswith(f"config file {path}: 'utf-8' codec can't decode")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(("target", "fault"), [
        ("taken", "cannot create directory '{target}': File exists"),
        ("taken/sub", "cannot create directory '{target}': Not a directory"),
    ], ids=["is-a-file", "under-a-file"])
    def test_out_dir_must_be_a_directory(self, tmp_path, capsys, target, fault):
        (tmp_path / "taken").write_text("kept\n")
        target = str(tmp_path / target)
        rc = main(["weierstrass-eval", "--out-dir", target])
        assert rc == 1
        (record,) = usage_records(capsys.readouterr().err)
        assert record == {"error": "usage",
                          "message": "Invalid value for '--out-dir': " + fault.format(target=target)}
        assert (tmp_path / "taken").read_text() == "kept\n"


class TestManifestCounts:
    @pytest.fixture
    def sparse_market_csvs(self, tmp_path):
        # Market A's asset S trades only the first 8 of 40 days; market B is complete.
        days = synthetic.business_dates(dt.date(2021, 3, 1), 40)
        rng = np.random.default_rng(3)

        def series(asset, n_days):
            prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n_days)))
            return PriceSeries(asset, days[:n_days], prices)

        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        synthetic.write_price_csv(pa, [series(f"A{i}", 40) for i in range(3)] + [series("S", 8)])
        synthetic.write_price_csv(pb, [series(f"B{i}", 40) for i in range(3)])
        return pa, pb

    @pytest.mark.parametrize("command", ["returns", "corr", "spectrum"])
    def test_dropped_assets_are_named_in_the_manifest(self, tmp_path, sparse_market_csvs, command):
        pa, _ = sparse_market_csvs
        args = [command, "--input", str(pa)]
        if command == "spectrum":
            # At full coverage nothing is dropped, and the calendar is S's 7 return days.
            args += ["--window-length", "5"]
        for coverage, want in (("0.5", ["S"]), ("1.0", [])):
            out = tmp_path / coverage
            run = args + ["--min-coverage", coverage, "--out-dir", str(out)]
            if want:
                with pytest.warns(UserWarning, match="dropping S"):
                    rc = main(run)
            else:
                rc = main(run)
            assert rc == 0
            name = command.replace("-", "_") + "_manifest.json"
            manifest = json.loads((out / name).read_text())
            assert manifest["config"]["assets_dropped"] == want

    def test_global_spectrum_names_the_dropped_assets_per_market(self, tmp_path,
                                                                  sparse_market_csvs):
        pa, pb = sparse_market_csvs
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="dropping S"):
            rc = main(["global-spectrum", "--input-a", str(pa), "--input-b", str(pb),
                       "--min-coverage", "0.5", "--window-length", "10", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "global_spectrum_manifest.json").read_text())
        assert manifest["config"]["assets_dropped"] == {"a": ["S"], "b": []}

    def test_rank_deficient_unfoldings_are_counted(self, tmp_path):
        # The sets of test_rank_deficient_bulk_warns_like_polyfit: one bulk of three
        # distinct values cannot pin down the six coefficients of a degree-5 fit.
        bulk = np.repeat([0.1, 0.5, 0.9], 10)
        sets = [np.append(bulk, 5.0)] + [np.linspace(0.0, 1.0, 31) ** p for p in (1, 2, 3)]
        trace = tmp_path / "trace.tsv"
        ends = synthetic.business_dates(dt.date(2022, 1, 3), 6)
        header = ["window_end_date"] + [f"lambda_{i + 1}" for i in range(31)]
        # Without the degenerate set, twice the others make a big enough bulk.
        for rows, want in ((sets, 1), (2 * sets[1:], 0)):
            output.write_tsv(trace, header, ([end] + list(ev) for end, ev in zip(ends, rows)))
            out = tmp_path / f"o{want}"
            if want:
                with pytest.warns(spectral.RankWarning):
                    rc = main(["spacing-stats", "--input", str(trace), "--out-dir", str(out)])
            else:
                rc = main(["spacing-stats", "--input", str(trace), "--out-dir", str(out)])
            assert rc == 0
            record = json.loads((out / "spacing_stats.json").read_text())
            assert record["n_rank_deficient"] == want


class TestConfigKeys:
    def run_with(self, tmp_path, config, args):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path, main(["--config", str(path)] + args + ["--out-dir", str(tmp_path / "o")])

    @pytest.mark.parametrize(("config", "fault"), [
        ({"returns": {"taux": 5}}, "section 'returns' has no parameter 'taux'"),
        ({"returns": {}, "retruns": {}}, "section 'retruns' names no subcommand"),
        ({"spectrum": {"window_lenght": 40}}, "section 'spectrum' has no parameter 'window_lenght'"),
        ({"returns": {"input": "p.csv"}}, "section 'returns' has no parameter 'input'"),
    ], ids=["unknown-key", "unknown-section", "misspelt-key", "flag-name-key"])
    def test_unknown_names_are_usage_errors(self, tmp_path, capsys, market_csv, config, fault):
        path, rc = self.run_with(tmp_path, config, ["returns", "--input", str(market_csv)])
        assert rc == 1
        (record,) = usage_records(capsys.readouterr().err)
        assert record["error"] == "usage"
        assert record["message"].startswith(f"Invalid value for '--config': {path}: {fault}")
        assert not (tmp_path / "o").exists()

    def test_spectrum_input_key_names_the_inputs_parameter(self, tmp_path, capsys, market_csv):
        path, rc = self.run_with(tmp_path, {"spectrum": {"input": str(market_csv)}}, ["spectrum"])
        assert rc == 1
        (record,) = usage_records(capsys.readouterr().err)
        assert f"{path}: section 'spectrum' has no parameter 'input'" in record["message"]
        assert "inputs" in record["message"].split("its parameters:")[1]

    def test_valid_keys_still_apply(self, tmp_path, market_csv):
        config = {"spectrum": {"inputs": [str(market_csv)], "window_length": 40, "step": 5},
                  "lppl-fit": {"take_log": False}}
        _, rc = self.run_with(tmp_path, config, ["spectrum"])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "spectrum_manifest.json").read_text())
        assert manifest["config"]["inputs"] == [str(market_csv)]
        assert (manifest["config"]["window_length"], manifest["config"]["step"]) == (40, 5)


class TestByteOrderMark:
    def with_bom(self, path: Path) -> Path:
        marked = path.with_name("bom-" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return marked

    def same_output(self, args, path, marked, tmp_path, name):
        for tag, source in (("plain", path), ("bom", marked)):
            assert main(args + ["--input", str(source), "--out-dir", str(tmp_path / tag)]) == 0
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_returns_reads_a_price_file_with_a_bom(self, market_csv, tmp_path):
        self.same_output(["returns"], market_csv, self.with_bom(market_csv), tmp_path, "returns.tsv")

    def test_lppl_fit_reads_a_series_file_with_a_bom(self, lppl_series_csv, tmp_path):
        args = ["lppl-fit", "--tc-nodes", "5", "--lam-nodes", "3", "--alpha-nodes", "3"]
        self.same_output(args, lppl_series_csv, self.with_bom(lppl_series_csv), tmp_path, "lppl_fit.json")
