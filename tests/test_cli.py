import datetime as dt
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from collectivity import lppl, synthetic
from collectivity.cli import main


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

    def test_extrema_accepts_iso_critical_time(self, lppl_series_csv, tmp_path):
        out = tmp_path / "ex"
        rc = main(["extrema", "--input", str(lppl_series_csv),
                   "--t-c", "2006-02-05", "--out-dir", str(out)])
        assert rc == 0
        record = json.loads((out / "extrema.json").read_text())
        assert record["lambda_estimate"] == pytest.approx(2.0, rel=0.05)


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
