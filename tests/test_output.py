import datetime as dt
import json

import numpy as np
import pytest

from collectivity.corr import correlation_matrix, merge_panels, rolling_correlation
from collectivity.errors import DataError
from collectivity.lppl import FitConfig, LogPeriodicModel, evaluate_model, fit_model
from collectivity.output import (
    fit_record,
    format_cell,
    read_spectrum_trace,
    write_matrix_metadata,
    write_matrix_tsv,
    write_panel_tsv,
    write_spectrum_trace,
)
from collectivity.spectral import spectrum_trace
from collectivity.synthetic import lagged_copy_markets, random_panel


class TestFormatCell:
    def test_floats_round_trip(self):
        for value in (0.1, 1 / 3, 1e-17, 123456.789, float("inf")):
            assert float(format_cell(value)) == value

    def test_numpy_scalars_render_as_plain_floats(self):
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(np.int64(7)) == "7"

    def test_dates_are_iso(self):
        assert format_cell(dt.date(2020, 3, 4)) == "2020-03-04"


class TestMatrixFiles:
    def test_matrix_tsv_has_asset_header_row_and_column(self, tmp_path):
        matrix = correlation_matrix(random_panel(3, 30, 1))
        path = tmp_path / "m.tsv"
        write_matrix_tsv(path, matrix)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["asset", "A00", "A01", "A02"]
        first = lines[1].split("\t")
        assert first[0] == "A00"
        assert float(first[1]) == 1.0

    def test_metadata_sidecar_fields(self, tmp_path):
        a, b = lagged_copy_markets(2, 40, 0.2, seed=2)
        matrix = correlation_matrix(merge_panels(a, b, 1), block_split=a.n_assets)
        path = tmp_path / "m.meta.json"
        write_matrix_metadata(path, matrix)
        record = json.loads(path.read_text())
        assert set(record) == {"assets", "window_start", "window_end", "T", "block_split"}
        assert record["block_split"] == 2
        assert record["T"] == matrix.window.length
        assert record["window_start"] == matrix.window.start.isoformat()

    def test_panel_tsv_shape(self, tmp_path):
        panel = random_panel(2, 5, 3)
        path = tmp_path / "panel.tsv"
        write_panel_tsv(path, panel)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["date", "A00", "A01"]
        assert len(lines) == 6


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        panel = random_panel(4, 40, 4)
        trace = spectrum_trace(rolling_correlation(panel, 30))
        path = tmp_path / "trace.tsv"
        write_spectrum_trace(path, trace)
        sets = read_spectrum_trace(path)
        assert len(sets) == len(trace)
        for loaded, snapshot in zip(sets, trace.snapshots):
            assert np.array_equal(loaded, snapshot.eigenvalues)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("not\ta\ttrace\n")
        with pytest.raises(DataError, match="not a spectrum trace"):
            read_spectrum_trace(path)


class TestFitRecord:
    def test_field_names_and_tc_date(self):
        model = LogPeriodicModel(tc=450.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3)
        t = np.linspace(0.0, 360.0, 60)
        result = fit_model(
            t,
            evaluate_model(model, t),
            FitConfig(
                tc_grid=np.linspace(370.0, 1090.0, 37),
                lam_grid=np.linspace(1.5, 3.5, 11),
                alpha_grid=np.linspace(-1.0, 1.0, 11),
            ),
        )
        record = fit_record(result, origin=dt.date(2000, 1, 1))
        assert list(record) == [
            "t_c", "t_c_date", "alpha", "lambda", "omega", "phi", "A", "B",
            "variant", "direction", "sse", "n_points",
        ]
        assert record["t_c_date"] == (
            dt.date(2000, 1, 1) + dt.timedelta(days=round(record["t_c"]))
        ).isoformat()
        assert record["omega"] == pytest.approx(2 * np.pi / np.log(record["lambda"]))
        assert record["n_points"] == 60
