"""Each kernel that sizes arrays from its inputs checks them against
resources.MAX_ARRAY_BYTES itself, before allocating: as a library call and
through the CLI, which calls the same footprint function with option names."""

import dataclasses
import datetime as dt
import json
import tracemalloc

import numpy as np
import pytest

from collectivity import cli, lppl, resources, rpa, spectral
from collectivity.cli import main
from collectivity.errors import DataError

CAP = ", above the 134,217,728-byte cap"


def traced_peak(fn):
    """fn's traced peak in bytes; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def series(n_points):
    """An exact cosine LPPL series of n_points daily values, t_c 6 days past the end."""
    t = np.arange(float(n_points))
    model = lppl.LogPeriodicModel(tc=n_points + 6.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3)
    return t, lppl.evaluate_model(model, t)


def write_series(path, t, y):
    origin = dt.date(2020, 1, 1)
    with open(path, "w") as fh:
        fh.write("date,price\n")
        for d, v in zip(t, y):
            fh.write(f"{origin + dt.timedelta(days=int(d))},{float(v)!r}\n")
    return path


def raises_before_allocating(fn, message):
    def call():
        with pytest.raises(DataError) as info:
            fn()
        assert str(info.value) == message

    assert traced_peak(call) < 2**20


class TestLibraryCalls:
    def test_fit_model_counts_the_ldl_scratch_of_a_row(self):
        # 60 points keep the whole lam grid in one block, so one t_c row's LDL^T
        # scratch holds 6 slots x 1100 alphas x 41 lams x 64 phis.
        t, y = series(60)
        config = dataclasses.replace(lppl.default_fit_config(t, "abs-cosine"),
                                     alpha_grid=np.linspace(-1.0, 1.0, 1100))
        raises_before_allocating(
            lambda: lppl.fit_model(t, y, config),
            "1100 alpha nodes x 41 lam nodes x 64 phi nodes: one t_c row's LDL^T scratch "
            "needs a 138,547,200-byte array" + CAP)

    def test_solve_numeric_counts_every_n_by_n_array(self):
        model = rpa.SchematicRpaModel(epsilon=1.0, kappa=0.5, d=np.ones(1673))
        raises_before_allocating(
            lambda: rpa.solve_numeric(model),
            "1673 transition amplitudes needs 6 22,391,432-byte arrays at once" + CAP)

    def test_spacing_statistics_counts_the_bin_edges(self):
        table = np.sort(np.random.default_rng(3).random((4, 60)), axis=1)
        raises_before_allocating(
            lambda: spectral.spacing_statistics(table, bins=10**13),
            "bins 10000000000000 needs a 80,000,000,000,008-byte array" + CAP)

    def test_one_lam_basis_is_counted(self, monkeypatch):
        # One t_c row and one lam of the |cos| basis at 3,000 points: 64 x 3,000
        # doubles, over a 1 MiB cap however small the grids.
        monkeypatch.setattr(resources, "MAX_ARRAY_BYTES", 2**20)
        t, y = series(3000)
        config = lppl.FitConfig(tc_grid=[3010.0], lam_grid=np.linspace(1.5, 3.5, 41),
                                alpha_grid=[0.5], variant="abs-cosine")
        with pytest.raises(DataError, match="^abs-cosine at 3000 points: one lam's oscillation "
                                            "basis needs a 1,536,000-byte array"):
            lppl.fit_model(t, y, config)


class TestCli:
    def test_abs_cosine_ldl_scratch_over_the_cap_is_a_data_error(self, tmp_path, capsys):
        csv = write_series(tmp_path / "lppl.csv", *series(60))
        args = ["lppl-fit", "--input", str(csv), "--variant", "abs-cosine",
                "--alpha-nodes", "1100", "--out-dir", str(tmp_path / "o")]
        rc = []
        assert traced_peak(lambda: rc.append(main(args))) < 2**20
        assert rc == [2]
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "data",
            "message": "--alpha-nodes 1100 x --lam-nodes 41 x 64 phi nodes: one t_c row's "
                       "LDL^T scratch needs a 138,547,200-byte array" + CAP}
        assert not list((tmp_path / "o").glob("*.tsv"))

    def test_one_lam_basis_over_a_patched_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(resources, "MAX_ARRAY_BYTES", 2**20)
        csv = write_series(tmp_path / "lppl.csv", *series(3000))
        rc = main(["lppl-fit", "--input", str(csv), "--variant", "abs-cosine", "--tc-nodes", "1",
                   "--alpha-nodes", "1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "data",
            "message": "abs-cosine at 3000 points: one lam's oscillation basis needs a "
                       "1,536,000-byte array, above the 1,048,576-byte cap"}

    def test_the_cap_lives_in_resources_only(self, monkeypatch):
        # A cli copy of the cap would take a patch and check nothing with it.
        with pytest.raises(AttributeError):
            monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 1)
