"""The subcommand runner: `--out-dir`, the run manifest and the `wrote ...` line."""

import datetime as dt
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collectivity import lppl, resources, synthetic
from collectivity.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SUBCOMMANDS = ["returns", "corr", "spectrum", "global-spectrum", "lppl-fit", "extrema",
               "weierstrass-eval", "weierstrass-walk", "rpa-demo", "spacing-stats"]


@pytest.fixture(scope="module")
def invocations(tmp_path_factory):
    """The ten invocations of acceptance criterion 9, on the same inputs."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    panel = synthetic.one_factor_panel(6, 45, 0.5, seed=77)
    prices = tmp_path / "prices.csv"
    synthetic.write_price_csv(prices, synthetic.prices_from_returns(panel))
    panel_a, panel_b = synthetic.lagged_copy_markets(4, 40, 0.2, seed=78)
    file_a, file_b = tmp_path / "a.csv", tmp_path / "b.csv"
    synthetic.write_price_csv(file_a, synthetic.prices_from_returns(panel_a))
    synthetic.write_price_csv(file_b, synthetic.prices_from_returns(panel_b))

    truth = lppl.LogPeriodicModel(tc=90.0, alpha=0.5, lam=2.0, phi=0.5, a=1.0, b=0.2)
    t = np.arange(0.0, 80.0, 1.0)
    origin = dt.date(2015, 1, 1)
    series = tmp_path / "series.csv"
    with open(series, "w") as fh:
        fh.write("date,price\n")
        for ti, vi in zip(t, np.exp(lppl.evaluate_model(truth, t))):
            fh.write(f"{(origin + dt.timedelta(days=int(ti))).isoformat()},{float(vi)!r}\n")

    trace_dir = tmp_path / "trace-src"
    assert main(["spectrum", "--input", str(prices), "--window-length", "5",
                 "--out-dir", str(trace_dir)]) == 0

    return {
        "returns": ["returns", "--input", str(prices)],
        "corr": ["corr", "--input", str(prices)],
        "spectrum": ["spectrum", "--input", str(prices), "--window-length", "30"],
        "global-spectrum": ["global-spectrum", "--input-a", str(file_a),
                            "--input-b", str(file_b), "--shift-days", "1",
                            "--window-length", "39"],
        "lppl-fit": ["lppl-fit", "--input", str(series), "--tc-nodes", "20",
                     "--lam-nodes", "5", "--alpha-nodes", "5"],
        "extrema": ["extrema", "--input", str(series), "--t-c", "90"],
        "weierstrass-eval": ["weierstrass-eval", "--k-points", "50"],
        "weierstrass-walk": ["weierstrass-walk", "--steps", "500", "--seed", "3"],
        "rpa-demo": ["rpa-demo"],
        "spacing-stats": ["spacing-stats", "--input",
                          str(trace_dir / "spectrum_trace.tsv"), "--degree", "2"],
    }


def data_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_lists_out_dir_last_with_its_help_text(name, capsys):
    assert main([name, "--help"]) == 0
    options = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith("  --")]
    assert [words[0] for words in options[-2:]] == ["--out-dir", "--help"]
    assert " ".join(options[-2]) == "--out-dir TEXT Output directory. [default: .]"


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_manifest_lists_the_files_written_and_stdout_names_them(name, invocations, tmp_path,
                                                                capsys):
    out = tmp_path / "nested" / "out"
    assert main(invocations[name] + ["--out-dir", str(out)]) == 0
    manifest_name = name.replace("-", "_") + "_manifest.json"
    manifest = json.loads((out / manifest_name).read_text())
    written = {p.name for p in out.iterdir()} - {manifest_name}
    assert manifest["subcommand"] == name
    assert set(manifest["outputs"]) == written
    assert len(manifest["outputs"]) == len(written)
    assert manifest["seed"] == (3 if name == "weierstrass-walk" else None)
    assert "out_dir" not in manifest["config"]
    assert capsys.readouterr().out == (
        f"{name}: wrote {', '.join(manifest['outputs'])} and {manifest_name} in {out}\n")


@pytest.mark.parametrize("env, want, pinned", [
    ({}, (None, None), False),
    ({"OPENBLAS_NUM_THREADS": "1"}, ("1", None), True),
    ({"OMP_NUM_THREADS": "1"}, (None, "1"), True),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, ("4", "1"), False),
])
def test_manifest_records_the_blas_setting(env, want, pinned, tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(["rpa-demo", "--out-dir", str(tmp_path)]) == 0
    versions = json.loads((tmp_path / "rpa_demo_manifest.json").read_text())["versions"]
    assert (versions["OPENBLAS_NUM_THREADS"], versions["OMP_NUM_THREADS"]) == want
    assert versions["pool_workers"] == resources.pool_workers()
    if not pinned:
        assert versions["pool_workers"] == 1


@pytest.mark.parametrize("name, trace", [("spectrum", "spectrum_trace.tsv"),
                                         ("global-spectrum", "global_trace.tsv")])
def test_manifest_window_count_matches_the_trace_rows(name, trace, invocations, tmp_path):
    args = list(invocations[name])
    args[args.index("--window-length") + 1] = "10"
    assert main(args + ["--step", "5", "--out-dir", str(tmp_path)]) == 0
    manifest_name = name.replace("-", "_") + "_manifest.json"
    manifest = json.loads((tmp_path / manifest_name).read_text())
    assert manifest["config"]["windows"] == data_rows(tmp_path / trace) > 1


@pytest.mark.parametrize(("args", "code", "kind"), [
    (["spectrum", "--no-such-option"], 1, "usage"),
    (["spacing-stats", "--input", "{not_a_trace}"], 2, "data"),
], ids=["usage", "data"])
def test_a_process_exits_with_the_documented_code(tmp_path, args, code, kind):
    # What `sys.exit(main())` hands a shell, through `python -m collectivity.cli`.
    not_a_trace = tmp_path / "prices.csv"
    not_a_trace.write_text("date,asset,price\n2020-01-01,A,1.0\n")
    argv = [a.format(not_a_trace=not_a_trace) for a in args] + ["--out-dir", str(tmp_path / "o")]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "collectivity.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    record = json.loads(done.stderr.splitlines()[-1])
    assert record["error"] == kind
    if kind == "data":
        assert record["message"] == (f"{not_a_trace}: not a spectrum trace file: column 1 is "
                                     "'date,asset,price', expected 'window_end_date'")


def test_an_output_file_that_cannot_be_written_is_one_data_record(invocations, tmp_path):
    # The trace is written, then spectrum_vectors.tsv is a directory: exit 2, no traceback.
    out = tmp_path / "o"
    (out / "spectrum_vectors.tsv").mkdir(parents=True)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "collectivity.cli", *invocations["spectrum"],
                           "--out-dir", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert json.loads(line) == {"error": "data", "message": f"{out / 'spectrum_vectors.tsv'}: "
                                                           f"{os.strerror(errno.EISDIR)}"}
