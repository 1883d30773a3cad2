"""What a `collectivity` process loads at start-up, and the BLAS thread count it runs with."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collectivity
from collectivity import resources, synthetic
from collectivity.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = ["numpy", *(f"collectivity.{name}" for name in
                      ("corr", "lppl", "marketdata", "output", "rpa", "spectral", "synthetic",
                       "weierstrass"))]


def python(args: list[str], **env_changes: str | None) -> subprocess.CompletedProcess:
    """A fresh interpreter on the package source, with env_changes applied (None unsets)."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("start", [
    "import collectivity.cli",
    # what `python -m collectivity.cli --version` runs
    "sys.argv[1:] = ['--version']\n"
    "runpy.run_module('collectivity.cli', run_name='__main__', alter_sys=True)",
], ids=["import", "version"])
def test_start_up_loads_neither_numpy_nor_a_library_module(start):
    # The modules loaded when the process exits, as its last line of output.
    probe = ("import atexit, json, runpy, sys\n"
             "atexit.register(lambda: print(json.dumps(list(sys.modules))))")
    done = python(["-c", f"{probe}\n{start}"])
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "collectivity.resources" in loaded
    assert not loaded & set(LIBRARY)


def test_submodules_load_on_attribute_access():
    code = ("import sys, collectivity; assert 'collectivity.spectral' not in sys.modules; "
            "f = collectivity.spectral.rolling_spectrum; "
            "assert collectivity.spectral is sys.modules['collectivity.spectral']")
    done = python(["-c", code])
    assert done.returncode == 0, done.stderr


def test_star_import_yields_every_name_in_all():
    code = ("import collectivity; names = {}; exec('from collectivity import *', names); "
            "missing = set(collectivity.__all__) - names.keys(); assert not missing, missing")
    done = python(["-c", code])
    assert done.returncode == 0, done.stderr


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_module'"):
        collectivity.no_such_module  # noqa: B018


@pytest.fixture(scope="module")
def prices(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("prices") / "prices.csv"
    panel = synthetic.one_factor_panel(100, 301, 0.3, seed=29)
    synthetic.write_price_csv(path, synthetic.prices_from_returns(panel))
    return path


def run_spectrum(prices: Path, out: Path, **env_changes: str | None) -> dict:
    """The manifest's versions record of a `spectrum` process at window 120."""
    done = python(["-m", "collectivity.cli", "spectrum", "--input", str(prices),
                   "--window-length", "120", "--no-vectors", "--out-dir", str(out)],
                  **env_changes)
    assert done.returncode == 0, done.stderr
    return json.loads((out / "spectrum_manifest.json").read_text())["versions"]


def test_an_unset_blas_runs_one_thread_and_writes_the_pinned_bytes(prices, tmp_path):
    # With the variables unset, OpenBLAS would start one thread per core;
    # eigenvalues then differ from the one-thread run in their last bits.
    default = run_spectrum(prices, tmp_path / "default", OPENBLAS_NUM_THREADS=None,
                           OMP_NUM_THREADS=None)
    pinned = run_spectrum(prices, tmp_path / "pinned", OPENBLAS_NUM_THREADS="1",
                          OMP_NUM_THREADS=None)
    trace = "spectrum_trace.tsv"
    assert (tmp_path / "default" / trace).read_bytes() == (tmp_path / "pinned" / trace).read_bytes()
    assert (default["OPENBLAS_NUM_THREADS"], default["OMP_NUM_THREADS"]) == ("1", "1")
    assert default["pool_workers"] == pinned["pool_workers"]


def test_a_user_set_blas_thread_count_is_kept(tmp_path):
    done = python(["-m", "collectivity.cli", "rpa-demo", "--out-dir", str(tmp_path)],
                  OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS=None)
    assert done.returncode == 0, done.stderr
    versions = json.loads((tmp_path / "rpa_demo_manifest.json").read_text())["versions"]
    assert (versions["OPENBLAS_NUM_THREADS"], versions["OMP_NUM_THREADS"]) == ("2", None)
    assert versions["pool_workers"] == 1


def test_an_in_process_call_after_numpy_leaves_the_environment_alone(tmp_path, monkeypatch):
    for var in resources.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert main(["rpa-demo", "--out-dir", str(tmp_path)]) == 0
    assert dict(os.environ) == before
    assert resources.pool_workers() == 1
