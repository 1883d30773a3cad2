import runpy
import sys
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, args: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_table(path: Path) -> list[dict[str, str]]:
    header, *rows = (line.split("\t") for line in path.read_text().splitlines())
    return [dict(zip(header, row)) for row in rows]


def test_market_demo_shift_merges_the_markets(tmp_path, monkeypatch):
    run_script("market_collectivity_demo.py",
               ["--assets", "6", "--days", "160", "--window", "40", "--out-dir", str(tmp_path)],
               monkeypatch)
    for name in ("market_a_trace.tsv", "global_trace_shift0.tsv", "global_trace_shift1.tsv"):
        assert (tmp_path / name).stat().st_size > 0
    rows = read_table(tmp_path / "shift_comparison.tsv")
    gap = {int(r["shift_days"]): float(r["mean_gap_ratio"]) for r in rows}
    assert gap[1] > gap[0]


def test_lppl_demo_writes_fit_curve_and_extrema(tmp_path, monkeypatch):
    run_script("lppl_bubble_demo.py", ["--points", "60", "--out-dir", str(tmp_path)], monkeypatch)
    for name in ("fit.json", "curve.tsv", "extrema.json"):
        assert (tmp_path / name).stat().st_size > 0
    assert len(read_table(tmp_path / "curve.tsv")) == 60


def test_weierstrass_demo_writes_series_and_walk(tmp_path, monkeypatch):
    run_script("weierstrass_demo.py", ["--steps", "200", "--out-dir", str(tmp_path)], monkeypatch)
    assert len(read_table(tmp_path / "p_of_k.tsv")) == 600
    assert len(read_table(tmp_path / "walk.tsv")) == 200
