"""The benchmark tracer wraps library functions by name; each must still exist.

The tracer looks its targets up with getattr when a traced run starts, so a
deleted target would otherwise show only in a traced benchmark run. A traced
op must also exit 0 and name each LPPL fit by its variant, since the
benchmark checks a fit's grid size against the grid of the variant its span
names. These tests go when the tracer is retired for a stage timer in the
library (ROADMAP item 1).
"""

import datetime as dt
import importlib.util
import json
from pathlib import Path

import numpy as np

from collectivity import lppl, synthetic

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not hasattr(module, attr)]
    assert not missing


def test_traced_ops_exit_0_and_name_each_fit_by_its_variant(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    prices = tmp_path / "prices.csv"
    panel = synthetic.one_factor_panel(12, 60, 0.5, seed=3)
    synthetic.write_price_csv(prices, synthetic.prices_from_returns(panel))
    series = tmp_path / "series.csv"
    truth = lppl.LogPeriodicModel(tc=90.0, alpha=0.5, lam=2.0, phi=0.5, a=1.0, b=0.2)
    t, origin = np.arange(0.0, 80.0, 1.0), dt.date(2015, 1, 1)
    with open(series, "w") as fh:
        fh.write("date,price\n")
        for ti, vi in zip(t, np.exp(lppl.evaluate_model(truth, t))):
            fh.write(f"{(origin + dt.timedelta(days=int(ti))).isoformat()},{float(vi)!r}\n")
    grid = ["--tc-nodes", "4", "--lam-nodes", "3", "--alpha-nodes", "3"]
    ops = {
        "spectrum": ["spectrum", "--input", str(prices), "--window-length", "20"],
        "spacing-stats": ["spacing-stats", "--input",
                          str(tmp_path / "spectrum" / "spectrum_trace.tsv")],
        "cosine": ["lppl-fit", "--input", str(series), *grid],
        "abs-cosine": ["lppl-fit", "--input", str(series), "--variant", "abs-cosine", *grid],
    }
    tracer = tracer_module.Tracer()
    with tracer.installed():
        codes = {name: tracer.run_op(name, argv + ["--out-dir", str(tmp_path / name)])
                 for name, argv in ops.items()}
    assert codes == dict.fromkeys(ops, 0)
    assert tracer.stack == []
    for name in ("spectral.spacing_statistics", "output.read_spectrum_trace",
                 "output.write_spectrum_trace"):
        assert tracer.span_count(name) == 1
    fits = {fit["op"]: fit for fit in tracer.fits}
    assert sorted(fits) == ["abs-cosine", "cosine"]
    for variant, span in (("cosine", "lppl.fit_model_cosine"),
                          ("abs-cosine", "lppl.fit_model_abs")):
        manifest = json.loads((tmp_path / variant / "lppl_fit_manifest.json").read_text())
        assert fits[variant]["span"] == span
        assert fits[variant]["grid_nodes"] == manifest["config"]["grid_nodes"]
