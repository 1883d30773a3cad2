"""The benchmark tracer wraps library functions by name; each must still exist.

The tracer looks its targets up with getattr when a traced run starts, so a
deleted target would otherwise show only in a traced benchmark run. This
test goes when the tracer is retired for a stage timer in the library
(ROADMAP item 1).
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not hasattr(module, attr)]
    assert not missing
