"""Outside-in span tracer for the `collectivity` layers.

The tracer replaces module attributes with timing wrappers and restores them
afterwards; nothing under `src/` knows it exists. This catches nested calls
because the code calls across layers through the module (`marketdata.load_price_series`,
`spectral.eigendecompose`) or through a module-global lookup at call time
(`spectrum_trace` -> `eigendecompose`, `write_spectrum_trace` -> `write_tsv`),
and LAPACK is reached as `np.linalg.eigh`.

Spans are kept in memory as (name, start, end, parent, op) and written out by
the caller at the end of the run. A span's self time is its duration minus
the durations of its direct children; calls are strictly nested, so the self
times of one op's spans add up to the op's root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, TextIO

import numpy as np

from collectivity import cli, corr, lppl, marketdata, output, spectral

ROOT = "cli"
EIGH = "spectral.lapack_eigh"


def _rows(result) -> int:
    if isinstance(result, tuple):  # load_value_series -> (dates, values)
        return len(result[0])
    return sum(len(s) for s in result)


def _fit_name(args, kwargs) -> str:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    variant = "cosine" if config is None else config.variant
    return "lppl.fit_model_" + ("cosine" if variant == "cosine" else "abs")


# (module, attribute, span name or namer, re-entrant, counter hook)
# The loaders call themselves again with the open file handle: only the
# outermost call is a span. merge_price_series pulls its loads from a
# generator, so those loads become its children and leave its self time.
TARGETS: list[tuple] = [
    (marketdata, "load_price_series", None, True, "rows"),
    (marketdata, "load_value_series", None, True, "rows"),
    (marketdata, "merge_price_series", None, False, None),
    (marketdata, "compute_returns", None, False, None),
    (marketdata, "align_calendars", None, False, None),
    (marketdata, "shift_returns", None, False, None),
    (corr, "rolling_correlation", None, False, "windows"),
    (corr, "merge_panels", None, False, None),
    (spectral, "spectrum_trace", None, False, None),
    (spectral, "eigendecompose", None, False, None),
    (spectral, "collectivity_metrics", None, False, None),
    (spectral, "spacing_statistics", None, False, None),
    (np.linalg, "eigh", EIGH, False, None),
    (lppl, "fit_model", _fit_name, False, "fit"),
    (lppl, "default_fit_config", None, False, None),
    (lppl, "evaluate_model", None, False, None),
    (lppl, "extrema_progression", None, False, None),
    (output, "write_tsv", None, False, None),
    (output, "write_json", None, False, None),
    (output, "write_spectrum_trace", None, False, None),
    (output, "write_leading_vectors", None, False, None),
    (output, "write_fit_record", None, False, None),
    (output, "write_fit_curve", None, False, None),
    (output, "read_spectrum_trace", None, False, None),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.fits: list[dict] = []

    def _wrap(self, original: Callable, name, reentrant: bool, counter: str | None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if reentrant and stack and spans[stack[-1]][0] == label:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else None, self.op])
            stack.append(index)
            spans[index][1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                self._count(counter, label, result)
            return result

        return traced

    def _count(self, counter: str, label: str, result) -> None:
        if counter == "rows":
            self.counts["marketdata.rows_parsed"] += _rows(result)
        elif counter == "windows":
            self.counts["corr.windows"] += len(result)
            held = sum(m.entries.nbytes for m in result)  # all windows are alive at once
            self.counts["corr.matrix_bytes_held"] = max(self.counts["corr.matrix_bytes_held"], held)
        elif counter == "fit":
            diag = result.diagnostics
            self.fits.append({"op": self.op, "span": label, "grid_nodes": diag.grid_nodes,
                              "nodes_skipped": diag.nodes_skipped, "refine_sweeps": diag.refine_sweeps})

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, reentrant, counter in TARGETS:
                original = getattr(module, attr)
                label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, label, reentrant, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_op(self, op_id: str, argv: list[str]) -> int:
        """Call the CLI under a root span; returns its exit code."""
        self.op = op_id
        index = len(self.spans)
        self.spans.append([ROOT, 0.0, 0.0, None, op_id])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()
            self.op = None
        return code

    def self_times(self, op_id: str | None = None) -> dict[str, float]:
        """Self seconds per span name, over one op or all ops."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op_id is None or op == op_id:
                totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, fh: TextIO) -> None:
        """Write the spans as JSON lines; `parent` is the index of the parent span."""
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
