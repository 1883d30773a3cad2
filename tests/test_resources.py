import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import collectivity
from collectivity.resources import pool_map


class Fault(Exception):
    pass


class TestPoolMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_come_in_item_order(self, workers):
        def slow_first(i):
            time.sleep(0.01 * (5 - i) if i < 5 else 0.0)   # early items finish last
            return i * i

        assert pool_map(slow_first, range(12), workers) == [i * i for i in range(12)]

    @pytest.mark.parametrize("workers", [-1, 0, 1])
    def test_one_worker_runs_in_the_calling_thread(self, workers):
        before = threading.active_count()
        seen = []

        def record(i):
            seen.append((threading.current_thread(), threading.active_count()))
            return i

        assert pool_map(record, range(5), workers) == list(range(5))
        assert seen == [(threading.main_thread(), before)] * 5

    def test_one_item_runs_in_the_calling_thread(self):
        assert pool_map(lambda i: threading.current_thread(), [0], 4) == [threading.main_thread()]

    def test_no_items(self):
        assert pool_map(lambda i: i, [], 4) == []

    def test_first_error_in_item_order_wins(self):
        def fail(i):
            if i == 1:
                time.sleep(0.05)
                raise Fault("item 1")
            if i == 3:
                raise Fault("item 3")
            return i

        with pytest.raises(Fault, match="^item 1$"):
            pool_map(fail, range(4), 4)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_items_not_yet_started_are_not_run_after_an_error(self, workers):
        started = []
        lock = threading.Lock()

        def fail_first(i):
            with lock:
                started.append(i)
            if i == 0:
                raise Fault("item 0")
            time.sleep(0.02)

        with pytest.raises(Fault, match="^item 0$"):
            pool_map(fail_first, range(40), workers)
        # The pool has shut down on return. Only the items that a worker took
        # up before the error was raised ran; the rest were cancelled.
        assert 0 in started and len(started) <= (1 if workers == 1 else 20)


def test_cli_import_leaves_the_pool_modules_unloaded():
    # concurrent.futures imports logging, which would add about 6 ms to every
    # CLI start; pool_map imports it only when it starts a pool.
    src = str(Path(collectivity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, collectivity.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
