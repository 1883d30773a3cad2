"""Machine resources a run may use: worker threads, the one pool runner, check_bytes's array cap."""

from __future__ import annotations

import os

MAX_ARRAY_BYTES = 1 << 27  # largest array an option or parameter may size (128 MiB)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")  # in the order OpenBLAS reads them


def check_bytes(n_bytes: int, what: str, arrays: int = 1) -> None:
    """Raise DataError, before they exist, if `arrays` arrays of n_bytes each exceed
    MAX_ARRAY_BYTES together; the message names a single array that alone is over it."""
    if arrays * n_bytes <= MAX_ARRAY_BYTES:
        return
    from .errors import DataError   # here, so loading this module imports nothing more
    held = (f"a {n_bytes:,}-byte array" if n_bytes > MAX_ARRAY_BYTES
            else f"{arrays} {n_bytes:,}-byte arrays at once")
    raise DataError(f"{what} needs {held}, above the {MAX_ARRAY_BYTES:,}-byte cap")


def pool_workers() -> int:
    """Threads for pool_map: the usable CPUs, or 1 unless BLAS runs one thread per call.

    The pooled kernels (rolling_spectrum's ranges of windows, the LPPL grid
    stage's lam blocks split into slabs of t_c rows) spend their time in
    BLAS, LAPACK and numpy loops that release the interpreter lock, so the
    work runs in parallel; on top of a multi-threaded BLAS the same pool only
    oversubscribes the cores. OpenBLAS reads OPENBLAS_NUM_THREADS before
    OMP_NUM_THREADS. The `collectivity` command sets both to 1 when neither
    is set, so its runs take the pool; a library caller keeps its setting.
    """
    openblas, omp = BLAS_THREAD_VARS
    blas_threads = os.environ.get(openblas, os.environ.get(omp))
    if blas_threads != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a pool of min(workers, items) threads.

    Runs in the calling thread when workers <= 1 or there is at most one
    item. Either way the results come in item order and the first error in
    item order is raised; on the pool, the items not yet started are then
    cancelled, and those already running are finished first.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: concurrent.futures imports logging, which would add
    # about 6 ms to every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(workers, len(items))) as pool:
        # The map iterator cancels the futures not yet started when one raises.
        return list(pool.map(fn, items))
