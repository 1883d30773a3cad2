"""Machine resources a run may use: worker threads and the size of one array."""

from __future__ import annotations

import os

MAX_ARRAY_BYTES = 1 << 27  # largest array an option or parameter may size (128 MiB)


def pool_workers() -> int:
    """Threads for a worker pool: the usable CPUs, or 1 unless BLAS runs one thread per call.

    The pooled kernels (rolling_spectrum's chunks of windows, the slabs of
    t_c rows of each LPPL grid-stage lam block) spend
    their time in BLAS, LAPACK and numpy loops that release the interpreter
    lock, so the work runs in parallel; on top of a multi-threaded BLAS the
    same pool only oversubscribes the cores. OpenBLAS reads
    OPENBLAS_NUM_THREADS before OMP_NUM_THREADS.
    """
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas_threads != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
