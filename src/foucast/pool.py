"""The worker pool of training, evaluation and dataset synthesis: its size, and the one
fan-out over it, which holds the OpenBLAS numpy loaded at one thread per worker, so every
pool size computes at the same BLAS thread count.  Without a thread setter a pool has one
worker.

``fan_out`` is not re-entrant: a task must never call it, directly or through a caller
such as ``synth_dataset``, because the pool thread running the task would wait on itself.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager


class ConfigError(ValueError):
    pass


def default_workers() -> int:
    """Pool size: FOUCAST_THREADS if set (a positive integer), else <= 4 usable cores."""
    env = os.environ.get("FOUCAST_THREADS")
    if not env:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(4, cores or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"FOUCAST_THREADS must be a positive integer, got {env!r}")
    return int(env)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count entries of the OpenBLAS mapped into the process, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:  # no /proc, or a mapping that is not a loadable library
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        for lib in libs:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


def pool_threads(max_workers: int, n_items: int) -> tuple[int, int | None]:
    """(pool size, BLAS threads per worker) for ``n_items``; (1, None) without a setter."""
    if _openblas_threads() is None:
        return 1, None
    return min(max_workers, n_items), 1


@contextmanager
def one_blas_thread():
    """Hold the process-wide OpenBLAS count at 1 (so calls must not overlap), then restore it."""
    get, put = _openblas_threads() or (lambda: None, lambda n: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# Pool threads live as long as the process: a pool built per call ends one thread as the next
# starts, the new one can get a fresh malloc arena, and train_default then peaked ~60 MB higher.
@functools.cache
def _executor(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads)


def fan_out(fn, items: list, max_workers: int) -> list:
    """``[fn(x) for x in items]`` on ``pool_threads`` workers, OpenBLAS held at one thread.

    The calling thread maps every W-th item and W - 1 pool threads the rest.
    Results come back in item order, and the BLAS count is restored, once every
    item has finished, also when ``fn`` raises.
    """
    workers, _ = pool_threads(max_workers, len(items))
    pool = _executor(max(workers - 1, 1))  # no thread starts until an item is submitted
    with one_blas_thread():
        futures = {k: pool.submit(fn, x) for k, x in enumerate(items) if k % workers}
        try:
            mine = {k: fn(x) for k, x in enumerate(items) if k % workers == 0}
        finally:
            wait(futures.values())
        return [mine[k] if k in mine else futures[k].result() for k in range(len(items))]
