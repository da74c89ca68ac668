"""The worker pool of training, evaluation and dataset synthesis: its size, and the one
fan-out over it, which holds the OpenBLAS numpy loaded at one thread per worker, so every
pool size computes at the same BLAS thread count.  Without a thread setter a pool has one
worker.  The workers are threads, or spawned processes for work that holds the
interpreter lock (small train steps).

A task must never fan out, directly or through a caller such as ``synth_dataset``: a
pool thread running the task would wait on itself, and a worker process would start
a pool of its own.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing.connection
import multiprocessing.util
import os
import signal
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np  # maps the OpenBLAS whose thread setter _openblas_threads looks up


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


def _exit_with_parent() -> None:
    """Worker-process thread: end the worker when its parent is gone, however it ended."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _init_worker() -> None:
    """Worker-process initializer: the worker's OpenBLAS runs one thread for good, the worker
    ignores SIGINT, and it exits with its parent.

    A Ctrl-C reaches the whole process group, and a worker that it interrupts between the
    two writes of a result message leaves the caller's result pipe half-written, so the
    caller waits forever: the caller alone handles it, and shuts the worker down on its way
    out.  A parent killed outright cannot shut it down, and the worker, which holds its own
    task queue's write end, would wait for tasks for good.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    _, put = _openblas_threads() or (None, lambda n: None)
    put(1)


# Pools live as long as the process: a thread pool built per call ends one thread as the next
# starts, the new one can get a fresh malloc arena, and train_default then peaked ~60 MB higher;
# a process pool built per call would pay the 0.6 s start of a spawned worker on every step.
@functools.cache
def _executor(workers: int, processes: bool) -> Executor:
    if not processes:
        return ThreadPoolExecutor(workers)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                               initializer=_init_worker)
    # A multiprocessing child joins its own children before its thread-exit hooks would shut
    # the pool down, so shut it down by a finalizer that also runs before the pool's queues
    # close (exitpriority 10); without it a child that trained never exits.
    multiprocessing.util.Finalize(pool, pool.shutdown, exitpriority=100)
    return pool


def _under_errstate(err: dict, fn, x):
    with np.errstate(**err):
        return fn(x)


def fan_out(fn, items: list, max_workers: int, processes: bool = False) -> list:
    """``[fn(x) for x in items]`` on ``pool_threads`` workers, OpenBLAS held at one thread,
    each item under the caller's ``np.errstate`` (no worker inherits it).

    The calling thread maps every W-th item and W - 1 pool threads, or with
    ``processes`` W - 1 spawned worker processes, the rest; a worker process gets
    ``fn`` and its item pickled, so both must be picklable.  Results come back in
    item order, and the BLAS count is restored, once every item has finished, also
    when ``fn`` raises.  No worker starts until an item is submitted.
    """
    workers, _ = pool_threads(max_workers, len(items))
    fn = functools.partial(_under_errstate, np.geterr(), fn)
    with one_blas_thread():
        futures = {k: _executor(workers - 1, processes).submit(fn, x)
                   for k, x in enumerate(items) if k % workers}
        try:
            mine = {k: fn(x) for k, x in enumerate(items) if k % workers == 0}
        finally:
            wait(futures.values())
        return [mine[k] if k in mine else futures[k].result() for k in range(len(items))]
