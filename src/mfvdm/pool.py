"""Order-preserving map over a fork process pool, and the process-wide
worker and OpenBLAS thread cap.

The projections of the simulator, the row ranges of the initial RID search
and the per-frequency eigensolves are independent tasks. `fork_map` runs such
tasks on worker processes that inherit the large shared operands by fork, so
only the small task descriptions and the results are pickled. `set_threads`
caps the workers of every later `fork_map` call in the process.
"""

import ctypes
import multiprocessing
import os
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor

__all__ = ["fork_map", "set_threads", "set_blas_threads"]

_PR_SET_PDEATHSIG = 1   # linux/prctl.h
# OpenBLAS names its thread setter with or without the scipy wheels' prefix
# and the 64-bit-integer suffix
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")

# the cap on fork_map's workers; written only by set_threads (0: no cap)
_threads = 0
# set in each pool worker by _start_worker: (func, shared), handed over by
# fork rather than pickled
_worker_job = None


def set_threads(n):
    """Cap the workers of every later fork_map call in this process at n
    (0: no cap). For n > 0, also run every OpenBLAS loaded in the process on
    n threads. Returns the number of OpenBLAS libraries set."""
    global _threads
    if n < 0:
        raise ValueError(f"thread cap must be >= 0, got {n}")
    _threads = n
    return set_blas_threads(n) if n else 0


def fork_map(func, items, *, shared):
    """Yield func(*shared, item) for each item, in item order.

    The calls run on a fork pool of min(usable CPUs, len(items), the
    set_threads cap) worker processes. The workers inherit func and
    shared when they are forked, run OpenBLAS on one thread and die with the
    caller; each item and each result is pickled. With one worker the calls
    run in this process, and no child is started. At most two results per
    worker wait to be consumed; a worker's error raises here with its type,
    and a worker's death raises BrokenProcessPool.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items), _threads or len(items))
    if workers <= 1:
        for item in items:
            yield func(*shared, item)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker,
                               initargs=(os.getpid(), func, shared))
    try:
        pending = deque()
        for item in items:
            pending.append(pool.submit(_run_in_worker, item))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _start_worker(parent, *job):
    global _worker_job
    # die with the caller: a worker orphaned by a killed caller would wait
    # on its task queue forever
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    _worker_job = job
    # the pool already gives each CPU a worker; BLAS threads on top of that
    # made the 44 denoise solves 3.5x slower than the serial loop on 2 CPUs
    set_blas_threads(1)


def _run_in_worker(item):
    func, shared = _worker_job
    return func(*shared, item)


def set_blas_threads(n):
    """Run every OpenBLAS loaded in this process on n threads; returns the
    number of libraries set. Other BLAS libraries keep their thread count."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    count = 0
    for path in paths:
        lib = ctypes.CDLL(path)
        setters = [getattr(lib, name) for name in _OPENBLAS_SETTERS if hasattr(lib, name)]
        for setter in setters:
            setter(n)
        count += bool(setters)
    return count
