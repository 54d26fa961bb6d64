"""Order-preserving map over a fork process pool, the OpenBLAS thread
setter, and the sizes of blocks of rows.

The projections of the simulator, the row-block pairs of the initial RID
search and of the affinity ranking, and the per-frequency eigensolves are
independent tasks. `fork_map` runs such tasks on worker processes that
inherit the large shared operands by fork, so only the small task
descriptions and the results are pickled. The process's CPU affinity caps
the workers.

Work over pairs of images or nodes (the RID search, the affinity ranking)
runs in pairs of `pair_blocks`, sized so that the temporaries of one pair
of blocks stay within BLOCK_BYTES: peak memory then does not grow with n^2.
Work over the images of a stack or the rows of a table (the image
transforms, the stack and CSV writers) and work whose temporaries are
written and at once read back (the correlations over a rotation grid, the
edge alignment) runs in `cache_blocks`, within CACHE_BYTES, so that a
block's temporaries stay in cache and peak memory does not grow with n.
"""

import ctypes
import math
import multiprocessing
import os
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor

__all__ = ["fork_map", "set_blas_threads", "BLOCK_BYTES", "CACHE_BYTES",
           "pair_blocks", "cache_blocks", "image_bytes"]

# Byte budget for the temporaries of one pair of row blocks; it sets the
# block sizes of pair_blocks.
BLOCK_BYTES = 16 * 2**20
# Byte budget for the temporaries of one block of images, table rows or
# edges, which then stay in cache; it sets the block sizes of cache_blocks.
CACHE_BYTES = 2**20

_PR_SET_PDEATHSIG = 1   # linux/prctl.h
# OpenBLAS names its thread setter with or without the scipy wheels' prefix
# and the 64-bit-integer suffix
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")

# set in each pool worker by _start_worker: (func, shared), handed over by
# fork rather than pickled
_worker_job = None


def fork_map(func, items, *, shared):
    """Yield func(*shared, item) for each item, in item order.

    The calls run on a fork pool of min(usable CPUs, len(items)) worker
    processes, the usable CPUs being the process's affinity. The workers
    inherit func and shared when they are forked, run OpenBLAS on one thread
    and die with the caller; each item and each result is pickled. With one
    worker the calls run in this process, and no child is started. At most
    two results per worker wait to be consumed; a worker's error raises here
    with its type, and a worker's death raises BrokenProcessPool.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
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
    # the pool already gives each usable CPU a worker: more BLAS threads
    # per worker would oversubscribe the CPUs it was sized for
    set_blas_threads(1)


def _run_in_worker(item):
    func, shared = _worker_job
    return func(*shared, item)


def set_blas_threads(n):
    """Run every OpenBLAS loaded in this process on n threads; returns the
    number of libraries set. Other BLAS libraries keep their thread count.
    OpenBLAS sizes itself from the affinity when it loads, so a caller that
    narrows the affinity after importing numpy calls this too."""
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


def cache_blocks(n, bytes_per_row):
    """Slices covering range(n) in order, in blocks of at most
    max(CACHE_BYTES // bytes_per_row, 2) rows whose sizes differ by at most
    one, so that the temporaries of a block, bytes_per_row a row, stay
    within CACHE_BYTES. No block holds a single row unless n is 1: BLAS
    multiplies one row by its vector path, whose last bits differ from
    those of the matrix path that larger blocks take."""
    return _blocks(n, CACHE_BYTES // bytes_per_row)


def pair_blocks(n, bytes_per_pair):
    """Square blocks of range(n), cut as cache_blocks, so that the
    temporaries of a pair of blocks, bytes_per_pair for each pair of their
    rows, stay within BLOCK_BYTES."""
    return _blocks(n, math.isqrt(BLOCK_BYTES // bytes_per_pair))


def _blocks(n, rows):
    count = max(1, min(-(-n // max(rows, 1)), n // 2))
    size, extra = divmod(n, count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def image_bytes(L):
    """Bytes of the temporaries per image of a block of Fourier transforms:
    about five complex L x L grids, the transforms and their fftshift copies
    (tracemalloc, alike in blocks of 12 and of 192 images: 87 KB per image
    at L = 33 for preprocess + expand_stack, 105 KB for reconstruct_grid +
    ctf_correct). The simulator's CTF and noise passes and evaluate_stack's
    fit and SSIM (56-60 KB) need less."""
    return 5 * 16 * L * L
