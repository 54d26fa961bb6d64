"""The fork pool: order, errors, worker death, the serial path, the
process-wide worker cap, and bitwise agreement of the pooled projections
and RID search with their serial runs."""

import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import mfvdm.graph
import mfvdm.pool
from mfvdm.basis import expand_stack
from mfvdm.graph import initial_nn_search, search_bytes
from mfvdm.pool import fork_map, set_threads
from mfvdm.simulate import PROJECT_BLOCK, make_phantom, project, project_stack, sample_rotations
from mfvdm.spectral import frequency_eigs
from test_spectral import _two_cpus


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, and the pid of every os.fork caller, in order."""
    _two_cpus(monkeypatch)
    real_fork, calls = os.fork, []

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_fork_map_yields_in_order_from_children(forks):
    out = list(fork_map(lambda base, i: (base + i, os.getpid()), range(7), shared=(10,)))
    assert [v for v, _ in out] == list(range(10, 17))
    assert os.getpid() not in {pid for _, pid in out}
    assert len(forks) == 2


def test_fork_map_single_item_starts_no_child(forks):
    assert list(fork_map(lambda i: os.getpid(), [0], shared=())) == [os.getpid()]
    assert forks == []


def test_fork_map_error_reaches_caller(forks):
    parent = os.getpid()

    def fail(i):
        if os.getpid() == parent:
            raise AssertionError("ran in the calling process")
        raise KeyError(f"item {i}")

    with pytest.raises(KeyError, match="item 0"):
        list(fork_map(fail, range(4), shared=()))


def test_fork_map_worker_death_raises(forks):
    raised = []

    def run():
        try:
            list(fork_map(lambda i: os._exit(3), range(4), shared=()))
        except Exception as exc:  # noqa: BLE001 - recorded for the assertion below
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "fork_map hung after a worker died"
    assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool)


def test_project_stack_pooled_matches_serial(forks):
    vol = make_phantom(17, 3, n_blobs=10, support_radius=8.0)
    rotations = sample_rotations(2 * PROJECT_BLOCK + 3, 4)
    set_threads(1)
    serial = project_stack(vol, rotations)
    set_threads(0)
    assert np.array_equal(serial, np.stack([project(vol, R) for R in rotations]))
    # one block: no child
    assert np.array_equal(project_stack(vol, rotations[:PROJECT_BLOCK]), serial[:PROJECT_BLOCK])
    assert forks == []
    assert np.array_equal(project_stack(vol, rotations), serial)
    assert len(forks) == 2


def test_search_pooled_matches_serial(tiny_dataset, basis17, monkeypatch, forks):
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    n = coeffs.shape[0]
    serial = initial_nn_search(coeffs, basis17, s=8)
    assert forks == [], "a stack of one task must start no child"
    # 3-row blocks, ranked as one task; then 7 task rows, which round down
    # to two blocks. Unrounded tasks would end in 1-row blocks, whose matrix
    # products (and so distances) differ from a 3-row block's in the last bits
    row_bytes, fixed = search_bytes(n, basis17.k_max + 1, 256)
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", fixed + 3 * row_bytes)
    blocked = initial_nn_search(coeffs, basis17, s=8)
    assert forks == []
    monkeypatch.setattr(mfvdm.graph, "SEARCH_TASK_ROWS", 7)
    pooled = initial_nn_search(coeffs, basis17, s=8)
    assert len(forks) == 2
    set_threads(1)
    in_process = initial_nn_search(coeffs, basis17, s=8)
    np.testing.assert_array_equal(in_process.dists, blocked.dists)
    for g in (blocked, pooled):
        np.testing.assert_array_equal(g.indptr, serial.indptr)
        np.testing.assert_array_equal(g.indices, serial.indices)
        np.testing.assert_array_equal(g.angles, serial.angles)
    np.testing.assert_array_equal(pooled.dists, blocked.dists)


def test_set_threads_caps_every_pool(tiny_dataset, basis17, demo_graph, monkeypatch, forks):
    """set_threads(1) runs the projections, the RID search and the
    eigensolves in this process; set_threads(0) lifts the cap, and each of
    them forks its pool again."""
    vol = make_phantom(17, 3, n_blobs=10, support_radius=8.0)
    rotations = sample_rotations(2 * PROJECT_BLOCK, 4)
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    # 3-row blocks in 6-row tasks: the 60-image search is 10 tasks
    row_bytes, fixed = search_bytes(coeffs.shape[0], basis17.k_max + 1, 256)
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", fixed + 3 * row_bytes)
    monkeypatch.setattr(mfvdm.graph, "SEARCH_TASK_ROWS", 7)
    loops = [lambda: project_stack(vol, rotations),
             lambda: initial_nn_search(coeffs, basis17, s=8),
             lambda: list(frequency_eigs(demo_graph, range(4), 10))]
    for loop in loops:
        set_threads(1)
        loop()
        assert forks == []
        set_threads(0)
        loop()
        assert len(forks) == 2
        forks.clear()
