"""The fork pool: order, errors, worker death, the serial path, the
cap by the usable CPUs, and bitwise agreement of the pooled projections,
RID search and affinity ranking with their serial runs."""

import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import mfvdm.pool
from mfvdm.basis import expand_stack
from mfvdm.graph import initial_nn_search, search_pair_bytes
from mfvdm.pool import fork_map
from mfvdm.simulate import PROJECT_BLOCK, make_phantom, project, project_stack, sample_rotations
from mfvdm.spectral import compute_bundle, frequency_eigs, refine_neighbors
from test_spectral import _one_cpu, _two_cpus


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


def test_project_stack_pooled_matches_serial(monkeypatch, forks):
    vol = make_phantom(17, 3, n_blobs=10, support_radius=8.0)
    rotations = sample_rotations(2 * PROJECT_BLOCK + 3, 4)
    _one_cpu(monkeypatch)
    serial = project_stack(vol, rotations)
    _two_cpus(monkeypatch)
    assert np.array_equal(serial, np.stack([project(vol, R) for R in rotations]))
    # one block: no child
    assert np.array_equal(project_stack(vol, rotations[:PROJECT_BLOCK]), serial[:PROJECT_BLOCK])
    assert forks == []
    assert np.array_equal(project_stack(vol, rotations), serial)
    assert len(forks) == 2


def _ragged_blocks(monkeypatch, basis):
    """BLOCK_BYTES for blocks of at most 7 rows (60 images: 6-7 rows, 45
    block pairs) in the RID search at every frequency; 4 blocks of 15 rows
    in the affinity ranking."""
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", 49 * search_pair_bytes(basis.k_max + 1))


def test_search_pooled_matches_serial(tiny_dataset, basis17, monkeypatch, forks):
    """The pooled search, ranking block pairs narrower than s in two
    workers, returns the one-block search's graph bit for bit, as does the
    same blocking run in this process."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    serial = initial_nn_search(coeffs, basis17, s=8)
    assert forks == [], "a search of one task must start no child"
    _ragged_blocks(monkeypatch, basis17)
    pooled = initial_nn_search(coeffs, basis17, s=8)
    assert len(forks) == 2
    _one_cpu(monkeypatch)
    in_process = initial_nn_search(coeffs, basis17, s=8)
    for g in (pooled, in_process):
        for name in ("indptr", "indices", "angles", "dists"):
            np.testing.assert_array_equal(getattr(g, name), getattr(serial, name), err_msg=name)


def test_refine_pooled_matches_serial(demo_graph, basis17, monkeypatch, forks):
    """Refinement ranks its block pairs in two workers and returns the
    one-block ranking bit for bit, as does the same blocking in this
    process."""
    bundle = compute_bundle(demo_graph, 4, 20)
    forks.clear()
    serial = refine_neighbors(bundle, 6)
    assert forks == []
    _ragged_blocks(monkeypatch, basis17)
    pooled = refine_neighbors(bundle, 6)
    assert len(forks) == 2
    _one_cpu(monkeypatch)
    in_process = refine_neighbors(bundle, 6)
    for g in (pooled, in_process):
        np.testing.assert_array_equal(g.indptr, serial.indptr)
        np.testing.assert_array_equal(g.indices, serial.indices)


def test_one_cpu_runs_every_pool_in_process(tiny_dataset, basis17, demo_graph, monkeypatch,
                                            forks):
    """One usable CPU runs the projections, the RID search, the affinity
    ranking and the eigensolves in this process; with two, each of them
    forks its pool again."""
    vol = make_phantom(17, 3, n_blobs=10, support_radius=8.0)
    rotations = sample_rotations(2 * PROJECT_BLOCK, 4)
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    _one_cpu(monkeypatch)
    bundle = compute_bundle(demo_graph, 2, 10)
    _ragged_blocks(monkeypatch, basis17)
    loops = [lambda: project_stack(vol, rotations),
             lambda: initial_nn_search(coeffs, basis17, s=8),
             lambda: refine_neighbors(bundle, 6),
             lambda: list(frequency_eigs(demo_graph, range(4), 10))]
    for loop in loops:
        _one_cpu(monkeypatch)
        loop()
        assert forks == []
        _two_cpus(monkeypatch)
        loop()
        assert len(forks) == 2
        forks.clear()
