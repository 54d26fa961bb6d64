"""Frequency matrices, embeddings, affinity, refinement, alignment."""

import ctypes
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.sparse as sp

import mfvdm.pool
import mfvdm.spectral
from mfvdm import expand_stack, simulate_dataset
from mfvdm.denoise import FilterSpec, denoise_stack
from mfvdm.graph import ViewGraph, _upper_tiles, initial_nn_search
from mfvdm.pool import set_blas_threads
from mfvdm.spectral import (
    EigsError,
    SpectralBundle,
    align_edge_bytes,
    align_graph,
    build_frequency_matrix,
    compute_bundle,
    frequency_eigs,
    refine_neighbors,
    top_eigs,
)
from reference import (
    affinity,
    affinity_matrix,
    alignment_spectrum,
    angle,
    embedding_dot,
    estimate_alignment,
    neighbors,
)


def _full_bundle(graph, k_max):
    return compute_bundle(graph, k_max, m=graph.n)


def test_frequency_matrix_hermitian(demo_graph):
    for k in range(0, 6):
        W = build_frequency_matrix(demo_graph, k).toarray()
        assert np.abs(W - np.conj(W.T)).max() < 1e-12


def test_spectrum_real_bounded(demo_graph):
    for k in range(0, 6):
        vals, vecs = top_eigs(build_frequency_matrix(demo_graph, k), demo_graph.n)
        assert np.abs(vals.imag).max() == 0.0 if np.iscomplexobj(vals) else True
        assert np.abs(vals).max() <= 1.0 + 1e-10


def test_eigs_residual(demo_graph):
    W = build_frequency_matrix(demo_graph, 2)
    vals, vecs = top_eigs(W, 10)
    res = np.linalg.norm(W @ vecs - vecs * vals[None, :], axis=0)
    assert res.max() < 1e-8
    assert np.all(np.diff(vals) <= 1e-12)


@pytest.fixture(scope="module")
def graph600(basis17):
    """RID graph of 600 noisy views: its frequency matrices are large enough
    (n > 400, m <= n/4) for the Lanczos branch of top_eigs."""
    _, _, noisy, _, _ = simulate_dataset(600, 17, seed=7, snr=1.0, support_radius=8.0,
                                         n_blobs=10, with_ctf=False)
    return initial_nn_search(expand_stack(noisy, basis17), basis17, s=10)


def _dense_top(W, m):
    vals, vecs = np.linalg.eigh(W.toarray())
    return vals[::-1][:m], vecs[:, ::-1][:, :m]


def _projector(U):
    return U @ np.conj(U.T)


@pytest.mark.parametrize("k", [0, 3])
def test_lanczos_matches_dense(graph600, k):
    W = build_frequency_matrix(graph600, k)
    vals, vecs = top_eigs(W, 40)
    ref_vals, ref_vecs = _dense_top(W, 40)
    assert np.abs(vals - ref_vals).max() < 1e-12
    # the rank-m projector does not depend on each eigenvector's phase
    assert np.abs(_projector(vecs) - _projector(ref_vecs)).max() < 1e-10
    assert np.abs(np.conj(vecs.T) @ vecs - np.eye(40)).max() < 1e-12


def test_lanczos_finds_doubled_eigenvalues(graph600):
    """block_diag(W, W) has every eigenvalue of W twice; a single Krylov
    sequence must still return both copies."""
    W = build_frequency_matrix(graph600, 2)
    vals, vecs = top_eigs(sp.block_diag([W, W], format="csr"), 60)
    ref_vals, ref_vecs = _dense_top(W, 30)
    assert np.abs(vals - np.repeat(ref_vals, 2)).max() < 1e-12
    P = _projector(ref_vecs)
    n = graph600.n
    expected = np.zeros((2 * n, 2 * n), dtype=complex)
    expected[:n, :n] = expected[n:, n:] = P
    assert np.abs(_projector(vecs) - expected).max() < 1e-10


def test_lanczos_deterministic(graph600):
    W = build_frequency_matrix(graph600, 5)
    vals1, vecs1 = top_eigs(W, 40)
    vals2, vecs2 = top_eigs(W, 40)
    assert np.array_equal(vals1, vals2) and np.array_equal(vecs1, vecs2)


def test_lanczos_invariant_subspace():
    """Matrices whose Krylov sequence breaks down after a few steps: the
    identity and 150 copies of a rank-one 4 x 4 block (eigenvalue 1 150 times)."""
    for W, m in [(sp.identity(600, dtype=complex, format="csr"), 20),
                 (sp.block_diag([np.full((4, 4), 0.25 + 0j)] * 150, format="csr"), 100)]:
        vals, vecs = top_eigs(W, m)
        assert np.abs(vals - 1.0).max() < 1e-12
        assert np.abs(np.conj(vecs.T) @ vecs - np.eye(m)).max() < 1e-12


def test_lanczos_budget_exhausted(graph600, monkeypatch):
    monkeypatch.setattr(mfvdm.spectral, "MATVECS_PER_ROW", 0)
    with pytest.raises(EigsError, match="did not converge") as info:
        top_eigs(build_frequency_matrix(graph600, 1), 40)
    assert info.value.residual > mfvdm.spectral.LANCZOS_TOL


def _two_cpus(monkeypatch):
    """frequency_eigs sizes its pool from the usable CPUs; pretend there are
    two, so that the pool runs on a single-CPU host too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _one_cpu(monkeypatch):
    """Pretend there is one usable CPU: every pool runs in this process, and
    OpenBLAS runs on the one thread it sizes itself to under that affinity
    (conftest's _restore_threads puts its count back)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    set_blas_threads(1)


def test_pooled_eigs_match_serial(graph600, monkeypatch):
    """The pooled solves run in child processes and return the serial
    loop's eigenpairs bitwise, in k order."""
    ks = range(6)
    _one_cpu(monkeypatch)
    serial = list(frequency_eigs(graph600, ks, 40))
    _two_cpus(monkeypatch)

    def solve_with_pid(W, m):
        return top_eigs(W, m), os.getpid()

    pooled = list(frequency_eigs(graph600, ks, 40, solve=solve_with_pid))
    assert os.getpid() not in {pid for _, pid in pooled}
    for (vals, vecs), ((pvals, pvecs), _) in zip(serial, pooled, strict=True):
        assert np.array_equal(vals, pvals) and np.array_equal(vecs, pvecs)


def _openblas_threads():
    """Thread count of each OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    libs = [ctypes.CDLL(path) for path in sorted(paths)]
    return [getattr(lib, name)() for lib in libs for name in names if hasattr(lib, name)]


def test_pool_workers_run_blas_on_one_thread(demo_graph, monkeypatch):
    """Each worker pins OpenBLAS to one thread, so that the pool does not
    oversubscribe the CPUs it was sized for."""
    if not _openblas_threads():
        pytest.skip("numpy is not linked against OpenBLAS")
    _two_cpus(monkeypatch)

    def solve_counting_threads(W, m):
        return _openblas_threads()

    counts = list(frequency_eigs(demo_graph, range(4), 10, solve=solve_counting_threads))
    assert all(c and set(c) == {1} for c in counts)


def test_eigs_error_reaches_caller_from_pool(graph600, monkeypatch):
    err = pickle.loads(pickle.dumps(EigsError("no convergence", 0.25)))
    assert isinstance(err, EigsError) and err.residual == 0.25
    assert str(err) == "no convergence"
    _two_cpus(monkeypatch)
    monkeypatch.setattr(mfvdm.spectral, "MATVECS_PER_ROW", 0)
    with pytest.raises(EigsError, match="did not converge") as info:
        compute_bundle(graph600, 4, 40)
    assert info.value.residual > mfvdm.spectral.LANCZOS_TOL


def test_pool_worker_death_raises(demo_graph, monkeypatch):
    """A worker killed part way (here by os._exit) fails the call instead of
    hanging it."""
    _two_cpus(monkeypatch)
    parent = os.getpid()

    def die(W, m):
        if os.getpid() == parent:
            raise AssertionError("solve ran in the calling process")
        os._exit(3)

    monkeypatch.setattr(mfvdm.spectral, "top_eigs", die)
    raised = []

    def run():
        try:
            compute_bundle(demo_graph, 4, 10)
        except Exception as exc:  # noqa: BLE001 - recorded for the assertion below
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "compute_bundle hung after a worker died"
    assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool)


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_pool_workers_die_with_caller():
    """Killing the caller mid-solve ends its workers too, instead of leaving
    them blocked on the task queue."""
    script = "\n".join([
        "import os, time",
        "import numpy as np",
        "from mfvdm.graph import ViewGraph",
        "from mfvdm.spectral import frequency_eigs",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "def hang(W, m):",
        "    os.write(1, f'{os.getpid()}\\n'.encode())",
        "    time.sleep(600)",
        "g = ViewGraph(indptr=np.array([0, 1, 2]), indices=np.array([1, 0]),",
        "              angles=np.array([0.1, -0.1]))",
        "list(frequency_eigs(g, range(2), 1, solve=hang))",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
    try:
        workers = [int(caller.stdout.readline()) for _ in range(2)]
    finally:
        caller.kill()
        caller.wait(timeout=60)
        caller.stdout.close()
    deadline = time.monotonic() + 60
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans


def test_second_pooled_solve_imports_scipy_sparse_in_caller():
    """The first pooled frequency_eigs call leaves scipy.sparse to its
    workers, so a process that solves once never holds it; the second
    imports it in the caller, whose later workers inherit it."""
    script = "\n".join([
        "import os, sys",
        "import numpy as np",
        "from mfvdm.graph import ViewGraph",
        "from mfvdm.spectral import frequency_eigs",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "g = ViewGraph(indptr=np.array([0, 1, 2]), indices=np.array([1, 0]),",
        "              angles=np.array([0.1, -0.1]))",
        "for _ in range(2):",
        "    vals = [v for v, _ in frequency_eigs(g, range(2), 1)]",
        "    print('scipy.sparse' in sys.modules, np.round(vals, 12).tolist())",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.splitlines() == ["False [[1.0], [1.0]]", "True [[1.0], [1.0]]"]


def test_isolated_node_rejected():
    g = ViewGraph(indptr=np.array([0, 1, 2, 2]), indices=np.array([1, 0]),
                  angles=np.array([0.1, -0.1]))
    with pytest.raises(ValueError, match="isolated"):
        build_frequency_matrix(g, 1)


@pytest.mark.parametrize("kind", [2, 4])
def test_graph_without_angles_rejected(kind, demo_graph, basis17):
    """A graph whose angles are unset, such as refine_neighbors' output
    before align_graph, is rejected by name in build_frequency_matrix, and
    so in compute_bundle and denoise_stack (both filter branches), also
    from a pool worker; it failed with a TypeError multiplying by None."""
    refined = refine_neighbors(compute_bundle(demo_graph, 2, 10), 5)
    assert refined.angles is None
    match = r"^graph has no alignment angles: run align_graph on it first$"
    with pytest.raises(ValueError, match=match):
        build_frequency_matrix(refined, 1)
    with pytest.raises(ValueError, match=match):
        compute_bundle(refined, 2, 10)
    coeffs = np.ones((refined.n, basis17.n_coeffs), dtype=complex)
    ctf = np.ones((refined.n, basis17.k_slice(0).stop), dtype=complex)
    with pytest.raises(ValueError, match=match):
        denoise_stack(coeffs, ctf, refined, basis17, FilterSpec(kind=kind, m=10))


def test_embedding_dot_matches_matrix_power(demo_graph):
    """Full-spectrum embedding inner products equal squared entries of the
    square of the normalized frequency matrix."""
    bundle = _full_bundle(demo_graph, 3)
    for k in [1, 2, 3]:
        W = build_frequency_matrix(demo_graph, k).toarray()
        P = np.linalg.matrix_power(W, 2)
        for i, j in [(0, 1), (5, 7), (3, 3), (10, 40)]:
            got = embedding_dot(bundle, k, i, j)
            assert abs(got - np.abs(P[i, j]) ** 2) < 1e-10


def test_affinity_matches_pairwise(demo_graph):
    bundle = _full_bundle(demo_graph, 4)
    A, _ = affinity_matrix(bundle)
    for i, j in [(0, 1), (2, 9), (11, 30)]:
        assert abs(A[i, j] - affinity(bundle, i, j)) < 1e-10
    assert np.abs(A - A.T).max() < 1e-10


def test_gauge_invariance(demo_graph):
    """Re-phasing each node's rotational gauge leaves affinities unchanged
    and shifts alignment estimates by the gauge difference."""
    rng = np.random.Generator(np.random.Philox(17))
    beta = rng.uniform(-np.pi, np.pi, size=demo_graph.n)
    angles2 = demo_graph.angles - beta[demo_graph.rows] + beta[demo_graph.indices]
    g2 = ViewGraph(indptr=demo_graph.indptr, indices=demo_graph.indices,
                   angles=angles2, dists=demo_graph.dists)
    b1 = _full_bundle(demo_graph, 3)
    b2 = _full_bundle(g2, 3)
    A1, _ = affinity_matrix(b1)
    A2, _ = affinity_matrix(b2)
    assert np.abs(A1 - A2).max() < 1e-8
    i, j = 0, int(demo_graph.indices[0])
    a1 = estimate_alignment(b1, i, j, fft_size=4096)
    a2 = estimate_alignment(b2, i, j, fft_size=4096)
    shift = (a2 - (a1 - beta[i] + beta[j])) % (2 * np.pi)
    assert min(shift, 2 * np.pi - shift) < 2 * np.pi / 4096 * 4


def test_estimate_alignment_matches_brute_force(demo_graph):
    bundle = _full_bundle(demo_graph, 5)
    fft_size = 256
    for i, j in [(0, 1), (4, 12)]:
        got = estimate_alignment(bundle, i, j, fft_size=fft_size)
        z = alignment_spectrum(bundle, i, j)

        def objective(alpha):
            return np.real(np.sum(np.conj(z[1:])
                                  * np.exp(-1j * np.arange(1, z.size) * alpha)))

        grid = 2.0 * np.pi * np.arange(fft_size) / fft_size
        vals = np.array([objective(a) for a in grid])
        # the returned grid angle attains the brute-force maximum (exact
        # argmax up to floating-point ties between equal peaks)
        assert abs(objective(got) - vals.max()) < 1e-12


def test_alignment_on_rotated_copies(rotated_copies):
    """Within-cluster edges of the exact graph recover the planted angles."""
    g = rotated_copies["graph"]
    bundle = compute_bundle(g, k_max=8, m=g.n)
    align_graph(bundle, g, fft_size=1024)
    errs = []
    for i, j, alpha in g.edges():
        truth = rotated_copies["angles"][i] - rotated_copies["angles"][j]
        diff = abs((alpha - truth + np.pi) % (2 * np.pi) - np.pi)
        errs.append(diff)
    assert np.median(errs) < 2.0 * np.pi / 1024 * 2


def test_refine_neighbors_recovers_clusters(rotated_copies):
    g = rotated_copies["graph"]
    bundle = compute_bundle(g, k_max=8, m=g.n)
    refined = refine_neighbors(bundle, rotated_copies["n_copy"] - 1)
    for i in range(g.n):
        cluster = i // rotated_copies["n_copy"]
        expected = {j for j in range(cluster * rotated_copies["n_copy"],
                                     (cluster + 1) * rotated_copies["n_copy"])
                    if j != i}
        assert set(neighbors(refined, i).tolist()) == expected


def _dense_refine(bundle, s):
    """Reference refinement: the full matrix of scalar pairwise affinities,
    a per-row lexsort (ties to the smaller index), then the union."""
    n = bundle.n
    A = np.array([[affinity(bundle, i, j) if i != j else -np.inf for j in range(n)]
                  for i in range(n)])
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in np.lexsort((np.arange(n), -A[i]))[:s]:
            adj[i].add(int(j))
            adj[int(j)].add(i)
    return A, [np.array(sorted(a), dtype=int) for a in adj]


def _integer_bundle(n, m, seed):
    """Bundle with Gaussian-integer eigenvectors and unit eigenvalues: every
    affinity is computed without rounding-order effects, so equal values
    are exact ties. Node j + n/2 repeats node j, so every node's ranking is
    full of ties; node 7 has no k=1 component."""
    rng = np.random.Generator(np.random.Philox(seed))
    vecs = []
    for _ in range(2):
        V = rng.integers(-1, 2, (n // 2, m)) + 1j * rng.integers(-1, 2, (n // 2, m))
        vecs.append(np.concatenate([V, V]))
    vecs[0][7] = 0.0
    return SpectralBundle(k_list=np.array([1, 2]), eigenvalues=(np.ones(m), np.ones(m)),
                          eigenvectors=tuple(vecs))


@pytest.mark.parametrize("block_bytes", [1, 64 * 5 * 24, 2**30])
def test_refine_blocks_match_dense_reference(block_bytes, monkeypatch):
    bundle = _integer_bundle(24, 3, seed=3)
    s = 5
    A, expected = _dense_refine(bundle, s)
    # the reference selection cuts through a tie in some row, so the
    # smaller-index rule decides the result
    ranked = -np.sort(-A, axis=1)
    assert (ranked[:, s - 1] == ranked[:, s]).any()
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", block_bytes)
    got = refine_neighbors(bundle, s)
    for i in range(bundle.n):
        np.testing.assert_array_equal(neighbors(got, i), expected[i])


def test_refine_matches_dense_reference(demo_graph, monkeypatch):
    bundle = _full_bundle(demo_graph, 4)
    _, expected = _dense_refine(bundle, 6)
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", 64 * demo_graph.n * 7)
    got = refine_neighbors(bundle, 6)
    for i in range(bundle.n):
        np.testing.assert_array_equal(neighbors(got, i), expected[i])


def test_refine_and_align_leave_no_one_row_block(demo_graph, monkeypatch):
    """Block sizes that would leave a one-row tail (60 nodes in blocks of
    59) give blocks of 30 instead, and the tiles of a diagonal block pair
    hold at least 2 rows: no affinity block has a single row or column,
    whose BLAS product rounds differently, and the graph and its angles
    equal the one-block result bitwise."""
    bundle = _full_bundle(demo_graph, 4)
    n = bundle.n
    real_block, sizes = mfvdm.spectral._affinity_block, []

    def recording(factors, rows, cols):
        sizes.append((rows.stop - rows.start, cols.stop - cols.start))
        return real_block(factors, rows, cols)

    monkeypatch.setattr(mfvdm.spectral, "_affinity_block", recording)
    _one_cpu(monkeypatch)   # the recording must run in this process
    graphs = []
    for block_bytes in (2**40, 64 * (n - 1) ** 2):
        monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", block_bytes)
        graphs.append(refine_neighbors(bundle, 6))
    n_edges = graphs[0].indices.size // 2
    for g, cache_bytes in zip(graphs, (2**40, (n_edges - 1) * align_edge_bytes(4, n))):
        monkeypatch.setattr(mfvdm.pool, "CACHE_BYTES", cache_bytes)
        align_graph(bundle, g, fft_size=1024)
    assert n_edges % (n_edges - 1) == 1

    def tiles(block):
        return [(r.stop - r.start, c.stop - c.start) for r, c in _upper_tiles(block, 4)]

    top, bottom = slice(0, n // 2), slice(n // 2, n)
    assert sizes == tiles(slice(0, n)) + tiles(top) + [(n // 2, n // 2)] + tiles(bottom)
    assert min(min(size) for size in sizes) == 2
    one, many = graphs
    for name in ("indptr", "indices", "angles"):
        np.testing.assert_array_equal(getattr(many, name), getattr(one, name))


def _check_align_blocks(demo_graph, monkeypatch, fft_size):
    bundle = _full_bundle(demo_graph, 5)
    g = refine_neighbors(bundle, 6)
    # a few dozen edges per chunk; the full bundle's eigenvectors have n columns
    monkeypatch.setattr(mfvdm.pool, "CACHE_BYTES", 40 * align_edge_bytes(5, bundle.n))
    chunks = mfvdm.pool.cache_blocks(g.indices.size // 2, align_edge_bytes(5, bundle.n))
    assert len(chunks) > 1 and max(c.stop - c.start for c in chunks) <= 40
    align_graph(bundle, g, fft_size=fft_size)
    # on at most k_max = 5 points the oracle's FFT would drop frequencies
    direct = fft_size <= 5
    for i, j, alpha in g.edges():
        if i < j:
            assert alpha == estimate_alignment(bundle, i, j, fft_size=fft_size, direct=direct)
        else:
            assert alpha == -angle(g, j, i)


def test_align_graph_blocks_match_estimate_alignment(demo_graph, monkeypatch):
    _check_align_blocks(demo_graph, monkeypatch, 1024)


@pytest.mark.parametrize("fft_size", [3, 5, 6, 11])
def test_align_graph_small_grids_match_estimate_alignment(fft_size, demo_graph, monkeypatch):
    """3 and k_max = 5 points, fewer than the frequencies, where the oracle
    sums the objective at each grid angle; k_max + 1 = 6 points, where the
    oracle's FFT wraps the frequencies around the grid; and the odd
    2 k_max + 1 = 11."""
    _check_align_blocks(demo_graph, monkeypatch, fft_size)


def test_align_graph_validation(demo_graph):
    bundle = _full_bundle(demo_graph, 2)
    g = refine_neighbors(bundle, 6)
    with pytest.raises(ValueError, match="^fft_size must be >= 1, got 0$"):
        align_graph(bundle, g, fft_size=0)


def test_affinity_blocks_match_dense_oracle(demo_graph):
    """refine_neighbors' affinity blocks equal the dense oracle, and count
    the same dropped (node, frequency) pairs: none in the graph's bundle,
    one in the integer bundle, whose node 7 has no k = 1 component, so
    that its pairs take no k = 1 term."""
    for bundle, n_dropped in ((_full_bundle(demo_graph, 4), 0), (_integer_bundle(24, 3, 3), 1)):
        factors, dropped = mfvdm.spectral._affinity_factors(bundle)
        whole = slice(0, bundle.n)
        got = mfvdm.spectral._affinity_block(factors, whole, whole)
        want, want_dropped = affinity_matrix(bundle)
        assert dropped == want_dropped == n_dropped
        assert np.abs(got - want).max() < 1e-10 * want.max()


def test_refine_validation(demo_graph):
    bundle = _full_bundle(demo_graph, 2)
    with pytest.raises(ValueError):
        refine_neighbors(bundle, bundle.n)
    for s in (0, -1):
        with pytest.raises(ValueError, match=f"s={s} "):
            refine_neighbors(bundle, s)


def test_vdm_reduction(demo_graph):
    """Single-frequency affinity equals an independently coded VDM."""
    bundle = compute_bundle(demo_graph, k_max=1, m=demo_graph.n)
    A, _ = affinity_matrix(bundle)
    # independent route: dense normalized connection matrix, explicit power
    deg = demo_graph.degrees.astype(float)
    n = demo_graph.n
    W = np.zeros((n, n), dtype=complex)
    W[demo_graph.rows, demo_graph.indices] = np.exp(-1j * demo_graph.angles)
    Wt = W / np.sqrt(np.outer(deg, deg))
    P = np.linalg.matrix_power(Wt, 2)
    self_p = np.abs(np.diag(P))
    A_vdm = np.abs(P) ** 2 / np.outer(self_p, self_p)
    assert np.abs(A - A_vdm).max() < 1e-10
