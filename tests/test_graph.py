"""Initial neighbor graph: RID search, symmetrization, ground-truth angles."""

import re

import numpy as np
import pytest

import mfvdm.pool
from mfvdm.basis import Expansion, expand_stack
from mfvdm.graph import (
    ViewGraph,
    initial_nn_search,
    rank_pairs,
    read_graph_csv,
    search_pair_bytes,
    smallest_s,
    symmetrize,
    true_alignment,
    viewing_angle,
    write_graph_csv,
)
from mfvdm import RunConfig
from mfvdm.io import FormatError
from mfvdm.pipeline import classify
from mfvdm.simulate import sample_rotations
from reference import angle, neighbors, rid_align
from reference import true_alignment as true_alignment_ref
from test_spectral import _one_cpu


def _rz(gamma):
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_search_finds_rotated_copies(rotated_copies, basis17):
    rc = rotated_copies
    graph = initial_nn_search(rc["coeffs"], basis17, s=rc["n_copy"] - 1)
    truth = rc["graph"]
    np.testing.assert_array_equal(graph.indptr, truth.indptr)
    np.testing.assert_array_equal(graph.indices, truth.indices)
    diff = np.abs((graph.angles - truth.angles + np.pi) % (2 * np.pi) - np.pi)
    assert diff.max() < 1e-9


def _search_blocks(monkeypatch, basis, rows):
    """Set BLOCK_BYTES so that the RID search of the tiny stack (every
    frequency ranked) cuts its rows into blocks of at most rows; None: one
    block. Returns the blocks."""
    pair_bytes = search_pair_bytes(basis.k_max + 1)
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", 2**40 if rows is None else rows**2 * pair_bytes)
    return mfvdm.pool.pair_blocks(60, pair_bytes)


def test_search_chunk_invariant(tiny_dataset, basis17, monkeypatch):
    """Ranking every row at once, in 2-row blocks, or in ragged blocks
    narrower than s gives the same graph bit for bit: each pair is scored
    once, on the side of its smaller index, whatever block holds it."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    assert len(_search_blocks(monkeypatch, basis17, None)) == 1
    whole = initial_nn_search(coeffs, basis17, s=8)
    for rows, sizes in ((2, {2}), (7, {6, 7})):
        blocks = _search_blocks(monkeypatch, basis17, rows)
        assert {b.stop - b.start for b in blocks} == sizes
        g = initial_nn_search(coeffs, basis17, s=8)
        for name in ("indptr", "indices", "angles", "dists"):
            np.testing.assert_array_equal(getattr(g, name), getattr(whole, name), err_msg=name)


def test_search_blocks_never_hold_one_row(tiny_dataset, basis17, monkeypatch):
    """Budgeted for 59 rows, the 60-image search ranks two 30-row blocks,
    not 59 rows and then one: a one-row block's matrix products take BLAS's
    vector path, whose distances differ in the last bits. The graph equals
    the one-block search's bit for bit."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    _search_blocks(monkeypatch, basis17, None)
    whole = initial_nn_search(coeffs, basis17, s=8)
    assert _search_blocks(monkeypatch, basis17, 59) == [slice(0, 30), slice(30, 60)]
    blocked = initial_nn_search(coeffs, basis17, s=8)
    for name in ("indptr", "indices", "angles", "dists"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name), err_msg=name)


@pytest.mark.parametrize("bytes_per_pair", [search_pair_bytes(17), 64])
def test_rank_pairs_scores_each_pair_once(bytes_per_pair, monkeypatch):
    """At the default block budget, 1000 rows in 5 blocks (the search's
    pair size) or 2 (the affinity's), the score function sees at most
    1.05 n(n - 1) / 2 pairs, and the ranking is the first s columns of a
    stable argsort of each row with its diagonal excluded."""
    n, s = 1000, 8
    rng = np.random.Generator(np.random.Philox(3))
    keys = rng.integers(0, 50, size=(n, n)).astype(float)
    keys = np.triu(keys, 1) + np.triu(keys, 1).T
    seen = []

    def score(keys, rows, cols):
        assert rows.stop - rows.start >= 2 and cols.stop - cols.start >= 2
        seen.append((rows.stop - rows.start) * (cols.stop - cols.start))
        return (keys[rows, cols],)

    _one_cpu(monkeypatch)   # the counting must run in this process
    got, cols = rank_pairs(n, s, bytes_per_pair, score, (keys,))
    assert sum(seen) <= 1.05 * n * (n - 1) / 2
    full = keys.copy()
    np.fill_diagonal(full, np.inf)
    want = np.argsort(full, axis=1, kind="stable")[:, :s]
    np.testing.assert_array_equal(cols, want)
    np.testing.assert_array_equal(got, np.take_along_axis(full, want, axis=1))


@pytest.mark.parametrize("dtype", [int, float])
def test_smallest_s_matches_stable_argsort(dtype):
    """Integer keys with heavy ties, so that in most rows the s-th value is
    tied across the cut: the smaller indices must win, as in a stable sort."""
    rng = np.random.Generator(np.random.Philox(11))
    keys = rng.integers(0, 6, size=(300, 97)).astype(dtype)
    for s in (1, 10, 50, 96):
        ranked = np.sort(keys, axis=1)
        assert (ranked[:, s - 1] == ranked[:, s]).mean() > 0.5
        want = np.argsort(keys, axis=1, kind="stable")[:, :s]
        np.testing.assert_array_equal(smallest_s(keys, s), want)
    # continuous keys: no ties at all
    keys = rng.normal(size=(50, 97))
    np.testing.assert_array_equal(smallest_s(keys, 20),
                                  np.argsort(keys, axis=1, kind="stable")[:, :20])


def test_graph_angle_antisymmetry(demo_graph):
    for i, j, alpha in demo_graph.edges():
        assert angle(demo_graph, j, i) == -alpha


def test_graph_symmetry(demo_graph):
    for i, j, _ in demo_graph.edges():
        assert i in neighbors(demo_graph, j)


def test_degrees_at_least_s(demo_graph):
    # union symmetrization can only add edges beyond the s requested
    assert demo_graph.degrees.min() >= 8


def test_search_validation(basis17):
    coeffs = np.zeros((4, basis17.n_coeffs), dtype=complex)
    with pytest.raises(ValueError):
        initial_nn_search(coeffs, basis17, s=4)
    with pytest.raises(ValueError):
        initial_nn_search(coeffs, basis17, s=2, fft_size=8)
    for s in (0, -1):
        with pytest.raises(ValueError, match=f"s={s} "):
            initial_nn_search(coeffs, basis17, s=s)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_rejects_non_finite_coefficients(bad, tiny_dataset, basis17):
    """A non-finite coefficient would give non-finite distances; the search
    names the first image that holds one."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    coeffs[3, 5] = bad
    coeffs[7, 0] = bad
    with pytest.raises(ValueError, match="image 3 "):
        initial_nn_search(coeffs, basis17, s=8)


def test_true_alignment_in_plane():
    Rs = sample_rotations(5, seed=1)
    for R in Rs:
        for gamma in [0.4, -1.2, 2.9]:
            got = true_alignment(R, R @ _rz(gamma))
            assert abs((got - gamma + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_true_alignment_antisymmetric():
    Rs = sample_rotations(6, seed=2)
    for a in range(3):
        for b in range(3, 6):
            g1 = true_alignment(Rs[a], Rs[b])
            g2 = true_alignment(Rs[b], Rs[a])
            assert abs((g1 + g2 + np.pi) % (2 * np.pi) - np.pi) < 1e-10


def test_true_alignment_identical_views():
    R = sample_rotations(1, seed=3)[0]
    assert abs(true_alignment(R, R)) < 1e-12


def test_viewing_angle_range():
    Rs = sample_rotations(10, seed=4)
    v = Rs[:, :, 2]
    for i in range(10):
        assert viewing_angle(v[i], v[i]) < 1e-7
        for j in range(10):
            th = viewing_angle(v[i], v[j])
            assert 0.0 <= th <= np.pi


def test_graph_csv_round_trip(demo_graph, tmp_path):
    path = tmp_path / "graph.csv"
    write_graph_csv(demo_graph, path)
    back = read_graph_csv(path)
    assert back.n == demo_graph.n
    np.testing.assert_array_equal(back.indptr, demo_graph.indptr)
    np.testing.assert_array_equal(back.indices, demo_graph.indices)
    np.testing.assert_array_equal(back.angles, demo_graph.angles)
    np.testing.assert_array_equal(back.dists, demo_graph.dists)


def test_search_matches_rid_oracle(tiny_dataset, basis17):
    """Every directed edge of the search carries the scalar RID angle of its
    image pair, and the distance of the pair as scored from its smaller
    index."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    g = initial_nn_search(coeffs, basis17, s=8)
    for (i, j, alpha), d in zip(g.edges(), g.dists):
        _, alpha_ref = rid_align(coeffs[i], coeffs[j], basis17, fft_size=256)
        d_ref, _ = rid_align(coeffs[min(i, j)], coeffs[max(i, j)], basis17, fft_size=256)
        assert abs(d - d_ref) <= 1e-12 * d_ref
        assert abs((alpha - alpha_ref + np.pi) % (2 * np.pi) - np.pi) < 1e-12


@pytest.mark.parametrize("snr", [0.3, float("inf")])
def test_classify_searches_the_coefficients_as_given(snr, tiny_dataset, basis17):
    """classify's initial graph is the search of the Expansion it is given,
    at any SNR, and it ignores its basis and noise_var arguments."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    config = RunConfig(n=60, L=17, support_radius=8.0, snr=snr, s=8, k_tilde=3, m=20,
                       n_defocus_groups=4)
    initial, _, _ = classify(Expansion(coeffs, basis17), None, config,
                             noise_var=np.ones(basis17.n_coeffs))
    want = initial_nn_search(coeffs, basis17, s=8)
    for name in ("indptr", "indices", "angles", "dists"):
        np.testing.assert_array_equal(getattr(initial, name), getattr(want, name), err_msg=name)


def _rid_graph(coeffs, basis, s, fft_size):
    """The search's graph from the scalar oracle: rid_align on every pair
    of images; each row's s smallest distances, ties to the smaller index;
    then the union of both directions."""
    n = coeffs.shape[0]
    src, dst, angles, dists = [], [], [], []
    for i in range(n):
        pairs = [rid_align(coeffs[i], coeffs[j], basis, fft_size=fft_size) for j in range(n)]
        d = np.array([p[0] for p in pairs])
        d[i] = np.inf
        for j in np.lexsort((np.arange(n), d))[:s]:
            src.append(i)
            dst.append(j)
            dists.append(pairs[j][0])
            angles.append(pairs[j][1])
    return symmetrize(n, src, dst, angles, dists)


@pytest.mark.parametrize("zeroed, fft_size", [((), 256), ((8, 10, 11, 13, 15, 16, 17, 18, 19), 256),
                                              ((), 39)],
                         ids=["all-k", "k-gap", "min-grid"])
def test_search_matches_all_pairs_oracle(zeroed, fft_size, tiny_dataset, basis17):
    """The whole graph equals the all-pairs rid_align ranking: with every
    frequency, with a basis restricted to empty (p_k, 0) frames at some
    frequencies, so that the ranked ones (k = 0-7, 9, 12, 14) skip some k,
    and on the smallest grid allowed, the odd 2 k_max + 1 points."""
    basis = basis17.restrict([np.zeros((p, 0)) if k in zeroed else None
                              for k, p in enumerate(basis17.radial_counts)])
    coeffs = expand_stack(tiny_dataset["noisy"], basis)
    assert basis.k_max == basis17.k_max and fft_size >= 2 * basis.k_max + 1
    g = initial_nn_search(coeffs, basis, s=8, fft_size=fft_size)
    want = _rid_graph(coeffs, basis, 8, fft_size)
    np.testing.assert_array_equal(g.indptr, want.indptr)
    np.testing.assert_array_equal(g.indices, want.indices)
    np.testing.assert_array_equal(g.angles, want.angles)
    np.testing.assert_allclose(g.dists, want.dists, rtol=1e-12)


def test_symmetrize_rule():
    """Conflicting directions: the i < j one wins; a one-sided edge gains its
    reverse with the angle negated; distances follow their edge."""
    src, dst = [0, 1, 2], [1, 0, 1]
    g = symmetrize(3, src, dst, angles=[0.3, 0.7, 0.5], dists=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(g.indptr, [0, 1, 3, 4])
    np.testing.assert_array_equal(g.indices, [1, 0, 2, 1])
    np.testing.assert_array_equal(g.angles, [0.3, -0.3, -0.5, 0.5])
    np.testing.assert_array_equal(g.dists, [1.0, 1.0, 3.0, 3.0])
    assert list(g.edges()) == [(0, 1, 0.3), (1, 0, -0.3), (1, 2, -0.5), (2, 1, 0.5)]
    bare = symmetrize(3, src, dst)
    np.testing.assert_array_equal(bare.indices, g.indices)
    assert bare.angles is None and bare.dists is None
    assert list(bare.edges())[0] == (0, 1, None)


def test_true_alignment_batched_matches_scalar():
    Rs = sample_rotations(12, seed=7)
    flip = np.diag([1.0, -1.0, -1.0])  # a half turn about x: antipodal view
    R_i = np.concatenate([np.repeat(Rs, 12, axis=0), Rs, Rs])
    R_j = np.concatenate([np.tile(Rs, (12, 1, 1)), Rs @ flip, Rs @ _rz(0.8)])
    got = true_alignment(R_i, R_j)
    ref = np.array([true_alignment_ref(a, b) for a, b in zip(R_i, R_j)])
    assert got.shape == ref.shape
    assert np.abs((got - ref + np.pi) % (2 * np.pi) - np.pi).max() < 1e-12


def _corrupt(lines, n):
    """Corrupted copies of a graph CSV (header + rows) of a graph on n
    nodes, one per defect."""
    rows = [line.split(",") for line in lines[1:]]
    i0, j0 = rows[0][0], rows[0][1]

    def edit(t, col, value):
        out = [r[:] for r in rows]
        out[t][col] = value
        return out

    def renamed(r, old, new):
        return [new if col < 2 and v == old else v for col, v in enumerate(r)]

    return {
        "negative id": edit(0, 0, "-1"),
        "self-loop": edit(0, 1, i0),
        "repeated row": rows + [rows[0]],
        "missing reverse": [r for r in rows if (r[0], r[1]) != (j0, i0)],
        "nan angle": edit(0, 2, "nan"),
        "inf angle": edit(0, 2, "inf"),
        "asymmetric angle": edit(0, 2, repr(float(rows[0][2]) + 1e-3)),
        "malformed": edit(0, 0, "zero"),
        # node i0 renamed n in both rows of one of its edges
        "node id n": [renamed(r, i0, str(n)) if {r[0], r[1]} == {i0, j0} else r for r in rows],
        "node without edges": [r for r in rows if str(n - 1) not in r[:2]],
    }


def test_read_graph_csv_rejects_corrupt(demo_graph, tmp_path):
    """Each defect raises FormatError naming the file. A node id of n or
    more, and a graph with fewer than n nodes (the last node's rows
    dropped), are rejected when the node count n is given."""
    path = tmp_path / "graph.csv"
    write_graph_csv(demo_graph, path)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    cases = _corrupt(lines, demo_graph.n)
    for name, rows in cases.items():
        bad.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: "):
            read_graph_csv(bad, demo_graph.n)
            pytest.fail(f"accepted a CSV with a {name}")
    # without n, the dropped node's graph reads as one on n - 1 nodes
    rows = cases["node without edges"]
    bad.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    assert read_graph_csv(bad).n == demo_graph.n - 1


def test_graph_csv_unset_dists(demo_graph, tmp_path):
    """A graph without distances (as refinement returns) writes nan d_rid,
    which reads back."""
    g = ViewGraph(indptr=demo_graph.indptr, indices=demo_graph.indices,
                  angles=demo_graph.angles)
    path = tmp_path / "graph.csv"
    write_graph_csv(g, path)
    back = read_graph_csv(path)
    np.testing.assert_array_equal(back.angles, g.angles)
    assert np.isnan(back.dists).all()
