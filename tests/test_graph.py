"""Initial neighbor graph: RID search, symmetrization, ground-truth angles."""

import numpy as np
import pytest

from mfvdm.basis import expand_stack
from mfvdm.graph import (
    ViewGraph,
    coeff_noise_variance,
    initial_nn_search,
    read_graph_csv,
    smallest_s,
    symmetrize,
    true_alignment,
    viewing_angle,
    write_graph_csv,
)
from mfvdm.io import FormatError
from mfvdm.simulate import sample_rotations
from reference import angle, neighbors, rid_align
from reference import true_alignment as true_alignment_ref


def _rz(gamma):
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_search_finds_rotated_copies(rotated_copies, basis17):
    rc = rotated_copies
    graph = initial_nn_search(rc["coeffs"], basis17, s=rc["n_copy"] - 1,
                              energy_fraction=1.0)
    truth = rc["graph"]
    np.testing.assert_array_equal(graph.indptr, truth.indptr)
    np.testing.assert_array_equal(graph.indices, truth.indices)
    diff = np.abs((graph.angles - truth.angles + np.pi) % (2 * np.pi) - np.pi)
    assert diff.max() < 1e-9


def test_search_chunk_invariant(tiny_dataset, basis17):
    """Ranking one row, a few rows or every row at a time gives the same
    graph."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    n = coeffs.shape[0]
    whole = initial_nn_search(coeffs, basis17, s=8, chunk=n)
    for chunk in (1, 7):
        g = initial_nn_search(coeffs, basis17, s=8, chunk=chunk)
        np.testing.assert_array_equal(g.indptr, whole.indptr)
        np.testing.assert_array_equal(g.indices, whole.indices)
        np.testing.assert_array_equal(g.angles, whole.angles)
        np.testing.assert_allclose(g.dists, whole.dists, rtol=1e-12)


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


def test_coeff_noise_variance_positive(basis17):
    v = coeff_noise_variance(basis17, n_samples=64)
    assert v.shape == (basis17.n_coeffs,)
    assert np.all(v > 0)


def test_wiener_weighting_no_signal_loss(rotated_copies, basis17):
    """With near-zero noise variance the Wiener path reduces to the plain
    search."""
    rc = rotated_copies
    tiny = np.full(basis17.n_coeffs, 1e-12)
    s = rc["n_copy"] - 1
    g1 = initial_nn_search(rc["coeffs"], basis17, s=s, energy_fraction=1.0)
    g2 = initial_nn_search(rc["coeffs"], basis17, s=s, energy_fraction=1.0,
                           noise_var=tiny)
    np.testing.assert_array_equal(g1.indptr, g2.indptr)
    np.testing.assert_array_equal(g1.indices, g2.indices)


def test_search_matches_rid_oracle(tiny_dataset, basis17):
    """Every directed edge of the search carries the scalar RID distance and
    angle of its image pair."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    g = initial_nn_search(coeffs, basis17, s=8, energy_fraction=1.0)
    for (i, j, alpha), d in zip(g.edges(), g.dists):
        d_ref, alpha_ref = rid_align(coeffs[i], coeffs[j], basis17, fft_size=256)
        assert abs(d - d_ref) <= 1e-12 * d_ref
        assert abs((alpha - alpha_ref + np.pi) % (2 * np.pi) - np.pi) < 1e-12


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


def _corrupt(lines):
    """Corrupted copies of a graph CSV (header + rows), one per defect."""
    rows = [line.split(",") for line in lines[1:]]
    i0, j0 = rows[0][0], rows[0][1]

    def edit(t, col, value):
        out = [r[:] for r in rows]
        out[t][col] = value
        return out

    return {
        "negative id": edit(0, 0, "-1"),
        "self-loop": edit(0, 1, i0),
        "repeated row": rows + [rows[0]],
        "missing reverse": [r for r in rows if (r[0], r[1]) != (j0, i0)],
        "nan angle": edit(0, 2, "nan"),
        "inf angle": edit(0, 2, "inf"),
        "asymmetric angle": edit(0, 2, repr(float(rows[0][2]) + 1e-3)),
        "malformed": edit(0, 0, "zero"),
    }


def test_read_graph_csv_rejects_corrupt(demo_graph, tmp_path):
    path = tmp_path / "graph.csv"
    write_graph_csv(demo_graph, path)
    lines = path.read_text().splitlines()
    for name, rows in _corrupt(lines).items():
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(FormatError):
            read_graph_csv(bad)
            pytest.fail(f"accepted a CSV with a {name}")


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
