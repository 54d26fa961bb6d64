"""Initial neighbor graph: RID search, symmetrization, ground-truth angles."""

import numpy as np
import pytest

from mfvdm.basis import expand_stack
from mfvdm.graph import (
    ViewGraph,
    coeff_noise_variance,
    initial_nn_search,
    read_graph_csv,
    true_alignment,
    viewing_angle,
    write_graph_csv,
)
from mfvdm.simulate import sample_rotations


def _rz(gamma):
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_search_finds_rotated_copies(rotated_copies, basis17):
    rc = rotated_copies
    graph = initial_nn_search(rc["coeffs"], basis17, s=rc["n_copy"] - 1,
                              energy_fraction=1.0)
    truth = rc["graph"]
    for i in range(graph.n):
        assert set(graph.neighbors[i].tolist()) == set(truth.neighbors[i].tolist())
        for j, alpha in zip(graph.neighbors[i], graph.angles[i]):
            expected = truth.angle(i, int(j))
            diff = abs((alpha - expected + np.pi) % (2 * np.pi) - np.pi)
            assert diff < 1e-9


def test_search_chunk_invariant(tiny_dataset, basis17):
    """Ranking one row, a few rows or every row at a time gives the same
    graph."""
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    n = coeffs.shape[0]
    whole = initial_nn_search(coeffs, basis17, s=8, chunk=n)
    for chunk in (1, 7):
        g = initial_nn_search(coeffs, basis17, s=8, chunk=chunk)
        for i in range(n):
            np.testing.assert_array_equal(g.neighbors[i], whole.neighbors[i])
            np.testing.assert_array_equal(g.angles[i], whole.angles[i])
            np.testing.assert_allclose(g.dists[i], whole.dists[i], rtol=1e-12)


def test_graph_angle_antisymmetry(demo_graph):
    for i, j, alpha in demo_graph.edges():
        assert demo_graph.angle(j, i) == -alpha


def test_graph_symmetry(demo_graph):
    for i, nb in enumerate(demo_graph.neighbors):
        for j in nb:
            assert i in demo_graph.neighbors[j]


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
    for i in range(back.n):
        np.testing.assert_array_equal(back.neighbors[i], demo_graph.neighbors[i])
        np.testing.assert_array_equal(back.angles[i], demo_graph.angles[i])
        np.testing.assert_array_equal(back.dists[i], demo_graph.dists[i])


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
    for i in range(g1.n):
        np.testing.assert_array_equal(g1.neighbors[i], g2.neighbors[i])


def test_view_graph_angle_lookup():
    g = ViewGraph(neighbors=[np.array([1]), np.array([0])],
                  angles=[np.array([0.5]), np.array([-0.5])])
    assert g.angle(0, 1) == 0.5
    with pytest.raises(KeyError):
        g.angle(0, 0)
