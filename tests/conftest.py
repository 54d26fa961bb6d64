"""Shared fixtures: bases and small deterministic datasets."""

import numpy as np
import pytest

from mfvdm import build_basis, expand_stack, rotate_coeffs, simulate_dataset
from mfvdm.graph import ViewGraph, initial_nn_search
from mfvdm.pool import set_blas_threads, set_threads


@pytest.fixture(autouse=True)
def _restore_threads():
    """After each test, lift the process-wide worker cap and put OpenBLAS
    back on its previous thread count: a test that sets a cap (directly or
    through an in-process CLI run with --threads) must not leave later
    tests serial or on one BLAS thread."""
    from test_spectral import _openblas_threads

    before = _openblas_threads()
    yield
    set_threads(0)
    if before:
        set_blas_threads(max(before))


@pytest.fixture(scope="session")
def basis17():
    return build_basis(17, 0.5, 8.0)


@pytest.fixture(scope="session")
def basis33():
    return build_basis(33, 0.5, 16.0)


@pytest.fixture(scope="session")
def tiny_dataset():
    """60 noisy projections at L=17 with CTF, plus clean references."""
    clean, ctf_clean, noisy, profiles, manifest = simulate_dataset(
        60, 17, seed=5, snr=0.3, support_radius=8.0, n_defocus_groups=4,
        n_blobs=10,
    )
    return {
        "clean": clean,
        "ctf_clean": ctf_clean,
        "noisy": noisy,
        "profiles": profiles,
        "manifest": manifest,
    }


@pytest.fixture(scope="session")
def rotated_copies(basis17):
    """Coefficients of 8 base images, each with 5 rotated copies at angles on
    the 256-point grid, and the exact within-cluster graph."""
    rng = np.random.Generator(np.random.Philox(42))
    clean, _, _, _, _ = simulate_dataset(
        8, 17, seed=9, snr=np.inf, support_radius=8.0, with_ctf=False,
        n_blobs=10,
    )
    base = expand_stack(clean, basis17)
    n_copy = 5
    coeffs = []
    angles = []
    for b in range(8):
        for c in range(n_copy):
            t = int(rng.integers(0, 256))
            alpha = 2.0 * np.pi * t / 256
            if alpha > np.pi:
                alpha -= 2.0 * np.pi
            coeffs.append(rotate_coeffs(base[b], basis17, alpha))
            angles.append(alpha)
    coeffs = np.stack(coeffs)
    angles = np.array(angles)
    # exact graph: copies of the same base image are mutual neighbors, and
    # image j (a rotation of the base by angles[j]) must be rotated by
    # angles[i] - angles[j] to match image i
    n = coeffs.shape[0]
    src, dst = np.divmod(np.arange(n * n_copy), n_copy)
    dst += src // n_copy * n_copy
    src, dst = src[src != dst], dst[src != dst]
    al = np.mod(angles[src] - angles[dst] + np.pi, 2 * np.pi) - np.pi
    graph = ViewGraph(indptr=np.arange(0, src.size + 1, n_copy - 1), indices=dst,
                      angles=np.where(al == -np.pi, np.pi, al))
    return {"coeffs": coeffs, "angles": angles, "graph": graph,
            "n_copy": n_copy, "n_base": 8}


@pytest.fixture(scope="session")
def demo_graph(tiny_dataset, basis17):
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    return initial_nn_search(coeffs, basis17, s=8)
