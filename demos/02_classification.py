"""Nearest-neighbor classification and spectral refinement on a noisy stack.

Builds the rotationally-invariant-distance graph, refines it with the
multi-frequency spectral affinity, and scores both against the ground-truth
viewing directions from the manifest. At moderate noise the refined graph
recovers clearly more true neighbors than the initial one.

Run: python demos/02_classification.py   (a few seconds)
"""

import numpy as np

from mfvdm import (
    build_basis,
    expand_stack,
    initial_nn_search,
    neighbor_histograms,
    preprocess,
    simulate_dataset,
    steerable_pca,
)
from mfvdm.spectral import align_graph, compute_bundle, refine_neighbors

L, n, s = 33, 600, 30
clean, _, noisy, profiles, manifest = simulate_dataset(
    n, L, seed=3, snr=0.2, support_radius=16.0
)
pre = preprocess(noisy, 16.0, standardize=True, phase_flip=True,
                 profiles=profiles, groups=manifest.defocus_group)

basis = build_basis(L, 0.5, 16.0)
coeffs = expand_stack(pre, basis)

# Steerable PCA of the coefficients: after standardization the pixel noise
# is white with unit variance, so each frequency block's noise covariance
# is known. The directions above the noise edge are kept and shrunk; the
# scores are coordinates in a steerable basis of the kept directions,
# which has no columns at the frequencies left with none.
(scores, pca_basis), ranks = steerable_pca(coeffs, basis)
print(f"steerable PCA kept {ranks.sum()} directions over {np.count_nonzero(ranks)} "
      f"of {basis.k_max + 1} frequencies: {scores.shape[1]} of {basis.n_coeffs} columns")
initial = initial_nn_search(scores, pca_basis, s)

bundle = compute_bundle(initial, k_max=10, m=50)
refined = refine_neighbors(bundle, s)
align_graph(bundle, refined)


def frac_true(graph):
    h = neighbor_histograms(graph, manifest)
    return float(np.mean(h["theta_deg"] < 20.0))


print(f"true-neighbor fraction (viewing angle < 20 deg):")
print(f"  initial graph: {frac_true(initial):.3f}")
print(f"  refined graph: {frac_true(refined):.3f}")

h = neighbor_histograms(refined, manifest)
print(f"refined alignment error: median {np.median(np.abs(h['align_err_deg'])):.2f} deg "
      f"over {h['align_err_deg'].size} edges")
