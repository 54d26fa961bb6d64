"""Spectral graph filtering of expansion coefficients and CTF correction.

Coefficient blocks A^(k) (one row per image) are filtered through the graph's
normalized frequency matrices: A_hat = D^{-1/2} U h(L) U* D^{1/2} A. The five
filter kinds pair h(lambda) in {lambda, 2*lambda - lambda^2,
lambda^3 - 3*lambda^2 + 3*lambda} with truncated or full spectra. The same
filter applied to absolute-CTF coefficients yields per-image effective CTFs
used for deconvolution.
"""

from dataclasses import dataclass

import numpy as np

from .basis import ift_grid
from .spectral import build_frequency_matrix, frequency_eigs, top_eigs

__all__ = [
    "FilterSpec",
    "apply_spectral_filter",
    "denoise_stack",
    "ctf_correct",
]

_FORMULAS = {
    1: lambda lam: lam,
    2: lambda lam: 2.0 * lam - lam**2,
    3: lambda lam: lam**3 - 3.0 * lam**2 + 3.0 * lam,
    4: lambda lam: lam,
    5: lambda lam: 2.0 * lam - lam**2,
}


@dataclass(frozen=True)
class FilterSpec:
    """Graph filter family: kinds 1-3 truncate at m, kinds 4-5 use the full
    spectrum (kind 4 pairs with kind 1's response, kind 5 with kind 2's)."""

    kind: int
    m: int = 50

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValueError(f"filter kind must be 1..5, got {self.kind}")

    @property
    def truncated(self):
        return self.kind in (1, 2, 3)

    def response(self, eigenvalues):
        return _FORMULAS[self.kind](np.asarray(eigenvalues, dtype=float))


def apply_spectral_filter(coeff_block, eigenvalues, eigenvectors, degrees, filt):
    """A_hat = D^{-1/2} U h(L) U* D^{1/2} A for one frequency block.

    eigenvalues/eigenvectors are the retained spectrum of the normalized
    frequency matrix (all n pairs for the untruncated kinds).
    """
    filt_vals = filt.response(eigenvalues)
    if filt.truncated:
        if filt.m > len(eigenvalues):
            raise ValueError(
                f"filter truncation m={filt.m} exceeds {len(eigenvalues)} available eigenpairs"
            )
        filt_vals = filt_vals[: filt.m]
        eigenvectors = eigenvectors[:, : filt.m]
    sqrt_d = np.sqrt(degrees)
    inner = np.conj(eigenvectors.T) @ (sqrt_d[:, None] * coeff_block)
    return (eigenvectors @ (filt_vals[:, None] * inner)) / sqrt_d[:, None]


def _averaging_filter(graph, coeff_block, k, order):
    """h(S_k) A for polynomial h without eigendecomposition; order 1 is the
    plain neighbor-transport average, order 2 the smooth-then-sharpen form."""
    W = build_frequency_matrix(graph, k)
    sqrt_d = np.sqrt(graph.degrees)
    # S_k A = D^{-1/2} Wt_k D^{1/2} A
    y = sqrt_d[:, None] * coeff_block
    s1 = W @ y
    if order == 1:
        return s1 / sqrt_d[:, None]
    s2 = W @ s1
    return (2.0 * s1 - s2) / sqrt_d[:, None]


def denoise_stack(coeffs, ctf_coeffs, graph, basis, filt):
    """Filter image and absolute-CTF coefficients for every basis frequency.

    Loops k = 0..k_max of the basis (denoising touches every coefficient
    block, not just the frequencies used for neighbor search). The truncated
    kinds filter each block as its eigenpairs arrive from frequency_eigs.
    Returns (denoised coeffs, effective-CTF coeffs) as (n, n_coeffs) arrays.
    """
    coeffs = np.asarray(coeffs)
    ctf_coeffs = np.asarray(ctf_coeffs)
    n = coeffs.shape[0]
    if graph.n != n:
        raise ValueError(f"graph covers {graph.n} nodes but stack has {n} images")
    out_a = np.empty_like(coeffs)
    out_c = np.empty_like(ctf_coeffs)
    ks = range(basis.k_max + 1)
    if filt.truncated:
        # this module's own top_eigs binding, so that a wrapper installed
        # here (perfbench/tracing.py) sees the solves made in this process
        spectra = frequency_eigs(graph, ks, min(filt.m, n), solve=top_eigs)
        for k, (vals, vecs) in zip(ks, spectra):
            sl = basis.k_slice(k)
            out_a[:, sl] = apply_spectral_filter(coeffs[:, sl], vals, vecs, graph.degrees, filt)
            out_c[:, sl] = apply_spectral_filter(ctf_coeffs[:, sl], vals, vecs, graph.degrees, filt)
    else:
        order = 1 if filt.kind == 4 else 2
        for k in ks:
            sl = basis.k_slice(k)
            out_a[:, sl] = _averaging_filter(graph, coeffs[:, sl], k, order)
            out_c[:, sl] = _averaging_filter(graph, ctf_coeffs[:, sl], k, order)
    return out_a, out_c


def ctf_correct(image_ft_grid, ctf_grid, eps):
    """Deconvolve by the effective CTF on the Fourier grid.

    The quotient C/(C^2 + eps) avoids blowup at CTF zero crossings. Grids
    may be (L, L) or (n, L, L) stacks, with eps a scalar or one value per
    image.
    """
    C = np.asarray(ctf_grid, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if (eps <= 0).any():
        raise ValueError("regularizer eps must be > 0")
    return ift_grid(image_ft_grid * C / (C**2 + eps[..., None, None])).real
