"""Spectral graph filtering of expansion coefficients and CTF correction.

Coefficient blocks A^(k) (one row per image) are filtered through the graph's
normalized frequency matrices: A_hat = D^{-1/2} U h(L) U* D^{1/2} A. The five
filter kinds pair h(lambda) in {lambda, 2*lambda - lambda^2,
lambda^3 - 3*lambda^2 + 3*lambda} with truncated or full spectra. The same
filter applied to absolute-CTF coefficients yields per-image effective CTFs
used for deconvolution; |CTF| is radial, so only its k = 0 block is filtered.
"""

from dataclasses import dataclass, replace

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
}
_FORMULAS.update({4: _FORMULAS[1], 5: _FORMULAS[2]})   # the full-spectrum kinds


@dataclass(frozen=True)
class FilterSpec:
    """Graph filter family: kinds 1-3 truncate at m, kinds 4-5 use the full
    spectrum (kind 4 pairs with kind 1's response, kind 5 with kind 2's)."""

    kind: int
    m: int = 50

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValueError(f"filter kind must be 1..5, got {self.kind}")
        if self.m < 1:
            raise ValueError(f"filter truncation m must be >= 1, got {self.m}")

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


def _averaging_filter(W, sqrt_d, coeff_block, order):
    """h(S_k) A for polynomial h without eigendecomposition, given W_k and
    the column of sqrt degrees; order 1 is the plain neighbor-transport
    average, order 2 the smooth-then-sharpen form."""
    # S_k A = D^{-1/2} W_k D^{1/2} A
    s1 = W @ (sqrt_d * coeff_block)
    if order == 1:
        return s1 / sqrt_d
    return (2.0 * s1 - W @ s1) / sqrt_d


def denoise_stack(coeffs, ctf_coeffs, graph, basis, filt):
    """Filter the (n, n_coeffs) image coefficients and the (n, p_0) k = 0
    block of the absolute-CTF coefficients, the radial |CTF|'s only block.

    The image coefficients are filtered in place: coeffs must be a writeable
    complex128 array, and each frequency block is overwritten by its
    filtered values. The filter is linear, so k > 0 is solved only when its
    image block has a nonzero entry, and an all-zero block is left as it
    is; k = 0 is always solved, for the CTF. The truncated kinds filter each
    block as its eigenpairs arrive from frequency_eigs (min(m, n) of them).
    Returns (coeffs, the (n, p_0) effective-CTF coeffs).
    """
    coeffs, ctf_coeffs = np.asarray(coeffs), np.asarray(ctf_coeffs)
    for name, a, width in (("coeffs", coeffs, basis.n_coeffs),
                           ("ctf_coeffs", ctf_coeffs, basis.k_slice(0).stop)):
        if a.shape != (graph.n, width):
            raise ValueError(f"{name} has shape {a.shape}, expected {(graph.n, width)} "
                             "(graph nodes, basis coefficients or their k = 0 block)")
    if coeffs.dtype != np.complex128 or not coeffs.flags.writeable:
        raise ValueError(f"coeffs must be a writeable complex128 array, filtered in place; "
                         f"got {'writeable' if coeffs.flags.writeable else 'read-only'} "
                         f"{coeffs.dtype}")
    ks = [k for k in range(basis.k_max + 1) if k == 0 or coeffs[:, basis.k_slice(k)].any()]
    if filt.truncated:
        # this module's own top_eigs binding, so that a wrapper installed
        # here (perfbench/tracing.py) sees the solves made in this process
        filt = replace(filt, m=min(filt.m, graph.n))
        operators = frequency_eigs(graph, ks, filt.m, solve=top_eigs)
        apply = lambda spectrum, block: apply_spectral_filter(block, *spectrum, graph.degrees, filt)
    else:
        order, sqrt_d = 1 if filt.kind == 4 else 2, np.sqrt(graph.degrees)[:, None]
        operators = (build_frequency_matrix(graph, k) for k in ks)
        apply = lambda W, block: _averaging_filter(W, sqrt_d, block, order)
    for k, op in zip(ks, operators):
        sl = basis.k_slice(k)
        coeffs[:, sl] = apply(op, coeffs[:, sl])
        if k == 0:
            out_c = apply(op, ctf_coeffs)
    return coeffs, out_c


def ctf_correct(image_ft_grid, ctf_grid, eps):
    """Deconvolve by the effective CTF on the Fourier grid.

    The quotient C/(C^2 + eps) avoids blowup at CTF zero crossings. Grids
    may be (L, L) or (n, L, L) stacks, with eps a scalar or one value per
    image.
    """
    C = np.asarray(ctf_grid, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if not (eps > 0).all():
        raise ValueError("regularizer eps must be > 0")
    return ift_grid(image_ft_grid * C / (C**2 + eps[..., None, None])).real
