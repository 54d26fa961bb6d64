"""Scalar reference implementations, used by the tests as oracles for the
vectorised paths in ``mfvdm``: one pair of images, nodes or edges at a time,
written for clarity rather than speed."""

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.signal import fftconvolve

from mfvdm.basis import BasisError, _solve_coeffs, ft_grid, ift_grid, reconstruct_grid
from mfvdm.graph import viewing_angle
from mfvdm.simulate import ctf_grid
from mfvdm.spectral import _affinity_factors, _affinity_rows


# --------------------------------------------------------------------------
# basis

def expand(image, basis):
    """Coefficients (k >= 0) of one L x L real image."""
    image = np.asarray(image, dtype=float)
    if image.shape != (basis.L, basis.L):
        raise BasisError(f"image shape {image.shape} does not match basis L={basis.L}")
    spectrum = ft_grid(image).reshape(-1)[basis.grid_index]
    return _solve_coeffs(basis, spectrum)


def reconstruct_denoised(denoised_coeffs, basis):
    """Real (n, L, L) images of a coefficient stack, without the
    imaginary-residue check of ``mfvdm.reconstruct``."""
    return ift_grid(reconstruct_grid(denoised_coeffs, basis)).real


def full_sq_norm(basis, coeffs):
    """Squared norm counting implied negative frequencies: k>0 columns twice."""
    return np.abs(coeffs) ** 2 @ np.where(basis.ks == 0, 1.0, 2.0)


def cross_spectrum(basis, coeffs_i, coeffs_j):
    """c(k) = sum_q a_i conj(a_j), k = 0..k_max."""
    c = np.zeros(basis.k_max + 1, dtype=complex)
    np.add.at(c, basis.ks, coeffs_i * np.conj(coeffs_j))
    return c


def rid_align(coeffs_i, coeffs_j, basis, fft_size=256):
    """Rotationally invariant distance and optimal alignment angle.

    Returns (d, alpha) with alpha the grid angle by which image j is rotated
    counter-clockwise to best match image i, minimizing the coefficient-space
    L2 distance over the fft_size-point rotation grid.
    """
    if coeffs_i.shape != coeffs_j.shape or coeffs_i.size != basis.n_coeffs:
        raise BasisError("coefficient vectors do not share this basis")
    if fft_size < 2 * basis.k_max + 1:
        raise BasisError(f"fft_size must be >= {2 * basis.k_max + 1}")
    z = cross_spectrum(basis, coeffs_i, coeffs_j)
    z[1:] *= 2.0  # fold in negative frequencies (conjugate pairs)
    corr = fft_size * np.real(np.fft.ifft(z, n=fft_size))
    t = int(np.argmax(corr))
    d2 = full_sq_norm(basis, coeffs_i) + full_sq_norm(basis, coeffs_j) - 2.0 * corr[t]
    alpha = 2.0 * np.pi * t / fft_size
    if alpha > np.pi:
        alpha -= 2.0 * np.pi
    return float(np.sqrt(max(d2, 0.0))), float(alpha)


# --------------------------------------------------------------------------
# simulate

def apply_ctf(image, profile):
    """Pointwise Fourier-domain CTF modulation; output is real."""
    grid = ctf_grid(profile, image.shape[-1])
    return ift_grid(ft_grid(image) * grid).real


def rotate_image(image, alpha):
    """Counter-clockwise real-space rotation by bilinear interpolation
    (production code rotates in coefficient space)."""
    L = image.shape[0]
    c = (L - 1) / 2
    x = np.arange(L) - c
    X, Y = np.meshgrid(x, x, indexing="ij")
    ca, sa = np.cos(alpha), np.sin(alpha)
    # output(x) = I(Rot(-alpha) x)
    xs = ca * X + sa * Y
    ys = -sa * X + ca * Y
    return map_coordinates(image, np.stack([xs + c, ys + c]).reshape(2, -1),
                           order=1, mode="constant", cval=0.0).reshape(L, L)


# --------------------------------------------------------------------------
# graph

def neighbors(graph, i):
    return graph.indices[graph.indptr[i]:graph.indptr[i + 1]]


def angle(graph, i, j):
    """Stored alpha_ij of the edge (i, j); KeyError if it is not an edge."""
    nb = neighbors(graph, i)
    idx = np.searchsorted(nb, j)
    if idx >= nb.size or nb[idx] != j:
        raise KeyError(f"({i}, {j}) is not an edge")
    return float(graph.angles[graph.indptr[i] + idx])


def true_alignment(R_i, R_j):
    """Ground-truth in-plane alignment of one pair of 3D rotations."""
    R_i = np.asarray(R_i)
    R_j = np.asarray(R_j)
    v_i, v_j = R_i[:, 2], R_j[:, 2]
    axis = np.cross(v_j, v_i)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        T = np.eye(3)
    else:
        axis = axis / norm
        ang = viewing_angle(v_i, v_j)
        K = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        T = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    O = R_i[:, :2].T @ T @ R_j[:, :2]
    return float(np.arctan2(O[1, 0] - O[0, 1], O[0, 0] + O[1, 1]))


# --------------------------------------------------------------------------
# spectral

def bundle_index(bundle, k):
    pos = np.flatnonzero(bundle.k_list == k)
    if pos.size == 0:
        raise KeyError(f"frequency {k} not in bundle (have {list(bundle.k_list)})")
    return int(pos[0])


def pair_product(bundle, k, i, j):
    """P_k(i, j) = sum_l lambda_l^{2t} u_l(i) conj(u_l(j)), over retained l."""
    idx = bundle_index(bundle, k)
    lam = bundle.eigenvalues[idx] ** (2 * bundle.t)
    U = bundle.eigenvectors[idx]
    return np.sum(lam * U[i] * np.conj(U[j]))


def embedding_dot(bundle, k, i, j):
    """Inner product of truncated embeddings at frequency k: |P_k(i, j)|^2."""
    return float(np.abs(pair_product(bundle, k, i, j)) ** 2)


def affinity(bundle, i, j):
    """Multi-frequency affinity between two nodes (self-affinity = number of
    usable frequencies)."""
    total = 0.0
    for k in bundle.k_list:
        if k == 0:
            continue
        pij = np.abs(pair_product(bundle, int(k), i, j)) ** 2
        pii = np.abs(pair_product(bundle, int(k), i, i))
        pjj = np.abs(pair_product(bundle, int(k), j, j))
        if pii <= 1e-300 or pjj <= 1e-300:
            continue
        total += pij / (pii * pjj)
    return float(total)


def affinity_matrix(bundle):
    """Normalized multi-frequency affinity A (n x n), summed over k >= 1, from
    the row-block routine of ``refine_neighbors`` run over all rows; returns
    (A, dropped_count)."""
    factors, dropped = _affinity_factors(bundle)
    return _affinity_rows(factors, bundle.n, 0, bundle.n), dropped


def alignment_spectrum(bundle, i, j):
    """z(k) = P_k(i, j) for the bundle frequencies k >= 1."""
    ks = [int(k) for k in bundle.k_list if k >= 1]
    z = np.zeros(max(ks) + 1, dtype=complex)
    for k in ks:
        z[k] = pair_product(bundle, k, i, j)
    return z


def estimate_alignment(bundle, i, j, fft_size=1024):
    """Alignment angle of one edge: the grid argmax of
    Re sum_k z(k) e^{ik alpha} with z(k) = P_k(i, j), zero-padded."""
    if fft_size <= bundle.k_list.max():
        raise ValueError("fft_size must exceed the largest frequency")
    z = alignment_spectrum(bundle, i, j)
    obj = np.real(np.fft.fft(np.conj(z), n=fft_size))
    alpha = 2.0 * np.pi * int(np.argmax(obj)) / fft_size
    if alpha > np.pi:
        alpha -= 2.0 * np.pi
    return float(alpha)


# --------------------------------------------------------------------------
# metrics

def gaussian_kernel(size=11, sigma=1.5):
    """Normalized 2-D Gaussian SSIM window."""
    r = size // 2
    x = np.arange(-r, r + 1)
    g = np.exp(-(x**2) / (2 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim(x, ref):
    """Windowed SSIM of one image pair by 2-D convolutions (11x11 Gaussian
    window, sigma 1.5, K1=0.01, K2=0.03, the reference's dynamic range)."""
    kernel = gaussian_kernel()
    data_range = ref.max() - ref.min()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    win = lambda im: fftconvolve(im, kernel, mode="valid")
    mu_x = win(x)
    mu_r = win(ref)
    var_x = win(x * x) - mu_x**2
    var_r = win(ref * ref) - mu_r**2
    cov = win(x * ref) - mu_x * mu_r
    num = (2 * mu_x * mu_r + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_r**2 + c1) * (var_x + var_r + c2)
    return float(np.mean(num / den))
