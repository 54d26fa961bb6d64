"""Steerable Fourier-Bessel basis on the Fourier-domain disk.

Band-limited, disk-supported images are represented by complex expansion
coefficients a_{k,q} indexed by angular frequency k >= 0 and radial index q.
Negative frequencies are implied by conjugate symmetry (real images).
Rotating an image counter-clockwise by alpha multiplies a_{k,q} by
exp(-i*k*alpha), which makes rotational alignment a 1D FFT over k.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import jn_zeros, jv

__all__ = [
    "BasisTables",
    "build_basis",
    "expand_stack",
    "expand_disk_function",
    "reconstruct",
    "reconstruct_grid",
    "rotate_coeffs",
    "freq_grid",
    "ft_grid",
    "ift_grid",
]


class BasisError(ValueError):
    """Invalid basis construction parameters or mismatched operands."""


# reconstruct raises BasisError when the imaginary part of the image exceeds
# this times max(|image|, 1)
IMAG_TOL = 1e-8


def freq_grid(L):
    """Frequencies (cycles/pixel) of the centered L x L Fourier grid that
    ft_grid samples, as two (L, L) arrays (f1 along rows, f2 along columns)."""
    f = (np.arange(L) - (L - 1) / 2) / L
    return np.meshgrid(f, f, indexing="ij")


def ft_grid(image):
    """Centered 2D DFT: F(u) = sum_x I(x) exp(-2*pi*i*u.x/L), x and u centered."""
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(image, axes=(-2, -1)), axes=(-2, -1)), axes=(-2, -1))


def ift_grid(grid):
    """Inverse of :func:`ft_grid` (complex output; caller takes the real part)."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(grid, axes=(-2, -1)), axes=(-2, -1)), axes=(-2, -1))


@dataclass(frozen=True)
class BasisTables:
    """Immutable tables for one (L, bandlimit, support_radius) basis.

    All heavy matrices are precomputed once; expand/reconstruct are then
    matrix products. Safe to share across threads.
    """

    L: int
    bandlimit: float
    support_radius: float
    k_max: int
    radial_counts: np.ndarray        # p_k for k = 0..k_max
    # flattened column indexing (k >= 0 only; k ascending, then q)
    ks: np.ndarray                   # angular frequency per column
    norms: np.ndarray                # normalization per column
    # precomputed operators
    grid_index: np.ndarray = field(repr=False, default=None)  # flat indices of in-disk grid freqs
    psi_grid: np.ndarray = field(repr=False, default=None)    # (n_inside, n_coeff)
    coeff_solver: np.ndarray = field(repr=False, default=None)  # pseudo-inverse of the full +-k grid basis

    @property
    def n_coeffs(self):
        return self.ks.size

    def k_slice(self, k):
        """Column slice holding the radial coefficients of frequency k."""
        start = int(np.sum(self.radial_counts[:k]))
        return slice(start, start + int(self.radial_counts[k]))


def build_basis(L, bandlimit, support_radius):
    """Build basis tables for odd image size L, bandlimit in cycles/pixel,
    and particle support radius in pixels.

    Retains every (k, q) whose Bessel zero satisfies
    R_{k,q} <= 2*pi*bandlimit*support_radius.
    """
    if L < 3 or L % 2 == 0:
        raise BasisError(f"image size must be odd and >= 3, got {L}")
    if not (0.0 < bandlimit <= 0.5):
        raise BasisError(f"bandlimit must be in (0, 0.5], got {bandlimit}")
    if not (0.0 < support_radius <= (L - 1) / 2):
        raise BasisError(
            f"support radius must be in (0, {(L - 1) / 2}], got {support_radius}"
        )

    c_max = 2.0 * np.pi * bandlimit * support_radius
    if jn_zeros(0, 1)[0] > c_max:
        raise BasisError("no admissible basis functions; enlarge bandlimit or radius")

    # per k, a generous batch of zeros trimmed to the admissibility cutoff
    n_guess = max(4, int(c_max / np.pi) + 4)
    zeros = []
    while True:
        zk = jn_zeros(len(zeros), n_guess)
        zk = zk[zk <= c_max]
        if zk.size == 0:
            break
        zeros.append(zk)
    k_max = len(zeros) - 1
    radial_counts = np.array([zk.size for zk in zeros])

    ks = np.repeat(np.arange(k_max + 1), radial_counts)
    zero_flat = np.concatenate(zeros)
    # orthonormal under the measure xi dxi dtheta on the disk of radius kappa
    norms = 1.0 / (bandlimit * np.sqrt(np.pi) * np.abs(jv(ks + 1, zero_flat)))

    # Cartesian frequency grid points inside the disk, for expansion/reconstruction
    f1, f2 = freq_grid(L)
    rad = np.hypot(f1, f2)
    inside = rad.ravel() <= bandlimit + 1e-12
    grid_index = np.flatnonzero(inside)
    g_xi = rad.ravel()[grid_index]
    g_th = np.arctan2(f2.ravel()[grid_index], f1.ravel()[grid_index])
    # the grid holds few distinct radii: evaluate the Bessel functions once
    # per radius and gather
    radii, at = np.unique(g_xi, return_inverse=True)
    radial_g = jv(ks[None, :], zero_flat[None, :] * radii[:, None] / bandlimit)[at]
    phase_g = (1j ** ks)[None, :] * np.exp(1j * ks[None, :] * g_th[:, None])
    psi_grid = norms[None, :] * radial_g * phase_g

    # expansion solves a least-squares fit against the in-disk grid samples,
    # so expand is an exact left inverse of reconstruct on the basis span.
    # Columns for k < 0 use psi^{-k,q} = (-1)^k conj(psi^{k,q}).
    pos = ks > 0
    sign = np.where(ks[pos] % 2 == 0, 1.0, -1.0)
    psi_full = np.concatenate([psi_grid, sign[None, :] * np.conj(psi_grid[:, pos])], axis=1)
    coeff_solver = np.linalg.pinv(psi_full, rcond=1e-10)

    return BasisTables(
        L=L,
        bandlimit=float(bandlimit),
        support_radius=float(support_radius),
        k_max=k_max,
        radial_counts=radial_counts,
        ks=ks,
        norms=norms,
        grid_index=grid_index,
        psi_grid=psi_grid,
        coeff_solver=coeff_solver,
    )


def _solve_coeffs(basis, grid_values):
    """Least-squares coefficients from in-disk grid spectrum samples.

    grid_values: (..., n_inside). Returns k >= 0 coefficients with conjugate
    symmetry enforced by averaging the paired +-k solutions.
    """
    a_full = grid_values @ basis.coeff_solver.T
    n = basis.n_coeffs
    pos = basis.ks > 0
    a = a_full[..., :n].copy()
    a[..., pos] = 0.5 * (a[..., pos] + np.conj(a_full[..., n:]))
    return a


def expand_stack(images, basis):
    """Expand a stack (n, L, L) -> coefficient matrix (n, n_coeffs)."""
    images = np.asarray(images, dtype=float)
    if images.shape[-2:] != (basis.L, basis.L):
        raise BasisError(f"image shape {images.shape[-2:]} does not match basis L={basis.L}")
    spectra = ft_grid(images).reshape(images.shape[0], -1)[:, basis.grid_index]
    return _solve_coeffs(basis, spectra)


def expand_disk_function(func, basis):
    """Expand a function of Fourier-domain polar coordinates (xi, theta); used
    for radial profiles such as absolute CTFs. Evaluated on the in-disk grid
    points so that reconstruction reproduces the sampled values."""
    f1, f2 = freq_grid(basis.L)
    xi = np.hypot(f1, f2).reshape(-1)[basis.grid_index]
    theta = np.arctan2(f2, f1).reshape(-1)[basis.grid_index]
    vals = np.asarray(func(xi, theta), dtype=complex)
    return _solve_coeffs(basis, vals)


def reconstruct_grid(coeffs, basis):
    """Evaluate the coefficient sum on the centered Cartesian Fourier grid.

    Accepts one coefficient vector or an (n, n_coeffs) stack, giving an
    (L, L) or (n, L, L) grid. Includes the implied negative-k terms; for
    conjugate-symmetric coefficient data the result is the transform of a
    real image.
    """
    coeffs = np.asarray(coeffs)
    pos = basis.ks > 0
    vals = coeffs @ basis.psi_grid.T
    # sum over k<0: a_{-k,q} psi^{-k,q} = (-1)^k conj(a_{k,q} psi^{k,q})
    sign = np.where(basis.ks[pos] % 2 == 0, 1.0, -1.0)
    vals = vals + np.conj(coeffs[..., pos] @ (basis.psi_grid[:, pos] * sign[None, :]).T)
    grid = np.zeros(coeffs.shape[:-1] + (basis.L * basis.L,), dtype=complex)
    grid[..., basis.grid_index] = vals
    return grid.reshape(coeffs.shape[:-1] + (basis.L, basis.L))


def reconstruct(coeffs, basis):
    """Evaluate coefficients on the Cartesian Fourier grid and inverse
    transform; output is real (imaginary residue checked then discarded)."""
    grid = reconstruct_grid(coeffs, basis)
    img = ift_grid(grid)
    scale = max(np.abs(img).max(), 1.0)
    if np.abs(img.imag).max() > IMAG_TOL * scale:
        raise BasisError("reconstruction has non-negligible imaginary part")
    return img.real


def rotate_coeffs(coeffs, basis, alpha):
    """Coefficient action of rotating the image counter-clockwise by alpha."""
    return coeffs * np.exp(-1j * basis.ks * alpha)
