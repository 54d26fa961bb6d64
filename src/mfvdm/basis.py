"""Steerable Fourier-Bessel basis on the Fourier-domain disk.

Band-limited, disk-supported images are represented by complex expansion
coefficients a_{k,q} indexed by angular frequency k >= 0 and radial index q.
Negative frequencies are implied by conjugate symmetry (real images).
Rotating an image counter-clockwise by alpha multiplies a_{k,q} by
exp(-i*k*alpha), which makes the correlation of two images over rotations
a 1D Fourier sum over k.

BasisTables holds the radial counts p_k and the two grid operators: psi_grid
and coeff_solver, the k >= 0 rows of the grid basis's least-squares solver,
solved from its Gram matrix. The column frequencies and the in-disk grid
points follow from the counts and from (L, bandlimit).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BasisTables",
    "build_basis",
    "expand_stack",
    "expand_disk_function",
    "reconstruct",
    "reconstruct_grid",
    "rotate_coeffs",
    "corner_mask",
    "noise_covariance",
    "steerable_pca",
    "freq_grid",
    "ft_grid",
    "ift_grid",
]


class BasisError(ValueError):
    """Invalid basis construction parameters or mismatched operands."""


# reconstruct raises BasisError when the imaginary part of the image exceeds
# this times max(|image|, 1)
IMAG_TOL = 1e-8
# build_basis raises BasisError when the reciprocal 1-norm condition number
# of the grid basis's Gram matrix is below this. Admissible bases for
# L = 5..49 have 0.2 or more; at 1e-4 the normal equations would lose
# about four digits that an SVD keeps.
GRAM_RCOND = 1e-4


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


def _disk_index(L, bandlimit):
    """Flat indices of the centered L x L Fourier grid points inside the
    disk of radius bandlimit, the samples that expansion fits."""
    f1, f2 = freq_grid(L)
    return np.flatnonzero(np.hypot(f1, f2).ravel() <= bandlimit + 1e-12)


@dataclass(frozen=True)
class BasisTables:
    """Immutable tables for one (L, bandlimit, support_radius) basis.

    The fields are what basis.npz stores; the column frequencies ks, k_max
    and grid_index follow from them. Expand and reconstruct are matrix
    products. Safe to share across threads.
    """

    L: int
    bandlimit: float
    support_radius: float
    radial_counts: np.ndarray        # p_k for k = 0..k_max
    psi_grid: np.ndarray = field(repr=False)      # (n_inside, n_coeffs)
    coeff_solver: np.ndarray = field(repr=False)  # (n_coeffs, n_inside): k >= 0 rows of the solver

    @property
    def k_max(self):
        return self.radial_counts.size - 1

    @cached_property
    def ks(self):
        """Angular frequency of each column: k >= 0 ascending, then q."""
        return np.repeat(np.arange(self.k_max + 1), self.radial_counts)

    @cached_property
    def grid_index(self):
        return _disk_index(self.L, self.bandlimit)

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
    if not isinstance(L, (int, np.integer)):
        raise BasisError(f"image size must be an integer, got {L!r}")
    L = int(L)
    if L < 3 or L % 2 == 0:
        raise BasisError(f"image size must be odd and >= 3, got {L}")
    if not (0.0 < bandlimit <= 0.5):
        raise BasisError(f"bandlimit must be in (0, 0.5], got {bandlimit}")
    if not (0.0 < support_radius <= (L - 1) / 2):
        raise BasisError(
            f"support radius must be in (0, {(L - 1) / 2}], got {support_radius}"
        )
    c_max = 2.0 * np.pi * bandlimit * support_radius
    zeros = _bessel_zeros(c_max)
    if not zeros:
        raise BasisError("no admissible basis functions; enlarge bandlimit or radius")
    radial_counts = np.array([zk.size for zk in zeros])

    ks = np.repeat(np.arange(len(zeros)), radial_counts)
    zero_flat = np.concatenate(zeros)
    # orthonormal under the measure xi dxi dtheta on the disk of radius kappa
    norms = 1.0 / (bandlimit * np.sqrt(np.pi) * np.abs(_bessel(ks + 1, zero_flat)))

    # Cartesian frequency grid points inside the disk, for expansion/reconstruction
    f1, f2 = freq_grid(L)
    rad = np.hypot(f1, f2)
    grid_index = _disk_index(L, bandlimit)
    g_xi = rad.ravel()[grid_index]
    g_th = np.arctan2(f2.ravel()[grid_index], f1.ravel()[grid_index])
    # the grid holds few distinct radii: evaluate the Bessel functions once
    # per radius and gather
    radii, at = np.unique(g_xi, return_inverse=True)
    radial_g = _bessel(ks, zero_flat * radii[:, None] / bandlimit)[at]
    phase_g = (1j ** ks)[None, :] * np.exp(1j * ks[None, :] * g_th[:, None])
    psi_grid = norms[None, :] * radial_g * phase_g

    # expansion solves a least-squares fit against the in-disk grid samples,
    # so expand is an exact left inverse of reconstruct on the basis span.
    # Columns for k < 0 use psi^{-k,q} = (-1)^k conj(psi^{k,q}); for real
    # images their coefficients are the conjugates of the k > 0 ones, so
    # only the solver's k >= 0 rows are kept.
    pos = ks > 0
    sign = np.where(ks[pos] % 2 == 0, 1.0, -1.0)
    psi_full = np.concatenate([psi_grid, sign[None, :] * np.conj(psi_grid[:, pos])], axis=1)

    return BasisTables(
        L=L,
        bandlimit=float(bandlimit),
        support_radius=float(support_radius),
        radial_counts=radial_counts,
        psi_grid=psi_grid,
        coeff_solver=_solver_rows(psi_full, np.concatenate([ks, -ks[pos]]), ks.size),
    )


def _bessel(order, x):
    """Bessel functions of the first kind J_order(x) at points x >= 0, for
    integer orders order >= 0 broadcast against x: one backward (Miller)
    recurrence J_{k-1} = (2k/x) J_k - J_{k+1} over all points from an order
    past both max(order) and max(x), where J_k(x) decays faster than any
    rounding error, normalised by J_0 + 2 sum_k J_2k = 1. A point whose
    values approach overflow is rescaled, together with what it has stored
    so far; x = 0 gives J_0 = 1 and J_k = 0.
    """
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, dtype=float))
    top = max(int(order.max(initial=0)), int(np.ceil(x.max(initial=0.0))))
    # the truncation error J_start / Y_start at x <= top falls below 1e-16
    # once start - top exceeds about 10 top^(1/3)
    start = top + int(12.0 * top ** (1.0 / 3.0)) + 4
    two_over_x = 2.0 / np.where(x > 0.0, x, 1.0).ravel()
    # the points of each order k, stored as the recurrence passes k
    by_order = np.argsort(order, axis=None, kind="stable")
    bounds = np.searchsorted(order.ravel()[by_order], np.arange(start + 2))
    out = np.zeros(x.size)
    upper = np.zeros(x.size)   # J_{k+1}, unnormalised
    cur = np.ones(x.size)      # J_k, unnormalised
    total = np.zeros(x.size)
    for k in range(start, -1, -1):
        at = by_order[bounds[k]:bounds[k + 1]]
        out[at] = cur[at]
        if k == 0:
            break
        if k % 2 == 0:
            total += cur
        upper, cur = cur, k * two_over_x * cur - upper
        huge = np.abs(cur) > 1e200
        if huge.any():
            for a in (cur, upper, total, out):
                a[huge] *= 1e-200
    out /= 2.0 * total + cur
    out = out.reshape(x.shape)
    out[x == 0.0] = order[x == 0.0] == 0
    return out


def _bessel_zeros(c_max):
    """The zeros j_{k,q} <= c_max of J_k, one ascending array per k =
    0, 1, ... up to the last k with such a zero. Consecutive zeros of J_k
    are more than pi apart, so on a grid of spacing below pi each sign
    change of J_k brackets exactly one zero; a few safeguarded Newton
    steps, with J_k' = (k/x) J_k - J_{k+1}, then polish it."""
    # j_{k,1} > k, so no order above c_max has a zero below it. J_k > 0 on
    # (0, j_{k,1}) and J_k(0) = 0 has no sign bit, so the grid starts at
    # x = 0 without a sign change; j_{k,1} > 3 for k >= 1, so only k = 0
    # brackets a zero from x = 0, where J_0 = 1
    ks = np.arange(int(c_max) + 1)
    grid = np.linspace(0.0, c_max, int(np.ceil(c_max / 3.0)) + 1)
    table = _bessel(ks[:, None], grid)
    k_at, left = np.nonzero(np.signbit(table[:, :-1]) != np.signbit(table[:, 1:]))
    if k_at.size == 0:
        return []
    lo, hi = grid[left], grid[left + 1]
    f_lo, f_hi = table[k_at, left], table[k_at, left + 1]
    lo_sign = np.signbit(f_lo)
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)   # secant start
    for _ in range(50):
        jk, jk1 = _bessel(np.stack([k_at, k_at + 1]), x)
        # shrink the bracket to the side where J_k still changes sign
        below = np.signbit(jk) == lo_sign
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        step = jk / (k_at / x * jk - jk1)
        newton = x - step
        # a step within rounding of x is taken even if it leaves the bracket
        done = np.abs(step) <= 4.0 * np.finfo(float).eps * x
        x = np.where(done | ((newton >= lo) & (newton <= hi)), newton, 0.5 * (lo + hi))
        if done.all():
            break
    return np.split(x, np.flatnonzero(np.diff(k_at)) + 1)


def _solver_rows(psi, freqs, rows):
    """The first rows rows of the least-squares solver (psi^H psi)^-1 psi^H
    of a complex grid basis psi (n_points, n_columns) whose columns have
    signed angular frequencies freqs, from the inverse of its Gram matrix
    G = psi^H psi.

    The in-disk grid is invariant under quarter turns, so columns whose
    frequencies differ mod 4 are orthogonal and G is block diagonal; its
    mirror symmetry makes each block real. Each block is inverted on its
    own, in real arithmetic. The sampled Fourier-Bessel basis is nearly
    orthogonal (cond(psi) is 1.2 at L = 33), so the normal equations lose
    no digits that matter. Raises BasisError when a block is singular or
    the reciprocal 1-norm condition number 1 / (|G|_1 |G^-1|_1) of G is
    below GRAM_RCOND (each 1-norm is the largest over the blocks): psi is
    then (nearly) rank deficient.
    """
    solver = np.empty((rows, psi.shape[0]), dtype=complex)
    gram_norm = inverse_norm = 0.0
    for cls in range(4):
        cols = np.flatnonzero(freqs % 4 == cls)
        if cols.size == 0:
            continue
        block = psi[:, cols]
        block_h = np.conj(block.T)
        gram = (block_h @ block).real
        try:
            inverse = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            raise BasisError("grid basis is rank deficient: its Gram matrix is singular") from None
        gram_norm = max(gram_norm, np.linalg.norm(gram, 1))
        inverse_norm = max(inverse_norm, np.linalg.norm(inverse, 1))
        kept = cols < rows
        solver[cols[kept]] = inverse[kept] @ block_h
    rcond = 1.0 / (gram_norm * inverse_norm)
    if not rcond >= GRAM_RCOND:
        raise BasisError(f"grid basis is ill-conditioned: reciprocal condition number "
                         f"{rcond:.3g} of its Gram matrix is below {GRAM_RCOND}")
    return solver


def expand_stack(images, basis):
    """Expand a stack (n, L, L) -> coefficient matrix (n, n_coeffs): the
    k >= 0 part of the least-squares fit of the in-disk grid spectrum by the
    full +-k basis (coeff_solver)."""
    images = np.asarray(images, dtype=float)
    if images.shape[-2:] != (basis.L, basis.L):
        raise BasisError(f"image shape {images.shape[-2:]} does not match basis L={basis.L}")
    spectra = ft_grid(images).reshape(images.shape[0], -1)[:, basis.grid_index]
    return spectra @ basis.coeff_solver.T


def expand_disk_function(func, basis):
    """Expand a function of Fourier-domain polar coordinates (xi, theta); used
    for radial profiles such as absolute CTFs. Evaluated on the in-disk grid
    points and fitted by coeff_solver like expand_stack, so that
    reconstruction reproduces the sampled values of a real function."""
    f1, f2 = freq_grid(basis.L)
    xi = np.hypot(f1, f2).reshape(-1)[basis.grid_index]
    theta = np.arctan2(f2, f1).reshape(-1)[basis.grid_index]
    vals = np.asarray(func(xi, theta), dtype=complex)
    return vals @ basis.coeff_solver.T


def reconstruct_grid(coeffs, basis):
    """Evaluate the coefficient sum on the centered Cartesian Fourier grid.

    Accepts one coefficient vector or an (n, n_coeffs) stack, giving an
    (L, L) or (n, L, L) grid. Includes the implied negative-k terms; for
    conjugate-symmetric coefficient data the result is the transform of a
    real image. Only the columns of frequency blocks holding a nonzero entry
    are multiplied: the other blocks add nothing.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1] != basis.n_coeffs:
        raise BasisError(f"coefficient width {coeffs.shape[-1]} does not match "
                         f"basis n_coeffs={basis.n_coeffs}")
    blocks = [coeffs[..., basis.k_slice(k)].any() for k in range(basis.k_max + 1)]
    cols = np.repeat(blocks, basis.radial_counts)
    pos = cols & (basis.ks > 0)
    vals = coeffs[..., cols] @ basis.psi_grid[:, cols].T
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


def corner_mask(L, support_radius):
    """(L, L) mask of the pixels outside the particle support radius, the
    corners over which preprocess standardizes an image."""
    x = np.arange(L) - (L - 1) / 2
    return np.hypot(x[:, None], x[None, :]) > support_radius


def noise_covariance(basis, k):
    """(p_k, p_k) covariance of the frequency-k coefficients of unit white
    pixel noise less its mean over the m corner pixels (corner_mask), as
    preprocess standardizes it: that noise has covariance I + (s s^T -
    c c^T) / m, s and c the indicators of the support and of the corners.
    With S_k the frequency-k rows of coeff_solver and the centred DFT F
    (F F^H = L^2 I) the covariance is the real matrix L^2 S_k S_k^H +
    (w w^H - v v^H) / m, w = S_k F s and v = S_k F c."""
    solver = basis.coeff_solver[basis.k_slice(k)]
    corner = corner_mask(basis.L, basis.support_radius)
    w, v = (solver @ ft_grid(1.0 * mask).ravel()[basis.grid_index] for mask in (~corner, corner))
    outer = np.outer(w, np.conj(w)) - np.outer(v, np.conj(v))
    return (basis.L ** 2 * solver @ np.conj(solver.T) + outer / corner.sum()).real


def steerable_pca(coeffs, basis):
    """Shrink the (n, n_coeffs) coefficients of images standardized by
    preprocess in place, a frequency block at a time; returns the rank kept
    per k. Each block is whitened by its noise_covariance N_k, the k = 0
    block centred first. The real part of its sample covariance keeps the
    eigenvalues above the Marchenko-Pastur edge (1 + sqrt(p_k / n_k))^2,
    n_k = n real samples at k = 0 and 2n otherwise; each kept direction is
    weighted by l / (l + 1), l the spiked-model signal eigenvalue of its
    sample eigenvalue (Zhao, Shkolnisky & Singer 2016; Donoho, Gavish &
    Johnstone 2018), and the block is mapped back by N_k^(1/2)."""
    n = coeffs.shape[0]
    ranks = np.zeros(basis.k_max + 1, dtype=int)
    for k in range(basis.k_max + 1):
        sl = basis.k_slice(k)
        mean = coeffs[:, sl].mean(axis=0) if k == 0 else 0.0
        block = coeffs[:, sl] - mean
        d, u = np.linalg.eigh(noise_covariance(basis, k))
        whiten = (u / np.sqrt(d)) @ u.T
        lam, v = np.linalg.eigh(whiten @ (np.conj(block.T) @ block).real @ whiten / n)
        gamma = (sl.stop - sl.start) / (n if k == 0 else 2 * n)
        keep = lam > (1.0 + np.sqrt(gamma)) ** 2
        b = lam[keep] - 1.0 - gamma
        ell = 0.5 * (b + np.sqrt(b ** 2 - 4.0 * gamma))
        shrink = whiten @ (v[:, keep] * (ell / (ell + 1.0))) @ v[:, keep].T @ (u * np.sqrt(d)) @ u.T
        coeffs[:, sl] = block @ shrink + mean
        ranks[k] = keep.sum()
    return ranks
