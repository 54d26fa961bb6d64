"""Scalar reference implementations, used by the tests as oracles for the
vectorised paths in ``mfvdm``: one pair of images, nodes or edges at a time,
written for clarity rather than speed."""

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.signal import fftconvolve

from mfvdm.basis import BasisError, expand_stack, freq_grid, ft_grid, ift_grid, reconstruct_grid
from mfvdm.graph import viewing_angle
from mfvdm.simulate import _rng, ctf_grid, default_defocus_groups, make_phantom, preprocess
from mfvdm.spectral import _affinity_block, _affinity_factors


# --------------------------------------------------------------------------
# basis

def pinv_solver(basis):
    """Pseudo-inverse (numpy's SVD-based pinv) of the full +-k grid basis:
    the k >= 0 columns psi_grid, then psi^{-k,q} = (-1)^k conj(psi^{k,q})
    for k > 0. Shape (n_coeffs + n_pos, n_inside)."""
    pos = basis.ks > 0
    sign = np.where(basis.ks[pos] % 2 == 0, 1.0, -1.0)
    psi_full = np.concatenate([basis.psi_grid, sign * np.conj(basis.psi_grid[:, pos])], axis=1)
    return np.linalg.pinv(psi_full, rcond=1e-10)


def expand(image, basis):
    """Coefficients (k >= 0) of one L x L real image: the least-squares fit
    of its in-disk spectrum by the full +-k basis (pinv_solver), with each
    k > 0 coefficient averaged with the conjugate of its k < 0 partner."""
    image = np.asarray(image, dtype=float)
    if image.shape != (basis.L, basis.L):
        raise BasisError(f"image shape {image.shape} does not match basis L={basis.L}")
    spectrum = ft_grid(image).reshape(-1)[basis.grid_index]
    a_full = pinv_solver(basis) @ spectrum
    n, pos = basis.n_coeffs, basis.ks > 0
    a = a_full[:n].copy()
    a[pos] = 0.5 * (a[pos] + np.conj(a_full[n:]))
    return a


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


def coeff_noise_covariance(basis, draws=4000, block=500):
    """Monte Carlo estimate of the per-k coefficient covariance of
    unit-variance white pixel noise standardized over the corners
    (``mfvdm.preprocess``): the real part of A_k^H A_k / draws for the
    frequency-k coefficients A_k of draws Gaussian images from Philox(0),
    expanded block images at a time. A list over k = 0..k_max."""
    rng = _rng(0)
    sums = [0.0] * (basis.k_max + 1)
    for _ in range(draws // block):
        noise = preprocess(rng.normal(size=(block, basis.L, basis.L)), basis.support_radius)
        a = expand_stack(noise, basis)
        for k in range(basis.k_max + 1):
            ak = a[:, basis.k_slice(k)]
            sums[k] = sums[k] + (np.conj(ak.T) @ ak).real
    return [c / draws for c in sums]


# --------------------------------------------------------------------------
# simulate

def sample_rotations(n, seed):
    """``mfvdm.simulate.sample_rotations`` one matrix at a time: QR of a
    Gaussian 3 x 3, columns signed by diag(R), the third column flipped
    when the determinant is negative."""
    rng = _rng(seed)
    out = np.empty((n, 3, 3))
    for i in range(n):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))[None, :]
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        out[i] = q
    return out


def project_reference(volume, rotation):
    """X-ray transform by scipy.ndimage.map_coordinates over the whole L^3
    cube: sample (x, y, z) at x R1 + y R2 + z R3 about the grid centre,
    trilinear, 0 where a coordinate leaves [0, L - 1], summed over z."""
    L = volume.shape[0]
    c = (L - 1) / 2
    x = np.arange(L) - c
    R = np.asarray(rotation)[:, :, None, None, None]
    coords = R[:, 0] * x[:, None, None] + R[:, 1] * x[None, :, None] + R[:, 2] * x + c
    vals = map_coordinates(volume, coords, order=1, mode="constant", cval=0.0)
    return vals.sum(axis=2)


def apply_ctf(image, profile):
    """Pointwise Fourier-domain CTF modulation; output is real."""
    grid = ctf_grid(profile, image.shape[-1])
    return ift_grid(ft_grid(image) * grid).real


def shift_image(image, shift):
    """Subpixel translation of one image via a Fourier phase ramp."""
    f1, f2 = freq_grid(image.shape[-1])
    phase = np.exp(-2j * np.pi * (f1 * shift[0] + f2 * shift[1]))
    return ift_grid(ft_grid(image) * phase).real


def simulate_stacks(n, L, seed, snr, *, support_radius=None, n_blobs=30, n_defocus_groups=20,
                    noise_model="white", with_ctf=True, shift_px=0.0):
    """(clean, ctf_clean, noisy) of ``mfvdm.simulate_dataset`` (default
    bandlimit), with every pass over the whole stack: the rotations drawn
    and the projections made one view at a time by project_reference, the
    shifts one image at a time, then one CTF transform and one noise filter
    of the whole stack, and the noise added to a copy."""
    if support_radius is None:
        support_radius = (L - 1) / 2
    vol = make_phantom(L, seed, n_blobs=n_blobs, support_radius=support_radius)
    clean = np.stack([project_reference(vol, R) for R in sample_rotations(n, seed + 1)])
    if shift_px:
        shifts = _rng(seed + 4).uniform(-shift_px, shift_px, size=(n, 2))
        clean = np.stack([shift_image(im, sh) for im, sh in zip(clean, shifts)])
    profiles = default_defocus_groups(n_defocus_groups)
    groups = _rng(seed + 2).integers(0, n_defocus_groups, size=n)
    if with_ctf:
        spectra = ft_grid(clean)
        for i, g in enumerate(groups):
            spectra[i] *= ctf_grid(profiles[g], L)
        ctf_clean = ift_grid(spectra).real
    else:
        ctf_clean = clean.copy()
    if not np.isfinite(snr):
        return clean, ctf_clean, ctf_clean.copy()
    sigma2 = ctf_clean.var() / snr
    noise = _rng(seed + 3).normal(size=clean.shape)
    if noise_model == "colored":
        f1, f2 = freq_grid(L)
        noise = ift_grid(ft_grid(noise) * np.sqrt(1.0 / (1.0 + (np.hypot(f1, f2) / 0.1) ** 2))).real
        noise *= np.sqrt(sigma2 / noise.var())
    else:
        noise *= np.sqrt(sigma2)
    return clean, ctf_clean, ctf_clean + noise


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
    """P_k(i, j) = sum_l lambda_l^2 u_l(i) conj(u_l(j)), over retained l."""
    idx = bundle_index(bundle, k)
    lam = bundle.eigenvalues[idx] ** 2
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
    return _affinity_block(factors, slice(0, bundle.n), slice(0, bundle.n)), dropped


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


def fit_to_reference(x, ref):
    """Least-squares affine fit a*x + b of one image to its reference."""
    xc = x - x.mean()
    denom = np.sum(xc * xc)
    a = np.sum(xc * (ref - ref.mean())) / denom if denom > 0 else 0.0
    return a * x + (ref.mean() - a * x.mean())


def mse(x, ref):
    return float(np.mean((x - ref) ** 2))


def psnr(x, ref):
    """10*log10(peak^2 / MSE), peak the reference's dynamic range; +inf for
    identical images."""
    err = mse(x, ref)
    return float("inf") if err == 0 else float(10.0 * np.log10((ref.max() - ref.min()) ** 2 / err))
