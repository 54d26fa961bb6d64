"""Synthetic projection-image generator with ground truth.

Produces a phantom volume, tomographic projections at Haar-random 3D
orientations, CTF modulation by defocus group, additive noise at a prescribed
SNR, and the standard preprocessing chain (standardization, whitening, phase
flipping). Everything is deterministic in the seed (Philox counter-based RNG).
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from .basis import freq_grid, ft_grid, ift_grid
from .pool import fork_map

__all__ = [
    "CTFProfile",
    "DatasetManifest",
    "make_phantom",
    "project",
    "project_stack",
    "sample_rotations",
    "ctf_value",
    "ctf_grid",
    "add_noise",
    "shift_image",
    "preprocess",
    "default_defocus_groups",
    "simulate_dataset",
]


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class CTFProfile:
    """Weak-phase contrast transfer function parameters."""

    defocus_um: float
    wavelength_A: float = 0.025
    cs_mm: float = 2.0
    pixel_size_A: float = 2.82
    amplitude_contrast: float = 0.07

    def __post_init__(self):
        if min(self.defocus_um, self.wavelength_A, self.cs_mm, self.pixel_size_A) <= 0:
            raise ValueError("physical CTF parameters must be strictly positive")
        if not (0.0 <= self.amplitude_contrast < 1.0):
            raise ValueError("amplitude contrast must be in [0, 1)")


def ctf_value(profile, spatial_freq):
    """CTF at spatial frequency s (1/Angstrom):
    -[sqrt(1-w^2) sin(gamma) + w cos(gamma)],
    gamma(s) = pi*lambda*dz*s^2 - (pi/2)*cs*lambda^3*s^4.
    """
    s = np.asarray(spatial_freq, dtype=float)
    dz = profile.defocus_um * 1e4      # um -> A
    cs = profile.cs_mm * 1e7           # mm -> A
    lam = profile.wavelength_A
    gamma = np.pi * lam * dz * s**2 - 0.5 * np.pi * cs * lam**3 * s**4
    w = profile.amplitude_contrast
    return -(np.sqrt(1.0 - w**2) * np.sin(gamma) + w * np.cos(gamma))


def ctf_grid(profile, L):
    """CTF evaluated on the centered L x L Fourier grid (cycles/pixel over
    pixel size -> 1/Angstrom)."""
    f1, f2 = freq_grid(L)
    s = np.hypot(f1, f2) / profile.pixel_size_A
    return ctf_value(profile, s)


def default_defocus_groups(n_groups=20):
    """Evenly spaced defocus groups in [1, 4] um."""
    return [CTFProfile(defocus_um=d) for d in np.linspace(1.0, 4.0, n_groups)]


def make_phantom(L, seed, n_blobs=30, support_radius=None):
    """Sum of anisotropic Gaussian blobs on an L^3 grid, smoothly windowed to
    vanish outside the support radius. Deterministic in seed.

    Blobs are small relative to the support so that projections from distant
    viewing directions stay distinguishable.
    """
    if n_blobs < 1:
        raise ValueError("n_blobs must be >= 1")
    if support_radius is None:
        support_radius = (L - 1) / 2
    rng = _rng(seed)
    c = (L - 1) / 2
    x = np.arange(L) - c
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = np.zeros((L, L, L))
    if n_blobs == 1:
        centers = np.zeros((1, 3))
    else:
        centers = rng.uniform(-0.6 * support_radius, 0.6 * support_radius, size=(n_blobs, 3))
        centers -= centers.mean(axis=0)
    for i in range(n_blobs):
        if n_blobs == 1:
            cov = np.eye(3) * (support_radius / 4.0) ** 2
        else:
            A = rng.normal(size=(3, 3)) * support_radius * 0.06
            cov = A @ A.T + np.eye(3) * (support_radius * 0.036) ** 2
        d = np.stack([X - centers[i, 0], Y - centers[i, 1], Z - centers[i, 2]])
        prec = np.linalg.inv(cov)
        quad = np.einsum("iabc,ij,jabc->abc", d, prec, d)
        vol += rng.uniform(0.5, 1.5) * np.exp(-0.5 * quad)
    # smooth cosine taper forcing support strictly inside the radius
    r = np.sqrt(X**2 + Y**2 + Z**2)
    edge = support_radius - 0.5
    width = max(support_radius / 4.0, 1.0)
    taper = np.clip((edge - r) / width, 0.0, 1.0)
    window = 0.5 - 0.5 * np.cos(np.pi * taper)
    window[r >= edge] = 0.0
    return vol * window


def sample_rotations(n, seed):
    """Haar-uniform rotations via QR of Gaussian matrices; deterministic in seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    out = np.empty((n, 3, 3))
    for i in range(n):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))[None, :]
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        out[i] = q
    return out


def project(volume, rotation):
    """X-ray transform: I(x, y) = integral of phi(x R1 + y R2 + z R3) dz,
    discretized by unit z-steps and trilinear interpolation."""
    L = volume.shape[0]
    if volume.shape != (L, L, L):
        raise ValueError("volume must be cubic")
    c = (L - 1) / 2
    x = np.arange(L) - c
    R = np.asarray(rotation)[:, :, None, None, None]
    # coordinate d of sample (x, y, z) is x R[d, 0] + y R[d, 1] + z R[d, 2]
    coords = R[:, 0] * x[:, None, None] + R[:, 1] * x[None, :, None] + R[:, 2] * x + c
    vals = map_coordinates(volume, coords, order=1, mode="constant", cval=0.0)
    return vals.sum(axis=2)


# views per task of project_stack's fork pool
PROJECT_BLOCK = 64


def _project_block(volume, rotations):
    return np.stack([project(volume, R) for R in rotations])


def project_stack(volume, rotations):
    """Projections of volume at each rotation, (n, L, L), computed in blocks
    of PROJECT_BLOCK views by pool.fork_map; a stack of one block is
    projected in this process."""
    rotations = np.asarray(rotations)
    blocks = [rotations[i:i + PROJECT_BLOCK] for i in range(0, len(rotations), PROJECT_BLOCK)]
    return np.concatenate(list(fork_map(_project_block, blocks, shared=(volume,))))


def shift_image(image, shift):
    """Subpixel translation via Fourier phase ramp (periodic, exact)."""
    L = image.shape[-1]
    f1, f2 = freq_grid(L)
    phase = np.exp(-2j * np.pi * (f1 * shift[0] + f2 * shift[1]))
    return ift_grid(ft_grid(image) * phase).real


def add_noise(images, snr, seed, model="white"):
    """Additive Gaussian noise at dataset-wide SNR.

    Noise variance is var(clean stack)/snr, where the clean variance is taken
    over the whole (CTF-affected) dataset. The colored model filters white
    noise by the radial PSD 1 / (1 + (xi / 0.1)^2) then rescales.
    """
    if snr <= 0:
        raise ValueError("snr must be > 0")
    images = np.asarray(images, dtype=float)
    sigma2 = images.var() / snr
    rng = _rng(seed)
    noise = rng.normal(size=images.shape)
    if model == "colored":
        f1, f2 = freq_grid(images.shape[-1])
        filt = np.sqrt(1.0 / (1.0 + (np.hypot(f1, f2) / 0.1) ** 2))
        noise = ift_grid(ft_grid(noise) * filt).real
        noise *= np.sqrt(sigma2 / noise.var())
    elif model == "white":
        noise *= np.sqrt(sigma2)
    else:
        raise ValueError(f"unknown noise model {model!r}")
    return images + noise


def _corner_mask(L, support_radius):
    c = (L - 1) / 2
    x = np.arange(L) - c
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.hypot(X, Y) > support_radius


def estimate_noise_psd(images, support_radius):
    """Radial noise power spectrum from the signal-free corner region.

    Average masked periodogram over the stack, normalized by the retained
    pixel fraction, then radially binned.
    """
    images = np.asarray(images, dtype=float)
    L = images.shape[-1]
    mask = _corner_mask(L, support_radius)
    if not mask.any():
        raise ValueError("no corner pixels outside the support radius")
    frac = mask.mean()
    masked = images * mask
    masked -= masked.sum(axis=(-2, -1), keepdims=True) / mask.sum()
    masked *= mask
    periodogram = np.abs(ft_grid(masked)) ** 2 / (L * L * frac)
    mean_p = periodogram.mean(axis=0) if periodogram.ndim == 3 else periodogram
    f1, f2 = freq_grid(L)
    rad = np.hypot(f1, f2)
    nbin = L // 2 + 1
    bins = np.minimum((rad * 2 * (nbin - 1)).astype(int), nbin - 1)
    psd = np.bincount(bins.ravel(), weights=mean_p.ravel(), minlength=nbin)
    psd /= np.bincount(bins.ravel(), minlength=nbin)
    return psd, bins


def preprocess(images, support_radius, *, standardize=True, whiten=False,
               phase_flip=False, profiles=None, groups=None):
    """Standardization, optional whitening, optional phase flipping.

    Whitening divides each image's Fourier transform by the square root of
    the radial noise PSD estimated from the corner pixels. Phase flipping
    multiplies by sign(CTF) of the image's defocus group. Raises
    ValueError naming the first image with a non-finite pixel.
    """
    images = np.asarray(images, dtype=float).copy()
    finite = np.isfinite(images).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"image {int(np.flatnonzero(~finite)[0])} has non-finite pixels")
    L = images.shape[-1]
    if whiten:
        psd, bins = estimate_noise_psd(images, support_radius)
        weight = 1.0 / np.sqrt(np.maximum(psd[bins], 1e-12 * psd.max()))
        images = ift_grid(ft_grid(images) * weight).real
    if phase_flip:
        if profiles is None or groups is None:
            raise ValueError("phase flipping requires CTF profiles and group ids")
        grids = {g: np.sign(ctf_grid(profiles[g], L)) for g in np.unique(groups)}
        spectra = ft_grid(images)
        for i, g in enumerate(groups):
            spectra[i] *= grids[g]
        images = ift_grid(spectra).real
    if standardize:
        mask = _corner_mask(L, support_radius)
        if not mask.any():
            raise ValueError("no corner pixels outside the support radius")
        mu = images[..., mask].mean(axis=-1)
        sd = images[..., mask].std(axis=-1)
        sd = np.maximum(sd, 1e-12)
        images = (images - mu[..., None, None]) / sd[..., None, None]
    return images


@dataclass
class DatasetManifest:
    """Ground truth and generation parameters for one simulated stack."""

    rotations: np.ndarray           # (n, 3, 3)
    defocus_group: np.ndarray       # (n,) int
    snr: float
    seed: int
    L: int
    bandlimit: float
    support_radius: float
    noise_model: str = "white"
    n_defocus_groups: int = 20

    @property
    def n(self):
        return self.rotations.shape[0]

    @property
    def viewing_directions(self):
        return self.rotations[:, :, 2]


def simulate_dataset(n, L, seed, snr, *, support_radius=None, bandlimit=0.5,
                     n_blobs=30, n_defocus_groups=20, noise_model="white",
                     with_ctf=True, shift_px=0.0):
    """Full generation chain. Returns (clean, ctf_clean, noisy, profiles, manifest).

    clean: projections without CTF (the evaluation reference);
    ctf_clean: CTF-modulated but noise-free; noisy: with additive noise.
    Optional shift_px injects uniform per-image translations in [-shift_px, shift_px].
    """
    if support_radius is None:
        support_radius = (L - 1) / 2
    vol = make_phantom(L, seed, n_blobs=n_blobs, support_radius=support_radius)
    rotations = sample_rotations(n, seed + 1)
    clean = project_stack(vol, rotations)
    if shift_px:
        rng = _rng(seed + 4)
        shifts = rng.uniform(-shift_px, shift_px, size=(n, 2))
        clean = np.stack([shift_image(im, s) for im, s in zip(clean, shifts)])
    profiles = default_defocus_groups(n_defocus_groups)
    rng = _rng(seed + 2)
    groups = rng.integers(0, n_defocus_groups, size=n)
    if with_ctf:
        spectra = ft_grid(clean)
        gr = {g: ctf_grid(profiles[g], L) for g in range(n_defocus_groups)}
        for i in range(n):
            spectra[i] *= gr[groups[i]]
        ctf_clean = ift_grid(spectra).real
    else:
        ctf_clean = clean.copy()
    noisy = add_noise(ctf_clean, snr, seed + 3, model=noise_model) if np.isfinite(snr) else ctf_clean.copy()
    manifest = DatasetManifest(
        rotations=rotations, defocus_group=groups, snr=float(snr), seed=seed,
        L=L, bandlimit=bandlimit, support_radius=float(support_radius),
        noise_model=noise_model, n_defocus_groups=n_defocus_groups,
    )
    return clean, ctf_clean, noisy, profiles, manifest
