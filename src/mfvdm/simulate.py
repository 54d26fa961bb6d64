"""Synthetic projection-image generator with ground truth.

Produces a phantom volume, tomographic projections at Haar-random 3D
orientations, CTF modulation by defocus group, additive noise at a prescribed
SNR, and the preprocessing (standardization and phase flipping).
Everything is deterministic in the seed (Philox counter-based RNG).
"""

from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .basis import corner_mask, freq_grid, ft_grid, ift_grid
from .pool import cache_blocks, fork_map, image_bytes

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
    "check_finite",
    "preprocess",
    "default_defocus_groups",
    "simulate_dataset",
]


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class CTFProfile:
    """Weak-phase contrast transfer function parameters. Raises ValueError
    naming a field that is not finite or out of range."""

    defocus_um: float
    wavelength_A: float = 0.025
    cs_mm: float = 2.0
    pixel_size_A: float = 2.82
    amplitude_contrast: float = 0.07

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
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
    centers = rng.uniform(-0.6 * support_radius, 0.6 * support_radius, size=(n_blobs, 3))
    centers -= centers.mean(axis=0)
    for i in range(n_blobs):
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
    q, r = np.linalg.qr(_rng(seed).normal(size=(n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    q[np.linalg.det(q) < 0, :, 2] *= -1
    return q


class _Support:
    """The samples of a volume's projection cube whose trilinear stencil can
    reach a nonzero voxel, with what project needs to interpolate them.

    A stencil's corners lie within sqrt(3) of its sample, and a rotation
    keeps |p|, so the samples p with |p| <= r + sqrt(3), r the largest
    distance from the grid centre of a nonzero (or NaN) voxel, serve every
    view; the relative slack of 1e-6 covers rotations orthogonal to 1e-9
    and the rounding of the coordinates. An all-zero volume has none.
    The scratch arrays are overwritten by each call of project: fresh
    temporaries of this size cost about 700 page faults a view at L = 33.
    """

    def __init__(self, volume):
        L = volume.shape[0]
        if volume.shape != (L, L, L):
            raise ValueError("volume must be cubic")
        x = np.arange(L) - (L - 1) / 2
        r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x ** 2).ravel()
        nonzero = (volume != 0).ravel()
        reach = (r[nonzero].max() + np.sqrt(3.0)) * (1 + 1e-6) if nonzero.any() else -1.0
        # flat cube indices, in raster order
        self.samples = np.flatnonzero(r <= reach)
        i, j, k = np.unravel_index(self.samples, volume.shape)
        self.positions = np.stack([x[i], x[j], x[k]])
        # the volume zero-padded to (L + 1)^3; corner (a, b, d) of the
        # stencil based at flat index f is corners[4a + 2b + d][f]
        M = L + 1
        padded = np.zeros((M, M, M))
        padded[:L, :L, :L] = volume
        flat = padded.ravel()
        self.corners = [flat[a * M * M + b * M + d:] for a, b, d in product((0, 1), repeat=3)]
        self.strides = np.array([M * M, M, 1.0])
        n = self.samples.size
        self.coords, self.w0, self.w1 = np.empty((3, 3, n))
        self.base, self.term, self.acc = np.empty(n, np.intp), np.empty(n), np.empty(n)
        self.cube = np.zeros(L ** 3)


def project(volume, rotation, support=None):
    """X-ray transform: I(x, y) = integral of phi(x R1 + y R2 + z R3) dz,
    discretized by unit z-steps and trilinear interpolation, zero wherever a
    coordinate leaves [0, L - 1]: for a float64 volume,
    scipy.ndimage.map_coordinates(order=1, mode="constant") summed over z,
    bit for bit.

    Only the samples of support (a _Support of volume, made here when not
    given) are interpolated; every other sample is exactly 0. Raises
    ValueError unless rotation is a finite 3 x 3 matrix with
    max|R^T R - I| <= 1e-9.
    """
    R = np.asarray(rotation, dtype=float)
    if R.shape != (3, 3) or not np.isfinite(R).all() or np.abs(R.T @ R - np.eye(3)).max() > 1e-9:
        raise ValueError("rotation must be a finite orthogonal 3 x 3 matrix")
    s = _Support(volume) if support is None else support
    L = volume.shape[0]
    p, coords, w0, w1, term, acc = s.positions, s.coords, s.w0, s.w1, s.term, s.acc
    # coordinate d of sample p is p0 R[d, 0] + p1 R[d, 1] + p2 R[d, 2] + c
    np.multiply(R[:, 0, None], p[0], out=coords)
    coords += np.multiply(R[:, 1, None], p[1], out=w0)
    coords += np.multiply(R[:, 2, None], p[2], out=w0)
    coords += (L - 1) / 2
    np.floor(coords, out=w1)
    np.copyto(s.base, np.dot(s.strides, w1, out=acc), casting="unsafe")
    np.subtract(coords, w1, out=w1)
    np.subtract(1.0, w1, out=w0)
    # summed from 0.0 over the corners in map_coordinates' order, each term
    # multiplied left to right
    acc[:] = 0.0
    for corner, (a, b, d) in zip(s.corners, product((w0, w1), repeat=3)):
        # samples outside the grid may index past it; they are zeroed below
        np.take(corner, s.base, out=term, mode="clip")
        term *= a[0]
        term *= b[1]
        term *= d[2]
        acc += term
    acc[(coords < 0).any(axis=0) | (coords > L - 1).any(axis=0)] = 0.0
    # summed over the whole z axis, zeros included, as map_coordinates' cube
    s.cube[s.samples] = acc
    return s.cube.reshape(L, L, L).sum(axis=2)


# views per task of project_stack's fork pool
PROJECT_BLOCK = 64


def _project_block(volume, support, rotations):
    return np.stack([project(volume, R, support) for R in rotations])


def project_stack(volume, rotations):
    """Projections of volume at each rotation, (n, L, L), computed in blocks
    of PROJECT_BLOCK views by pool.fork_map and written into the stack as
    they arrive; a stack of one block is projected in this process. The
    volume's _Support is made once and reaches the workers by fork."""
    rotations = np.asarray(rotations)
    starts = range(0, len(rotations), PROJECT_BLOCK)
    blocks = [rotations[i:i + PROJECT_BLOCK] for i in starts]
    stack = np.empty((len(rotations),) + volume.shape[:2])
    shared = (volume, _Support(volume))
    for start, views in zip(starts, fork_map(_project_block, blocks, shared=shared)):
        stack[start:start + len(views)] = views
    return stack


def shift_image(image, shift):
    """Subpixel translation via Fourier phase ramp (periodic, exact). Shifts
    a stack (..., L, L) too, by one shift (..., 2) per image."""
    L = image.shape[-1]
    f1, f2 = freq_grid(L)
    shift = np.asarray(shift, dtype=float)[..., None, None]
    phase = np.exp(-2j * np.pi * (f1 * shift[..., 0, :, :] + f2 * shift[..., 1, :, :]))
    return ift_grid(ft_grid(image) * phase).real


def add_noise(images, snr, seed, model="white"):
    """Additive Gaussian noise at dataset-wide SNR.

    Noise variance is var(clean stack)/snr, where the clean variance is taken
    over the whole (CTF-affected) dataset. The colored model filters white
    noise by the radial PSD 1 / (1 + (xi / 0.1)^2) then rescales. The noise
    is drawn over the whole stack at once, filtered a block of images at a
    time and scaled and added in place: the result is the noise array.
    """
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if model not in ("white", "colored"):
        raise ValueError(f"unknown noise model {model!r}")
    images = np.asarray(images, dtype=float)
    sigma2 = images.var() / snr
    noise = _rng(seed).normal(size=images.shape)
    if model == "colored":
        L = images.shape[-1]
        f1, f2 = freq_grid(L)
        filt = np.sqrt(1.0 / (1.0 + (np.hypot(f1, f2) / 0.1) ** 2))
        stack = noise.reshape(-1, L, L)
        for rows in cache_blocks(len(stack), image_bytes(L)):
            stack[rows] = ift_grid(ft_grid(stack[rows]) * filt).real
        noise *= np.sqrt(sigma2 / noise.var())
    else:
        noise *= np.sqrt(sigma2)
    noise += images
    return noise


def check_finite(images):
    """Raise ValueError naming the first image with a non-finite pixel."""
    finite = np.isfinite(images).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"image {int(np.flatnonzero(~finite)[0])} has non-finite pixels")


def preprocess(images, support_radius, *, standardize=True, ctf=None):
    """Optional phase flipping, then optional standardization.

    Phase flipping, when ctf is given, multiplies each image's spectrum by
    sign(ctf): ctf holds each image's CTF grid (ctf_grid of its defocus
    group), or one grid for all. Standardization scales each image to zero
    mean and unit variance over its corners, outside support_radius.
    Raises ValueError naming the first image with a non-finite pixel.
    """
    images = np.asarray(images, dtype=float).copy()
    check_finite(images)
    L = images.shape[-1]
    if ctf is not None:
        spectra = ft_grid(images)
        spectra *= np.sign(ctf)
        images = ift_grid(spectra).real
    if standardize:
        mask = corner_mask(L, support_radius)
        if not mask.any():
            raise ValueError("no corner pixels outside the support radius")
        mu = images[..., mask].mean(axis=-1)
        sd = images[..., mask].std(axis=-1)
        sd = np.maximum(sd, 1e-12)
        images = (images - mu[..., None, None]) / sd[..., None, None]
    return images


@dataclass
class DatasetManifest:
    """Per-image ground truth of one simulated stack. The parameters it was
    generated with are the run's RunConfig (config.json in a run directory)."""

    rotations: np.ndarray           # (n, 3, 3)
    defocus_group: np.ndarray       # (n,) int

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
    The shift and CTF passes transform a block of images at a time
    (pool.cache_blocks) into the preallocated stacks; each image's transform
    is independent of the others, so the blocks do not change the result.
    Raises ValueError naming snr or shift_px when it is NaN or out of range.
    """
    if not snr > 0:
        raise ValueError(f"snr must be > 0 (or inf for noise-free), got {snr}")
    if not 0.0 <= shift_px < np.inf:
        raise ValueError(f"shift_px must be finite and >= 0, got {shift_px}")
    if support_radius is None:
        support_radius = (L - 1) / 2
    vol = make_phantom(L, seed, n_blobs=n_blobs, support_radius=support_radius)
    rotations = sample_rotations(n, seed + 1)
    clean = project_stack(vol, rotations)
    blocks = cache_blocks(n, image_bytes(L))
    if shift_px:
        rng = _rng(seed + 4)
        shifts = rng.uniform(-shift_px, shift_px, size=(n, 2))
        for rows in blocks:
            clean[rows] = shift_image(clean[rows], shifts[rows])
    profiles = default_defocus_groups(n_defocus_groups)
    rng = _rng(seed + 2)
    groups = rng.integers(0, n_defocus_groups, size=n)
    if with_ctf:
        grids = np.stack([ctf_grid(profile, L) for profile in profiles])
        ctf_clean = np.empty_like(clean)
        for rows in blocks:
            spectra = ft_grid(clean[rows])
            spectra *= grids[groups[rows]]
            ctf_clean[rows] = ift_grid(spectra).real
    else:
        ctf_clean = clean.copy()
    noisy = add_noise(ctf_clean, snr, seed + 3, model=noise_model) if np.isfinite(snr) else ctf_clean.copy()
    return clean, ctf_clean, noisy, profiles, DatasetManifest(rotations, groups)
