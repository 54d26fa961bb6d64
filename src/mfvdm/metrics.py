"""Image-quality metrics and neighbor/alignment evaluation histograms."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import true_alignment, viewing_angle

__all__ = [
    "mse",
    "psnr",
    "ssim",
    "ssim_stack",
    "fit_to_reference",
    "neighbor_histograms",
    "wrap_degrees",
]


def mse(x, ref):
    """Mean squared error over the last two axes: one value for an image,
    one per image for a stack."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    return np.mean((x - ref) ** 2, axis=(-2, -1))


def psnr(x, ref):
    """10*log10(peak^2 / MSE) over the last two axes, with peak the dynamic
    range of the reference image; +inf where x equals the reference."""
    ref = np.asarray(ref, dtype=float)
    peak = ref.max(axis=(-2, -1)) - ref.min(axis=(-2, -1))
    if (peak == 0).any():
        raise ValueError("reference image is constant")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(peak**2 / mse(x, ref))


def _window_mean(images, size=11, sigma=1.5):
    """'valid' correlation of an (n, h, w) stack with the normalized
    size x size Gaussian window, which is separable: one 1-D pass along each
    image axis."""
    r = size // 2
    x = np.arange(-r, r + 1)
    g = np.exp(-(x**2) / (2 * sigma**2))
    g /= g.sum()
    for axis in (1, 2):
        images = sliding_window_view(images, size, axis=axis) @ g
    return images


def ssim(x, ref):
    """Windowed structural similarity, Gaussian 11x11 sigma=1.5 window,
    K1=0.01, K2=0.03, dynamic range the reference's."""
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return float(ssim_stack(x[None], ref[None])[0])


def ssim_stack(x, ref):
    """ssim of each image of an (n, h, w) stack against the matching
    reference image, with each reference image's dynamic range. Its
    temporaries grow with n; evaluate_stack calls it a block at a time."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    if min(x.shape[1:]) < 11:
        raise ValueError("images must be at least 11x11")
    data_range = ref.max(axis=(1, 2)) - ref.min(axis=(1, 2))
    c1 = ((0.01 * data_range) ** 2)[:, None, None]
    c2 = ((0.03 * data_range) ** 2)[:, None, None]
    win = _window_mean
    mu_x = win(x)
    mu_r = win(ref)
    var_x = win(x * x) - mu_x**2
    var_r = win(ref * ref) - mu_r**2
    cov = win(x * ref) - mu_x * mu_r
    num = (2 * mu_x * mu_r + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_r**2 + c1) * (var_x + var_r + c2)
    return np.mean(num / den, axis=(1, 2))


def fit_to_reference(x, ref):
    """Least-squares affine fit a*x + b to the reference over the last two
    axes (one fit per image of a stack); removes arbitrary scale/offset
    (e.g. from standardization) before metric comparison."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    axes = (-2, -1)
    x_mean = x.mean(axis=axes, keepdims=True)
    ref_mean = ref.mean(axis=axes, keepdims=True)
    xc = x - x_mean
    denom = np.sum(xc * xc, axis=axes, keepdims=True)
    num = np.sum(xc * (ref - ref_mean), axis=axes, keepdims=True)
    a = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return a * x + (ref_mean - a * x_mean)


def wrap_degrees(err_deg):
    """Wrap angular errors to (-180, 180]."""
    wrapped = np.asarray(err_deg, dtype=float) % 360.0
    wrapped = np.where(wrapped > 180.0, wrapped - 360.0, wrapped)
    return np.where(wrapped == -180.0, 180.0, wrapped)


def neighbor_histograms(graph, manifest):
    """Histograms of viewing angles and alignment errors over graph edges.

    Returns a dict with theta histogram (degrees, [0, 180]), alignment-error
    histogram (degrees, (-180, 180]), 36 bins each, and the raw per-edge
    arrays.
    """
    bins = 36
    if manifest.rotations is None:
        raise ValueError("manifest carries no ground-truth rotations")
    src, dst = graph.rows, graph.indices
    v = manifest.viewing_directions
    thetas = np.degrees(viewing_angle(v[src], v[dst]))
    errors = np.empty(0)
    if graph.angles is not None:
        truth = true_alignment(manifest.rotations[src], manifest.rotations[dst])
        errors = wrap_degrees(np.degrees(graph.angles - truth))
    th_hist, th_edges = np.histogram(thetas, bins=bins, range=(0.0, 180.0))
    if errors.size:
        al_hist, al_edges = np.histogram(errors, bins=bins, range=(-180.0, 180.0))
    else:
        al_hist, al_edges = np.zeros(bins, dtype=int), np.linspace(-180, 180, bins + 1)
    return {
        "theta_deg": thetas,
        "theta_hist": th_hist,
        "theta_bin_edges": th_edges,
        "align_err_deg": errors,
        "align_err_hist": al_hist,
        "align_err_bin_edges": al_edges,
    }
