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
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    return float(np.mean((x - ref) ** 2))


def psnr(x, ref):
    """10*log10(peak^2 / MSE) with peak the dynamic range of the reference.
    Returns +inf for identical inputs."""
    ref = np.asarray(ref, dtype=float)
    peak = ref.max() - ref.min()
    if peak == 0:
        raise ValueError("reference image is constant")
    err = mse(x, ref)
    if err == 0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / err))


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


# images per batch in ssim_stack: the transient stays a few MB at L=33
SSIM_BLOCK = 128


def ssim_stack(x, ref):
    """ssim of each image of an (n, h, w) stack against the matching
    reference image, SSIM_BLOCK images per batch; the dynamic range is each
    reference image's."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    if min(x.shape[1:]) < 11:
        raise ValueError("images must be at least 11x11")
    data_range = ref.max(axis=(1, 2)) - ref.min(axis=(1, 2))
    win = _window_mean
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], SSIM_BLOCK):
        sl = slice(start, start + SSIM_BLOCK)
        xb, rb = x[sl], ref[sl]
        c1 = ((0.01 * data_range[sl]) ** 2)[:, None, None]
        c2 = ((0.03 * data_range[sl]) ** 2)[:, None, None]
        mu_x = win(xb)
        mu_r = win(rb)
        var_x = win(xb * xb) - mu_x**2
        var_r = win(rb * rb) - mu_r**2
        cov = win(xb * rb) - mu_x * mu_r
        num = (2 * mu_x * mu_r + c1) * (2 * cov + c2)
        den = (mu_x**2 + mu_r**2 + c1) * (var_x + var_r + c2)
        out[sl] = np.mean(num / den, axis=(1, 2))
    return out


def fit_to_reference(x, ref):
    """Least-squares affine fit a*x + b to the reference; removes arbitrary
    scale/offset (e.g. from standardization) before metric comparison."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    xc = x - x.mean()
    denom = np.sum(xc * xc)
    a = np.sum(xc * (ref - ref.mean())) / denom if denom > 0 else 0.0
    b = ref.mean() - a * x.mean()
    return a * x + b


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
