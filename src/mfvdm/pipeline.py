"""End-to-end orchestration: simulate, classify, denoise, evaluate.

Each stage is a pure function of (config, inputs) and has a file-based runner
writing checkpoint artifacts, so a pipeline can be resumed from any stage.
In-memory variants are exposed for library use.
"""

import json
import os

import numpy as np

from . import io as mfio
from .basis import build_basis, expand_disk_function, expand_stack, reconstruct_grid
from .denoise import FilterSpec, ctf_correct, denoise_stack
from .graph import coeff_noise_variance, initial_nn_search, read_graph_csv, write_graph_csv
from .metrics import fit_to_reference, mse, psnr, ssim_stack
from .simulate import ctf_value, preprocess, simulate_dataset
from .spectral import align_graph, compute_bundle, refine_neighbors

__all__ = [
    "prepare_coeffs",
    "classify",
    "absolute_ctf_coeffs",
    "denoise_and_correct",
    "evaluate_stack",
    "run_simulate",
    "run_classify",
    "run_denoise",
    "run_evaluate",
]


def _basis_for(config):
    return build_basis(config.L, config.bandlimit, config.support_radius)


def prepare_coeffs(images, manifest, profiles, basis, config):
    """Preprocess a noisy stack and expand it; returns (coeffs, noise_var).

    Standardization and Wiener shrinkage are skipped for noise-free input
    (infinite SNR): clean projections vanish outside the support, so the
    corner statistics that drive both are degenerate there.
    """
    noisy_input = np.isfinite(manifest.snr)
    pre = preprocess(
        images,
        config.support_radius,
        standardize=config.standardize and noisy_input,
        whiten=config.whiten and noisy_input,
        phase_flip=config.phase_flip and config.with_ctf,
        profiles=profiles,
        groups=manifest.defocus_group,
    )
    coeffs = expand_stack(pre, basis)
    noise_var = None
    if config.wiener and noisy_input:
        # standardization scales each image to unit corner (noise) variance
        noise_var = coeff_noise_variance(basis)
    return coeffs, noise_var


def classify(coeffs, basis, config, noise_var=None):
    """Initial RID graph, spectral refinement, and eigenvector alignment.

    Returns (initial_graph, bundle, refined_graph); the refined graph carries
    estimated alignment angles on every edge.
    """
    initial = initial_nn_search(
        coeffs, basis, config.s,
        fft_size=config.initial_fft_size,
        energy_fraction=config.energy_fraction,
        noise_var=noise_var,
    )
    bundle = compute_bundle(initial, config.k_tilde, config.m, t=config.t)
    refined = refine_neighbors(bundle, config.s)
    align_graph(bundle, refined, fft_size=config.fft_size)
    return initial, bundle, refined


def absolute_ctf_coeffs(manifest, profiles, basis, config):
    """Per-image expansion coefficients of the absolute CTF radial profile
    (after phase flipping the effective transfer function is |CTF|). Without
    CTF simulation the profile is identically one."""
    n = manifest.n
    if not config.with_ctf:
        one = expand_disk_function(lambda xi, theta: np.ones_like(xi), basis)
        return np.tile(one, (n, 1))
    per_group = {}
    for g in np.unique(manifest.defocus_group):
        prof = profiles[g]
        per_group[g] = expand_disk_function(
            lambda xi, theta: np.abs(ctf_value(prof, xi / prof.pixel_size_A)), basis
        )
    return np.stack([per_group[g] for g in manifest.defocus_group])


def denoise_and_correct(coeffs, ctf_coeffs, graph, basis, config):
    """Graph-filter the coefficients, then deconvolve each image by its
    filtered effective CTF. Returns (denoised images, effective CTF grids)."""
    filt = FilterSpec(kind=config.filter_kind, m=config.m)
    da, dc = denoise_stack(coeffs, ctf_coeffs, graph, basis, filt)
    C = reconstruct_grid(dc, basis).real.copy()
    eps = config.eps if config.eps > 0 else 1e-2 * np.max(C**2, axis=(-2, -1))
    return ctf_correct(reconstruct_grid(da, basis), C, eps), C


def evaluate_stack(denoised, reference):
    """Per-image metrics after an affine intensity fit, plus dataset means.

    The affine fit removes the arbitrary scale and offset introduced by
    standardization; without it MSE comparisons are meaningless.
    """
    fitted = np.stack([fit_to_reference(d, r) for d, r in zip(denoised, reference, strict=True)])
    rows = [{"index": i, "mse": mse(f, r), "psnr": psnr(f, r), "ssim": float(s)}
            for i, (f, r, s) in enumerate(zip(fitted, reference, ssim_stack(fitted, reference)))]
    summary = {
        "n": len(rows),
        "mean_mse": float(np.mean([r["mse"] for r in rows])),
        "mean_psnr": float(np.mean([r["psnr"] for r in rows])),
        "mean_ssim": float(np.mean([r["ssim"] for r in rows])),
    }
    return rows, summary


# ---------------------------------------------------------------------------
# file-based runners (one per subcommand)

def _p(outdir, name):
    return os.path.join(outdir, name)


def run_simulate(config, outdir):
    """Generate a dataset and write stacks, manifest, and the config echo."""
    os.makedirs(outdir, exist_ok=True)
    clean, ctf_clean, noisy, profiles, manifest = simulate_dataset(
        config.n, config.L, config.seed, config.snr,
        support_radius=config.support_radius,
        bandlimit=config.bandlimit,
        n_blobs=config.n_blobs,
        n_defocus_groups=config.n_defocus_groups,
        noise_model=config.noise_model,
        with_ctf=config.with_ctf,
        shift_px=config.shift_px,
    )
    mfio.write_stack(clean, _p(outdir, "clean.stack"))
    mfio.write_stack(ctf_clean, _p(outdir, "ctf_clean.stack"))
    mfio.write_stack(noisy, _p(outdir, "noisy.stack"))
    mfio.write_manifest(manifest, _p(outdir, "manifest.csv"), _p(outdir, "manifest.json"))
    mfio.save_config(config, _p(outdir, "config.json"))
    return outdir


def _load_dataset(config, outdir):
    from .simulate import default_defocus_groups

    mfio.check_run_config(config, _p(outdir, "config.json"))
    noisy = mfio.read_stack(_p(outdir, "noisy.stack")).astype(float)
    manifest = mfio.read_manifest(_p(outdir, "manifest.csv"), _p(outdir, "manifest.json"))
    profiles = default_defocus_groups(manifest.n_defocus_groups)
    return noisy, manifest, profiles


def run_classify(config, outdir):
    """Initial and refined neighbor graphs (with angles) from the noisy stack.
    Raises io.ConfigMismatchError if config disagrees with the run
    directory's config.json on a simulation field."""
    noisy, manifest, profiles = _load_dataset(config, outdir)
    basis = _basis_for(config)
    coeffs, noise_var = prepare_coeffs(noisy, manifest, profiles, basis, config)
    initial, _, refined = classify(coeffs, basis, config, noise_var=noise_var)
    write_graph_csv(initial, _p(outdir, "initial_graph.csv"))
    write_graph_csv(refined, _p(outdir, "refined_graph.csv"))
    return initial, refined


def run_denoise(config, outdir):
    """Denoised stack and effective CTF grids from the refined graph; checks
    config like run_classify."""
    noisy, manifest, profiles = _load_dataset(config, outdir)
    basis = _basis_for(config)
    coeffs, _ = prepare_coeffs(noisy, manifest, profiles, basis, config)
    graph = read_graph_csv(_p(outdir, "refined_graph.csv"))
    ctf_coeffs = absolute_ctf_coeffs(manifest, profiles, basis, config)
    denoised, eff = denoise_and_correct(coeffs, ctf_coeffs, graph, basis, config)
    mfio.write_stack(denoised, _p(outdir, "denoised.stack"))
    mfio.write_stack(eff, _p(outdir, "effective_ctf.stack"))
    return denoised


def run_evaluate(config, outdir):
    """Per-image metric report (CSV) and dataset summary (JSON)."""
    import csv as _csv

    denoised = mfio.read_stack(_p(outdir, "denoised.stack")).astype(float)
    clean = mfio.read_stack(_p(outdir, "clean.stack")).astype(float)
    rows, summary = evaluate_stack(denoised, clean)
    with mfio.atomic_open(_p(outdir, "eval_report.csv"), newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["index", "mse", "psnr", "ssim"])
        for r in rows:
            w.writerow([r["index"], repr(r["mse"]), repr(r["psnr"]), repr(r["ssim"])])
    with mfio.atomic_open(_p(outdir, "eval_summary.json")) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
