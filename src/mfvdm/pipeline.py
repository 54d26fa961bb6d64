"""End-to-end orchestration: simulate, classify, denoise, evaluate.

Each stage is a pure function of (config, inputs) and has a file-based runner
writing checkpoint artifacts, so a pipeline can be resumed from any stage.
In-memory variants are exposed for library use.
"""

import os

import numpy as np

from . import io as mfio
from .basis import Expansion, build_basis, expand_stack, reconstruct_grid, steerable_pca
from .denoise import FilterSpec, ctf_correct, denoise_stack
from .graph import initial_nn_search, read_graph_csv, write_graph_csv
from .metrics import fit_to_reference, mse, psnr, ssim_stack
from .pool import cache_blocks, image_bytes
from .simulate import check_finite, ctf_grid, default_defocus_groups, preprocess, simulate_dataset
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


def prepare_coeffs(images, manifest, profiles, basis, config):
    """Preprocess a noisy stack and expand it; returns (expansion, ranks).

    Phase flipping runs exactly when the data were CTF-modulated
    (config.with_ctf). Noisy input (finite SNR) is standardized to unit
    corner (noise) variance, and both values are basis.steerable_pca's.
    Noise-free input gets neither and gives (Expansion(coeffs, basis), None):
    clean projections vanish outside the support, so the corner statistics
    are degenerate there. The stack is transformed in blocks of images
    (pool.cache_blocks); the CTF grids of the defocus groups are evaluated
    once, for every block.
    """
    noisy_input = np.isfinite(config.snr)
    # preprocess checks each block too, but names images by their index in it
    check_finite(images)
    grids = None
    if config.with_ctf:
        grids = np.stack([ctf_grid(profile, basis.L) for profile in profiles])
    coeffs = np.empty((len(images), basis.n_coeffs), dtype=complex)
    for rows in cache_blocks(len(images), image_bytes(basis.L)):
        pre = preprocess(images[rows], config.support_radius, standardize=noisy_input,
                         ctf=None if grids is None else grids[manifest.defocus_group[rows]])
        coeffs[rows] = expand_stack(pre, basis)
    return steerable_pca(coeffs, basis) if noisy_input else (Expansion(coeffs, basis), None)


def classify(expansion, basis, config, noise_var=None):
    """Initial RID graph, spectral refinement, and eigenvector alignment.

    Returns (initial_graph, bundle, refined_graph) of an Expansion; the
    refined graph carries alignment angles on every edge. basis and
    noise_var are ignored, kept for perfbench/worker.py, which passes them.
    """
    initial = initial_nn_search(*expansion, config.s)
    bundle = compute_bundle(initial, config.k_tilde, config.m)
    refined = refine_neighbors(bundle, config.s)
    align_graph(bundle, refined)
    return initial, bundle, refined


def absolute_ctf_coeffs(manifest, profiles, basis, config):
    """Per-image (n, p_0) fit of the absolute CTF (after phase flipping the
    effective transfer function is |CTF|; one without CTF simulation) at the
    in-disk grid points, by the k = 0 block of basis, basis.restrict([None]):
    its other blocks would hold just the grid's 4-fold aliasing."""
    radial = basis.restrict([None])

    def fit(grid):
        # one profile a product: stacked profiles round differently
        return grid.ravel()[radial.grid_index] @ radial.coeff_solver.T

    if config.with_ctf:
        return np.stack([fit(np.abs(ctf_grid(prof, basis.L)))
                         for prof in profiles])[manifest.defocus_group]
    return np.tile(fit(np.ones((basis.L, basis.L))), (manifest.n, 1))


def denoise_and_correct(expansion, ctf_coeffs, graph, basis, config):
    """Graph-filter an Expansion's coefficients (denoise_stack) and the
    (n, p_0) |CTF| block of basis, then deconvolve each image by its
    effective CTF C with eps = 1e-2 max(C^2), a block of images at a time.
    Returns (denoised images, effective CTFs)."""
    denoised = np.empty((len(expansion.coeffs), basis.L, basis.L))
    effective = np.empty_like(denoised)
    for rows, images, ctfs in _corrected_blocks(expansion, ctf_coeffs, graph, basis, config):
        denoised[rows], effective[rows] = images, ctfs
    return denoised, effective


def _corrected_blocks(expansion, ctf_coeffs, graph, basis, config):
    """denoise_and_correct's output a block of images (pool.cache_blocks) at
    a time: yields (rows, denoised images, effective CTFs)."""
    filt = FilterSpec(kind=config.filter_kind, m=config.m)
    da, dc = denoise_stack(expansion.coeffs, ctf_coeffs, graph, expansion.basis, filt)
    radial = basis.restrict([None])
    for rows in cache_blocks(len(da), image_bytes(basis.L)):
        C = reconstruct_grid(dc[rows], radial).real
        yield rows, ctf_correct(reconstruct_grid(da[rows], expansion.basis), C,
                                1e-2 * np.max(C**2, axis=(-2, -1))), C


def evaluate_stack(denoised, reference):
    """Per-image metrics after an affine intensity fit, plus dataset means:
    ({name: n values}, {"n": n, "mean_<name>": mean}) for mse, psnr, ssim.

    The affine fit removes the arbitrary scale and offset introduced by
    standardization; without it MSE comparisons are meaningless. The stacks
    may be float32: each block of images (pool.cache_blocks) is converted to
    float64 on its own, so no float64 copy of a whole stack is made.
    """
    if denoised.shape != reference.shape:
        raise ValueError(f"shape mismatch {denoised.shape} vs {reference.shape}")
    n, L = len(reference), reference.shape[-1]
    scores = {name: np.empty(n) for name in ("mse", "psnr", "ssim")}
    for block in cache_blocks(n, image_bytes(L)):
        ref = reference[block].astype(float)
        fitted = fit_to_reference(denoised[block], ref)
        scores["mse"][block] = mse(fitted, ref)
        scores["psnr"][block] = psnr(fitted, ref)
        scores["ssim"][block] = ssim_stack(fitted, ref)
    return scores, {"n": n, **{f"mean_{name}": float(np.mean(v)) for name, v in scores.items()}}


# ---------------------------------------------------------------------------
# file-based runners (one per subcommand)

def _p(outdir, name):
    return os.path.join(outdir, name)


def run_simulate(config, outdir):
    """Generate a dataset and write the clean and noisy stacks, the
    manifest, and the config echo (the one record of the generation
    parameters, from which the later stages rebuild the basis)."""
    os.makedirs(outdir, exist_ok=True)
    clean, _, noisy, _, manifest = simulate_dataset(
        **{name: getattr(config, name) for name in mfio.SIMULATE_FIELDS})
    mfio.write_stack(clean, _p(outdir, "clean.stack"))
    mfio.write_stack(noisy, _p(outdir, "noisy.stack"))
    mfio.write_manifest(manifest, _p(outdir, "manifest.csv"))
    mfio.save_config(config, _p(outdir, "config.json"))
    return outdir


def _load_expansion(config, outdir):
    """The expansion of a run directory's noisy stack (prepare_coeffs), its
    manifest and CTF profiles, and the basis tables built from config,
    after checking config against its config.json. L, bandlimit and
    support_radius are SIMULATE_FIELDS, so the check makes them the
    dataset's; the basis is built before the stack is read, so its
    temporaries are freed by then, and the stack is released on return."""
    mfio.check_run_config(config, _p(outdir, "config.json"))
    basis = build_basis(config.L, config.bandlimit, config.support_radius)
    noisy = mfio.read_stack(_p(outdir, "noisy.stack"))
    manifest = mfio.read_manifest(_p(outdir, "manifest.csv"), config)
    profiles = default_defocus_groups(config.n_defocus_groups)
    expansion, _ = prepare_coeffs(noisy, manifest, profiles, basis, config)
    return expansion, manifest, profiles, basis


def run_classify(config, outdir):
    """Initial and refined neighbor graphs (with angles) from the noisy stack.
    Raises io.ConfigMismatchError if config disagrees with the run
    directory's config.json on a simulation field, and io.FormatError for
    a malformed noisy.stack or manifest.csv."""
    expansion, _, _, basis = _load_expansion(config, outdir)
    initial, bundle, refined = classify(expansion, basis, config)
    del expansion, bundle   # not read again: release them before the CSVs are formatted
    write_graph_csv(initial, _p(outdir, "initial_graph.csv"))
    write_graph_csv(refined, _p(outdir, "refined_graph.csv"))
    return initial, refined


def run_denoise(config, outdir):
    """Denoised stack and effective CTF grids from the refined graph, written
    a block of images at a time (io.stack_writer), so neither stack is held
    whole; checks the run directory like run_classify, and raises
    io.FormatError for a refined_graph.csv that is not a graph on config.n
    nodes."""
    expansion, manifest, profiles, basis = _load_expansion(config, outdir)
    graph = read_graph_csv(_p(outdir, "refined_graph.csv"), config.n)
    ctf_coeffs = absolute_ctf_coeffs(manifest, profiles, basis, config)
    blocks = _corrected_blocks(expansion, ctf_coeffs, graph, basis, config)
    with (mfio.stack_writer(_p(outdir, "denoised.stack"), config.n, config.L) as write_denoised,
          mfio.stack_writer(_p(outdir, "effective_ctf.stack"), config.n, config.L) as write_ctf):
        for _, images, ctfs in blocks:
            write_denoised(images)
            write_ctf(ctfs)


def run_evaluate(config, outdir):
    """Per-image metric report (CSV) and dataset summary (JSON)."""
    denoised = mfio.read_stack(_p(outdir, "denoised.stack"))
    scores, summary = evaluate_stack(denoised, mfio.read_stack(_p(outdir, "clean.stack")))
    mfio.write_csv(_p(outdir, "eval_report.csv"), ["index", *scores],
                   [np.arange(len(denoised)), *scores.values()])
    mfio.write_json(_p(outdir, "eval_summary.json"), summary)
    return summary
