"""Spectral-graph denoising with CTF correction.

Filters the steerable-PCA scores of prepare_coeffs through the refined
neighbor graph (smooth-then-sharpen filter, truncated spectrum), deconvolves
each image by its filtered effective CTF, and compares image quality
against the clean reference before and after.

Run: python demos/03_denoising.py   (about 3 s on a 2-vCPU Xeon at 2.1 GHz)
"""

from mfvdm import RunConfig, build_basis, simulate_dataset
from mfvdm.pipeline import (absolute_ctf_coeffs, classify, denoise_and_correct, evaluate_stack,
                            prepare_coeffs)

config = RunConfig(n=600, snr=0.05, s=30, filter_kind=2)
clean, _, noisy, profiles, manifest = simulate_dataset(
    config.n, config.L, config.seed, config.snr,
    support_radius=config.support_radius,
)
basis = build_basis(config.L, config.bandlimit, config.support_radius)
expansion, _ = prepare_coeffs(noisy, manifest, profiles, basis, config)
_, _, refined = classify(expansion, basis, config)

ctf_coeffs = absolute_ctf_coeffs(manifest, profiles, basis, config)
denoised, _ = denoise_and_correct(expansion, ctf_coeffs, refined, basis, config)


# dataset means after each image's affine intensity fit to its reference
_, before = evaluate_stack(noisy, clean)
_, after = evaluate_stack(denoised, clean)
print(f"SNR {config.snr}: SSIM {before['mean_ssim']:.3f} -> {after['mean_ssim']:.3f}, "
      f"MSE {before['mean_mse']:.3f} -> {after['mean_mse']:.3f}")
