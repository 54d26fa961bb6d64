"""Multi-frequency vector diffusion maps for 2D projection image stacks.

Classification, rotational alignment, and spectral-graph denoising of noisy
tomographic projection images, plus a synthetic simulator with ground truth.
"""

from .basis import (
    BasisTables,
    Expansion,
    build_basis,
    expand_disk_function,
    expand_stack,
    ft_grid,
    ift_grid,
    reconstruct,
    reconstruct_grid,
    rotate_coeffs,
    steerable_pca,
)
from .denoise import FilterSpec, apply_spectral_filter, ctf_correct, denoise_stack
from .graph import (
    ViewGraph,
    initial_nn_search,
    read_graph_csv,
    symmetrize,
    true_alignment,
    viewing_angle,
    write_graph_csv,
)
from .io import RunConfig, load_config, read_manifest, read_stack, save_config, write_manifest, write_stack
from .metrics import fit_to_reference, mse, neighbor_histograms, psnr, ssim, ssim_stack, wrap_degrees
from .pipeline import (
    absolute_ctf_coeffs,
    classify,
    denoise_and_correct,
    evaluate_stack,
    prepare_coeffs,
)
from .simulate import (
    CTFProfile,
    DatasetManifest,
    add_noise,
    ctf_grid,
    ctf_value,
    default_defocus_groups,
    make_phantom,
    preprocess,
    project,
    project_stack,
    sample_rotations,
    shift_image,
    simulate_dataset,
)
from .spectral import (
    SpectralBundle,
    align_graph,
    build_frequency_matrix,
    compute_bundle,
    refine_neighbors,
    top_eigs,
)

__version__ = "0.1.0"
