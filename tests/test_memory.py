"""Bounded memory: classification's temporaries stay within a few row or
edge blocks instead of growing with n^2."""

import tracemalloc

from mfvdm import RunConfig, expand_stack, simulate_dataset
from mfvdm.pipeline import classify
from mfvdm.pool import set_threads

# Peak traced allocation of classify on the 200-image stack below: 19 MB
# with 16 MB blocks, 151 MB when the RID search held a 64 x n x 256 complex
# spectrum and the alignment transformed every edge at once. The bound
# leaves a margin of about 2x over the measured 19 MB.
PEAK_BOUND_MB = 40


def test_classify_peak_allocation_bounded(basis17):
    n = 200
    # one worker: the search and the solves run in this process, where
    # tracemalloc sees them, not in untraced pool workers
    set_threads(1)
    config = RunConfig(n=n, L=17, support_radius=8.0, s=10, m=20,
                       n_defocus_groups=4, n_blobs=10)
    _, _, noisy, _, _ = simulate_dataset(n, 17, seed=5, snr=0.3, support_radius=8.0,
                                         n_defocus_groups=4, n_blobs=10)
    coeffs = expand_stack(noisy, basis17)
    tracemalloc.start()
    try:
        classify(coeffs, basis17, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < PEAK_BOUND_MB
