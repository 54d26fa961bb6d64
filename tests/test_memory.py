"""Bounded memory: classification's temporaries stay within a few row or
edge blocks instead of growing with n^2, and the transforms of the stack
(simulation, preprocess and expand, reconstruct and CTF correction,
evaluation) within a few image blocks instead of growing with n, with
outputs that do not depend on the block size."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import mfvdm.pool
from mfvdm import Expansion, RunConfig, build_basis, expand_stack, simulate_dataset
from mfvdm.graph import initial_nn_search, symmetrize, write_graph_csv
from mfvdm.io import read_stack, write_stack
from mfvdm.pipeline import (
    absolute_ctf_coeffs,
    classify,
    denoise_and_correct,
    evaluate_stack,
    prepare_coeffs,
)
from mfvdm.pool import image_bytes, row_blocks, set_threads
from mfvdm.simulate import DatasetManifest, default_defocus_groups

# Peak traced allocation of classify on the 200-image stack below: 19 MB
# with 16 MB blocks, 151 MB when the RID search held a 64 x n x 256 complex
# spectrum and the alignment transformed every edge at once. The bound
# leaves a margin of about 2x over the measured 19 MB.
PEAK_BOUND_MB = 40


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_classify_peak_allocation_bounded(basis17):
    n = 200
    # one worker: the search and the solves run in this process, where
    # tracemalloc sees them, not in untraced pool workers
    set_threads(1)
    config = RunConfig(n=n, L=17, support_radius=8.0, s=10, m=20,
                       n_defocus_groups=4, n_blobs=10)
    _, _, noisy, _, _ = simulate_dataset(n, 17, seed=5, snr=0.3, support_radius=8.0,
                                         n_defocus_groups=4, n_blobs=10)
    expansion = Expansion(expand_stack(noisy, basis17), basis17)
    assert _traced_peak_mb(classify, expansion, basis17, config) < PEAK_BOUND_MB


# 800 images of 33 x 33 pixels, 6.6 MB as float64. Measured peaks with the
# 16 MB BLOCK_BYTES: prepare_coeffs 17 MB, denoise_and_correct 42 MB (of
# which 14 MB are its two output stacks) with the 800 x 20 steerable-PCA
# scores and the (n, p_0) |CTF| block; the block-wise reconstruction sets
# it. Filtering the 800 x 312 shrunk coefficients in place also measured
# 42 MB on the same machine (39 MB where it was first measured). It was
# 43 MB when the filter wrote into a zeroed copy of those coefficients, and
# 3 MB more again when the CTF operand and its filtered copy were (n,
# n_coeffs) matrices. Transforming the whole stack at once they were 67 MB
# and 81 MB.
STACK_N = 800
PREPARE_BOUND_MB = 30
DENOISE_BOUND_MB = 55


def test_stack_transforms_peak_allocation_bounded(basis33):
    set_threads(1)
    rng = np.random.Generator(np.random.Philox(3))
    images = rng.normal(size=(STACK_N, 33, 33)).astype(np.float32)
    manifest = DatasetManifest(rotations=np.tile(np.eye(3), (STACK_N, 1, 1)),
                               defocus_group=rng.integers(0, 4, size=STACK_N))
    # the filtered kind averages over neighbors without eigensolves; a ring
    # of five neighbors a side keeps every node connected
    config = RunConfig(n=STACK_N, snr=0.1, n_defocus_groups=4, filter_kind=4)
    profiles = default_defocus_groups(4)
    assert _traced_peak_mb(prepare_coeffs, images, manifest, profiles, basis33,
                           config) < PREPARE_BOUND_MB
    expansion, _ = prepare_coeffs(images, manifest, profiles, basis33, config)
    src = np.repeat(np.arange(STACK_N), 5)
    dst = (src + np.tile(np.arange(1, 6), STACK_N)) % STACK_N
    graph = symmetrize(STACK_N, src, dst, angles=np.zeros(src.size))
    ctf_coeffs = absolute_ctf_coeffs(manifest, profiles, basis33, config)
    assert _traced_peak_mb(denoise_and_correct, expansion, ctf_coeffs, graph, basis33,
                           config) < DENOISE_BOUND_MB


# Measured peaks of build_basis(33, 0.5, 16.0), the basis of the default
# config: 16.8 MB assembling each quarter-turn block of the Gram matrix from
# psi_grid's columns, 29.0 MB when the whole 861 x 608 +-k grid basis was
# formed first and then split into the blocks.
BASIS_BOUND_MB = 20


def test_build_basis_peak_allocation_bounded():
    assert _traced_peak_mb(build_basis, 33, 0.5, 16.0) < BASIS_BOUND_MB


# Measured peaks of simulate_dataset on STACK_N images with white noise:
# 24.5 MB in image blocks (the clean, CTF-modulated and noise stacks, and
# the temporaries of one block), 60.3 MB when the CTF and noise passes
# transformed and copied whole stacks.
SIMULATE_BOUND_MB = 40


def test_simulate_peak_allocation_bounded():
    # one worker: the projections run in this process, where tracemalloc
    # sees them; scipy.ndimage is imported before tracing starts
    set_threads(1)
    simulate_dataset(2, 33, seed=0, snr=0.1)
    assert _traced_peak_mb(simulate_dataset, STACK_N, 33, 0, 0.1) < SIMULATE_BOUND_MB


# 2000 float32 images of 33 x 33 pixels, 8.3 MB a stack. Measured peaks of
# evaluate_stack: 10 MB in blocks of images, 38 MB when it fitted the whole
# stack and converted the reference to float64 before SSIM.
EVAL_N = 2000
EVAL_BOUND_MB = 20


def test_evaluate_peak_allocation_bounded():
    rng = np.random.Generator(np.random.Philox(6))
    ref = rng.normal(size=(EVAL_N, 33, 33)).astype(np.float32)
    denoised = (ref + rng.normal(size=ref.shape)).astype(np.float32)
    assert _traced_peak_mb(evaluate_stack, denoised, ref) < EVAL_BOUND_MB


@pytest.mark.parametrize("with_ctf", [True, False])
def test_stack_transforms_do_not_depend_on_blocks(with_ctf, tiny_dataset, basis17,
                                                  monkeypatch):
    """One block and five give bitwise-equal coefficients, denoised images,
    effective CTFs and image scores. 57 images in blocks of 14 would leave a
    one-image tail, whose BLAS product rounds differently."""
    ds, n, rows = tiny_dataset, 57, 14
    manifest = dataclasses.replace(ds["manifest"], rotations=ds["manifest"].rotations[:n],
                                   defocus_group=ds["manifest"].defocus_group[:n])
    config = RunConfig(n=n, L=17, support_radius=8.0, s=8, m=20, n_defocus_groups=4,
                       with_ctf=with_ctf)
    outputs = []
    for block_bytes in (2**40, rows * image_bytes(17)):
        monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", block_bytes)
        expansion, _ = prepare_coeffs(ds["noisy"][:n], manifest, ds["profiles"], basis17, config)
        graph = initial_nn_search(*expansion, config.s)
        ctf = absolute_ctf_coeffs(manifest, ds["profiles"], basis17, config)
        denoised, effective = denoise_and_correct(expansion, ctf, graph, basis17, config)
        scores, _ = evaluate_stack(denoised, ds["clean"][:n])
        outputs.append((expansion.coeffs, denoised, effective, list(scores.values())))
    assert n % rows == 1
    blocks = row_blocks(n, rows * image_bytes(17))
    assert len(blocks) >= 4 and min(b.stop - b.start for b in blocks) > 1
    for one, many in zip(*outputs):
        np.testing.assert_array_equal(many, one)


def test_write_stack_peak_allocation_bounded(tmp_path):
    """Writing a float64 stack converts it a slice at a time: the traced
    peak stays within 1.1x the stack's float32 size (8.3 MB here; a whole
    float32 copy and its bytes copy peaked at 2x, 16.6 MB), and the file
    holds the whole stack's float32 bytes."""
    stack = np.random.Generator(np.random.Philox(4)).normal(size=(2000, 33, 33))
    path = tmp_path / "s.stack"
    assert _traced_peak_mb(write_stack, stack, path) <= 1.1 * stack.size * 4 / 2**20
    with open(path, "rb") as fh:
        fh.seek(24)
        assert fh.read() == stack.astype("<f4").tobytes()


def test_read_stack_peak_allocation_bounded(tmp_path, monkeypatch):
    """Reading a stack fills one float32 buffer: the traced peak stays
    within 1.1x the stack (8.3 MB here; reading the file's bytes and
    copying them out peaked at 2x). With blocks of 300 images, writing the
    float64 stack holds one block's float32 copy, under a quarter of the
    stack, and the stack reads back bit for bit."""
    stack = np.random.Generator(np.random.Philox(5)).normal(size=(2000, 33, 33))
    path, mb = tmp_path / "s.stack", stack.size * 4 / 2**20
    monkeypatch.setattr(mfvdm.pool, "BLOCK_BYTES", 300 * 4 * 33 * 33)
    assert len(row_blocks(2000, 4 * 33 * 33)) > 1
    assert _traced_peak_mb(write_stack, stack, path) < 0.25 * mb
    assert _traced_peak_mb(read_stack, path) <= 1.1 * mb
    np.testing.assert_array_equal(read_stack(path), stack.astype(np.float32))


# A graph of 200 000 directed edges, a 9.6 MB CSV. Measured peaks of
# write_graph_csv: 12.7 MB formatting a row block at a time, 49 MB when the
# whole file's text was built before it was written.
GRAPH_BOUND_MB = 24


def test_write_graph_csv_peak_allocation_bounded(tmp_path):
    n, half = 20000, 5
    rng = np.random.Generator(np.random.Philox(7))
    src = np.repeat(np.arange(n), half)
    dst = (src + np.tile(np.arange(1, half + 1), n)) % n
    graph = symmetrize(n, src, dst, rng.uniform(-np.pi, np.pi, src.size), rng.random(src.size))
    assert graph.indices.size >= 2 * 10**5
    assert _traced_peak_mb(write_graph_csv, graph, tmp_path / "g.csv") < GRAPH_BOUND_MB
