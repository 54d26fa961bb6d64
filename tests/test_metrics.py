"""Image metrics and neighbor evaluation helpers."""

import os
import subprocess
import sys

import numpy as np
import pytest

from mfvdm.graph import viewing_angle
from mfvdm.metrics import (
    fit_to_reference,
    mse,
    neighbor_histograms,
    psnr,
    ssim,
    ssim_stack,
    wrap_degrees,
)
import reference
from reference import ssim as ssim_single
from reference import true_alignment


def test_mse_basic():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 2.0)
    assert mse(a, a) == 0.0
    assert mse(a, b) == 4.0
    with pytest.raises(ValueError):
        mse(np.zeros((3, 3)), np.zeros((4, 4)))


def test_psnr_values():
    ref = np.zeros((4, 4))
    ref[0, 0] = 10.0
    x = ref.copy()
    assert psnr(x, ref) == np.inf
    x[1, 1] = 1.0  # MSE = 1/16, peak = 10
    expected = 10.0 * np.log10(100.0 / (1.0 / 16.0))
    assert abs(psnr(x, ref) - expected) < 1e-12
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 4)))


def test_ssim_identical_is_one():
    rng = np.random.Generator(np.random.Philox(1))
    img = rng.normal(size=(33, 33))
    assert abs(ssim(img, img) - 1.0) < 1e-12


def test_ssim_decreases_with_noise():
    rng = np.random.Generator(np.random.Philox(2))
    ref = rng.normal(size=(33, 33))
    s1 = ssim(ref + 0.1 * rng.normal(size=ref.shape), ref)
    s2 = ssim(ref + 1.0 * rng.normal(size=ref.shape), ref)
    assert 1.0 > s1 > s2


def test_ssim_against_skimage():
    skimage = pytest.importorskip("skimage.metrics")
    rng = np.random.Generator(np.random.Philox(3))
    ref = rng.normal(size=(33, 33))
    x = ref + 0.5 * rng.normal(size=ref.shape)
    dr = ref.max() - ref.min()
    theirs = skimage.structural_similarity(
        x, ref, gaussian_weights=True, sigma=1.5, use_sample_covariance=False,
        data_range=dr,
    )
    assert abs(ssim(x, ref) - theirs) < 1e-7


def test_ssim_validation():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        ssim(np.zeros((33, 33)), np.zeros((17, 17)))


def test_ssim_stack_matches_per_image():
    """Stacked SSIM over 300 images equals the single-image API bitwise, and
    the 2-D convolution oracle to 1e-12 (the separable window sums in another
    order)."""
    rng = np.random.Generator(np.random.Philox(5))
    ref = rng.normal(size=(300, 17, 17)) * rng.uniform(0.5, 3.0, size=(300, 1, 1))
    x = ref + rng.uniform(0.1, 2.0, size=(300, 1, 1)) * rng.normal(size=ref.shape)
    got = ssim_stack(x, ref)
    assert np.abs(got - [ssim_single(a, b) for a, b in zip(x, ref)]).max() < 1e-12
    assert np.array_equal(got, [ssim(a, b) for a, b in zip(x, ref)])


def test_import_leaves_out_scipy_signal():
    """Neither `import mfvdm` nor `python -m mfvdm.cli --help` loads
    scipy.signal, about a second of start-up in every CLI process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for args in (["-c", "import mfvdm"], ["-m", "mfvdm.cli", "--help"]):
        proc = subprocess.run([sys.executable, "-X", "importtime"] + args, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "mfvdm.metrics" in imported
        assert "scipy.signal" not in imported


def test_stacked_metrics_match_per_image():
    """fit_to_reference, mse and psnr over a stack give, bitwise, the values
    of the one-image references, also for a constant image (fitted to its
    reference's mean) and an exact affine copy; identical images score +inf
    PSNR, and a constant reference image anywhere in the stack is an error."""
    rng = np.random.Generator(np.random.Philox(7))
    ref = rng.normal(size=(5, 17, 17))
    x = 2.0 * ref + rng.normal(size=ref.shape)
    x[3] = 1.0
    x[4] = 3.0 * ref[4] - 1.0
    fitted = fit_to_reference(x, ref)
    for i in range(len(x)):
        one = reference.fit_to_reference(x[i], ref[i])
        assert np.array_equal(fitted[i], one)
        assert mse(fitted, ref)[i] == reference.mse(one, ref[i])
        assert psnr(fitted, ref)[i] == reference.psnr(one, ref[i])
    assert psnr(ref, ref).tolist() == [np.inf] * 5
    ref[2] = 4.0
    with pytest.raises(ValueError, match="constant"):
        psnr(x, ref)


def test_fit_to_reference_recovers_affine():
    rng = np.random.Generator(np.random.Philox(4))
    ref = rng.normal(size=(17, 17))
    x = 3.0 * ref - 2.0
    np.testing.assert_allclose(fit_to_reference(x, ref), ref, atol=1e-12)
    # degenerate input maps to the reference mean
    flat = fit_to_reference(np.ones((17, 17)), ref)
    np.testing.assert_allclose(flat, ref.mean(), atol=1e-12)


def test_wrap_degrees():
    np.testing.assert_allclose(wrap_degrees([0.0, 190.0, -190.0, 360.0, -180.0]),
                               [0.0, -170.0, 170.0, 0.0, 180.0])


def test_neighbor_histograms(tiny_dataset, demo_graph):
    man = tiny_dataset["manifest"]
    h = neighbor_histograms(demo_graph, man)
    n_edges = int(demo_graph.degrees.sum())
    assert h["theta_deg"].size == n_edges
    assert h["align_err_deg"].size == n_edges
    assert h["theta_hist"].sum() == n_edges
    assert np.all(h["theta_deg"] >= 0) and np.all(h["theta_deg"] <= 180)
    assert np.all(np.abs(h["align_err_deg"]) <= 180)


def test_neighbor_histograms_match_edge_loop(tiny_dataset, demo_graph):
    """The edge-array histograms equal a loop over edges with the scalar
    ground-truth alignment: viewing angles bitwise, errors to 1e-12 deg."""
    man = tiny_dataset["manifest"]
    v, R = man.viewing_directions, man.rotations
    h = neighbor_histograms(demo_graph, man)
    thetas, errors = [], []
    for i, j, alpha in demo_graph.edges():
        thetas.append(np.degrees(viewing_angle(v[i], v[j])))
        errors.append(wrap_degrees(np.degrees(alpha - true_alignment(R[i], R[j]))))
    np.testing.assert_array_equal(h["theta_deg"], thetas)
    assert np.abs(wrap_degrees(h["align_err_deg"] - np.array(errors))).max() < 1e-12


def test_neighbor_histograms_requires_truth(demo_graph, tiny_dataset):
    import dataclasses

    man = dataclasses.replace(tiny_dataset["manifest"], rotations=None)
    with pytest.raises(ValueError):
        neighbor_histograms(demo_graph, man)
