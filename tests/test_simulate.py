"""Simulator: CTF, projections, noise, preprocessing, determinism."""

import numpy as np
import pytest

from mfvdm.simulate import (
    CTFProfile,
    add_noise,
    ctf_grid,
    ctf_value,
    default_defocus_groups,
    estimate_noise_psd,
    make_phantom,
    preprocess,
    project,
    sample_rotations,
    shift_image,
    simulate_dataset,
)
from reference import apply_ctf, rotate_image


def test_ctf_value_oracle():
    """Hand-computed transfer function values."""
    prof = CTFProfile(defocus_um=2.0)
    s = 0.05
    dz, cs, lam, w = 2.0e4, 2.0e7, 0.025, 0.07
    gamma = np.pi * lam * dz * s**2 - 0.5 * np.pi * cs * lam**3 * s**4
    expected = -(np.sqrt(1 - w**2) * np.sin(gamma) + w * np.cos(gamma))
    assert abs(ctf_value(prof, s) - expected) < 1e-14
    # at zero frequency only the amplitude-contrast term survives
    assert abs(ctf_value(prof, 0.0) + w) < 1e-14


def test_ctf_profile_validation():
    with pytest.raises(ValueError):
        CTFProfile(defocus_um=-1.0)
    with pytest.raises(ValueError):
        CTFProfile(defocus_um=1.0, amplitude_contrast=1.5)


def test_ctf_grid_radial():
    prof = CTFProfile(defocus_um=1.5)
    g = ctf_grid(prof, 17)
    assert g.shape == (17, 17)
    # radially symmetric: transposition leaves the grid unchanged
    np.testing.assert_allclose(g, g.T, atol=1e-14)


def test_apply_ctf_linearity():
    prof = CTFProfile(defocus_um=1.0)
    rng = np.random.Generator(np.random.Philox(1))
    a, b = rng.normal(size=(2, 17, 17))
    lhs = apply_ctf(a + 2.0 * b, prof)
    rhs = apply_ctf(a, prof) + 2.0 * apply_ctf(b, prof)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_default_defocus_groups():
    groups = default_defocus_groups(20)
    dz = [g.defocus_um for g in groups]
    assert len(groups) == 20
    assert dz[0] == 1.0 and dz[-1] == 4.0
    assert np.all(np.diff(dz) > 0)


def test_phantom_support_and_determinism():
    vol = make_phantom(17, seed=3, support_radius=8.0)
    vol2 = make_phantom(17, seed=3, support_radius=8.0)
    np.testing.assert_array_equal(vol, vol2)
    c = 8.0
    x = np.arange(17) - c
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    outside = np.sqrt(X**2 + Y**2 + Z**2) >= 7.5
    assert np.all(vol[outside] == 0.0)
    assert vol.max() > 0


def test_projection_mass_preserved():
    """The x-ray transform preserves total mass for interior support."""
    vol = make_phantom(21, seed=4, support_radius=8.0)
    R = sample_rotations(1, seed=5)[0]
    img = project(vol, R)
    # trilinear interpolation leaks a little mass at the support edge
    assert abs(img.sum() - vol.sum()) / vol.sum() < 5e-3


def test_projection_in_plane_rotation():
    """Composing with an in-plane rotation rotates the projection image."""
    vol = make_phantom(33, seed=6, support_radius=14.0)
    R = sample_rotations(1, seed=7)[0]
    gamma = np.deg2rad(25.0)
    cg, sg = np.cos(gamma), np.sin(gamma)
    Rz = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    img_i = project(vol, R)
    img_j = project(vol, R @ Rz)
    pred = rotate_image(img_i, -gamma)
    scale = np.abs(img_i).max()
    # two bilinear interpolations (projection and rotation) limit accuracy
    assert np.abs(img_j - pred).max() / scale < 0.1


def test_sample_rotations_proper():
    Rs = sample_rotations(50, seed=8)
    for R in Rs:
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
    # Haar-uniform viewing directions average out
    assert np.linalg.norm(Rs[:, :, 2].mean(axis=0)) < 0.3


def test_add_noise_snr():
    rng = np.random.Generator(np.random.Philox(9))
    clean = rng.normal(size=(200, 17, 17))
    noisy = add_noise(clean, snr=0.5, seed=10)
    noise_var = (noisy - clean).var()
    assert abs(noise_var - clean.var() / 0.5) / noise_var < 0.05
    with pytest.raises(ValueError):
        add_noise(clean, snr=0.0, seed=0)
    with pytest.raises(ValueError):
        add_noise(clean, snr=1.0, seed=0, model="pink")


def test_add_noise_colored():
    rng = np.random.Generator(np.random.Philox(11))
    clean = rng.normal(size=(100, 17, 17))
    noisy = add_noise(clean, snr=0.5, seed=12, model="colored")
    noise_var = (noisy - clean).var()
    assert abs(noise_var - clean.var() / 0.5) / noise_var < 0.05


def test_shift_image_integer_matches_roll():
    rng = np.random.Generator(np.random.Philox(13))
    img = rng.normal(size=(17, 17))
    shifted = shift_image(img, (2.0, -3.0))
    np.testing.assert_allclose(shifted, np.roll(img, (2, -3), axis=(0, 1)),
                               atol=1e-10)


def test_estimate_noise_psd_flat_for_white():
    rng = np.random.Generator(np.random.Philox(14))
    noise = rng.normal(size=(300, 17, 17))
    psd, _ = estimate_noise_psd(noise, support_radius=6.0)
    # white noise: flat radial PSD at the pixel variance
    assert np.abs(psd[1:] - 1.0).max() < 0.25


def test_preprocess_standardize(tiny_dataset):
    out = preprocess(tiny_dataset["noisy"], 8.0, standardize=True)
    from mfvdm.simulate import _corner_mask

    mask = _corner_mask(17, 8.0)
    mu = out[:, mask].mean(axis=1)
    sd = out[:, mask].std(axis=1)
    assert np.abs(mu).max() < 1e-10
    np.testing.assert_allclose(sd, 1.0, atol=1e-10)


def test_preprocess_phase_flip(tiny_dataset):
    from mfvdm.basis import ft_grid

    man = tiny_dataset["manifest"]
    out = preprocess(tiny_dataset["noisy"], 8.0, standardize=False,
                     phase_flip=True, profiles=tiny_dataset["profiles"],
                     groups=man.defocus_group)
    i = 0
    g = np.sign(ctf_grid(tiny_dataset["profiles"][man.defocus_group[i]], 17))
    np.testing.assert_allclose(ft_grid(out[i]), ft_grid(tiny_dataset["noisy"][i]) * g,
                               atol=1e-8)
    with pytest.raises(ValueError):
        preprocess(tiny_dataset["noisy"], 8.0, phase_flip=True)


def test_preprocess_rejects_non_finite(tiny_dataset):
    images = tiny_dataset["noisy"].copy()
    images[23, 4, 9] = np.nan
    with pytest.raises(ValueError, match="image 23 "):
        preprocess(images, 8.0)
    images[23, 4, 9] = 0.0
    images[41, 0, 0] = np.inf
    with pytest.raises(ValueError, match="image 41 "):
        preprocess(images, 8.0)


def test_simulate_deterministic():
    kw = dict(support_radius=8.0, n_defocus_groups=4, n_blobs=10)
    out1 = simulate_dataset(10, 17, seed=20, snr=0.2, **kw)
    out2 = simulate_dataset(10, 17, seed=20, snr=0.2, **kw)
    for a, b in zip(out1[:3], out2[:3]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(out1[4].rotations, out2[4].rotations)


def test_simulate_snr_contract(tiny_dataset):
    man = tiny_dataset["manifest"]
    noise = tiny_dataset["noisy"] - tiny_dataset["ctf_clean"]
    target = tiny_dataset["ctf_clean"].var() / man.snr
    assert abs(noise.var() - target) / target < 0.05
