"""Simulator: CTF, projections, noise, preprocessing, determinism."""

import collections
import itertools

import numpy as np
import pytest

import mfvdm.pipeline
import mfvdm.pool
import mfvdm.simulate
from mfvdm.simulate import (
    CTFProfile,
    add_noise,
    ctf_grid,
    ctf_value,
    default_defocus_groups,
    make_phantom,
    preprocess,
    project,
    sample_rotations,
    shift_image,
    simulate_dataset,
)
from mfvdm import RunConfig
from mfvdm.basis import corner_mask, expand_stack, steerable_pca
from mfvdm.pipeline import prepare_coeffs
from mfvdm.pool import image_bytes
from reference import apply_ctf, project_reference, rotate_image, simulate_stacks
from reference import sample_rotations as sample_rotations_ref


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


@pytest.mark.parametrize("field", ["defocus_um", "wavelength_A", "cs_mm", "pixel_size_A",
                                   "amplitude_contrast"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_ctf_profile_rejects_non_finite(field, value):
    """A NaN or infinite parameter raises a ValueError naming the field;
    a NaN defocus used to pass the positivity check and make every CTF
    value NaN."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        CTFProfile(**{"defocus_um": 1.0, field: value})


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


@pytest.mark.parametrize("n_blobs", [30, 1])
def test_phantom_support_and_determinism(n_blobs):
    vol = make_phantom(17, seed=3, n_blobs=n_blobs, support_radius=8.0)
    vol2 = make_phantom(17, seed=3, n_blobs=n_blobs, support_radius=8.0)
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


def _axis_rotations():
    """The 24 rotations that map the axes onto the axes: their samples land
    exactly on the grid's first and last planes."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[[0, 1, 2], perm] = signs
            if np.linalg.det(R) > 0:
                out.append(R)
    return out


def _faces_volume():
    """A random 11^3 volume, nonzero on its faces and corners."""
    return np.random.Generator(np.random.Philox(30)).normal(size=(11, 11, 11))


def _non_finite_volume():
    vol = _faces_volume()
    vol[0, 5, 5], vol[10, 3, 7], vol[4, 10, 0] = np.nan, np.inf, -np.inf
    return vol


@pytest.mark.parametrize("make_volume", [
    lambda: make_phantom(33, 0),
    lambda: make_phantom(9, 1),
    lambda: make_phantom(17, 2),
    lambda: make_phantom(33, 3, support_radius=10.0),
    _faces_volume,
    _non_finite_volume,
    lambda: np.zeros((11, 11, 11)),
    lambda: np.ones((1, 1, 1)),
], ids=["default", "L9", "L17", "L33-support10", "faces", "non-finite", "zeros", "L1"])
def test_project_matches_map_coordinates(make_volume):
    """The support-restricted kernel equals scipy's map_coordinates over the
    whole cube bit for bit, signs of zeros and NaNs included, at Haar
    rotations and at the 24 axis-aligned ones, with and without a shared
    support."""
    vol = make_volume()
    support = mfvdm.simulate._Support(vol)
    rotations = list(sample_rotations(20, seed=31)) + _axis_rotations()
    with np.errstate(invalid="ignore"):
        for R in rotations:
            want = project_reference(vol, R)
            assert project(vol, R, support).tobytes() == want.tobytes()
        R = rotations[0]
        assert project(vol, R).tobytes() == project_reference(vol, R).tobytes()


def test_project_support():
    """At the defaults the support holds 59% of the cube; an all-zero
    volume has none and projects to zeros."""
    assert mfvdm.simulate._Support(make_phantom(33, 0)).samples.size / 33**3 < 0.6
    zeros = np.zeros((9, 9, 9))
    assert mfvdm.simulate._Support(zeros).samples.size == 0
    assert not project(zeros, sample_rotations(1, seed=0)[0]).any()


@pytest.mark.parametrize("rotation", [
    2 * np.eye(3),
    np.eye(3) + 1e-6,
    np.diag([1.0, 1.0, np.nan]),
    np.diag([1.0, 1.0, np.inf]),
    np.eye(2),
    np.eye(3, 4),
], ids=["scaled", "sheared", "nan", "inf", "2x2", "3x4"])
def test_project_rejects_bad_rotations(rotation):
    """A rotation that is not a finite orthogonal 3 x 3 matrix raises: the
    support relies on |R p| = |p|. 2 I used to give a sheared projection."""
    with pytest.raises(ValueError, match="^rotation must be"):
        project(make_phantom(9, 0), rotation)


def test_sample_rotations_proper():
    Rs = sample_rotations(50, seed=8)
    for R in Rs:
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
    # Haar-uniform viewing directions average out
    assert np.linalg.norm(Rs[:, :, 2].mean(axis=0)) < 0.3


@pytest.mark.parametrize("n", [1, 7, 60, 1000])
def test_sample_rotations_match_reference(n):
    """The stacked QR and sign fixes give the one-matrix-at-a-time loop's
    rotations bit for bit, signs of zeros included."""
    got, want = sample_rotations(n, seed=n), sample_rotations_ref(n, seed=n)
    assert got.shape == (n, 3, 3)
    assert got.tobytes() == want.tobytes()


def test_add_noise_snr():
    rng = np.random.Generator(np.random.Philox(9))
    clean = rng.normal(size=(200, 17, 17))
    noisy = add_noise(clean, snr=0.5, seed=10)
    noise_var = (noisy - clean).var()
    assert abs(noise_var - clean.var() / 0.5) / noise_var < 0.05
    for snr in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^snr must be > 0"):
            add_noise(clean, snr=snr, seed=0)
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


def test_preprocess_standardize(tiny_dataset):
    out = preprocess(tiny_dataset["noisy"], 8.0, standardize=True)
    mask = corner_mask(17, 8.0)
    mu = out[:, mask].mean(axis=1)
    sd = out[:, mask].std(axis=1)
    assert np.abs(mu).max() < 1e-10
    np.testing.assert_allclose(sd, 1.0, atol=1e-10)


def test_preprocess_phase_flip(tiny_dataset):
    from mfvdm.basis import ft_grid

    man = tiny_dataset["manifest"]
    grids = np.stack([ctf_grid(profile, 17) for profile in tiny_dataset["profiles"]])
    out = preprocess(tiny_dataset["noisy"], 8.0, standardize=False,
                     ctf=grids[man.defocus_group])
    for i, group in enumerate(man.defocus_group):
        g = np.sign(ctf_grid(tiny_dataset["profiles"][group], 17))
        np.testing.assert_allclose(ft_grid(out[i]), ft_grid(tiny_dataset["noisy"][i]) * g,
                                   atol=1e-8)


@pytest.mark.parametrize("with_ctf", [True, False])
def test_prepare_coeffs_flips_phases_with_ctf(with_ctf, tiny_dataset, basis17):
    """prepare_coeffs phase-flips exactly when the data were CTF-modulated.
    Noisy input (finite SNR) is standardized to zero mean and unit variance
    over the corners, and both its values are those of steerable_pca;
    noise-free input (infinite SNR) gets neither, and its coefficients are
    returned untouched, in the basis given, with None."""
    ds = tiny_dataset
    mask = corner_mask(17, 8.0)
    for snr in (ds["snr"], np.inf):
        noisy_input = bool(np.isfinite(snr))
        config = RunConfig(n=60, L=17, support_radius=8.0, snr=snr, s=8,
                           n_defocus_groups=4, with_ctf=with_ctf)
        (coeffs, coeff_basis), ranks = prepare_coeffs(ds["noisy"], ds["manifest"],
                                                      ds["profiles"], basis17, config)
        grids = np.stack([ctf_grid(profile, 17) for profile in ds["profiles"]])
        pre = preprocess(ds["noisy"], 8.0, standardize=noisy_input,
                         ctf=grids[ds["manifest"].defocus_group] if with_ctf else None)
        want = expand_stack(pre, basis17)
        corner_sd = pre[:, mask].std(axis=1)
        if noisy_input:
            np.testing.assert_allclose(pre[:, mask].mean(axis=1), 0.0, atol=1e-10)
            np.testing.assert_allclose(corner_sd, 1.0, atol=1e-10)
            (want, want_basis), want_ranks = steerable_pca(want, basis17)
            np.testing.assert_array_equal(ranks, want_ranks)
            np.testing.assert_array_equal(coeff_basis.psi_grid, want_basis.psi_grid)
            assert 0 < ranks.sum() < basis17.n_coeffs
        else:
            assert not np.allclose(corner_sd, 1.0, atol=1e-10)
            assert ranks is None and coeff_basis is basis17
        np.testing.assert_array_equal(coeffs, want)


def test_prepare_coeffs_evaluates_each_ctf_grid_once(tiny_dataset, basis17, monkeypatch):
    """The defocus groups' CTF grids are constants of a call: over 60 images
    in blocks of at most 7, prepare_coeffs evaluates each group's once."""
    ds, calls = tiny_dataset, []

    def counted(profile, L):
        calls.append(profile)
        return ctf_grid(profile, L)

    monkeypatch.setattr(mfvdm.simulate, "ctf_grid", counted)
    monkeypatch.setattr(mfvdm.pipeline, "ctf_grid", counted)
    monkeypatch.setattr(mfvdm.pool, "CACHE_BYTES", 7 * image_bytes(17))
    assert len(mfvdm.pool.cache_blocks(60, image_bytes(17))) >= 2
    config = RunConfig(n=60, L=17, support_radius=8.0, s=8, n_defocus_groups=4)
    prepare_coeffs(ds["noisy"], ds["manifest"], ds["profiles"], basis17, config)
    assert collections.Counter(calls) == collections.Counter(ds["profiles"])


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
    noise = tiny_dataset["noisy"] - tiny_dataset["ctf_clean"]
    target = tiny_dataset["ctf_clean"].var() / tiny_dataset["snr"]
    assert abs(noise.var() - target) / target < 0.05


@pytest.mark.parametrize("case", [
    {},
    {"noise_model": "colored"},
    {"shift_px": 1.5},
    {"with_ctf": False},
    {"snr": np.inf},
])
def test_simulate_blocks_match_whole_stack(case, monkeypatch):
    """The simulator's passes over blocks of images give the three stacks
    of whole-stack passes bit for bit. 45 images in blocks of at most 7,
    and projection tasks of 16 views, so that the blocks do not line up."""
    monkeypatch.setattr(mfvdm.pool, "CACHE_BYTES", 7 * image_bytes(17))
    assert len(mfvdm.pool.cache_blocks(45, image_bytes(17))) > 1
    monkeypatch.setattr(mfvdm.simulate, "PROJECT_BLOCK", 16)
    kw = {"snr": 0.2, "support_radius": 8.0, "n_defocus_groups": 4, "n_blobs": 10, **case}
    got = simulate_dataset(45, 17, seed=21, **kw)
    want = simulate_stacks(45, 17, seed=21, **kw)
    for name, a, b in zip(("clean", "ctf_clean", "noisy"), got[:3], want):
        assert a.dtype == np.float64 and a.flags.c_contiguous, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("field, value", [("shift_px", float("nan")), ("shift_px", -1.0),
                                          ("shift_px", float("inf")), ("snr", float("nan")),
                                          ("snr", 0.0), ("snr", -1.0)])
def test_simulate_dataset_rejects_invalid_fields(field, value):
    """A NaN, infinite or negative shift and a NaN or non-positive SNR raise
    a ValueError naming the field, before anything is simulated."""
    kw = {"snr": 0.2, "shift_px": 0.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        simulate_dataset(4, 9, 0, support_radius=4.0, n_blobs=2, **kw)
