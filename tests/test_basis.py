"""Steerable basis: orthonormality, round trips, rotation, alignment."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import jv

from mfvdm.basis import (
    BasisError,
    build_basis,
    expand_stack,
    ft_grid,
    ift_grid,
    reconstruct,
    rotate_coeffs,
)
from mfvdm.simulate import simulate_dataset
from reference import expand, full_sq_norm, rid_align, rotate_image


def test_build_validation():
    with pytest.raises(BasisError):
        build_basis(16, 0.5, 8.0)      # even size
    with pytest.raises(BasisError):
        build_basis(17, 0.0, 8.0)      # zero bandlimit
    with pytest.raises(BasisError):
        build_basis(17, 0.6, 8.0)      # above Nyquist
    with pytest.raises(BasisError):
        build_basis(17, 0.5, 9.0)      # support outside the image
    with pytest.raises(BasisError):
        build_basis(3, 0.01, 1.0)      # no admissible functions


def test_admissibility_cutoff(basis17):
    from scipy.special import jn_zeros

    c_max = 2.0 * np.pi * basis17.bandlimit * basis17.support_radius
    for k in range(basis17.k_max + 1):
        zk = basis17.bessel_zeros[k]
        assert np.all(zk <= c_max)
        # the next zero would violate the cutoff
        nxt = jn_zeros(k, zk.size + 1)[-1]
        assert nxt > c_max
    # one frequency past the end has no admissible zero
    assert jn_zeros(basis17.k_max + 1, 1)[0] > c_max


def _quadrature(basis):
    """Basis functions at Gauss-Legendre radial x uniform angular nodes on
    the Fourier disk, and the node weights including the xi measure."""
    c_max = 2.0 * np.pi * basis.bandlimit * basis.support_radius
    n_r = int(np.ceil(c_max)) + 24
    n_t = 4 * (basis.k_max + 1)
    gl_x, gl_w = leggauss(n_r)
    xi_r = basis.bandlimit * (gl_x + 1.0) / 2.0
    w_r = gl_w * basis.bandlimit / 2.0 * xi_r
    theta_t = 2.0 * np.pi * np.arange(n_t) / n_t
    node_xi = np.repeat(xi_r, n_t)
    node_theta = np.tile(theta_t, n_r)
    node_w = np.repeat(w_r, n_t) * (2.0 * np.pi / n_t)
    ks = basis.ks
    zeros = np.concatenate(basis.bessel_zeros)
    radial = jv(ks[None, :], zeros[None, :] * node_xi[:, None] / basis.bandlimit)
    phase = (1j ** ks)[None, :] * np.exp(1j * ks[None, :] * node_theta[:, None])
    return basis.norms[None, :] * radial * phase, node_w


def test_orthonormality_quadrature(basis17):
    """Gram matrix of the k >= 0 functions under the disk measure."""
    psi, node_w = _quadrature(basis17)
    gram = np.conj(psi.T) @ (node_w[:, None] * psi)
    err = np.abs(gram - np.eye(basis17.n_coeffs)).max()
    assert err < 1e-6


def test_round_trip_exact(basis17):
    clean, _, _, _, _ = simulate_dataset(3, 17, seed=1, snr=np.inf,
                                         support_radius=8.0, with_ctf=False)
    a = expand_stack(clean, basis17)
    for i in range(3):
        img = reconstruct(a[i], basis17)
        a2 = expand(img, basis17)
        assert np.abs(a[i] - a2).max() < 1e-10


def test_expand_matches_stack(basis17):
    rng = np.random.Generator(np.random.Philox(0))
    imgs = rng.normal(size=(4, 17, 17))
    st = expand_stack(imgs, basis17)
    for i in range(4):
        np.testing.assert_allclose(expand(imgs[i], basis17), st[i], atol=1e-12)


def test_reconstruction_real(basis17):
    rng = np.random.Generator(np.random.Philox(3))
    img = rng.normal(size=(17, 17))
    out = reconstruct(expand(img, basis17), basis17)
    assert out.dtype == float


def test_rotation_phase_action(basis17):
    """Rotating the image multiplies a_{k,q} by exp(-i k alpha)."""
    clean, _, _, _, _ = simulate_dataset(1, 17, seed=2, snr=np.inf,
                                         support_radius=8.0, with_ctf=False)
    # band-limit first so the comparison is within the basis span
    a = expand(clean[0], basis17)
    img = reconstruct(a, basis17)
    alpha = np.deg2rad(30.0)
    rot = rotate_image(img, alpha)
    a_rot = expand(rot, basis17)
    a_pred = rotate_coeffs(a, basis17, alpha)
    # bilinear interpolation at L=17 limits the achievable accuracy
    rel = np.abs(a_rot - a_pred).max() / np.abs(a).max()
    assert rel < 0.08


def test_rid_zero_self_distance(basis17):
    rng = np.random.Generator(np.random.Philox(4))
    a = rng.normal(size=basis17.n_coeffs) + 1j * rng.normal(size=basis17.n_coeffs)
    d, alpha = rid_align(a, a, basis17)
    assert alpha == 0.0
    assert d < 1e-6 * np.sqrt(full_sq_norm(basis17, a))


def test_rid_recovers_grid_rotation(basis17):
    rng = np.random.Generator(np.random.Philox(5))
    a = rng.normal(size=basis17.n_coeffs) + 1j * rng.normal(size=basis17.n_coeffs)
    a[basis17.ks == 0] = np.real(a[basis17.ks == 0])
    for t in [3, 100, 200]:
        alpha = 2.0 * np.pi * t / 256
        b = rotate_coeffs(a, basis17, alpha)
        d, ahat = rid_align(a, b, basis17, fft_size=256)
        # b = rotate(a, alpha): rotating b back by -alpha recovers a
        expected = -alpha if alpha <= np.pi else 2.0 * np.pi - alpha
        assert abs(ahat - expected) < 1e-12
        # d^2 is computed by cancellation of two O(|a|^2) terms, so the
        # achievable distance floor scales with the coefficient norm
        assert d < 1e-6 * np.sqrt(full_sq_norm(basis17, a))


def test_rid_matches_brute_force(basis17):
    """Grid argmax agrees with an explicit scan over rotations."""
    rng = np.random.Generator(np.random.Philox(6))
    a = rng.normal(size=basis17.n_coeffs) + 1j * rng.normal(size=basis17.n_coeffs)
    b = rng.normal(size=basis17.n_coeffs) + 1j * rng.normal(size=basis17.n_coeffs)
    fft_size = 128
    d, ahat = rid_align(a, b, basis17, fft_size=fft_size)
    w = np.where(basis17.ks == 0, 1.0, 2.0)
    best_t, best_d = None, np.inf
    for t in range(fft_size):
        alpha = 2.0 * np.pi * t / fft_size
        diff = a - rotate_coeffs(b, basis17, alpha)
        dd = np.sqrt((np.abs(diff) ** 2 * w).sum())
        if dd < best_d - 1e-12:
            best_t, best_d = t, dd
    alpha_brute = 2.0 * np.pi * best_t / fft_size
    if alpha_brute > np.pi:
        alpha_brute -= 2.0 * np.pi
    assert abs(ahat - alpha_brute) < 1e-12
    assert abs(d - best_d) < 1e-8


def test_ft_grid_inverse():
    rng = np.random.Generator(np.random.Philox(7))
    img = rng.normal(size=(17, 17))
    back = ift_grid(ft_grid(img))
    np.testing.assert_allclose(back.real, img, atol=1e-12)
    assert np.abs(back.imag).max() < 1e-12


def test_shape_mismatch_raises(basis17):
    with pytest.raises(BasisError):
        expand(np.zeros((15, 15)), basis17)
    with pytest.raises(BasisError):
        rid_align(np.zeros(5, dtype=complex), np.zeros(5, dtype=complex), basis17)
    with pytest.raises(BasisError):
        rid_align(np.zeros(basis17.n_coeffs, dtype=complex),
                  np.zeros(basis17.n_coeffs, dtype=complex), basis17, fft_size=8)
