"""Steerable basis: orthonormality, round trips, rotation, alignment."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import jn_zeros, jv

from mfvdm.basis import (
    BasisError,
    _bessel,
    _bessel_zeros,
    _solver_rows,
    build_basis,
    expand_stack,
    ft_grid,
    corner_mask,
    ift_grid,
    noise_covariance,
    reconstruct,
    rotate_coeffs,
    steerable_pca,
)
from mfvdm.simulate import preprocess, simulate_dataset
from reference import (bessel_zeros, coeff_noise_covariance, expand, full_grid_basis, full_sq_norm,
                       pinv_solver, reference_basis, rid_align, rotate_image)

# (L, bandlimit, support_radius) over which build_basis is checked against
# the scipy build of tests/reference.py
SWEEP = [(L, bandlimit, support_radius) for L in (5, 9, 17, 33, 49)
         for bandlimit in (0.3, 0.4, 0.5) for support_radius in ((L - 1) / 3, (L - 1) / 2)]


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
    with pytest.raises(BasisError, match="must be an integer"):
        build_basis(33.5, 0.5, 16.0)   # would sample a half-pixel-offset grid
    with pytest.raises(BasisError, match="must be an integer"):
        build_basis(17.0, 0.5, 8.0)    # would carry a float64 L
    # numpy integers are accepted and kept as int
    assert type(build_basis(np.int64(17), 0.5, 8.0).L) is int


@pytest.mark.parametrize("L, bandlimit, support_radius", SWEEP)
def test_build_matches_reference(L, bandlimit, support_radius):
    """The numpy build has the counts of the scipy build (reference_basis),
    and its psi_grid and coeff_solver agree to 1e-13 of their largest
    entry."""
    basis = build_basis(L, bandlimit, support_radius)
    ref = reference_basis(L, bandlimit, support_radius)
    np.testing.assert_array_equal(basis.radial_counts, ref.radial_counts)
    for name in ("psi_grid", "coeff_solver"):
        a, b = getattr(basis, name), getattr(ref, name)
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name


@pytest.mark.parametrize("L, bandlimit, support_radius", SWEEP)
def test_bessel_matches_scipy(L, bandlimit, support_radius):
    """On [0, c_max] the Miller table agrees with scipy's jv to 1e-14 for
    k = 0..k_max + 1, and the zeros with jn_zeros to 1e-13 relative."""
    c_max = 2.0 * np.pi * bandlimit * support_radius
    zeros, ref = _bessel_zeros(c_max), bessel_zeros(c_max)
    assert [zk.size for zk in zeros] == [zk.size for zk in ref]
    for zk, rk in zip(zeros, ref):
        assert (np.abs(zk - rk) <= 1e-13 * rk).all()
    ks = np.arange(len(ref) + 1)[:, None]
    x = np.linspace(0.0, c_max, 1001)
    assert np.abs(_bessel(ks, x) - jv(ks, x)).max() <= 1e-14


def test_zeros_clear_the_cutoff():
    """Over the sweep no Bessel zero lies within 1e-4 of c_max, relative
    (the closest, j_{10,10} at L = 49, bandlimit 0.3, radius 24, is 1.6e-4
    away), so zeros that agree to 1e-13 cannot be admitted differently."""
    margins = []
    for _, bandlimit, support_radius in SWEEP:
        c_max = 2.0 * np.pi * bandlimit * support_radius
        for k in range(int(c_max) + 2):
            margins.append(np.abs(jn_zeros(k, int(c_max / np.pi) + 3) - c_max).min() / c_max)
    assert min(margins) > 1e-4


@pytest.mark.parametrize("L, bandlimit, support_radius", SWEEP)
def test_gram_splits_into_quarter_turn_blocks(L, bandlimit, support_radius):
    """Entries of the full +-k Gram matrix between columns whose signed
    frequencies differ mod 4 are at most 1e-13 of its largest diagonal
    entry, and so are the imaginary parts within a block: the blocks that
    _solver_rows inverts in real arithmetic lose nothing."""
    basis = build_basis(L, bandlimit, support_radius)
    psi = full_grid_basis(basis.psi_grid, basis.ks)
    freqs = np.concatenate([basis.ks, -basis.ks[basis.ks > 0]])
    gram = np.conj(psi.T) @ psi
    scale = np.abs(np.diag(gram)).max()
    same = freqs[:, None] % 4 == freqs[None, :] % 4
    assert np.abs(gram[~same]).max(initial=0.0) <= 1e-13 * scale
    assert np.abs(gram[same].imag).max() <= 1e-13 * scale


@pytest.mark.parametrize("name", ["basis17", "basis33", "bandlimit 0.35"])
def test_coeff_solver_matches_pinv(name, request):
    """The Gram-matrix solver is the first n_coeffs rows of the SVD-based
    pseudo-inverse of the full +-k grid basis, to 1e-13 relative."""
    basis = build_basis(17, 0.35, 8.0) if name == "bandlimit 0.35" else request.getfixturevalue(name)
    ref = pinv_solver(basis)[:basis.n_coeffs]
    assert basis.coeff_solver.shape == (basis.n_coeffs, basis.grid_index.size)
    assert np.abs(basis.coeff_solver - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solver_rejects_rank_deficient_basis(basis17):
    """A repeated column makes the Gram matrix singular, a nearly repeated
    one ill-conditioned: both raise BasisError instead of solving, for a
    k = 0 column and for a k = 2 one, which _solver_rows also mirrors to
    k = -2."""
    psi, ks = basis17.psi_grid, basis17.ks
    for column in (3, 20):
        repeated = np.concatenate([psi, psi[:, column:column + 1]], axis=1)
        near = repeated.copy()
        near[0, -1] += 1e-9
        for bad in (repeated, near):
            with pytest.raises(BasisError, match="grid basis is"):
                _solver_rows(bad, np.append(ks, ks[column]))
    np.testing.assert_array_equal(_solver_rows(psi, ks), basis17.coeff_solver)


def _radial_zeros(basis, k):
    """R_{k,q} for q = 1..p_k, the zeros that set frequency k's radial
    functions."""
    return jn_zeros(k, basis.radial_counts[k])


def test_admissibility_cutoff(basis17):
    c_max = 2.0 * np.pi * basis17.bandlimit * basis17.support_radius
    for k in range(basis17.k_max + 1):
        zk = _radial_zeros(basis17, k)
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
    zeros = np.concatenate([_radial_zeros(basis, k) for k in range(basis.k_max + 1)])
    radial = jv(ks[None, :], zeros[None, :] * node_xi[:, None] / basis.bandlimit)
    phase = (1j ** ks)[None, :] * np.exp(1j * ks[None, :] * node_theta[:, None])
    # orthonormal under the measure xi dxi dtheta on the disk of radius bandlimit
    norms = 1.0 / (basis.bandlimit * np.sqrt(np.pi) * np.abs(jv(ks + 1, zeros)))
    return norms[None, :] * radial * phase, node_w


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


def test_noise_covariance_is_the_impulse_sum(basis17):
    """Less its corner mean, unit white noise n is P n, P = I - 1 c^T / m
    (c the corner indicator, m its count), so its coefficient covariance is
    exactly the sum of a a^H over the coefficients a of the L^2 images
    P e_x (e_x a unit impulse). The sum is real, and equals
    noise_covariance."""
    L = basis17.L
    corner = corner_mask(L, basis17.support_radius).ravel()
    images = np.eye(L * L) - np.outer(corner / corner.sum(), np.ones(L * L))
    a = expand_stack(images.reshape(-1, L, L), basis17)
    for k in range(basis17.k_max + 1):
        ak = a[:, basis17.k_slice(k)]
        exact = np.conj(ak.T) @ ak
        assert np.abs(exact.imag).max() < 1e-12 * np.abs(exact).max()
        np.testing.assert_allclose(noise_covariance(basis17, k), exact.real, rtol=0, atol=1e-12)


def _within_sampling_error(mc, cov, samples):
    """Whether every entry of a Monte Carlo covariance mc is within 5
    standard errors sqrt((C_ii C_jj + C_ij^2) / samples) of cov."""
    d = np.diag(cov)
    return bool((np.abs(mc - cov) <= 5 * np.sqrt((np.outer(d, d) + cov ** 2) / samples)).all())


def test_noise_covariance_matches_monte_carlo(basis33):
    """At L = 33 the per-k covariance, off-diagonal terms included, lies
    within sampling error of a 4000-image Monte Carlo estimate over
    standardized noise (preprocess), with 4000 real samples at k = 0 and
    8000 at k > 0. The white-noise part L^2 S_k S_k^H alone does not: at
    k = 0 it misses the corner mean's direction."""
    mc = coeff_noise_covariance(basis33)
    for k in range(basis33.k_max + 1):
        assert _within_sampling_error(mc[k], noise_covariance(basis33, k),
                                      4000 if k == 0 else 8000), k
    solver = basis33.coeff_solver[basis33.k_slice(0)]
    assert not _within_sampling_error(mc[0], 33 ** 2 * (solver @ np.conj(solver.T)).real, 4000)


def test_steerable_pca_keeps_little_of_white_noise(basis33):
    """On 1000 standardized images of pure white noise, steerable_pca keeps
    at most 24 of 312 directions, none at k = 0, where the corner mean adds
    a noise direction, and under 0.1% of the coefficient energy. Six noise
    seeds kept 7-20 directions and 0.017-0.079% of the energy; whitening
    by the white-noise part of the covariance alone kept k = 0's noise
    direction in each, and 0.59-0.72%."""
    noise = np.random.Generator(np.random.Philox(0)).normal(size=(1000, 33, 33))
    a = expand_stack(preprocess(noise, 16.0), basis33)
    energy = (np.abs(a) ** 2).sum()
    ranks = steerable_pca(a, basis33)
    assert ranks.shape == (basis33.k_max + 1,)
    assert ranks.sum() <= 24 and ranks[0] == 0
    assert (np.abs(a) ** 2).sum() < 1e-3 * energy
    # denoise_stack skips these frequencies, so they must be exact zeros
    for k in range(1, basis33.k_max + 1):
        assert ranks[k] > 0 or not a[:, basis33.k_slice(k)].any(), k


def test_steerable_pca_commutes_with_rotation(tiny_dataset, basis17):
    """Rotating every image in-plane, each by its own angle, rotates the
    shrunk coefficients the same way: each frequency block is mapped by one
    real matrix, and the sample covariance does not see the rotations."""
    a = expand_stack(preprocess(tiny_dataset["noisy"], 8.0), basis17)
    alpha = np.random.Generator(np.random.Philox(5)).uniform(-np.pi, np.pi, size=(len(a), 1))
    rotated = rotate_coeffs(a, basis17, alpha)
    ranks = steerable_pca(a, basis17)
    np.testing.assert_array_equal(steerable_pca(rotated, basis17), ranks)
    assert 0 < ranks.sum() < basis17.n_coeffs
    np.testing.assert_allclose(rotated, rotate_coeffs(a, basis17, alpha), atol=1e-12)
