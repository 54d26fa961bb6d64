"""Spectral filters: oracle equivalences, fixed points, CTF correction."""

from types import SimpleNamespace

import numpy as np
import pytest

import mfvdm.denoise
from mfvdm import RunConfig
from mfvdm.basis import (BasisError, Expansion, expand_stack, freq_grid, ft_grid, ift_grid,
                         reconstruct_grid)
from mfvdm.denoise import (FilterSpec, _averaging_filter, apply_spectral_filter, ctf_correct,
                           denoise_stack)
from mfvdm.pipeline import absolute_ctf_coeffs, denoise_and_correct
from mfvdm.simulate import ctf_value, default_defocus_groups
from mfvdm.spectral import build_frequency_matrix, top_eigs
from reference import reconstruct_denoised
from test_spectral import _one_cpu


def _random_block(n, p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p))


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(kind=0)
    with pytest.raises(ValueError):
        FilterSpec(kind=6)
    assert FilterSpec(kind=2).truncated
    assert not FilterSpec(kind=4).truncated


@pytest.mark.parametrize("m", [0, -3])
def test_filter_spec_rejects_m_below_one(m, demo_graph):
    """A truncation m < 1 is named, not filtered with a wrong number of
    eigenpairs: m = -3 kept n - 3 eigenpairs in the dense branch and then
    dropped 3 more, and m = 0 failed in a numpy reduction."""
    for kind in (2, 4):
        with pytest.raises(ValueError, match=rf"^filter truncation m must be >= 1, got {m}$"):
            FilterSpec(kind=kind, m=m)
    with pytest.raises(ValueError, match=rf"^m={m} is not in 1\.\.n for the matrix size n=60$"):
        top_eigs(build_frequency_matrix(demo_graph, 1), m)


def test_filter_responses():
    lam = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(FilterSpec(kind=1).response(lam), lam)
    np.testing.assert_allclose(FilterSpec(kind=2).response(lam),
                               [0.0, 0.75, 1.0])
    np.testing.assert_allclose(FilterSpec(kind=3).response(lam),
                               [0.0, 0.5**3 - 3 * 0.25 + 1.5, 1.0])


def test_full_linear_filter_equals_transport_average(demo_graph, basis17):
    """h = lambda on all n eigenpairs (kind 1 at m = n), and kind 4's
    product with W_k, equal one step of the degree-weighted transport
    average S_k A."""
    n = demo_graph.n
    block = _random_block(n, 4, seed=1)
    deg = demo_graph.degrees
    for k in [0, 2, 5]:
        Wk = build_frequency_matrix(demo_graph, k)
        vals, vecs = top_eigs(Wk, n)
        # direct route: S_k = D^{-1} W_k acting on the raw block; transporting
        # frequency-k coefficients across an edge applies e^{-ik alpha}
        W = np.zeros((n, n), dtype=complex)
        W[demo_graph.rows, demo_graph.indices] = np.exp(-1j * k * demo_graph.angles)
        expected = (W @ block) / deg[:, None]
        for got in (apply_spectral_filter(block, vals, vecs, deg, FilterSpec(kind=1, m=n)),
                    _averaging_filter(Wk, np.sqrt(deg)[:, None], block, 1)):
            assert np.abs(got - expected).max() < 1e-10


def test_full_quadratic_filter_equals_two_step(demo_graph):
    """h = 2 lambda - lambda^2 on all n eigenpairs (kind 2 at m = n), and
    kind 5's two products with W_k, equal 2 S_k A - S_k^2 A."""
    n = demo_graph.n
    block = _random_block(n, 3, seed=2)
    k = 3
    Wk = build_frequency_matrix(demo_graph, k)
    vals, vecs = top_eigs(Wk, n)
    deg = demo_graph.degrees
    W = np.zeros((n, n), dtype=complex)
    W[demo_graph.rows, demo_graph.indices] = np.exp(-1j * k * demo_graph.angles)
    S = W / deg[:, None]
    expected = 2.0 * (S @ block) - S @ (S @ block)
    for got in (apply_spectral_filter(block, vals, vecs, deg, FilterSpec(kind=2, m=n)),
                _averaging_filter(Wk, np.sqrt(deg)[:, None], block, 2)):
        assert np.abs(got - expected).max() < 1e-10


def test_truncated_matches_full_when_m_equals_n(demo_graph):
    """Kind 1 on all n eigenpairs equals kind 4's product with W_k."""
    n = demo_graph.n
    block = _random_block(n, 3, seed=3)
    deg = demo_graph.degrees
    W = build_frequency_matrix(demo_graph, 1)
    vals, vecs = top_eigs(W, n)
    t1 = apply_spectral_filter(block, vals, vecs, deg, FilterSpec(kind=1, m=n))
    t4 = _averaging_filter(W, np.sqrt(deg)[:, None], block, 1)
    assert np.abs(t1 - t4).max() < 1e-10


def test_truncation_bound(demo_graph):
    """The eigenpair filter refuses a truncation beyond the eigenpairs it is
    given, and kinds 4-5, whose one implementation is denoise_stack's
    products with W_k."""
    vals, vecs = top_eigs(build_frequency_matrix(demo_graph, 1), 10)
    for filt, message in ((FilterSpec(kind=1, m=20), "filter truncation m=20 exceeds"),
                          (FilterSpec(kind=4), "filter kind 4 is applied without eigenpairs"),
                          (FilterSpec(kind=5), "filter kind 5 is applied without eigenpairs")):
        with pytest.raises(ValueError, match=f"^{message}"):
            apply_spectral_filter(_random_block(demo_graph.n, 2, seed=4), vals, vecs,
                                  demo_graph.degrees, filt)


def test_denoise_fixed_point_on_rotated_copies(rotated_copies, basis17):
    """Noise-free rotated copies pass through the transport-average filter
    unchanged: every neighbor carries the same signal after alignment."""
    rc = rotated_copies
    coeffs = rc["coeffs"]
    ctf_coeffs = np.ones((len(coeffs), basis17.k_slice(0).stop), dtype=complex)
    da, dc = denoise_stack(coeffs, ctf_coeffs, rc["graph"], basis17, FilterSpec(kind=4))
    imgs = reconstruct_denoised(coeffs, basis17)
    imgs2 = reconstruct_denoised(da, basis17)
    err = np.mean((imgs - imgs2) ** 2)
    assert err < 1e-6
    assert dc.shape == ctf_coeffs.shape
    assert np.isfinite(da).all() and np.isfinite(dc).all()


@pytest.mark.parametrize("kind", [4, 5])
def test_full_spectrum_kinds_build_each_matrix_once(kind, tiny_dataset, demo_graph, basis17,
                                                    monkeypatch):
    """Kinds 4 and 5 build each W_k once and filter the image block with
    it, and at k = 0 the (n, p_0) CTF block too, one build per frequency
    with content (here every k: the random blocks have content at each);
    each block equals h(S_k) applied with the dense S_k = D^{-1} W_k."""
    built = []

    def counting(graph, k):
        built.append(k)
        return build_frequency_matrix(graph, k)

    monkeypatch.setattr(mfvdm.denoise, "build_frequency_matrix", counting)
    coeffs = expand_stack(tiny_dataset["noisy"], basis17)
    ctf = _random_block(demo_graph.n, basis17.k_slice(0).stop, seed=7)
    da, dc = denoise_stack(coeffs, ctf, demo_graph, basis17, FilterSpec(kind=kind))
    assert built == list(range(basis17.k_max + 1))
    assert dc.shape == ctf.shape
    n = demo_graph.n
    for k in range(basis17.k_max + 1):
        W = np.zeros((n, n), dtype=complex)
        W[demo_graph.rows, demo_graph.indices] = np.exp(-1j * k * demo_graph.angles)
        S, sl = W / demo_graph.degrees[:, None], basis17.k_slice(k)
        checks = [(da[:, sl], coeffs[:, sl], coeffs)]
        if k == 0:
            checks.append((dc, ctf, ctf))
        for got, block, whole in checks:
            expected = S @ block
            if kind == 5:
                expected = 2.0 * expected - S @ expected
            assert np.abs(got - expected).max() < 1e-10 * np.abs(whole).max()


def test_denoise_shape_mismatch(rotated_copies, basis17):
    with pytest.raises(ValueError):
        denoise_stack(rotated_copies["coeffs"][:5], rotated_copies["coeffs"][:5],
                      rotated_copies["graph"], basis17, FilterSpec(kind=2, m=3))


@pytest.mark.parametrize("kind", [2, 4])
def test_denoise_solves_only_frequencies_with_content(kind, tiny_dataset, demo_graph, basis17,
                                                      monkeypatch):
    """Frequency k is solved (kinds 1-3) or its W_k built (kinds 4-5) only
    when k = 0, for the (n, p_0) |CTF| block, or the basis has a column at
    k. The basis here is restricted to empty (p_k, 0) frames at k = 3, 4, 7
    and 18, so none of them is solved. The output block of a skipped k is
    empty, and the image output equals a per-k loop over every frequency
    bit for bit, the CTF output the k = 0 step of that loop."""
    _one_cpu(monkeypatch)  # the solves run in this process, where the counters see them
    ds, g = tiny_dataset, demo_graph
    config = RunConfig(n=60, L=17, support_radius=8.0, s=8, n_defocus_groups=4)
    basis = basis17.restrict([np.zeros((p, 0)) if k in (3, 4, 7, 18) else None
                              for k, p in enumerate(basis17.radial_counts)])
    coeffs = expand_stack(ds["noisy"], basis)
    ctf = absolute_ctf_coeffs(ds["manifest"], ds["profiles"], basis17, config)
    ks = range(basis.k_max + 1)
    solved = [k for k in ks if k not in (3, 4, 7, 18)]
    filt = FilterSpec(kind=kind, m=20)

    spectra = [top_eigs(build_frequency_matrix(g, k), filt.m) for k in ks]
    sqrt_d = np.sqrt(g.degrees)[:, None]
    expected_a = np.zeros_like(coeffs)
    for k, (vals, vecs) in zip(ks, spectra):
        sl, W = basis.k_slice(k), build_frequency_matrix(g, k)
        a, c = (apply_spectral_filter(block, vals, vecs, g.degrees, filt) if filt.truncated
                else _averaging_filter(W, sqrt_d, block, 1) for block in (coeffs[:, sl], ctf))
        expected_a[:, sl] = a
        if k == 0:
            expected_c = c

    solves, built = [], []

    def counting_solve(W, m):
        solves.append(top_eigs(W, m))
        return solves[-1]

    def counting_build(graph, k):
        built.append(k)
        return build_frequency_matrix(graph, k)

    monkeypatch.setattr(mfvdm.denoise, "top_eigs", counting_solve)
    monkeypatch.setattr(mfvdm.denoise, "build_frequency_matrix", counting_build)
    da, dc = denoise_stack(coeffs, ctf, g, basis, filt)
    if filt.truncated:
        # the solves come in k order, and each has the spectrum of its own k
        assert built == [] and len(solves) == len(solved)
        for (vals, _), k in zip(solves, solved):
            np.testing.assert_array_equal(vals, spectra[k][0])
    else:
        assert solves == [] and built == solved
    for k in sorted(set(ks) - set(solved)):
        assert da[:, basis.k_slice(k)].size == 0, k
    assert ctf.shape == dc.shape == (g.n, basis.k_slice(0).stop)
    np.testing.assert_array_equal(da, expected_a)
    np.testing.assert_array_equal(dc, expected_c)


@pytest.mark.parametrize("operand, shape", [("coeffs", (60, 50)), ("ctf_coeffs", (60, 5)),
                                            ("ctf_coeffs", (59, 8)), ("ctf_coeffs", (60, 76))],
                         ids=["coeffs-narrow", "ctf-narrow", "ctf-rows", "ctf-full-width"])
def test_denoise_checks_operand_shapes(operand, shape, demo_graph, basis17):
    """The image operand must be (graph nodes, basis coefficients) and the
    CTF operand (graph nodes, p_0), its k = 0 block: a narrower image
    operand would give a narrower output, and its missing blocks would look
    empty and be skipped. A full-width (60, 76) CTF operand, the format
    that held zeros in every k > 0 block, is rejected too."""
    widths = {"coeffs": basis17.n_coeffs, "ctf_coeffs": basis17.k_slice(0).stop}
    assert widths == {"coeffs": 76, "ctf_coeffs": 8}
    ops = {name: _random_block(60, w, seed=8 + i) for i, (name, w) in enumerate(widths.items())}
    ops[operand] = _random_block(*shape, seed=10)
    with pytest.raises(ValueError, match=rf"^{operand} has shape \({shape[0]}, {shape[1]}\), "
                                         rf"expected \(60, {widths[operand]}\)"):
        denoise_stack(ops["coeffs"], ops["ctf_coeffs"], demo_graph, basis17, FilterSpec(kind=4))


def test_ctf_correct_exact_inverse():
    rng = np.random.Generator(np.random.Philox(5))
    img = rng.normal(size=(17, 17))
    C = 0.5 + 0.4 * np.cos(np.linspace(0, 3, 17))[:, None] * np.ones((1, 17))
    modulated = ft_grid(img) * C
    # C >= 0.1, so C / (C^2 + eps) is 1 / C to a relative 1e-12
    back = ctf_correct(modulated, C, eps=1e-14)
    np.testing.assert_allclose(back, img, atol=1e-10)


def test_ctf_correct_regularized_bounded():
    rng = np.random.Generator(np.random.Philox(6))
    img = rng.normal(size=(17, 17))
    C = np.cos(np.linspace(0, 6, 17))[:, None] * np.ones((1, 17))  # has zeros
    out = ctf_correct(ft_grid(img) * C, C, eps=1e-2)
    assert np.isfinite(out).all()
    with pytest.raises(ValueError):
        ctf_correct(ft_grid(img), C, eps=0.0)
    with pytest.raises(ValueError):
        ctf_correct(ft_grid(np.stack([img, img])), np.stack([C, C]), eps=np.array([1e-2, 0.0]))


@pytest.mark.parametrize("eps", [np.nan, np.array([1e-2, np.nan])], ids=["scalar", "per-image"])
def test_ctf_correct_rejects_nan_eps(eps):
    """A NaN regularizer would deconvolve its images to NaN without error."""
    img = np.ones((2, 17, 17))
    with pytest.raises(ValueError, match="eps must be > 0"):
        ctf_correct(ft_grid(img), np.ones_like(img), eps=eps)


def _abs_ctf_fit(prof, with_ctf, basis):
    """The fit by the whole basis of |CTF| of one defocus group, or of one
    without CTF, evaluated at the radii of the in-disk grid points."""
    f1, f2 = freq_grid(basis.L)
    xi = np.hypot(f1, f2).reshape(-1)[basis.grid_index]
    vals = np.abs(ctf_value(prof, xi / prof.pixel_size_A)) if with_ctf else np.ones_like(xi)
    return vals.astype(complex) @ basis.coeff_solver.T


@pytest.mark.parametrize("with_ctf", [True, False])
def test_absolute_ctf_coeffs_per_image(with_ctf, tiny_dataset, basis17):
    """Each image's row is the k = 0 block of the expansion of |CTF| of its
    own defocus group, or of one without CTF; the operand is (n, p_0)."""
    ds = tiny_dataset
    config = RunConfig(n=60, L=17, support_radius=8.0, s=8, n_defocus_groups=4,
                       with_ctf=with_ctf)
    got = absolute_ctf_coeffs(ds["manifest"], ds["profiles"], basis17, config)
    assert got.shape == (60, basis17.k_slice(0).stop)
    for i, g in enumerate(ds["manifest"].defocus_group):
        expected = _abs_ctf_fit(ds["profiles"][g], with_ctf, basis17)
        np.testing.assert_array_equal(got[i], expected[basis17.k_slice(0)])


def _grid_reference(a, basis):
    """One image's Fourier grid: psi a plus the implied negative-k terms."""
    pos = basis.ks > 0
    sign = np.where(basis.ks[pos] % 2 == 0, 1.0, -1.0)
    vals = basis.psi_grid @ a + np.conj((basis.psi_grid[:, pos] * sign) @ a[pos])
    grid = np.zeros(basis.L * basis.L, dtype=complex)
    grid[basis.grid_index] = vals
    return grid.reshape(basis.L, basis.L)


def test_denoise_and_correct_matches_per_image_loop(tiny_dataset, demo_graph, basis17):
    """The stacked reconstruction and CTF correction equal a loop that
    reconstructs and deconvolves one image at a time, each with the
    regularizer 1e-2 max(C^2) of its own effective CTF C."""
    ds = tiny_dataset
    config = RunConfig(n=60, L=17, support_radius=8.0, s=8, m=20, n_defocus_groups=4)
    coeffs = expand_stack(ds["noisy"], basis17)
    ctf = absolute_ctf_coeffs(ds["manifest"], ds["profiles"], basis17, config)
    out, eff = denoise_and_correct(Expansion(coeffs, basis17), ctf, demo_graph, basis17, config)
    da, dc = denoise_stack(coeffs, ctf, demo_graph, basis17, FilterSpec(kind=2, m=20))
    dc_full = np.zeros_like(da)
    dc_full[:, basis17.k_slice(0)] = dc
    for i in range(coeffs.shape[0]):
        C = _grid_reference(dc_full[i], basis17).real
        e = 1e-2 * np.max(C**2)
        ref = ift_grid(_grid_reference(da[i], basis17) * C / (C**2 + e)).real
        assert np.abs(eff[i] - C).max() <= 1e-12 * np.abs(C).max()
        assert np.abs(out[i] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_truncation_past_n_keeps_every_eigenpair(tiny_dataset, demo_graph, basis17):
    """A truncation m past the graph's n nodes keeps all n eigenpairs, as
    classification does: the kind-2 outputs at m = 80 equal those at m = 60
    bit for bit (they raised after every solve when m exceeded n)."""
    ds = tiny_dataset
    coeffs = expand_stack(ds["noisy"], basis17)
    at_n, past_n = (RunConfig(n=60, L=17, support_radius=8.0, s=8, m=m, n_defocus_groups=4)
                    for m in (60, 80))
    ctf = absolute_ctf_coeffs(ds["manifest"], ds["profiles"], basis17, at_n)
    expected = denoise_and_correct(Expansion(coeffs, basis17), ctf, demo_graph, basis17, at_n)
    got = denoise_and_correct(Expansion(coeffs, basis17), ctf, demo_graph, basis17, past_n)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("with_ctf", [True, False])
@pytest.mark.parametrize("L", [17, 33])
def test_absolute_ctf_coeffs_are_radial(L, with_ctf, basis17, basis33):
    """|CTF| (or one) is radial: the operand holds only the (n, p_0) k = 0
    block, and it is the k = 0 block of the fit by the whole basis, bit for
    bit."""
    basis = basis17 if L == 17 else basis33
    groups = 20
    manifest = SimpleNamespace(n=groups, defocus_group=np.arange(groups))
    config = RunConfig(L=L, support_radius=(L - 1) / 2, with_ctf=with_ctf)
    profiles = default_defocus_groups(groups)
    ctf = absolute_ctf_coeffs(manifest, profiles, basis, config)
    assert ctf.shape == (groups, basis.k_slice(0).stop)
    for row, prof in zip(ctf, profiles):
        fit = _abs_ctf_fit(prof, with_ctf, basis)
        np.testing.assert_array_equal(row, fit[basis.k_slice(0)])


def test_reconstruct_grid_matches_per_image_reference(basis17):
    """The grid of a stack, and of each of its vectors, is psi a plus the
    implied negative-k terms, image by image, zero blocks and a zero row
    included; a coefficient width other than the basis's raises BasisError
    naming both widths."""
    a = _random_block(3, basis17.n_coeffs, seed=10)
    for k in (0, 2, 3, basis17.k_max):
        a[:, basis17.k_slice(k)] = 0
    a[0, basis17.k_slice(5)] = 0
    a[2] = 0
    got = reconstruct_grid(a, basis17)
    for i in range(3):
        ref = _grid_reference(a[i], basis17)
        for grid in (got[i], reconstruct_grid(a[i], basis17)):
            assert np.abs(grid - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1.0)
    assert not got[2].any()
    with pytest.raises(BasisError, match=rf"width {basis17.n_coeffs - 1} does not match "
                                         rf"basis n_coeffs={basis17.n_coeffs}"):
        reconstruct_grid(a[:, 1:], basis17)
