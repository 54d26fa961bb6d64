"""Acceptance gate: structural invariants, oracle equivalences, and
directional quality targets on a seed-pinned synthetic dataset (L=33,
n=1000).

Heavy artifacts (datasets, graphs, denoised stacks) are computed lazily and
cached at module scope, so each is built exactly once per run.
"""

import dataclasses
import time

import numpy as np
import pytest

from mfvdm import RunConfig, build_basis, simulate_dataset
from mfvdm.basis import rotate_coeffs
from mfvdm.denoise import FilterSpec, apply_spectral_filter
from mfvdm.graph import true_alignment
from mfvdm.metrics import fit_to_reference, mse, neighbor_histograms, ssim, wrap_degrees
from mfvdm.pipeline import (
    absolute_ctf_coeffs,
    classify,
    denoise_and_correct,
    prepare_coeffs,
)
from mfvdm.spectral import (
    align_graph,
    build_frequency_matrix,
    compute_bundle,
    refine_neighbors,
    top_eigs,
)
from reference import (
    affinity_matrix,
    alignment_spectrum,
    embedding_dot,
    estimate_alignment,
    rid_align,
)

SEED = 0
ANGLE_BOUND_DEG = 4.0 * (360.0 / 1024.0)


class _Context:
    """Lazily computed, cached pipeline artifacts shared by the criteria."""

    def __init__(self):
        self.basis = build_basis(33, 0.5, 16.0)
        self._data = {}
        self._cls = {}
        self._scores = {}
        self.classify_seconds = {}

    def dataset(self, snr, shift=0.0):
        key = (snr, shift)
        if key not in self._data:
            cfg = self.config(snr)
            clean, _, noisy, profiles, manifest = simulate_dataset(
                cfg.n, cfg.L, SEED, snr, support_radius=cfg.support_radius,
                shift_px=shift,
            )
            self._data[key] = (clean, noisy, profiles, manifest)
        return self._data[key]

    def config(self, snr, **overrides):
        base = RunConfig(snr=1.0 if not np.isfinite(snr) else snr)
        if not np.isfinite(snr):
            overrides.setdefault("energy_fraction", 1.0)
        return dataclasses.replace(base, **overrides)

    def classification(self, snr, shift=0.0):
        key = (snr, shift)
        if key not in self._cls:
            clean, noisy, profiles, manifest = self.dataset(snr, shift)
            cfg = self.config(snr)
            t0 = time.monotonic()
            coeffs, noise_var = prepare_coeffs(noisy, manifest, profiles,
                                               self.basis, cfg)
            initial, bundle, refined = classify(coeffs, self.basis, cfg,
                                                noise_var=noise_var)
            self.classify_seconds[key] = time.monotonic() - t0
            self._cls[key] = (coeffs, initial, refined)
        return self._cls[key]

    def neighbor_fractions(self, snr, shift=0.0, cutoff_deg=20.0):
        _, initial, refined = self.classification(snr, shift)
        _, _, _, manifest = self.dataset(snr, shift)
        f_init = float(np.mean(
            neighbor_histograms(initial, manifest)["theta_deg"] < cutoff_deg))
        f_ref = float(np.mean(
            neighbor_histograms(refined, manifest)["theta_deg"] < cutoff_deg))
        return f_init, f_ref

    def scores(self, snr, kind=None, shift=0.0):
        """Dataset-mean (ssim, mse) of the noisy stack (kind None) or the
        denoised stack under the given filter kind."""
        key = (snr, kind, shift)
        if key not in self._scores:
            clean, noisy, profiles, manifest = self.dataset(snr, shift)
            if kind is None:
                stack = noisy
            else:
                coeffs, _, refined = self.classification(snr, shift)
                cfg = self.config(snr, filter_kind=kind)
                ctfc = absolute_ctf_coeffs(manifest, profiles, self.basis, cfg)
                stack, _ = denoise_and_correct(coeffs, ctfc, refined,
                                               self.basis, cfg)
            s_vals, m_vals = [], []
            for img, ref in zip(stack, clean):
                fitted = fit_to_reference(img, ref)
                s_vals.append(ssim(fitted, ref))
                m_vals.append(mse(fitted, ref))
            self._scores[key] = (float(np.mean(s_vals)), float(np.mean(m_vals)))
        return self._scores[key]


@pytest.fixture(scope="module")
def ctx():
    return _Context()


# --------------------------------------------------------------------------
# 1. structural invariants on the demo graph

def test_criterion_1_structural_invariants(demo_graph):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(23))
    beta = rng.uniform(-np.pi, np.pi, size=demo_graph.n)
    from mfvdm.graph import ViewGraph

    regauged = ViewGraph(
        indptr=demo_graph.indptr,
        indices=demo_graph.indices,
        angles=demo_graph.angles - beta[demo_graph.rows] + beta[demo_graph.indices],
        dists=demo_graph.dists,
    )
    for k in range(0, 11):
        Wk = build_frequency_matrix(demo_graph, k)
        W = Wk.toarray()
        assert np.abs(W - np.conj(W.T)).max() < 1e-12, f"k={k} not Hermitian"
        vals, vecs = top_eigs(Wk, demo_graph.n)
        assert np.abs(vals).max() <= 1.0 + 1e-10, f"k={k} spectrum unbounded"
        resid = np.linalg.norm(Wk @ vecs - vecs * vals[None, :], axis=0)
        assert resid.max() < 1e-8, f"k={k} eigenresidual too large"
    # gauge invariance of affinity and alignment
    b1 = compute_bundle(demo_graph, 10, m=demo_graph.n)
    b2 = compute_bundle(regauged, 10, m=demo_graph.n)
    A1, _ = affinity_matrix(b1)
    A2, _ = affinity_matrix(b2)
    assert np.abs(A1 - A2).max() < 1e-8
    i, j = 0, int(demo_graph.indices[0])
    a1 = estimate_alignment(b1, i, j, fft_size=4096)
    a2 = estimate_alignment(b2, i, j, fft_size=4096)
    shift = (a2 - (a1 - beta[i] + beta[j])) % (2 * np.pi)
    assert min(shift, 2 * np.pi - shift) < 4 * 2 * np.pi / 4096
    assert time.monotonic() - t0 < 60.0


# --------------------------------------------------------------------------
# 2. oracle equivalences on small problems

def _dense_connection(graph, k):
    n = graph.n
    W = np.zeros((n, n), dtype=complex)
    W[graph.rows, graph.indices] = np.exp(-1j * k * graph.angles)
    return W


def test_criterion_2a_embedding_vs_matrix_power(demo_graph):
    t = 1
    bundle = compute_bundle(demo_graph, 4, m=demo_graph.n, t=t)
    for k in [1, 2, 4]:
        deg = demo_graph.degrees.astype(float)
        Wt = _dense_connection(demo_graph, k) / np.sqrt(np.outer(deg, deg))
        P = np.linalg.matrix_power(Wt, 2 * t)
        for i, j in [(0, 1), (7, 33), (12, 12), (40, 59)]:
            assert abs(embedding_dot(bundle, k, i, j) - np.abs(P[i, j]) ** 2) < 1e-10


def test_criterion_2b_linear_filter_vs_transport_average(demo_graph):
    rng = np.random.Generator(np.random.Philox(31))
    n = demo_graph.n
    block = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    for k in [0, 1, 3]:
        vals, vecs = top_eigs(build_frequency_matrix(demo_graph, k), n)
        got = apply_spectral_filter(block, vals, vecs, demo_graph.degrees,
                                    FilterSpec(kind=4))
        S = _dense_connection(demo_graph, k) / demo_graph.degrees[:, None]
        assert np.abs(got - S @ block).max() < 1e-10


def test_criterion_2c_quadratic_filter_vs_two_step(demo_graph):
    rng = np.random.Generator(np.random.Philox(37))
    n = demo_graph.n
    block = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    for k in [1, 2]:
        vals, vecs = top_eigs(build_frequency_matrix(demo_graph, k), n)
        got = apply_spectral_filter(block, vals, vecs, demo_graph.degrees,
                                    FilterSpec(kind=5))
        S = _dense_connection(demo_graph, k) / demo_graph.degrees[:, None]
        expected = 2.0 * (S @ block) - S @ (S @ block)
        assert np.abs(got - expected).max() < 1e-10


def test_criterion_2d_alignment_vs_brute_force(demo_graph, basis17):
    rng = np.random.Generator(np.random.Philox(41))
    a = rng.normal(size=basis17.n_coeffs) + 1j * rng.normal(size=basis17.n_coeffs)
    b = rng.normal(size=basis17.n_coeffs) + 1j * rng.normal(size=basis17.n_coeffs)
    fft_size = 128
    d, ahat = rid_align(a, b, basis17, fft_size=fft_size)
    w = np.where(basis17.ks == 0, 1.0, 2.0)
    dists = []
    for t in range(fft_size):
        alpha = 2.0 * np.pi * t / fft_size
        diff = a - rotate_coeffs(b, basis17, alpha)
        dists.append(np.sqrt((np.abs(diff) ** 2 * w).sum()))
    t_best = int(np.argmin(dists))
    alpha_brute = 2.0 * np.pi * t_best / fft_size
    if alpha_brute > np.pi:
        alpha_brute -= 2.0 * np.pi
    assert abs(ahat - alpha_brute) < 1e-12
    assert abs(d - dists[t_best]) < 1e-8

    bundle = compute_bundle(demo_graph, 5, m=demo_graph.n)
    for i, j in [(0, 1), (9, 25)]:
        got = estimate_alignment(bundle, i, j, fft_size=fft_size)
        z = alignment_spectrum(bundle, i, j)
        ks = np.arange(z.size)
        grid = 2.0 * np.pi * np.arange(fft_size) / fft_size
        vals = [np.real(np.sum(np.conj(z) * np.exp(-1j * ks * alpha)))
                for alpha in grid]
        assert abs(np.real(np.sum(np.conj(z) * np.exp(-1j * ks * (got % (2 * np.pi)))))
                   - max(vals)) < 1e-12


# --------------------------------------------------------------------------
# 3. alignment accuracy on the clean phantom

def test_criterion_3_clean_alignment_accuracy(ctx):
    _, _, refined = ctx.classification(np.inf)
    _, _, _, manifest = ctx.dataset(np.inf)
    errs = []
    for i, j, alpha in refined.edges():
        truth = true_alignment(manifest.rotations[i], manifest.rotations[j])
        errs.append(abs(float(wrap_degrees(np.degrees(alpha - truth)))))
    assert np.median(errs) < ANGLE_BOUND_DEG


# --------------------------------------------------------------------------
# 4. neighbor-search robustness ordering

def test_criterion_4_low_snr_refinement_gain(ctx):
    """At SNR 0.01 refinement must add >= 10 percentage points of true
    neighbors over the initial graph."""
    f_init, f_ref = ctx.neighbor_fractions(0.01)
    assert f_ref - f_init >= 0.10, (
        f"refined {f_ref:.3f} vs initial {f_init:.3f}: gain "
        f"{f_ref - f_init:+.3f} < +0.100"
    )


def test_criterion_4_high_snr_agreement(ctx):
    f_init, f_ref = ctx.neighbor_fractions(0.05)
    assert abs(f_ref - f_init) <= 0.05


def test_criterion_4_runtime(ctx):
    ctx.classification(0.01)
    ctx.classification(0.05)
    total = ctx.classify_seconds[(0.01, 0.0)] + ctx.classify_seconds[(0.05, 0.0)]
    assert total < 600.0


# --------------------------------------------------------------------------
# 5. denoising improvement and SNR monotonicity

@pytest.mark.parametrize("snr", [0.05, 0.02, 0.01])
def test_criterion_5_denoising_improves(ctx, snr):
    s_noisy, m_noisy = ctx.scores(snr, kind=None)
    s_den, m_den = ctx.scores(snr, kind=2)
    assert s_den > s_noisy
    assert m_den < m_noisy


def test_criterion_5_monotone_in_snr(ctx):
    s_05, _ = ctx.scores(0.05, kind=2)
    s_02, _ = ctx.scores(0.02, kind=2)
    s_01, _ = ctx.scores(0.01, kind=2)
    assert s_05 > s_02 > s_01


# --------------------------------------------------------------------------
# 6. filter/truncation orderings

def test_criterion_6_truncation_wins_at_low_snr(ctx):
    s_trunc, _ = ctx.scores(0.01, kind=2)
    s_full, _ = ctx.scores(0.01, kind=5)
    assert s_trunc > s_full


def test_criterion_6_full_spectrum_competitive_at_high_snr(ctx):
    s_full, _ = ctx.scores(0.05, kind=4)
    s_trunc, _ = ctx.scores(0.05, kind=1)
    assert s_full >= s_trunc - 0.005


# --------------------------------------------------------------------------
# 7. shift robustness

def test_criterion_7_shift_robustness(ctx):
    s_noisy, m_noisy = ctx.scores(0.05, kind=None, shift=1.0)
    s_den, m_den = ctx.scores(0.05, kind=2, shift=1.0)
    assert s_den > s_noisy
    assert m_den < m_noisy


# --------------------------------------------------------------------------
# 8. single-frequency reduction matches an independent VDM

def test_criterion_8_vdm_reduction(demo_graph):
    t = 1
    bundle = compute_bundle(demo_graph, k_max=1, m=demo_graph.n, t=t)
    A, _ = affinity_matrix(bundle)
    deg = demo_graph.degrees.astype(float)
    Wt = _dense_connection(demo_graph, 1) / np.sqrt(np.outer(deg, deg))
    P = np.linalg.matrix_power(Wt, 2 * t)
    self_p = np.abs(np.diag(P))
    A_vdm = np.abs(P) ** 2 / np.outer(self_p, self_p)
    assert np.abs(A - A_vdm).max() < 1e-10
