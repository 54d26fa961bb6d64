"""Per-frequency Hermitian graph matrices, truncated spectral embeddings,
multi-frequency affinity, neighbor refinement, and eigenvector-based
rotational alignment.

For each angular frequency k the graph carries a Hermitian matrix with edge
entries exp(-i*k*alpha_ij), symmetrically normalized by node degrees. The
sign matches the coefficient phase convention: rotating an image by alpha
multiplies its frequency-k coefficients by exp(-i*k*alpha), so transporting a
neighbor's coefficients across an edge applies exp(-i*k*alpha_ij). Top
eigenpairs of these matrices define embeddings whose inner products measure
the consistency of transporting in-plane rotations along length-2t paths;
inconsistent shortcut edges score low and are pruned.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import block_rows, smallest_s, symmetrize
from .pool import fork_map

__all__ = [
    "SpectralBundle",
    "build_frequency_matrix",
    "top_eigs",
    "frequency_eigs",
    "compute_bundle",
    "refine_neighbors",
    "align_graph",
]


class EigsError(RuntimeError):
    """Eigensolver failed to converge; carries the achieved residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # a pool worker's error is pickled back to the caller
        return type(self), (str(self), self.residual)


# Thick-restart Lanczos (Wu & Simon 2000): the basis holds at most
# max(2m, 20) vectors, a restart keeps the top m + (cap - m) // 2 Ritz
# vectors, and the top m Ritz pairs have converged when every residual bound
# |beta * s_last| is at most LANCZOS_TOL times the largest |Ritz value|.
LANCZOS_TOL = 1e-13
# the solver gives up after MATVECS_PER_ROW * n matrix-vector products
MATVECS_PER_ROW = 10
# top_eigs raises EigsError when an explicit residual |W u - lambda u|
# exceeds this, whichever branch solved
RESIDUAL_TOL = 1e-8


def build_frequency_matrix(graph, k):
    """n x n complex CSR matrix with entries e^{-ik alpha_ij}/sqrt(deg_i deg_j)
    on the graph's edges; Hermitian by the angle antisymmetry of the graph."""
    deg = graph.degrees
    if (deg == 0).any():
        bad = int(np.flatnonzero(deg == 0)[0])
        raise ValueError(f"node {bad} is isolated (degree 0)")
    norm = np.sqrt(np.repeat(deg, deg) * deg[graph.indices])
    return sp.csr_matrix((np.exp(-1j * k * graph.angles) / norm, graph.indices, graph.indptr),
                         shape=(graph.n, graph.n))


def _orthogonalize(B, w):
    """Classical Gram-Schmidt of w against the orthonormal rows of B,
    applied twice (CGS2); returns (w, summed coefficients B^* w). Conjugates
    the vector, never the basis, so B is not copied."""
    h = np.conj(B @ np.conj(w))
    w = w - h @ B
    h2 = np.conj(B @ np.conj(w))
    return w - h2 @ B, h + h2


def _lanczos(W, m, rng):
    """Top-m eigenpairs of the Hermitian W, descending, by thick-restart
    Lanczos with full reorthogonalization and a random start from rng."""
    n = W.shape[0]
    cap = max(2 * m, 20)
    keep = m + (cap - m) // 2
    V = np.empty((cap + 1, n), dtype=complex)   # orthonormal basis rows
    # lower triangle of the projection conj(V) W V^T, which is real for a
    # Hermitian W: alphas on the diagonal, betas below it, and after a
    # restart the coupling row of the kept Ritz vectors
    T = np.zeros((cap + 1, cap))
    draw = lambda: rng.normal(size=n) + 1j * rng.normal(size=n)
    v = draw()
    V[0] = v / np.linalg.norm(v)
    start, matvecs = 0, 0
    while True:
        for j in range(start, cap):
            Wv = W @ V[j]
            w, h = _orthogonalize(V[:j + 1], Wv)
            T[j, j] = h[j].real
            beta = np.linalg.norm(w)
            if beta > np.finfo(float).eps * np.linalg.norm(Wv):
                T[j + 1, j] = beta
            else:
                # the basis spans an invariant subspace: go on from a fresh
                # random direction, uncoupled (T[j + 1, j] stays 0)
                w, _ = _orthogonalize(V[:j + 1], draw())
                beta = np.linalg.norm(w)
            V[j + 1] = w / beta
        matvecs += cap - start
        theta, S = np.linalg.eigh(T[:cap], UPLO="L")
        theta, S = theta[::-1], S[:, ::-1]
        coupling = T[cap, cap - 1] * S[cap - 1, :keep]
        bound = np.abs(coupling[:m]).max()
        if bound <= LANCZOS_TOL * np.abs(theta).max():
            return theta[:m], V[:cap].T @ S[:, :m]
        if matvecs >= MATVECS_PER_ROW * n:
            raise EigsError(f"Lanczos did not converge in {matvecs} matrix-vector products "
                            f"(residual {bound:.3e})", bound)
        # restart from the kept Ritz vectors and the residual direction;
        # their projection is diag(theta) bordered by the coupling row (S is
        # real, so the basis is combined as real and imaginary parts)
        V[:keep] = (S[:, :keep].T @ V[:cap].view(float)).view(complex)
        V[keep] = V[cap]
        T[:] = 0.0
        T[np.arange(keep), np.arange(keep)] = theta[:keep]
        T[keep, :keep] = coupling
        start = keep


def top_eigs(W, m):
    """Largest-m eigenpairs of the Hermitian matrix W by algebraic value,
    descending.

    Dense Hermitian decomposition for small problems or large m; otherwise
    thick-restart Lanczos from a start vector drawn from Philox(0).
    """
    n = W.shape[0]
    if m > n:
        raise ValueError(f"m={m} exceeds matrix size n={n}")
    if m > n // 4 or n <= 400:
        vals, vecs = np.linalg.eigh(W.toarray())
        vals, vecs = vals[::-1][:m], vecs[:, ::-1][:, :m]
    else:
        vals, vecs = _lanczos(W, m, np.random.Generator(np.random.Philox(0)))
    resid = np.linalg.norm(W @ vecs - vecs * vals[None, :], axis=0)
    if resid.max() > RESIDUAL_TOL:
        raise EigsError(f"eigenpair residual {resid.max():.3e} exceeds {RESIDUAL_TOL:.1e}",
                        resid.max())
    return vals.real, vecs


def frequency_eigs(graph, ks, m, *, solve=None):
    """Yield solve(build_frequency_matrix(graph, k), m) for each k in ks, in
    order; solve is top_eigs unless given.

    The solves are independent, so they run on pool.fork_map, whose workers
    inherit the graph. Every solve starts from the same Philox(0) draw, with
    no per-k seed, so the eigenpairs are the same bits whether the solves
    run pooled or in this process.
    """
    return fork_map(_solve_frequency, [int(k) for k in ks],
                    shared=(graph, m, solve or top_eigs))


def _solve_frequency(graph, m, solve, k):
    return solve(build_frequency_matrix(graph, k), m)


@dataclass(frozen=True)
class SpectralBundle:
    """Top-m eigenpairs of the normalized frequency matrices for k in k_list."""

    k_list: np.ndarray
    eigenvalues: tuple        # per k: (m,) real, descending
    eigenvectors: tuple       # per k: (n, m) complex, orthonormal
    degrees: np.ndarray
    t: int = 1
    m: int = 50

    @property
    def n(self):
        return self.degrees.size


def compute_bundle(graph, k_max, m, *, t=1):
    """Eigendecompositions for k = 1..k_max, solved by frequency_eigs."""
    ks = np.arange(1, k_max + 1)
    pairs = list(frequency_eigs(graph, ks, min(m, graph.n)))
    return SpectralBundle(k_list=ks, eigenvalues=tuple(v for v, _ in pairs),
                          eigenvectors=tuple(u for _, u in pairs), degrees=graph.degrees,
                          t=t, m=m)


def _affinity_factors(bundle):
    """Per frequency k: (lambda^{2t}, U, usable-node mask, normalizer) with
    the normalizer |P_k(i, i)| (1 where it vanishes); also returns the
    number of dropped (node, frequency) pairs."""
    factors, dropped = [], 0
    for lam, U in zip(bundle.eigenvalues, bundle.eigenvectors):
        lam = lam ** (2 * bundle.t)
        self_p = np.abs((np.abs(U) ** 2) @ lam)
        ok = self_p > 1e-300
        dropped += int((~ok).sum())
        factors.append((lam, U, ok, np.where(ok, self_p, 1.0)))
    return factors, dropped


def _affinity_rows(factors, n, start, stop):
    """Rows start:stop of the affinity matrix, from the rank-m factors of
    each P_k; only a (stop - start) x n block is ever formed."""
    A = np.zeros((stop - start, n))
    for lam, U, ok, norm in factors:
        # conj(P_k[rows]); the conjugate keeps U^T a view and |P|^2 unchanged
        P = (np.conj(U[start:stop]) * lam[None, :]) @ U.T
        A += np.where(ok[start:stop, None] & ok[None, :],
                      np.abs(P) ** 2 / (norm[start:stop, None] * norm[None, :]), 0.0)
    return A


def refine_neighbors(bundle, s):
    """Per node, the s largest-affinity other nodes; ties broken by smaller
    index. Returns a symmetrized ViewGraph with angles unset.

    Affinity rows are formed and ranked a block at a time, so no n x n
    matrix is held."""
    n = bundle.n
    if s >= n:
        raise ValueError(f"s={s} must be < n={n}")
    factors, _ = _affinity_factors(bundle)
    # per row: P (complex), |P|^2 and its quotient, the mask, A, sort keys
    rows = block_rows(64 * n)
    nb = np.empty((n, s), dtype=int)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        A = _affinity_rows(factors, n, start, stop)
        r = np.arange(stop - start)
        A[r, start + r] = -np.inf
        nb[start:stop] = smallest_s(-A, s)
    return symmetrize(n, np.repeat(np.arange(n), s), nb.ravel())


def align_graph(bundle, graph, fft_size=1024):
    """Estimate alignment angles for every edge of a refined graph.

    Each undirected edge (i < j) takes the grid argmax of
    Re sum_k z(k) e^{ik alpha}, with z(k) = P_k(i, j) zero-padded to
    fft_size. For a transport-consistent graph P_k(i, j) has phase
    e^{-ik alpha_ij}, so the maximizer recovers the stored angle convention.
    Vectorized over blocks of edges; fills graph.angles in place, with
    alpha_ji = -alpha_ij.
    """
    if fft_size <= bundle.k_list.max():
        raise ValueError("fft_size must exceed the largest frequency")
    src, dst = graph.rows, graph.indices
    ii, jj = src[src < dst], dst[src < dst]
    kmax = int(bundle.k_list.max())
    factors = [(int(k), lam ** (2 * bundle.t), U)
               for k, lam, U in zip(bundle.k_list, bundle.eigenvalues, bundle.eigenvectors)]
    alpha = np.empty(ii.size)
    # per edge: the zero-padded spectrum, its FFT and real part, gathered rows
    step = block_rows(40 * fft_size + 48 * bundle.m)
    for start in range(0, ii.size, step):
        a, b = ii[start:start + step], jj[start:start + step]
        Z = np.zeros((a.size, kmax + 1), dtype=complex)
        for k, lam, U in factors:
            Z[:, k] = np.sum(lam[None, :] * U[a] * np.conj(U[b]), axis=1)
        obj = np.real(np.fft.fft(np.conj(Z), n=fft_size, axis=1))
        alpha[start:start + step] = 2.0 * np.pi * np.argmax(obj, axis=1) / fft_size
    aligned = symmetrize(graph.n, ii, jj, np.where(alpha > np.pi, alpha - 2.0 * np.pi, alpha))
    if not (np.array_equal(aligned.indptr, graph.indptr)
            and np.array_equal(aligned.indices, graph.indices)):
        raise ValueError("graph is not symmetric")
    graph.angles = aligned.angles
    return graph
