"""Per-frequency Hermitian graph matrices, truncated spectral embeddings,
multi-frequency affinity, neighbor refinement, and eigenvector-based
rotational alignment.

For each angular frequency k the graph carries a Hermitian matrix with edge
entries exp(-i*k*alpha_ij), symmetrically normalized by node degrees. The
sign matches the coefficient phase convention: rotating an image by alpha
multiplies its frequency-k coefficients by exp(-i*k*alpha), so transporting a
neighbor's coefficients across an edge applies exp(-i*k*alpha_ij). Top
eigenpairs of these matrices define embeddings whose inner products measure
the consistency of transporting in-plane rotations along paths of two edges;
inconsistent shortcut edges score low and are pruned.
"""

from dataclasses import dataclass

import numpy as np

from .graph import block_product, grid_angle, grid_argmax, rank_pairs, rotation_table, symmetrize
from .pool import cache_blocks, fork_map

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
# whether frequency_eigs ran before in this process
_solved_before = False


def build_frequency_matrix(graph, k):
    """n x n complex CSR matrix with entries e^{-ik alpha_ij}/sqrt(deg_i deg_j)
    on the graph's edges; Hermitian by the angle antisymmetry of the graph."""
    # imported on use, so that `import mfvdm` and the stages that solve no
    # eigenproblem (simulate, evaluate) do not pay for scipy's import
    import scipy.sparse as sp

    if graph.angles is None:
        raise ValueError("graph has no alignment angles: run align_graph on it first")
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
    if not 1 <= m <= n:
        raise ValueError(f"m={m} is not in 1..n for the matrix size n={n}")
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
    # The first call leaves scipy.sparse to its workers, which keeps its
    # 20 MB out of a process that solves once (a CLI stage). A process that
    # solves again imports it here, so that its later pools inherit it
    # instead of each worker importing it anew (0.1 s a pool).
    global _solved_before
    if _solved_before:
        import scipy.sparse  # noqa: F401
    _solved_before = True
    return fork_map(_solve_frequency, [int(k) for k in ks],
                    shared=(graph, m, solve or top_eigs))


def _solve_frequency(graph, m, solve, k):
    return solve(build_frequency_matrix(graph, k), m)


@dataclass(frozen=True)
class SpectralBundle:
    """Top-m eigenpairs of the normalized frequency matrices W_k for k in
    k_list; the affinity and the alignment read W_k^2 = U diag(lambda^2) U^*."""

    k_list: np.ndarray
    eigenvalues: tuple        # per k: (m,) real, descending
    eigenvectors: tuple       # per k: (n, m) complex, orthonormal

    @property
    def n(self):
        return self.eigenvectors[0].shape[0]


def compute_bundle(graph, k_max, m):
    """Eigendecompositions for k = 1..k_max, solved by frequency_eigs."""
    ks = np.arange(1, k_max + 1)
    pairs = list(frequency_eigs(graph, ks, min(m, graph.n)))
    return SpectralBundle(k_list=ks, eigenvalues=tuple(v for v, _ in pairs),
                          eigenvectors=tuple(u for _, u in pairs))


def _affinity_factors(bundle):
    """Per frequency k: (lambda^2, U, normalizer) with the normalizer
    |P_k(i, i)|, +inf where it is at most 1e-300, so that a pair with such
    a node adds exactly 0; also returns the number of these dropped
    (node, frequency) pairs."""
    factors, dropped = [], 0
    for lam, U in zip(bundle.eigenvalues, bundle.eigenvectors):
        lam = lam ** 2
        self_p = np.abs((np.abs(U) ** 2) @ lam)
        ok = self_p > 1e-300
        dropped += int((~ok).sum())
        factors.append((lam, U, np.where(ok, self_p, np.inf)))
    return factors, dropped


def _affinity_block(factors, rows, cols):
    """The affinities of the node pairs rows x cols, from the rank-m factors
    of each P_k; only a block of pairs is ever formed."""
    A = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    for lam, U, norm in factors:
        # conj(P_k[rows, cols]), which has the same |P|^2
        P = block_product(np.conj(U[rows]) * lam[None, :], U[cols])
        A += np.abs(P) ** 2 / (norm[rows, None] * norm[None, cols])
    return A


def _affinity_keys(factors, rows, cols):
    return (np.negative(_affinity_block(factors, rows, cols)),)


def refine_neighbors(bundle, s):
    """Per node, the s largest-affinity other nodes; ties broken by smaller
    index. Returns a symmetrized ViewGraph with angles unset.

    The affinity is symmetric, so graph.rank_pairs forms each block of node
    pairs once and ranks it for the nodes on both sides; no n x n matrix is
    held."""
    factors, _ = _affinity_factors(bundle)
    # per pair: P (complex), |P|^2, its normalizer and quotient, A, sort keys
    _, nb = rank_pairs(bundle.n, s, 64, _affinity_keys, (factors,))
    return symmetrize(bundle.n, np.repeat(np.arange(bundle.n), s), nb.ravel())


def align_edge_bytes(n_freqs, m):
    """Bytes of align_graph's temporaries per edge: the real and imaginary
    parts of z(k) for each of the n_freqs frequencies, the best grid point
    and value, and three rows of m complex values (the gathered eigenvector
    rows and their products). The objective over the rotation grid is formed
    in graph.grid_argmax's chunks."""
    return 16 * n_freqs + 16 + 48 * m


def align_graph(bundle, graph, fft_size=1024):
    """Estimate alignment angles for every edge of a refined graph.

    Each undirected edge (i < j) takes the argmax over the fft_size-point
    rotation grid of Re sum_k z(k) e^{ik alpha}, k in bundle.k_list, with
    z(k) = P_k(i, j): the real and imaginary parts of z times one
    graph.rotation_table, a real matrix product. For a transport-consistent
    graph P_k(i, j) has phase e^{-ik alpha_ij}, so the maximizer recovers
    the stored angle convention. Vectorized over cache-sized chunks of edges
    (pool.cache_blocks); fills graph.angles in place, with alpha_ji = -alpha_ij.
    """
    if fft_size < 1:
        raise ValueError(f"fft_size must be >= 1, got {fft_size}")
    src, dst = graph.rows, graph.indices
    ii, jj = src[src < dst], dst[src < dst]
    K = bundle.k_list.size
    table = rotation_table(bundle.k_list, fft_size, np.ones(K))
    alpha = np.empty(ii.size)
    for rows in cache_blocks(ii.size, align_edge_bytes(K, bundle.eigenvectors[0].shape[1])):
        a, b = ii[rows], jj[rows]
        Z = np.empty((2 * K, a.size))
        for r, (lam, U) in enumerate(zip(bundle.eigenvalues, bundle.eigenvectors)):
            z = np.sum(lam[None, :] ** 2 * U[a] * np.conj(U[b]), axis=1)
            Z[r], Z[K + r] = z.real, z.imag
        alpha[rows] = grid_angle(grid_argmax(Z, table)[0], fft_size)
    aligned = symmetrize(graph.n, ii, jj, alpha)
    if not (np.array_equal(aligned.indptr, graph.indptr)
            and np.array_equal(aligned.indices, graph.indices)):
        raise ValueError("graph is not symmetric")
    graph.angles = aligned.angles
    return graph
