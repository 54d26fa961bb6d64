"""Initial s-nearest-neighbor graph from rotationally invariant distances.

Each directed edge carries the in-plane angle by which the neighbor image is
rotated counter-clockwise to match the source image. The graph is symmetrized
by edge union with the reverse angle negated, so stored angles satisfy
alpha_ij = -alpha_ji exactly.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .basis import expand_stack  # noqa: F401 - unused; perfbench/tracing.py wraps it here
from .io import FormatError, atomic_open
from .pool import fork_map, row_blocks

# rows per task of the pooled RID search, rounded down to whole row blocks
# (at least one), so that the pooled search ranks the serial search's blocks
SEARCH_TASK_ROWS = 128

__all__ = ["ViewGraph", "symmetrize", "initial_nn_search", "viewing_angle",
           "true_alignment", "write_graph_csv", "read_graph_csv"]


@dataclass
class ViewGraph:
    """Symmetric graph in CSR form with per-edge alignment angles.

    Node i's neighbors are indices[indptr[i]:indptr[i + 1]], ascending;
    angles and dists run parallel to indices.
    """

    indptr: np.ndarray       # (n + 1,) row offsets into indices
    indices: np.ndarray      # (E,) neighbor ids, ascending within each row
    angles: np.ndarray = None   # (E,) alpha_ij, or None if not yet estimated
    dists: np.ndarray = None    # (E,) RID distances, optional

    @property
    def n(self):
        return self.indptr.size - 1

    @property
    def degrees(self):
        return np.diff(self.indptr)

    @property
    def rows(self):
        """Source node of each stored edge."""
        return np.repeat(np.arange(self.n), self.degrees)

    def edges(self):
        """Iterate (i, j, alpha) over directed edges (alpha None if unset)."""
        angles = [None] * self.indices.size if self.angles is None else self.angles.tolist()
        return zip(self.rows.tolist(), self.indices.tolist(), angles)


def symmetrize(n, src, dst, angles=None, dists=None):
    """Union of the directed edges src -> dst and their reverses, as a
    ViewGraph; a reverse edge gets the negated angle and the same distance.
    When both directions are given, the (i < j) direction's values win."""
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
    flip = src > dst
    lo, hi = np.where(flip, dst, src), np.where(flip, src, dst)
    # one edge per undirected pair: sorted by pair, the i < j copy first
    order = np.lexsort((flip, lo * n + hi))
    pick = order[np.diff((lo * n + hi)[order], prepend=-1) != 0]
    rows = np.concatenate([lo[pick], hi[pick]])
    cols = np.concatenate([hi[pick], lo[pick]])
    perm = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    if angles is not None:
        a = np.where(flip, -np.asarray(angles), angles)[pick]
        angles = np.concatenate([a, -a])[perm]
    if dists is not None:
        d = np.asarray(dists)[pick]
        dists = np.concatenate([d, d])[perm]
    return ViewGraph(indptr=indptr, indices=cols[perm], angles=angles, dists=dists)


def smallest_s(keys, s):
    """Per row of keys, the column indices of the s smallest values in
    ascending order, ties broken by the smaller index: the first s columns
    of a stable argsort, found by a partition instead of a full sort."""
    cols = np.sort(np.argpartition(keys, s - 1, axis=1)[:, :s], axis=1)
    kth = np.take_along_axis(keys, cols, axis=1).max(axis=1, keepdims=True)
    # rows whose s-th value is tied across the cut keep every smaller value
    # and, of the tied ones, those of smallest index
    split = np.flatnonzero((keys <= kth).sum(axis=1) > s)
    if split.size:
        k, v = keys[split], kth[split]
        below, tied = k < v, k == v
        fill = s - below.sum(axis=1, keepdims=True)
        cols[split] = np.nonzero(below | (tied & (np.cumsum(tied, axis=1) <= fill)))[1].reshape(-1, s)
    order = np.argsort(np.take_along_axis(keys, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def search_bytes(n, n_freqs, fft_size):
    """(bytes per ranked row, bytes per block) of the RID search's
    temporaries. Each row holds one complex cross-spectrum row, its real and
    imaginary parts for each of n_freqs frequencies, and the best shift,
    best value, distance and sort key of each of the n columns; a block
    holds one row of correlations over the fft_size-point rotation grid."""
    return n * (16 + 16 * n_freqs + 32), 8 * n * fft_size


def rotation_table(ks, fft_size, weights):
    """(2K, fft_size) table [w cos(2 pi k t / N); -w sin(2 pi k t / N)] over
    the frequencies ks and grid points t = 0..N-1 (N = fft_size). With the
    real parts of spectra z(k) in the first K columns of a row and their
    imaginary parts in the last K, the row times the table is
    Re sum_k w(k) z(k) e^{2 pi i k t / N} on the whole grid."""
    ks = np.asarray(ks)
    phase = 2.0 * np.pi * (np.outer(ks, np.arange(fft_size)) % fft_size) / fft_size
    w = np.asarray(weights, dtype=float)[:, None]
    return np.concatenate([w * np.cos(phase), -w * np.sin(phase)])


def grid_angle(t, fft_size):
    """Angles 2 pi t / fft_size of rotation-grid points t, in (-pi, pi]."""
    alpha = 2.0 * np.pi * t / fft_size
    return np.where(alpha > np.pi, alpha - 2.0 * np.pi, alpha)


def initial_nn_search(coeffs, basis, s, fft_size=256):
    """Brute-force all-pairs RID ranking; s smallest distances per node.

    Ties broken by smaller index. Returns the symmetrized ViewGraph.
    Every frequency whose coefficient block is not all zero is ranked.

    The correlation of two images over the fft_size-point rotation grid is
    a trigonometric polynomial in the ranked frequencies: the real and
    imaginary parts of each pair's per-k cross-spectra times one
    rotation_table, a real matrix product. Rows are ranked a block at a
    time (pool.row_blocks); each block's temporaries stay within
    pool.BLOCK_BYTES.
    Runs of consecutive blocks, about SEARCH_TASK_ROWS rows each, are the
    tasks of pool.fork_map; the graph does not depend on the number of
    workers.
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[0]
    if n < s + 1:
        raise ValueError(f"need at least s+1={s + 1} images, got {n}")
    if fft_size < 2 * basis.k_max + 1:
        raise ValueError(f"fft_size must be >= {2 * basis.k_max + 1}")
    freqs = np.flatnonzero([coeffs[:, basis.k_slice(k)].any() for k in range(basis.k_max + 1)])
    # column-major: BLAS then sums each row's terms in column order
    sq = np.asfortranarray(np.abs(coeffs) ** 2) @ np.where(basis.ks == 0, 1.0, 2.0)

    # per ranked frequency, its coefficient block and conjugate transpose,
    # for fast cross-spectra; the k > 0 terms count their conjugate twice
    blocks = [(b, np.conj(b).T) for b in (coeffs[:, basis.k_slice(k)].copy() for k in freqs)]
    table = rotation_table(freqs, fft_size, np.where(freqs == 0, 1.0, 2.0))
    chunks = row_blocks(n, *search_bytes(n, freqs.size, fft_size))
    per_task = max(1, SEARCH_TASK_ROWS // (chunks[0].stop - chunks[0].start))
    tasks = [chunks[i:i + per_task] for i in range(0, len(chunks), per_task)]
    parts = fork_map(_rank_rows, tasks, shared=(blocks, table, sq, s))
    nb_idx, nb_alpha, nb_dist = (np.concatenate(p) for p in zip(*parts))
    return symmetrize(n, np.repeat(np.arange(n), s), nb_idx.ravel(),
                      nb_alpha.ravel(), nb_dist.ravel())


def _rank_rows(blocks, table, sq, s, chunks):
    """(indices, angles, distances), each (rows, s), of the s nearest
    neighbors of the rows of consecutive slices chunks, one chunk at a
    time."""
    start, n = chunks[0].start, sq.size
    n_freqs, fft_size = table.shape[0] // 2, table.shape[1]
    nb_idx = np.empty((chunks[-1].stop - start, s), dtype=int)
    nb_alpha = np.empty(nb_idx.shape)
    nb_dist = np.empty(nb_idx.shape)
    # the correlations of one row at a time, in one buffer: a chunk's would
    # pass malloc's mmap threshold at n = 10^4 (41 MB for two rows), be
    # mapped and page-faulted anew for every chunk and fall out of cache
    # before argmax reads it, which made the search 1.9x slower per row
    corr = np.empty((n, fft_size))
    cols = np.arange(n)
    for chunk in chunks:
        lo, hi = chunk.start, chunk.stop
        spec = np.empty((hi - lo, n, 2 * n_freqs))
        for r, (b, bh) in enumerate(blocks):
            c = b[lo:hi] @ bh
            spec[:, :, r] = c.real
            spec[:, :, n_freqs + r] = c.imag
        del c
        best_t = np.empty((hi - lo, n), dtype=np.intp)
        best = np.empty((hi - lo, n))
        for r in range(hi - lo):
            np.matmul(spec[r], table, out=corr)
            np.argmax(corr, axis=-1, out=best_t[r])
            best[r] = corr[cols, best_t[r]]
        del spec
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * best
        np.maximum(d2, 0.0, out=d2)
        r = np.arange(hi - lo)
        d2[r, lo + r] = np.inf
        order = smallest_s(d2, s)
        out = slice(lo - start, hi - start)
        nb_idx[out] = order
        nb_dist[out] = np.sqrt(np.take_along_axis(d2, order, axis=1))
        nb_alpha[out] = grid_angle(np.take_along_axis(best_t, order, axis=1), fft_size)
    return nb_idx, nb_alpha, nb_dist


def viewing_angle(v_i, v_j):
    """Angle between unit viewing directions, in [0, pi]. Accepts batches."""
    dot = np.sum(np.asarray(v_i) * np.asarray(v_j), axis=-1)
    return np.arccos(np.clip(dot, -1.0, 1.0))


def true_alignment(R_i, R_j):
    """Ground-truth in-plane alignment from the two 3D rotations.

    Parallel-transports the tangent frame of j to i along the great circle
    between the viewing directions, then reads off the residual in-plane
    rotation. For identical views this is the angle gamma with
    R_j = R_i @ Rz(gamma). Accepts batches of rotations (..., 3, 3).
    """
    R_i = np.asarray(R_i)
    R_j = np.asarray(R_j)
    v_i, v_j = R_i[..., :, 2], R_j[..., :, 2]
    axis = np.cross(v_j, v_i)
    norm = np.linalg.norm(axis, axis=-1, keepdims=True)
    # (anti)parallel views: a zero axis makes the transport the identity
    parallel = norm < 1e-12
    axis = np.where(parallel, 0.0, axis / np.where(parallel, 1.0, norm))
    ang = viewing_angle(v_i, v_j)[..., None, None]
    K = np.zeros(axis.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -axis[..., 2], axis[..., 1]
    K[..., 1, 0], K[..., 1, 2] = axis[..., 2], -axis[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -axis[..., 1], axis[..., 0]
    T = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    O = np.swapaxes(R_i[..., :, :2], -1, -2) @ T @ R_j[..., :, :2]
    return np.arctan2(O[..., 1, 0] - O[..., 0, 1], O[..., 0, 0] + O[..., 1, 1])


def write_graph_csv(graph, path):
    """Edge list CSV: i, j, alpha_ij_radians, d_rid (nan where unset)."""
    unset = [np.nan] * graph.indices.size
    angles = unset if graph.angles is None else graph.angles.tolist()
    dists = unset if graph.dists is None else graph.dists.tolist()
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "alpha_ij_radians", "d_rid"])
        w.writerows([i, j, repr(al), repr(d)] for i, j, al, d in
                    zip(graph.rows.tolist(), graph.indices.tolist(), angles, dists,
                        strict=True))


def read_graph_csv(path):
    """Graph from an edge-list CSV as written by write_graph_csv.

    The file must hold each undirected edge in both directions with
    alpha_ji = -alpha_ij, finite angles, non-negative node ids, no
    self-loops and no repeated rows; d_rid may be nan. Raises FormatError
    otherwise.
    """
    try:
        edges = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1, dtype=[
            ("i", int), ("j", int), ("alpha", float), ("d", float)])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed row: {exc}") from None
    if edges.size == 0:
        raise FormatError(f"{path}: no edges")
    i, j, alpha = edges["i"], edges["j"], edges["alpha"]
    if (i < 0).any() or (j < 0).any():
        raise FormatError(f"{path}: negative node id")
    if (i == j).any():
        raise FormatError(f"{path}: self-loop at node {i[i == j][0]}")
    if not np.isfinite(alpha).all():
        raise FormatError(f"{path}: non-finite angle")
    n = int(max(i.max(), j.max())) + 1
    order = np.argsort(i * n + j)
    key = (i * n + j)[order]
    if (key[1:] == key[:-1]).any():
        raise FormatError(f"{path}: repeated edge rows")
    rev = np.minimum(np.searchsorted(key, j * n + i), key.size - 1)
    if (key[rev] != j * n + i).any():
        raise FormatError(f"{path}: an edge has no reverse row")
    if (alpha[order[rev]] != -alpha).any():
        raise FormatError(f"{path}: alpha_ji != -alpha_ij")
    return symmetrize(n, i, j, alpha, edges["d"])
