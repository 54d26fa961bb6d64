"""Initial s-nearest-neighbor graph from rotationally invariant distances.

Each directed edge carries the in-plane angle by which the neighbor image is
rotated counter-clockwise to match the source image. The graph is symmetrized
by edge union with the reverse angle negated, so stored angles satisfy
alpha_ij = -alpha_ji exactly.
"""

from dataclasses import dataclass

import numpy as np

from .basis import expand_stack  # noqa: F401 - unused; perfbench/tracing.py wraps it here
from .io import FormatError, read_csv, write_csv
from .pool import cache_blocks, fork_map, pair_blocks

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


def rank_pairs(n, s, bytes_per_pair, score, shared, mirror=None):
    """Per row i of a symmetric n x n matrix of keys, the s columns j != i
    of smallest key, ties broken by the smaller j: [keys, cols, *payload],
    each (n, s), in ascending key order.

    score(*shared, rows, cols) returns the keys of the pairs rows x cols and
    any payload arrays of the same shape, within bytes_per_pair a pair.
    Each unordered pair's key is taken on the side of its smaller index i;
    row j reads the same key and mirror(payload). The rows are cut into
    square blocks (pool.pair_blocks), and the block pairs (I <= J) are the
    tasks of pool.fork_map; a task ranks its pairs for the rows of both of
    its blocks; a diagonal block pair is scored in the tiles of
    _upper_tiles. The results merge in task order, so each row sees its
    column blocks in ascending order, and the ranking depends on neither
    the block size nor the number of workers.
    """
    if not 0 < s < n:
        raise ValueError(f"s={s} must be in 1..{n - 1} for n={n}")
    blocks = pair_blocks(n, bytes_per_pair)
    tasks = [(rows, cols) for a, rows in enumerate(blocks) for cols in blocks[a:]]
    best = None
    for ranked in fork_map(_rank_block_pair, tasks, shared=(score, shared, s, mirror)):
        for rows, found in ranked:
            if best is None:
                best = [np.zeros((n, s), a.dtype) for a in found]
                best[0][:] = np.inf
            merged = [np.concatenate([b[rows], a], axis=1) for b, a in zip(best, found)]
            order = np.argsort(merged[0], axis=1, kind="stable")[:, :s]
            for b, a in zip(best, merged):
                b[rows] = np.take_along_axis(a, order, axis=1)
    return best


def _rank_block_pair(score, shared, s, mirror, pair):
    """[(rows, [keys, cols, *payload])] of the s smallest keys of each row
    of both blocks of pair, padded with +inf keys where a block is narrower
    than s. A diagonal pair is scored by _score_square."""
    rows, cols = pair
    if rows == cols:
        keys, *payload = _score_square(score, shared, mirror, rows)
        np.fill_diagonal(keys, np.inf)
        sides = [(rows, cols, keys, payload)]
    else:
        keys, *payload = score(*shared, rows, cols)
        sides = [(rows, cols, keys, payload),
                 (cols, rows, keys.T, [mirror(p.T) for p in payload])]
    ranked = []
    for here, there, k, p in sides:
        if k.shape[1] < s:
            pad = ((0, 0), (0, s - k.shape[1]))
            k, p = np.pad(k, pad, constant_values=np.inf), [np.pad(a, pad) for a in p]
        order = smallest_s(k, s)
        ranked.append((here, [np.take_along_axis(k, order, axis=1), there.start + order,
                              *(np.take_along_axis(a, order, axis=1) for a in p)]))
    return ranked


def _score_square(score, shared, mirror, block):
    """[keys, *payload] of the pairs block x block, each pair's values
    taken on the side of its smaller index: the tiles of _upper_tiles fill
    the upper triangle, and its mirror image fills the strict lower one."""
    start, n = block.start, block.stop - block.start
    out = None
    for rows, cols in _upper_tiles(block, 4):
        values = score(*shared, rows, cols)
        if out is None:
            out = [np.empty((n, n), v.dtype) for v in values]
        r = slice(rows.start - start, rows.stop - start)
        c = slice(cols.start - start, cols.stop - start)
        for o, v in zip(out, values):
            o[r, c] = v
    lower = np.tri(n, k=-1, dtype=bool)
    keys, *payload = out
    return [np.where(lower, keys.T, keys), *(np.where(lower, mirror(p.T), p) for p in payload)]


def _upper_tiles(block, depth):
    """Rectangles (rows, cols), rows above cols, and squares (rows, rows)
    that cover the pairs i <= j of block x block: the block is halved depth
    times, and the pairs between two halves are one rectangle. A square
    holds 1 / 2^depth of the block's rows, so scoring the squares whole
    adds about 1 / 2^depth to the block's n(n - 1) / 2 pairs. A square of
    fewer than 4 rows is not halved: no tile has a single row (see
    pool.cache_blocks)."""
    n = block.stop - block.start
    if depth == 0 or n < 4:
        return [(block, block)]
    top, bottom = slice(block.start, block.start + n // 2), slice(block.start + n // 2, block.stop)
    return [(top, bottom)] + _upper_tiles(top, depth - 1) + _upper_tiles(bottom, depth - 1)


def block_product(a, b):
    """a @ b.T for blocks of rows a and b, with b padded by zero rows to a
    multiple of 8 for the product and the padding's columns dropped after.
    OpenBLAS's complex kernel rounds the last (width mod 4) columns of a
    product differently from the others (Haswell); padded, every column
    takes the main kernel, so a pair's value does not depend on the block
    that holds it."""
    width = b.shape[0]
    padded = np.zeros((width + -width % 8, b.shape[1]), b.dtype)
    padded[:width] = b
    return (a @ padded.T)[:, :width]


def search_pair_bytes(n_freqs):
    """Bytes of the RID search's temporaries per image pair: the real and
    imaginary parts of its cross-spectra at n_freqs frequencies, one
    complex cross-spectrum value, and its best grid point, best value,
    distance, mirrored copies and sort keys."""
    return 16 * n_freqs + 16 + 64


def rotation_table(ks, fft_size, weights):
    """(2K, fft_size) table [w cos(2 pi k t / N); -w sin(2 pi k t / N)] over
    the frequencies ks and grid points t = 0..N-1 (N = fft_size). With the
    real parts of spectra z(k) in the first K rows of a column and their
    imaginary parts in the last K, the column times the table is
    Re sum_k w(k) z(k) e^{2 pi i k t / N} on the whole grid."""
    ks = np.asarray(ks)
    phase = 2.0 * np.pi * (np.outer(ks, np.arange(fft_size)) % fft_size) / fft_size
    w = np.asarray(weights, dtype=float)[:, None]
    return np.concatenate([w * np.cos(phase), -w * np.sin(phase)])


def grid_argmax(spec, table):
    """(t, value): per column p of spec (2K, m), the grid point t that
    maximizes spec[:, p] @ table[:, t], and that maximum. The products are
    formed for a chunk of columns at a time (pool.cache_blocks) into one
    reused buffer that stays in cache."""
    m, fft_size = spec.shape[1], table.shape[1]
    best_t, best = np.empty(m, dtype=np.intp), np.empty(m)
    chunks = cache_blocks(m, 8 * fft_size)
    buf = np.empty((chunks[0].stop - chunks[0].start) * fft_size)
    for c in chunks:
        corr = buf[:(c.stop - c.start) * fft_size].reshape(-1, fft_size)
        np.matmul(spec[:, c].T, table, out=corr)
        np.argmax(corr, axis=1, out=best_t[c])
        best[c] = np.take_along_axis(corr, best_t[c, None], axis=1)[:, 0]
    return best_t, best


def grid_angle(t, fft_size):
    """Angles 2 pi t / fft_size of rotation-grid points t, in (-pi, pi]."""
    alpha = 2.0 * np.pi * t / fft_size
    return np.where(alpha > np.pi, alpha - 2.0 * np.pi, alpha)


def initial_nn_search(coeffs, basis, s, fft_size=256):
    """Brute-force all-pairs RID ranking; s smallest distances per node.

    Ties broken by smaller index. Returns the symmetrized ViewGraph.
    Every frequency at which the basis has a column is ranked.

    The correlation of two images over the fft_size-point rotation grid is
    a trigonometric polynomial in the ranked frequencies: the real and
    imaginary parts of the pair's per-k cross-spectra times one
    rotation_table, a real matrix product. Each unordered pair is scored
    once, by rank_pairs: its distance and grid point t on the side of its
    smaller index, and (N - t) mod N on the other side. The graph does not
    depend on the block size or the number of workers.
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[0]
    if fft_size < 1:
        raise ValueError(f"fft_size must be >= 1, got {fft_size}")
    finite = np.isfinite(coeffs).all(axis=1)
    if not finite.all():
        raise ValueError(f"image {int(np.flatnonzero(~finite)[0])} has non-finite coefficients")
    freqs = np.flatnonzero(basis.radial_counts)
    # column-major: BLAS then sums each row's terms in column order
    sq = np.asfortranarray(np.abs(coeffs) ** 2) @ np.where(basis.ks == 0, 1.0, 2.0)

    # per ranked frequency, its coefficient block; the k > 0 terms count
    # their conjugate twice
    blocks = [coeffs[:, basis.k_slice(k)].copy() for k in freqs]
    table = rotation_table(freqs, fft_size, np.where(freqs == 0, 1.0, 2.0))
    d2, nb, t = rank_pairs(n, s, search_pair_bytes(freqs.size), _score_pairs,
                           (blocks, table, sq), mirror=lambda t: (fft_size - t) % fft_size)
    return symmetrize(n, np.repeat(np.arange(n), s), nb.ravel(),
                      grid_angle(t, fft_size).ravel(), np.sqrt(d2).ravel())


def _score_pairs(blocks, table, sq, rows, cols):
    """(d^2, t) of the image pairs rows x cols: the squared RID distance and
    the grid point of the best rotation of each."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    # one contiguous row per real or imaginary part
    spec = np.empty((2 * len(blocks), shape[0] * shape[1]))
    for r, b in enumerate(blocks):
        c = block_product(b[rows], np.conj(b[cols]))
        spec[r].reshape(shape)[:] = c.real
        spec[len(blocks) + r].reshape(shape)[:] = c.imag
    best_t, best = grid_argmax(spec, table)
    d2 = sq[rows, None] + sq[None, cols] - 2.0 * best.reshape(shape)
    return np.maximum(d2, 0.0, out=d2), best_t.reshape(shape)


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
    unset = np.full(graph.indices.size, np.nan)
    write_csv(path, ["i", "j", "alpha_ij_radians", "d_rid"],
              [graph.rows, graph.indices, unset if graph.angles is None else graph.angles,
               unset if graph.dists is None else graph.dists])


def read_graph_csv(path, n):
    """Graph on n nodes from an edge-list CSV as written by write_graph_csv.

    The file must hold each undirected edge in both directions with
    alpha_ji = -alpha_ij, finite angles, node ids in [0, n), an edge at
    each of the n nodes, no self-loops and no repeated rows; d_rid may be
    nan. Raises FormatError naming path otherwise.
    """
    edges = read_csv(path, [("i", int), ("j", int), ("alpha", float), ("d", float)])
    if edges.size == 0:
        raise FormatError(f"{path}: no edges")
    i, j, alpha = edges["i"], edges["j"], edges["alpha"]
    if (i < 0).any() or (j < 0).any():
        raise FormatError(f"{path}: negative node id")
    top = int(max(i.max(), j.max()))
    if top >= n:
        raise FormatError(f"{path}: node id {top} outside [0, {n})")
    if (i == j).any():
        raise FormatError(f"{path}: self-loop at node {i[i == j][0]}")
    if not np.isfinite(alpha).all():
        raise FormatError(f"{path}: non-finite angle")
    order = np.argsort(i * n + j)
    key = (i * n + j)[order]
    if (key[1:] == key[:-1]).any():
        raise FormatError(f"{path}: repeated edge rows")
    rev = np.minimum(np.searchsorted(key, j * n + i), key.size - 1)
    if (key[rev] != j * n + i).any():
        raise FormatError(f"{path}: an edge has no reverse row")
    if (alpha[order[rev]] != -alpha).any():
        raise FormatError(f"{path}: alpha_ji != -alpha_ij")
    unlinked = np.flatnonzero(np.bincount(i, minlength=n) == 0)
    if unlinked.size:
        raise FormatError(f"{path}: {unlinked.size} of the {n} nodes have no edge, "
                          f"node {unlinked[0]} first")
    return symmetrize(n, i, j, alpha, edges["d"])
