"""Initial s-nearest-neighbor graph from rotationally invariant distances.

Each directed edge carries the in-plane angle by which the neighbor image is
rotated counter-clockwise to match the source image. The graph is symmetrized
by edge union with the reverse angle negated, so stored angles satisfy
alpha_ij = -alpha_ji exactly.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .basis import expand_stack
from .io import FormatError, atomic_open
from .pool import fork_map

# Byte budget for the temporaries of one row (or edge) block in the
# all-pairs RID search, the affinity ranking and the edge alignment; it sets
# all three block sizes, so peak memory does not grow with n^2.
BLOCK_BYTES = 16 * 2**20
# rows per task of the pooled RID search, rounded down to whole row blocks
# (at least one), so that the pooled search ranks the serial search's blocks
SEARCH_TASK_ROWS = 128

__all__ = ["ViewGraph", "symmetrize", "initial_nn_search", "coeff_noise_variance",
           "viewing_angle", "true_alignment", "write_graph_csv",
           "read_graph_csv"]


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


def _select_columns(basis, coeffs, energy_fraction):
    """Columns capturing the top energy fraction across the dataset
    (k > 0 columns weighted twice for the implied negative frequency)."""
    weight = np.where(basis.ks == 0, 1.0, 2.0)
    energy = (np.abs(coeffs) ** 2).sum(axis=0) * weight
    order = np.argsort(energy)[::-1]
    csum = np.cumsum(energy[order])
    keep = order[: int(np.searchsorted(csum, energy_fraction * csum[-1])) + 1]
    return np.sort(keep)


def coeff_noise_variance(basis):
    """Per-column coefficient variance induced by unit-variance white pixel
    noise, estimated by expanding 256 Gaussian images drawn from Philox(0).
    Scale by the pixel noise variance for other noise levels (expansion is
    linear)."""
    rng = np.random.Generator(np.random.Philox(0))
    noise = rng.normal(size=(256, basis.L, basis.L))
    a = expand_stack(noise, basis)
    return (np.abs(a) ** 2).mean(axis=0)


def block_rows(bytes_per_row):
    """Rows per block so that one block's temporaries stay within
    BLOCK_BYTES (at least one row)."""
    return max(1, int(BLOCK_BYTES // max(bytes_per_row, 1)))


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


def initial_nn_search(coeffs, basis, s, fft_size=256, energy_fraction=0.9, noise_var=None):
    """Brute-force all-pairs RID ranking; s smallest distances per node.

    Ties broken by smaller index. Returns the symmetrized ViewGraph.
    When noise_var (per-column coefficient noise variance) is given, columns
    are shrunk by the Wiener factor sig/(sig + noise) before ranking, which
    suppresses the noise-dominated high frequencies at low SNR.

    Rows are ranked a block at a time; each block's cross-spectra and
    correlations stay within BLOCK_BYTES. Ranges of about SEARCH_TASK_ROWS
    rows run on pool.fork_map; the graph does not depend on the number of
    workers.
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[0]
    if n < s + 1:
        raise ValueError(f"need at least s+1={s + 1} images, got {n}")
    if fft_size < 2 * basis.k_max + 1:
        raise ValueError(f"fft_size must be >= {2 * basis.k_max + 1}")
    if noise_var is not None:
        noise_var = np.asarray(noise_var, dtype=float)
        sig = np.maximum((np.abs(coeffs) ** 2).mean(axis=0) - noise_var, 0.0)
        coeffs = coeffs * (sig / (sig + noise_var))[None, :]
    cols = _select_columns(basis, coeffs, energy_fraction)
    sub = coeffs[:, cols]
    ks = basis.ks[cols]
    eps = np.where(ks == 0, 1.0, 2.0)
    sq = (np.abs(sub) ** 2) @ eps

    # per-frequency coefficient blocks and their conjugate transposes, for
    # fast cross-spectra
    blocks = [(k, sub[:, ks == k]) for k in np.unique(ks)]
    blocks = [(k, b, np.conj(b).T) for k, b in blocks]
    n_half = fft_size // 2 + 1
    # per row: half spectrum (complex), correlations, sort indices
    chunk = block_rows(n * (16 * n_half + 8 * fft_size + 32))
    task = chunk * max(1, SEARCH_TASK_ROWS // chunk)
    ranges = [(start, min(start + task, n)) for start in range(0, n, task)]
    parts = fork_map(_rank_rows, ranges, shared=(blocks, sq, s, fft_size, chunk))
    nb_idx, nb_alpha, nb_dist = (np.concatenate(p) for p in zip(*parts))
    return symmetrize(n, np.repeat(np.arange(n), s), nb_idx.ravel(),
                      nb_alpha.ravel(), nb_dist.ravel())


def _rank_rows(blocks, sq, s, fft_size, chunk, rows):
    """(indices, angles, distances), each (stop - start, s), of the s
    nearest neighbors of rows start:stop, ranked chunk rows at a time."""
    start, stop = rows
    n = sq.size
    nb_idx = np.empty((stop - start, s), dtype=int)
    nb_alpha = np.empty((stop - start, s))
    nb_dist = np.empty((stop - start, s))
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        # the spectrum vanishes above kmax < fft_size / 2, so the real
        # correlation over rotations is the inverse real FFT of the
        # non-negative half; the conjugate half doubles each k > 0 term
        spec = np.zeros((hi - lo, n, fft_size // 2 + 1), dtype=complex)
        for k, b, bh in blocks:
            spec[:, :, k] = b[lo:hi] @ bh
        corr = np.fft.irfft(spec, n=fft_size, axis=-1)
        del spec
        corr *= fft_size
        best_t = np.argmax(corr, axis=-1)
        best = np.take_along_axis(corr, best_t[..., None], axis=-1)[..., 0]
        del corr
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * best
        np.maximum(d2, 0.0, out=d2)
        r = np.arange(hi - lo)
        d2[r, lo + r] = np.inf
        order = smallest_s(d2, s)
        out = slice(lo - start, hi - start)
        nb_idx[out] = order
        nb_dist[out] = np.sqrt(np.take_along_axis(d2, order, axis=1))
        al = 2.0 * np.pi * np.take_along_axis(best_t, order, axis=1) / fft_size
        nb_alpha[out] = np.where(al > np.pi, al - 2.0 * np.pi, al)
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
