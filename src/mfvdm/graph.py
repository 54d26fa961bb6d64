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

# Byte budget for the temporaries of one row (or edge) block in the
# all-pairs RID search, the affinity ranking and the edge alignment; it sets
# all three block sizes, so peak memory does not grow with n^2.
BLOCK_BYTES = 16 * 2**20

__all__ = ["ViewGraph", "initial_nn_search", "coeff_noise_variance",
           "viewing_angle", "true_alignment", "write_graph_csv",
           "read_graph_csv"]


@dataclass
class ViewGraph:
    """Symmetric neighbor lists with per-edge alignment angles."""

    neighbors: list          # per node: int array of neighbor ids, ascending
    angles: list             # per node: float array, or None if not yet estimated
    dists: list = None       # per node: float array, optional

    @property
    def n(self):
        return len(self.neighbors)

    @property
    def degrees(self):
        return np.array([len(nb) for nb in self.neighbors])

    def edges(self):
        """Iterate (i, j, alpha) over directed edges (alpha None if unset)."""
        for i, nb in enumerate(self.neighbors):
            al = self.angles[i] if self.angles is not None else None
            for t, j in enumerate(nb):
                yield i, int(j), (None if al is None else float(al[t]))

    def angle(self, i, j):
        idx = np.searchsorted(self.neighbors[i], j)
        if idx >= len(self.neighbors[i]) or self.neighbors[i][idx] != j:
            raise KeyError(f"({i}, {j}) is not an edge")
        return float(self.angles[i][idx])


def _flip(entry):
    return (-entry[0], entry[1])


def _symmetrize(neighbor_idx, neighbor_alpha, neighbor_dist):
    """Union of directed s-NN lists; reverse edges get the negated angle.
    When both directions were found, the (i<j) direction's angle wins."""
    n = len(neighbor_idx)
    directed = {}
    for i in range(n):
        for j, al, d in zip(neighbor_idx[i], neighbor_alpha[i], neighbor_dist[i]):
            directed[(i, int(j))] = (float(al), float(d))
    adj = [dict() for _ in range(n)]
    for (i, j) in list(directed):
        lo, hi = min(i, j), max(i, j)
        # the (lo -> hi) direction's estimate wins when both exist
        al, d = directed.get((lo, hi), None) or _flip(directed[(hi, lo)])
        adj[lo][hi] = (al, d)
        adj[hi][lo] = (-al, d)
    neighbors, angles, dists = [], [], []
    for i in range(n):
        js = np.array(sorted(adj[i]), dtype=int)
        neighbors.append(js)
        angles.append(np.array([adj[i][j][0] for j in js]))
        dists.append(np.array([adj[i][j][1] for j in js]))
    return ViewGraph(neighbors=neighbors, angles=angles, dists=dists)


def _select_columns(basis, coeffs, energy_fraction):
    """Columns capturing the top energy fraction across the dataset
    (k > 0 columns weighted twice for the implied negative frequency)."""
    weight = np.where(basis.ks == 0, 1.0, 2.0)
    energy = (np.abs(coeffs) ** 2).sum(axis=0) * weight
    order = np.argsort(energy)[::-1]
    csum = np.cumsum(energy[order])
    keep = order[: int(np.searchsorted(csum, energy_fraction * csum[-1])) + 1]
    return np.sort(keep)


def coeff_noise_variance(basis, n_samples=256, seed=0):
    """Per-column coefficient variance induced by unit-variance white pixel
    noise, estimated by expanding a seeded Gaussian stack. Scale by the pixel
    noise variance for other noise levels (expansion is linear)."""
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.normal(size=(n_samples, basis.L, basis.L))
    a = expand_stack(noise, basis)
    return (np.abs(a) ** 2).mean(axis=0)


def block_rows(bytes_per_row):
    """Rows per block so that one block's temporaries stay within
    BLOCK_BYTES (at least one row)."""
    return max(1, int(BLOCK_BYTES // max(bytes_per_row, 1)))


def smallest_s(keys, s):
    """Per row of keys, the column indices of the s smallest values, ties
    broken by the smaller index (a stable sort)."""
    return np.argsort(keys, axis=1, kind="stable")[:, :s]


def initial_nn_search(coeffs, basis, s, fft_size=256, energy_fraction=0.9,
                      chunk=None, noise_var=None):
    """Brute-force all-pairs RID ranking; s smallest distances per node.

    Ties broken by smaller index. Returns the symmetrized ViewGraph.
    When noise_var (per-column coefficient noise variance) is given, columns
    are shrunk by the Wiener factor sig/(sig + noise) before ranking, which
    suppresses the noise-dominated high frequencies at low SNR.

    Rows are ranked chunk at a time; the default chunk keeps each chunk's
    cross-spectra and correlations within BLOCK_BYTES.
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
    if chunk is None:
        # per row: half spectrum (complex), correlations, sort indices
        chunk = block_rows(n * (16 * n_half + 8 * fft_size + 32))

    nb_idx = np.empty((n, s), dtype=int)
    nb_alpha = np.empty((n, s))
    nb_dist = np.empty((n, s))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        # the spectrum vanishes above kmax < fft_size / 2, so the real
        # correlation over rotations is the inverse real FFT of the
        # non-negative half; the conjugate half doubles each k > 0 term
        spec = np.zeros((stop - start, n, n_half), dtype=complex)
        for k, b, bh in blocks:
            spec[:, :, k] = b[start:stop] @ bh
        corr = np.fft.irfft(spec, n=fft_size, axis=-1)
        del spec
        corr *= fft_size
        best_t = np.argmax(corr, axis=-1)
        best = np.take_along_axis(corr, best_t[..., None], axis=-1)[..., 0]
        del corr
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * best
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(stop - start)
        d2[rows, start + rows] = np.inf
        order = smallest_s(d2, s)
        nb_idx[start:stop] = order
        nb_dist[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1))
        al = 2.0 * np.pi * np.take_along_axis(best_t, order, axis=1) / fft_size
        nb_alpha[start:stop] = np.where(al > np.pi, al - 2.0 * np.pi, al)
    return _symmetrize(nb_idx, nb_alpha, nb_dist)


def viewing_angle(v_i, v_j):
    """Angle between unit viewing directions, in [0, pi]. Accepts batches."""
    dot = np.sum(np.asarray(v_i) * np.asarray(v_j), axis=-1)
    return np.arccos(np.clip(dot, -1.0, 1.0))


def true_alignment(R_i, R_j):
    """Ground-truth in-plane alignment from the two 3D rotations.

    Parallel-transports the tangent frame of j to i along the great circle
    between the viewing directions, then reads off the residual in-plane
    rotation. For identical views this is the angle gamma with
    R_j = R_i @ Rz(gamma).
    """
    R_i = np.asarray(R_i)
    R_j = np.asarray(R_j)
    v_i, v_j = R_i[:, 2], R_j[:, 2]
    axis = np.cross(v_j, v_i)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        T = np.eye(3)
    else:
        axis = axis / norm
        ang = viewing_angle(v_i, v_j)
        K = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        T = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    O = R_i[:, :2].T @ T @ R_j[:, :2]
    return float(np.arctan2(O[1, 0] - O[0, 1], O[0, 0] + O[1, 1]))


def write_graph_csv(graph, path):
    """Edge list CSV: i, j, alpha_ij_radians, d_rid."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "alpha_ij_radians", "d_rid"])
        for i, nb in enumerate(graph.neighbors):
            for t, j in enumerate(nb):
                al = graph.angles[i][t] if graph.angles is not None else np.nan
                d = graph.dists[i][t] if graph.dists is not None else np.nan
                w.writerow([i, int(j), repr(float(al)), repr(float(d))])


def read_graph_csv(path):
    edges = {}
    n = 0
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        for row in r:
            i, j = int(row[0]), int(row[1])
            edges.setdefault(i, []).append((j, float(row[2]), float(row[3])))
            n = max(n, i + 1, j + 1)
    neighbors, angles, dists = [], [], []
    for i in range(n):
        items = sorted(edges.get(i, []))
        neighbors.append(np.array([j for j, _, _ in items], dtype=int))
        angles.append(np.array([a for _, a, _ in items]))
        dists.append(np.array([d for _, _, d in items]))
    return ViewGraph(neighbors=neighbors, angles=angles, dists=dists)
