"""Independent scoring and output checks for benchmark runs.

Nothing here calls into ``mfvdm``: graphs, stacks and manifests are read
from the documented on-disk formats (or from edge arrays), and the ground
truth is recomputed from the rotations, so a defect in the program cannot
hide itself by also breaking the scorer.
"""

import struct

import numpy as np

TRUE_NEIGHBOR_DEG = 20.0
CHANCE_TRUE_FRAC = 0.03     # share of random pairs with viewing angle < 20 deg

_STACK_HEADER = struct.Struct("<4sHIIH8s")


def read_stack(path):
    """(n, L, L) float32 stack from the MFVS format (24-byte header)."""
    with open(path, "rb") as fh:
        magic, _version, n, L, _dtype, _ = _STACK_HEADER.unpack(fh.read(_STACK_HEADER.size))
        if magic != b"MFVS":
            raise ValueError(f"{path}: not a stack file")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != n * L * L:
        raise ValueError(f"{path}: header says {n}x{L}x{L}, found {data.size} values")
    return data.reshape(n, L, L)


def read_graph_csv(path):
    """Directed edge arrays (i, j, alpha) from an ``i,j,alpha,d`` edge list."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]


def read_rotations(csv_path):
    """(n, 3, 3) rotations from the manifest CSV (index, R00..R22, group)."""
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:10].reshape(-1, 3, 3)


def graph_problems(i, j, alpha, n, s):
    """Reasons an edge list is not a valid symmetric graph of min degree s
    with antisymmetric angles; empty when it is."""
    if i.size == 0:
        return ["graph has no edges"]
    if i.min() < 0 or j.min() < 0 or max(i.max(), j.max()) >= n:
        return [f"node index outside [0, {n})"]
    problems = []
    if (i == j).any():
        problems.append("self loop")
    fwd = i * n + j
    rev = j * n + i
    order_f = np.argsort(fwd)
    order_r = np.argsort(rev)
    if np.unique(fwd).size != fwd.size:
        problems.append("duplicate edge")
    elif not np.array_equal(fwd[order_f], rev[order_r]):
        problems.append("not symmetric")
    elif not np.array_equal(alpha[order_f], -alpha[order_r]):
        problems.append("alpha_ij != -alpha_ji")
    if not np.isfinite(alpha).all():
        problems.append("non-finite angle")
    deg = np.bincount(i, minlength=n)
    if deg.min() < s:
        problems.append(f"node {int(np.argmin(deg))} has degree {int(deg.min())} < s={s}")
    return problems


def stack_problems(stack, n, L, name):
    if stack.shape != (n, L, L):
        return [f"{name} shape {stack.shape} != {(n, L, L)}"]
    if not np.isfinite(stack).all():
        return [f"{name} has non-finite values"]
    return []


def _rotate(axis, angle, v):
    """Rodrigues rotation of vectors v (..., 3) about unit axes by angles."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    dot = np.sum(axis * v, axis=-1, keepdims=True)
    return v * c + np.cross(axis, v) * s + axis * dot * (1.0 - c)


def viewing_angles_deg(rotations, i, j):
    v = rotations[:, :, 2]
    dot = np.clip(np.sum(v[i] * v[j], axis=-1), -1.0, 1.0)
    return np.degrees(np.arccos(dot))


def true_alignment(rotations, i, j):
    """Ground-truth in-plane angle per edge: transport the frame of j to i
    along the great circle between the viewing directions, then read off the
    residual rotation (vectorised over edges)."""
    Ri, Rj = rotations[i], rotations[j]
    vi, vj = Ri[:, :, 2], Rj[:, :, 2]
    axis = np.cross(vj, vi)
    norm = np.linalg.norm(axis, axis=-1)
    parallel = norm < 1e-12
    axis = axis / np.where(parallel, 1.0, norm)[:, None]
    ang = np.where(parallel, 0.0, np.arccos(np.clip(np.sum(vi * vj, axis=-1), -1.0, 1.0)))
    t0 = _rotate(axis, ang, Rj[:, :, 0])
    t1 = _rotate(axis, ang, Rj[:, :, 1])
    o00 = np.sum(Ri[:, :, 0] * t0, axis=-1)
    o01 = np.sum(Ri[:, :, 0] * t1, axis=-1)
    o10 = np.sum(Ri[:, :, 1] * t0, axis=-1)
    o11 = np.sum(Ri[:, :, 1] * t1, axis=-1)
    return np.arctan2(o10 - o01, o00 + o11)


def true_frac(rotations, i, j):
    """Share of directed edges whose true viewing angle is under 20 deg."""
    return float(np.mean(viewing_angles_deg(rotations, i, j) < TRUE_NEIGHBOR_DEG))


def align_err_med_deg(rotations, i, j, alpha):
    """Median absolute wrapped error of estimated against true angles."""
    err = np.degrees(alpha - true_alignment(rotations, i, j))
    err = (err + 180.0) % 360.0 - 180.0
    return float(np.median(np.abs(err)))

