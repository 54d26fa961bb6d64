"""On-disk formats: binary image stacks, manifest CSV/JSON, run configuration.

Stack format: a 24-byte header (magic "MFVS", version u16, image count u32,
side length u32, dtype tag u16 with f32 = 1, 8 reserved zero bytes) followed
by n*L*L little-endian float32 values, row-major per image. Manifests are a
CSV of per-image rows plus a JSON sidecar of scalar parameters. Configs are
flat JSON; unknown keys are rejected.
"""

import contextlib
import csv
import dataclasses
import json
import os
import struct

import numpy as np

from .simulate import DatasetManifest

__all__ = [
    "RunConfig",
    "write_stack",
    "read_stack",
    "write_manifest",
    "read_manifest",
    "load_config",
    "save_config",
    "STACK_MAGIC",
    "STACK_VERSION",
]

STACK_MAGIC = b"MFVS"
STACK_VERSION = 1
_DTYPE_F32 = 1
_HEADER = struct.Struct("<4sHIIH8s")
assert _HEADER.size == 24


class FormatError(ValueError):
    """Malformed or unsupported on-disk artifact."""


class ConfigMismatchError(ValueError):
    """A stage's config disagrees with the one its run directory's dataset
    was simulated with."""


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file beside path for writing; when the block exits
    normally it replaces path, otherwise it is deleted and path keeps its
    previous contents. A crashed writer never leaves a partial artifact."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_stack(images, path):
    """Write an (n, L, L) stack as little-endian float32."""
    images = np.ascontiguousarray(images, dtype="<f4")
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise FormatError(f"expected (n, L, L) stack, got shape {images.shape}")
    n, L, _ = images.shape
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(STACK_MAGIC, STACK_VERSION, n, L, _DTYPE_F32, b"\0" * 8))
        fh.write(images.tobytes())


def read_stack(path):
    """Read a stack file back as float32 (n, L, L)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, n, L, dtype_tag, _ = _HEADER.unpack(head)
        if magic != STACK_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != STACK_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dtype_tag != _DTYPE_F32:
            raise FormatError(f"{path}: unsupported dtype tag {dtype_tag}")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != n * L * L:
        raise FormatError(f"{path}: expected {n * L * L} values, found {data.size}")
    return data.reshape(n, L, L).copy()


def write_manifest(manifest, csv_path, json_path):
    """Per-image CSV (index, rotation entries row-major, defocus group) plus a
    JSON sidecar with the scalar generation parameters."""
    with atomic_open(csv_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + [f"R{a}{b}" for a in range(3) for b in range(3)]
                   + ["defocus_group"])
        for i in range(manifest.n):
            row = [i] + [repr(float(x)) for x in manifest.rotations[i].ravel()]
            row.append(int(manifest.defocus_group[i]))
            w.writerow(row)
    scalars = {
        "snr": manifest.snr,
        "seed": manifest.seed,
        "L": manifest.L,
        "bandlimit": manifest.bandlimit,
        "support_radius": manifest.support_radius,
        "noise_model": manifest.noise_model,
        "n_defocus_groups": manifest.n_defocus_groups,
        "n": manifest.n,
    }
    with atomic_open(json_path) as fh:
        json.dump(scalars, fh, indent=2)
        fh.write("\n")


def read_manifest(csv_path, json_path):
    """Manifest as written by write_manifest. Raises FormatError for a
    malformed row, rows not indexed 0, 1, ... in order, a non-finite rotation
    entry, or a defocus group that is not an integer in [0, n_defocus_groups)."""
    with open(json_path) as fh:
        scalars = json.load(fh)
    rotations, groups = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for i, row in enumerate(reader):
                if len(row) != 11 or int(row[0]) != i:
                    raise ValueError(f"row {i} is not 11 fields led by its index {i}")
                rotations.append(np.array([float(x) for x in row[1:10]]).reshape(3, 3))
                groups.append(int(row[10]))
        except ValueError as exc:
            raise FormatError(f"{csv_path}: malformed row: {exc}") from None
    rotations = np.array(rotations).reshape(-1, 3, 3)
    groups = np.array(groups, dtype=int)
    if not np.isfinite(rotations).all():
        raise FormatError(f"{csv_path}: non-finite rotation entry")
    n_groups = int(scalars["n_defocus_groups"])
    outside = (groups < 0) | (groups >= n_groups)
    if outside.any():
        raise FormatError(f"{csv_path}: defocus group {groups[outside][0]} "
                          f"outside [0, {n_groups})")
    if rotations.shape[0] != scalars["n"]:
        raise FormatError("manifest CSV row count disagrees with JSON sidecar")
    return DatasetManifest(
        rotations=rotations,
        defocus_group=groups,
        snr=float(scalars["snr"]),
        seed=int(scalars["seed"]),
        L=int(scalars["L"]),
        bandlimit=float(scalars["bandlimit"]),
        support_radius=float(scalars["support_radius"]),
        noise_model=str(scalars["noise_model"]),
        n_defocus_groups=n_groups,
    )


# the values a RunConfig field of each annotated type accepts
_ACCEPTED_TYPES = {int: int, float: (int, float), bool: bool, str: str}


@dataclasses.dataclass
class RunConfig:
    """Every pipeline tunable in one place; validated before any stage runs."""

    L: int = 33
    n: int = 1000
    bandlimit: float = 0.5
    support_radius: float = 16.0
    seed: int = 0
    snr: float = 0.05
    noise_model: str = "white"
    with_ctf: bool = True
    n_defocus_groups: int = 20
    n_blobs: int = 30
    shift_px: float = 0.0
    # preprocessing
    standardize: bool = True
    whiten: bool = False
    phase_flip: bool = True
    # graph construction
    s: int = 50
    energy_fraction: float = 0.9
    wiener: bool = True
    initial_fft_size: int = 256
    # spectral refinement
    k_tilde: int = 10
    m: int = 50
    t: int = 1
    fft_size: int = 1024
    # denoising
    filter_kind: int = 2
    eps: float = 0.0            # 0 means the default 1e-2 * max(C^2)
    # the process-wide cap that the CLI sets with pool.set_threads: on
    # OpenBLAS threads and on the simulate, search and eigensolve worker
    # processes; 0: none. In-memory callers call set_threads themselves.
    threads: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass: only a bool field takes one
            if (not isinstance(value, _ACCEPTED_TYPES[f.type])
                    or isinstance(value, bool) != (f.type is bool)):
                raise ValueError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        if self.L < 3 or self.L % 2 == 0:
            raise ValueError("L must be odd and >= 3")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not (0.0 < self.bandlimit <= 0.5):
            raise ValueError("bandlimit must be in (0, 0.5]")
        if not (0.0 < self.support_radius <= (self.L - 1) / 2):
            raise ValueError("support_radius must be in (0, (L-1)/2]")
        if not self.snr > 0:
            raise ValueError("snr must be > 0 (or inf for noise-free)")
        if self.noise_model not in ("white", "colored"):
            raise ValueError("noise_model must be 'white' or 'colored'")
        if not (1 <= self.s < self.n):
            raise ValueError("s must satisfy 1 <= s < n")
        if not (0.0 < self.energy_fraction <= 1.0):
            raise ValueError("energy_fraction must be in (0, 1]")
        if self.k_tilde < 1:
            raise ValueError("k_tilde must be >= 1")
        if self.m < 1 or self.t < 1:
            raise ValueError("m and t must be >= 1")
        if self.fft_size < 2 or self.initial_fft_size < 2:
            raise ValueError("FFT sizes must be >= 2")
        if self.filter_kind not in (1, 2, 3, 4, 5):
            raise ValueError("filter_kind must be 1..5")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.n_defocus_groups < 1:
            raise ValueError("n_defocus_groups must be >= 1")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")


def load_config(path):
    """RunConfig from flat JSON; unknown keys are an error, missing keys take
    their defaults."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**data)


# the RunConfig fields run_simulate passes to simulate_dataset: later stages
# on a run directory must agree with its config.json on each of them
SIMULATE_FIELDS = ("n", "L", "seed", "snr", "support_radius", "bandlimit", "n_blobs",
                   "n_defocus_groups", "noise_model", "with_ctf", "shift_px")


def check_run_config(config, path):
    """Raise ConfigMismatchError naming the first of SIMULATE_FIELDS on which
    config differs from the config saved at path."""
    saved = load_config(path)
    for name in SIMULATE_FIELDS:
        given, made = getattr(config, name), getattr(saved, name)
        if given != made:
            raise ConfigMismatchError(f"{name} is {given!r} but the dataset in {path} "
                                      f"was simulated with {made!r}")


def save_config(config, path):
    with atomic_open(path) as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2)
        fh.write("\n")
