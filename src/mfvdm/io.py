"""On-disk formats: binary image stacks, CSV tables, JSON files. Each fact
of a run directory is written once: the generation parameters only in
config.json, which the readers of the other artifacts check them against.
The run directory holds no derived table: later stages rebuild the basis
from the config that check_run_config guards.

Stack format: a 24-byte header (magic "MFVS", version u16, image count u32,
side length u32, dtype tag u16 with f32 = 1, 8 reserved zero bytes) followed
by n*L*L little-endian float32 values, row-major per image. Tables are CSV
(write_csv) and configs flat JSON; unknown config keys are rejected.
"""

import contextlib
import dataclasses
import json
import os
import struct

import numpy as np

from .pool import cache_blocks
from .simulate import DatasetManifest

__all__ = [
    "RunConfig",
    "write_stack",
    "stack_writer",
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
    """Write an (n, L, L) stack as little-endian float32, converting a block
    of images (pool.cache_blocks) at a time: no float32 copy of the whole
    stack is made."""
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise FormatError(f"expected (n, L, L) stack, got shape {images.shape}")
    n, L, _ = images.shape
    with stack_writer(path, n, L) as write:
        for rows in cache_blocks(n, 4 * L * L):
            write(images[rows])


@contextlib.contextmanager
def stack_writer(path, n, L):
    """Write a stack of n L x L images to path a block at a time: yields
    write(block), which appends a (b, L, L) block of images as little-endian
    float32 after the header, written first. Raises FormatError, and path
    keeps its previous contents (atomic_open), when a block is not (b, L, L),
    when more than n images are written, or when fewer are by the exit."""
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(STACK_MAGIC, STACK_VERSION, n, L, _DTYPE_F32, b"\0" * 8))
        written = 0

        def write(block):
            nonlocal written
            block = np.asarray(block)
            if block.ndim != 3 or block.shape[1:] != (L, L):
                raise FormatError(f"{path}: expected ({L} x {L}) images, got shape {block.shape}")
            if written + len(block) > n:
                raise FormatError(f"{path}: more than the {n} images its header declares")
            fh.write(np.ascontiguousarray(block, dtype="<f4"))
            written += len(block)

        yield write
        if written != n:
            raise FormatError(f"{path}: {written} images written, but its header declares {n}")


def read_stack(path):
    """Read a stack file back as float32 (n, L, L), into one buffer."""
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
        data = np.fromfile(fh, dtype="<f4", count=n * L * L)
        if data.size != n * L * L:
            raise FormatError(f"{path}: expected {n * L * L} values, found {data.size}")
        if fh.read(1):
            raise FormatError(f"{path}: bytes past the {n * L * L} values")
    return data.reshape(n, L, L)


def write_csv(path, header, columns):
    """Write the 1-D columns under header, a block of rows (pool.cache_blocks)
    at a time so that the text is never held whole: a header line, then one
    line per row, ints as digits and floats by repr (a read returns their
    float64 bits), every line ending in \\r\\n. Raises ValueError, before path
    is replaced, unless the columns are 1-D, of one length and one per name."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size if columns else 0
    if len(columns) != len(header) or any(c.ndim != 1 or c.size != n for c in columns):
        raise ValueError(f"{header}: need a 1-D column per name, all of one length, got "
                         f"shapes {[c.shape for c in columns]}")
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # about 100 bytes a value: its Python object, its row tuple's slot, its text
        for rows in cache_blocks(n, 100 * len(columns)):
            fh.write("".join([line % row for row in zip(*(c[rows].tolist() for c in columns))]))


def read_csv(path, dtype):
    """The rows of a table written by write_csv, as a 1-D array of (often
    structured) dtype. Raises FormatError for a row that does not parse."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1, dtype=dtype)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed row: {exc}") from None


def write_json(path, obj):
    """Write obj as JSON indented by 2, with a final newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_manifest(manifest, csv_path):
    """Per-image CSV: index, rotation entries row-major, defocus group."""
    write_csv(csv_path,
              ["index"] + [f"R{a}{b}" for a in range(3) for b in range(3)] + ["defocus_group"],
              [np.arange(manifest.n), *manifest.rotations.reshape(-1, 9).T,
               manifest.defocus_group])


def read_manifest(csv_path, config):
    """Manifest as written by write_manifest for a dataset simulated with
    config. Raises FormatError for a malformed row, rows not indexed 0, 1,
    ... in order, a non-finite rotation entry, a defocus group that is not
    an integer in [0, config.n_defocus_groups), or a row count other than
    config.n."""
    table = read_csv(csv_path, [("index", int), ("R", float, (9,)), ("group", int)])
    misplaced = np.flatnonzero(table["index"] != np.arange(table.size))[:1]
    if misplaced.size:
        raise FormatError(f"{csv_path}: malformed row: row {misplaced[0]} is not led by its index")
    rotations, groups = table["R"].reshape(-1, 3, 3), table["group"]
    if not np.isfinite(rotations).all():
        raise FormatError(f"{csv_path}: non-finite rotation entry")
    outside = (groups < 0) | (groups >= config.n_defocus_groups)
    if outside.any():
        raise FormatError(f"{csv_path}: defocus group {groups[outside][0]} "
                          f"outside [0, {config.n_defocus_groups})")
    if rotations.shape[0] != config.n:
        raise FormatError(f"{csv_path}: {rotations.shape[0]} rows, but the config "
                          f"has n {config.n}")
    return DatasetManifest(rotations=rotations, defocus_group=groups)


# the values a field of each annotated type accepts
_ACCEPTED_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def _is_of_type(value, kind):
    """Whether value is accepted for a field of type kind: a float field
    also takes an int, and only a bool field takes a bool (an int subclass)."""
    return isinstance(value, _ACCEPTED_TYPES[kind]) and isinstance(value, bool) == (kind is bool)


@dataclasses.dataclass
class RunConfig:
    """Every pipeline setting that changes a result; validated before any
    stage runs. Preprocessing follows the data: phase flipping follows
    with_ctf, and standardization and the steerable PCA of the
    coefficients follow snr (pipeline.prepare_coeffs). The rotation
    grids and the CTF-correction regularizer are constants of the code."""

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
    # graph construction
    s: int = 50
    # spectral refinement
    k_tilde: int = 10
    m: int = 50
    # denoising
    filter_kind: int = 2

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _is_of_type(value, f.type):
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
        if self.n_blobs < 1:
            raise ValueError("n_blobs must be >= 1")
        if not (0.0 <= self.shift_px < np.inf):
            raise ValueError("shift_px must be finite and >= 0")
        if not (1 <= self.s < self.n):
            raise ValueError("s must satisfy 1 <= s < n")
        if self.k_tilde < 1:
            raise ValueError("k_tilde must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.filter_kind not in (1, 2, 3, 4, 5):
            raise ValueError("filter_kind must be 1..5")
        if self.n_defocus_groups < 1:
            raise ValueError("n_defocus_groups must be >= 1")


def _read_config(path):
    """The JSON object at path, and its keys that name no RunConfig field."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data, sorted(set(data) - {f.name for f in dataclasses.fields(RunConfig)})


def load_config(path):
    """RunConfig from flat JSON; unknown keys are an error, missing keys take
    their defaults."""
    data, unknown = _read_config(path)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**data)


# the RunConfig fields run_simulate passes to simulate_dataset: later stages
# on a run directory must agree with its config.json on each of them
SIMULATE_FIELDS = ("n", "L", "seed", "snr", "support_radius", "bandlimit", "n_blobs",
                   "n_defocus_groups", "noise_model", "with_ctf", "shift_px")


def check_run_config(config, path):
    """Raise ConfigMismatchError naming the first of SIMULATE_FIELDS on which
    config differs from the config saved at path, or the saved keys that
    RunConfig does not have (fields removed since the directory was made)."""
    data, unknown = _read_config(path)
    if unknown:
        raise ConfigMismatchError(f"{path} holds keys RunConfig does not have: "
                                  f"{', '.join(unknown)}; rerun simulate to rewrite it")
    saved = RunConfig(**data)
    for name in SIMULATE_FIELDS:
        given, made = getattr(config, name), getattr(saved, name)
        if given != made:
            raise ConfigMismatchError(f"{name} is {given!r} but the dataset in {path} "
                                      f"was simulated with {made!r}")


def save_config(config, path):
    write_json(path, dataclasses.asdict(config))
