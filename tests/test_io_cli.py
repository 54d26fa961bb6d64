"""File formats, run configuration, and the command-line pipeline."""

import dataclasses
import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import mfvdm
from mfvdm.cli import main
from mfvdm.basis import build_basis
from mfvdm.graph import ViewGraph, read_graph_csv, write_graph_csv
from mfvdm.io import (
    SIMULATE_FIELDS,
    FormatError,
    RunConfig,
    atomic_open,
    load_config,
    read_csv,
    read_manifest,
    read_stack,
    save_config,
    stack_writer,
    write_csv,
    write_manifest,
    write_stack,
)
from mfvdm.pipeline import absolute_ctf_coeffs, classify, denoise_and_correct, prepare_coeffs
from mfvdm.simulate import default_defocus_groups, simulate_dataset
from mfvdm.pool import set_blas_threads
from test_spectral import _openblas_threads


def test_stack_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(1))
    stack = rng.normal(size=(7, 9, 9)).astype(np.float32)
    path = tmp_path / "a.stack"
    write_stack(stack, path)
    back = read_stack(path)
    np.testing.assert_array_equal(back, stack)
    assert back.dtype == np.float32


def test_stack_header_fields(tmp_path):
    path = tmp_path / "b.stack"
    write_stack(np.zeros((3, 5, 5), dtype=np.float32), path)
    with open(path, "rb") as fh:
        magic, version, n, L, tag, _ = struct.Struct("<4sHIIH8s").unpack(fh.read(24))
    assert magic == b"MFVS" and version == 1 and n == 3 and L == 5 and tag == 1
    assert os.path.getsize(path) == 24 + 3 * 5 * 5 * 4


def test_stack_errors(tmp_path):
    with pytest.raises(FormatError):
        write_stack(np.zeros((3, 4, 5)), tmp_path / "bad.stack")
    good = tmp_path / "c.stack"
    write_stack(np.zeros((2, 4, 4), dtype=np.float32), good)
    data = good.read_bytes()
    (tmp_path / "magic.stack").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FormatError, match="magic"):
        read_stack(tmp_path / "magic.stack")
    (tmp_path / "trunc.stack").write_bytes(data[:-8])
    with pytest.raises(FormatError):
        read_stack(tmp_path / "trunc.stack")
    (tmp_path / "short.stack").write_bytes(data[:10])
    with pytest.raises(FormatError, match="header"):
        read_stack(tmp_path / "short.stack")
    for extra in (b"\0" * 3, b"\0" * 4):
        (tmp_path / "long.stack").write_bytes(data + extra)
        with pytest.raises(FormatError, match="past"):
            read_stack(tmp_path / "long.stack")


@pytest.mark.parametrize("count", [2, 4])
def test_stack_writer_checks_the_image_count(tmp_path, count):
    """A stack writer whose header declares 3 images raises FormatError
    when 2 or 4 are written, and leaves neither the stack nor a temporary
    file behind."""
    path, block = tmp_path / "s.stack", np.zeros((1, 5, 5), dtype=np.float32)
    with pytest.raises(FormatError, match="its header declares"):
        with stack_writer(path, 3, 5) as write:
            for _ in range(count):
                write(block)
    assert os.listdir(tmp_path) == []


def test_stack_writer_failure_keeps_the_previous_file(tmp_path):
    """A stack writer that raises mid-stream, on a block of the wrong image
    size or in its caller, leaves the previous file byte for byte; written
    a block at a time, a stack reads back whole."""
    rng = np.random.Generator(np.random.Philox(2))
    stack = rng.normal(size=(6, 5, 5)).astype(np.float32)
    path = tmp_path / "s.stack"
    with stack_writer(path, 6, 5) as write:
        for rows in (slice(0, 2), slice(2, 5), slice(5, 6)):
            write(stack[rows])
    np.testing.assert_array_equal(read_stack(path), stack)
    before = path.read_bytes()
    with pytest.raises(FormatError, match="5 x 5"):
        with stack_writer(path, 6, 5) as write:
            write(-stack[:2])
            write(np.zeros((2, 4, 4)))
    with pytest.raises(RuntimeError):
        with stack_writer(path, 6, 5) as write:
            write(-stack[:4])
            raise RuntimeError("interrupted")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["s.stack"]


def _manifest_config(manifest):
    """A config for the tiny dataset's manifest: 60 images, 4 defocus groups."""
    return RunConfig(n=manifest.n, n_defocus_groups=4)


def test_manifest_round_trip(tmp_path, tiny_dataset):
    man = tiny_dataset["manifest"]
    csv_p = tmp_path / "m.csv"
    write_manifest(man, csv_p)
    assert os.listdir(tmp_path) == ["m.csv"]
    back = read_manifest(csv_p, _manifest_config(man))
    np.testing.assert_array_equal(back.rotations, man.rotations)
    np.testing.assert_array_equal(back.defocus_group, man.defocus_group)


def test_writes_are_atomic(tmp_path, tiny_dataset, demo_graph):
    """A writer that raises part way through leaves the previous file byte
    for byte, and no temporary file behind."""
    man = tiny_dataset["manifest"]
    csv_p, json_p, graph_p = tmp_path / "m.csv", tmp_path / "m.json", tmp_path / "g.csv"
    write_manifest(man, csv_p)
    save_config(RunConfig(), json_p)
    write_graph_csv(demo_graph, graph_p)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the rows run out of defocus groups after five images
    short = dataclasses.replace(man, defocus_group=man.defocus_group[:5])
    with pytest.raises(ValueError):
        write_manifest(short, csv_p)
    # one angle short of the edges
    bad = ViewGraph(indptr=demo_graph.indptr, indices=demo_graph.indices,
                    angles=demo_graph.angles[:-1], dists=demo_graph.dists)
    with pytest.raises(ValueError):
        write_graph_csv(bad, graph_p)
    with pytest.raises(RuntimeError):
        with atomic_open(json_p) as fh:
            fh.write("{")
            raise RuntimeError("interrupted")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_csv_golden_bytes(tmp_path):
    """A header line, then ints as digits and floats by repr, every line
    ending in \\r\\n."""
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "x"], [np.array([0, -2, 3, 40, 5, 6, 7]),
                                 np.array([0.1, -0.0, 5e-324, np.nan, np.inf, -np.inf, 1e300])])
    assert path.read_bytes() == (b"i,x\r\n0,0.1\r\n-2,-0.0\r\n3,5e-324\r\n40,nan\r\n"
                                 b"5,inf\r\n6,-inf\r\n7,1e+300\r\n")


def test_read_csv_returns_the_written_bits(tmp_path, monkeypatch):
    """Floats read back with the bits they were written with, over several
    row blocks."""
    rng = np.random.Generator(np.random.Philox(8))
    x = np.concatenate([rng.normal(size=500) * 10.0 ** rng.integers(-300, 300, 500),
                        [0.1, -0.0, 5e-324, np.nan, np.inf, -np.inf]])
    i = rng.integers(-2**62, 2**62, x.size)
    monkeypatch.setattr(mfvdm.pool, "CACHE_BYTES", 100 * 2 * 100)
    assert len(mfvdm.pool.cache_blocks(x.size, 100 * 2)) > 1
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "x"], [i, x])
    back = read_csv(path, [("i", int), ("x", float)])
    np.testing.assert_array_equal(back["i"], i)
    np.testing.assert_array_equal(back["x"].view(np.int64), x.view(np.int64))


@pytest.mark.parametrize("columns", [
    [np.arange(3), np.arange(4.0)], [np.arange(3), np.zeros((3, 1))], [np.arange(3)],
])
def test_write_csv_rejects_bad_columns(columns, tmp_path):
    """Columns of unequal length, not 1-D or not one per header name raise
    ValueError, and leave the old file and no temporary file behind."""
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [np.arange(2), np.arange(2)])
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], columns)
    assert os.listdir(tmp_path) == ["t.csv"] and path.read_bytes() == before


def test_config_round_trip(tmp_path):
    cfg = RunConfig(n=50, s=10, snr=0.1, filter_kind=3)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 10, "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        load_config(path)


@pytest.mark.parametrize("data", [
    {"with_ctf": "no"}, {"with_ctf": 1}, {"s": 50.0}, {"L": "33"},
    {"n": True}, {"snr": "0.1"}, {"snr": False}, {"noise_model": 1}, {"with_ctf": None},
])
def test_config_rejects_wrong_types(tmp_path, data):
    """Each field takes a value of its annotated type; a float field also
    takes an int, and no number field takes a bool."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    (name,) = data
    with pytest.raises(ValueError, match=rf"^{name} must be (int|float|bool|str), got "):
        load_config(path)


def test_config_must_be_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([["n", 10]]))
    with pytest.raises(ValueError, match="JSON object"):
        load_config(path)


def _corrupt_manifest(lines):
    """Corrupted copies of a manifest CSV's rows, one per defect."""
    rows = [line.split(",") for line in lines[1:]]

    def edit(col, value):
        out = [r[:] for r in rows]
        out[0][col] = value
        return out

    return {
        "negative group": edit(10, "-1"),
        "group past the last": edit(10, "4"),
        "non-integer group": edit(10, "1.5"),
        "missing group": [rows[0][:10]] + rows[1:],
        "non-integer index": edit(0, "first"),
        "rows out of order": [rows[1], rows[0]] + rows[2:],
        "nan rotation": edit(1, "nan"),
        "inf rotation": edit(5, "-inf"),
        "malformed rotation": edit(2, "one"),
        "missing last row": rows[:-1],
    }


def test_read_manifest_rejects_corrupt(tiny_dataset, tmp_path):
    man = tiny_dataset["manifest"]
    config = _manifest_config(man)
    csv_p = tmp_path / "m.csv"
    write_manifest(man, csv_p)
    lines = csv_p.read_text().splitlines()
    for name, rows in _corrupt_manifest(lines).items():
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(FormatError):
            read_manifest(bad, config)
            pytest.fail(f"accepted a manifest with a {name}")
    # a well-formed manifest that disagrees with the config
    assert man.defocus_group.max() == 3
    for changes, message in [({"n_defocus_groups": 3}, r"defocus group 3 outside \[0, 3\)"),
                             ({"n": man.n + 1}, f"{man.n} rows, but the config has n {man.n + 1}")]:
        with pytest.raises(FormatError, match=message):
            read_manifest(csv_p, dataclasses.replace(config, **changes))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(L=32)
    for snr in (-1.0, float("nan"), -float("inf")):
        with pytest.raises(ValueError):
            RunConfig(snr=snr)
    assert RunConfig(snr=float("inf")).snr == float("inf")
    with pytest.raises(ValueError):
        RunConfig(s=2000, n=1000)
    with pytest.raises(ValueError):
        RunConfig(filter_kind=7)
    with pytest.raises(ValueError, match="m must be >= 1"):
        RunConfig(m=0)
    # a float field takes an int, and its range check still applies
    assert RunConfig(snr=1, shift_px=2).snr == 1
    with pytest.raises(ValueError, match="bandlimit must be in"):
        RunConfig(bandlimit=0)


@pytest.mark.parametrize("data", [{"n_blobs": 0}, {"n_blobs": -3}, {"shift_px": float("nan")},
                                  {"shift_px": float("inf")}, {"shift_px": -0.5}])
def test_cli_rejects_invalid_simulation_fields(tmp_path, capsys, data):
    """A phantom with no blobs, or a NaN, infinite or negative shift, is
    refused by RunConfig, naming the field, before simulate writes any
    file: the run directory is not even made."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    (name,) = data
    outdir = tmp_path / "run"
    assert main(["--config", str(path), "simulate", str(outdir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"{name} must be ")
    assert not outdir.exists()


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """A run directory made by the four CLI stages with OpenBLAS on one
    thread, whose count sets the last bits of the expansion; the previous
    count is put back after."""
    outdir = str(tmp_path_factory.mktemp("run"))
    cfg = RunConfig(n=30, L=17, support_radius=8.0, snr=0.2, s=5, k_tilde=4,
                    m=10, n_defocus_groups=4, n_blobs=10)
    cfg_path = str(tmp_path_factory.mktemp("cfg") / "cfg.json")
    save_config(cfg, cfg_path)
    before = _openblas_threads()
    set_blas_threads(1)
    try:
        for cmd in ["simulate", "classify", "denoise", "evaluate"]:
            assert main(["--config", cfg_path, cmd, outdir]) == 0
    finally:
        if before:
            set_blas_threads(max(before))
    return outdir, cfg, cfg_path


def test_cli_artifacts(cli_run):
    outdir, cfg, _ = cli_run
    assert sorted(os.listdir(outdir)) == [
        "clean.stack", "config.json", "denoised.stack", "effective_ctf.stack",
        "eval_report.csv", "eval_summary.json", "initial_graph.csv", "manifest.csv",
        "noisy.stack", "refined_graph.csv"]
    noisy = read_stack(os.path.join(outdir, "noisy.stack"))
    assert noisy.shape == (cfg.n, cfg.L, cfg.L)
    denoised = read_stack(os.path.join(outdir, "denoised.stack"))
    assert denoised.shape == noisy.shape
    assert np.isfinite(denoised).all()


def test_cli_simulate_deterministic(cli_run, tmp_path):
    outdir, _, cfg_path = cli_run
    second = str(tmp_path / "rerun")
    assert main(["--config", cfg_path, "simulate", second]) == 0
    for name in ["clean.stack", "noisy.stack", "manifest.csv", "config.json"]:
        a = open(os.path.join(outdir, name), "rb").read()
        b = open(os.path.join(second, name), "rb").read()
        assert a == b, name


def test_cli_classify_idempotent(cli_run, one_blas_thread):
    """Classify run again on cli_run's directory, at its one BLAS thread,
    rewrites both graph files byte for byte."""
    outdir, _, cfg_path = cli_run
    names = ["initial_graph.csv", "refined_graph.csv"]
    before = [open(os.path.join(outdir, name)).read() for name in names]
    assert main(["--config", cfg_path, "classify", outdir]) == 0
    assert [open(os.path.join(outdir, name)).read() for name in names] == before


def test_cli_eval_report(cli_run):
    outdir, cfg, _ = cli_run
    import csv

    with open(os.path.join(outdir, "eval_report.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == cfg.n
    with open(os.path.join(outdir, "eval_summary.json")) as fh:
        summary = json.load(fh)
    # summary aggregates equal recomputation from the per-image rows
    assert abs(summary["mean_mse"] - np.mean([float(r[1]) for r in rows])) < 1e-12
    assert abs(summary["mean_ssim"] - np.mean([float(r[3]) for r in rows])) < 1e-12


def test_cli_evaluate_clean_vs_clean(cli_run, tmp_path):
    outdir, cfg, cfg_path = cli_run
    d = str(tmp_path / "selfcheck")
    os.makedirs(d)
    shutil.copy(os.path.join(outdir, "clean.stack"), os.path.join(d, "clean.stack"))
    shutil.copy(os.path.join(outdir, "clean.stack"), os.path.join(d, "denoised.stack"))
    assert main(["--config", cfg_path, "evaluate", d]) == 0
    with open(os.path.join(d, "eval_summary.json")) as fh:
        summary = json.load(fh)
    assert summary["mean_ssim"] > 1.0 - 1e-9
    assert summary["mean_mse"] < 1e-9


def test_cli_error_is_json(tmp_path, capsys):
    rc = main(["classify", str(tmp_path / "nonexistent")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["command"] == "classify"
    assert "error" in err and "message" in err


def test_cli_threads_caps_openblas(cli_run, tmp_path):
    """The CPU affinity is the thread cap: with the affinity narrowed to one
    CPU before mfvdm (and so numpy) is imported, a CLI stage runs every
    OpenBLAS in the process on one thread; on two CPUs OpenBLAS starts on
    two."""
    _, _, cfg_path = cli_run
    script = (
        "import os, sys\n"
        "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])\n"
        "import json; from mfvdm.cli import main; from test_spectral import _openblas_threads\n"
        "before = _openblas_threads()\n"
        "assert main(['--config', sys.argv[2], 'simulate', sys.argv[3]]) == 0\n"
        "print(json.dumps([before, _openblas_threads()]))\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(mfvdm.__file__)), os.path.dirname(__file__)])

    def run(cpus):
        out = subprocess.run([sys.executable, "-c", script, str(cpus), cfg_path,
                              str(tmp_path / f"cpus{cpus}")],
                             env=env, capture_output=True, text=True, check=True).stdout
        return json.loads(out)

    before, after = run(1)
    if not before:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert set(before) == {1}
    assert set(after) == {1}
    if len(os.sched_getaffinity(0)) >= 2:
        assert set(run(2)[0]) == {2}


def test_config_mismatch_is_named(cli_run, tmp_path, capsys):
    """Later stages refuse a config that disagrees with the run directory's
    on a field the dataset was simulated with, and accept other changes."""
    outdir, cfg, _ = cli_run
    assert set(SIMULATE_FIELDS) == set(inspect.signature(simulate_dataset).parameters)
    d = tmp_path / "run"
    d.mkdir()
    for name in ["config.json", "noisy.stack", "manifest.csv", "refined_graph.csv"]:
        shutil.copy(os.path.join(outdir, name), d / name)
    for stage in ["classify", "denoise"]:
        path = tmp_path / "seed.json"
        save_config(dataclasses.replace(cfg, seed=cfg.seed + 1), path)
        assert main(["--config", str(path), stage, str(d)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigMismatchError"
        assert err["message"].startswith("seed ")
    path = tmp_path / "s.json"
    save_config(dataclasses.replace(cfg, s=cfg.s + 1), path)
    assert main(["--config", str(path), "classify", str(d)]) == 0


def test_removed_config_keys_are_named(cli_run, tmp_path, capsys):
    """A run directory whose config.json holds keys RunConfig no longer has
    (phase_flip, energy_fraction, initial_fft_size, t, fft_size, eps,
    standardize, whiten and wiener, written before those settings were
    removed, and threads) is refused by file and key, with the advice to
    rerun simulate;
    a --config file holding them names them as unknown keys."""
    outdir, _, cfg_path = cli_run
    d = tmp_path / "run"
    shutil.copytree(outdir, d)
    old = dict(json.loads((d / "config.json").read_text()), phase_flip=True,
               energy_fraction=0.9, initial_fft_size=256, t=1, fft_size=1024, eps=0.0,
               standardize=True, whiten=False, wiener=True, threads=1)
    (d / "config.json").write_text(json.dumps(old))
    for stage in ["classify", "denoise"]:
        assert main(["--config", cfg_path, stage, str(d)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigMismatchError"
        assert err["message"] == (f"{d / 'config.json'} holds keys RunConfig does not have: "
                                  "energy_fraction, eps, fft_size, initial_fft_size, "
                                  "phase_flip, standardize, t, threads, whiten, wiener; "
                                  "rerun simulate to rewrite it")
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"n": 30, "energy_fraction": 0.9, "standardize": True,
                                "threads": 0, "whiten": False, "wiener": True}))
    with pytest.raises(ValueError, match="^unknown config keys: energy_fraction, "
                                         "standardize, threads, whiten, wiener$"):
        load_config(path)


def test_cli_import_loads_no_scipy():
    """scipy is imported where it is used, so that start-up and the stages
    that never call it do not pay for its import."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mfvdm.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mfvdm.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_basis_and_simulate_load_no_scipy(tmp_path):
    """build_basis computes its Bessel functions in numpy, so building a
    basis and running the simulate stage import no scipy module at all."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mfvdm.__file__)))
    code = ("import sys, mfvdm, mfvdm.pipeline\n"
            "mfvdm.build_basis(33, 0.5, 16.0)\n"
            "config = mfvdm.RunConfig(n=8, L=17, support_radius=8.0, s=4, m=4)\n"
            "mfvdm.pipeline.run_simulate(config, sys.argv[1])\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_run_simulate_passes_the_simulate_fields(monkeypatch, tmp_path):
    """run_simulate calls simulate_dataset with the config's values of
    exactly SIMULATE_FIELDS, by name."""
    config = RunConfig(n=12, L=17, bandlimit=0.4, support_radius=7.0, seed=3, snr=0.4,
                       noise_model="colored", with_ctf=False, n_defocus_groups=3, n_blobs=5,
                       shift_px=0.5, s=4)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return simulate_dataset(*args, **kwargs)

    monkeypatch.setattr(mfvdm.pipeline, "simulate_dataset", recording)
    mfvdm.pipeline.run_simulate(config, str(tmp_path))
    assert calls == [((), {name: getattr(config, name) for name in SIMULATE_FIELDS})]


def test_every_config_field_is_read():
    """Each RunConfig field is read as config.<field> somewhere in the
    package, or is one of SIMULATE_FIELDS, which run_simulate passes to
    simulate_dataset: a field nothing reads is a setting that does nothing."""
    package = os.path.dirname(mfvdm.__file__)
    text = "".join(open(os.path.join(package, name)).read()
                   for name in sorted(os.listdir(package)) if name.endswith(".py"))
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in SIMULATE_FIELDS and not re.search(rf"\bconfig\.{f.name}\b", text)]
    assert unread == []


@pytest.fixture
def one_blas_thread():
    """OpenBLAS on one thread in this process for the test, as it starts
    under a one-CPU affinity; conftest's _restore_threads puts back the
    previous count."""
    set_blas_threads(1)


def test_threads_one_is_serial_and_identical(cli_run, monkeypatch, tmp_path, one_blas_thread):
    """The default run solves its eigenproblems on a process pool; a run on
    one usable CPU starts no child process, and both write the same graphs
    and stacks. Both run OpenBLAS on one thread: the expansion's last bits
    depend on the BLAS thread count, which the affinity also sets when
    OpenBLAS loads."""
    _, _, cfg_path = cli_run
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    runs = {}
    for label, cpus in [("pooled", {0, 1}), ("serial", {0})]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        outdir = str(tmp_path / label)
        before = len(forks)
        for cmd in ["simulate", "classify", "denoise", "evaluate"]:
            assert main(["--config", cfg_path, cmd, outdir]) == 0
        runs[label] = (outdir, len(forks) - before)
    assert runs["pooled"][1] > 0
    assert runs["serial"][1] == 0
    for name in ["initial_graph.csv", "refined_graph.csv", "denoised.stack",
                 "effective_ctf.stack"]:
        with open(os.path.join(runs["pooled"][0], name), "rb") as fh:
            pooled = fh.read()
        with open(os.path.join(runs["serial"][0], name), "rb") as fh:
            assert fh.read() == pooled, name


def test_cli_matches_in_memory_pipeline(cli_run, one_blas_thread):
    """The in-memory pipeline on the run directory's own noisy.stack and
    manifest.csv, with the basis built from the config, gives the graphs
    and stacks that the CLI stages wrote, bit for bit: the stages lose
    nothing between them that a later one uses."""
    outdir, cfg, _ = cli_run

    def path(name):
        return os.path.join(outdir, name)

    basis = build_basis(cfg.L, cfg.bandlimit, cfg.support_radius)
    manifest = read_manifest(path("manifest.csv"), cfg)
    profiles = default_defocus_groups(cfg.n_defocus_groups)
    noisy = read_stack(path("noisy.stack"))
    expansion, _ = prepare_coeffs(noisy, manifest, profiles, basis, cfg)
    initial, _, refined = classify(expansion, basis, cfg)
    for graph, name in [(initial, "initial_graph.csv"), (refined, "refined_graph.csv")]:
        back = read_graph_csv(path(name), cfg.n)
        dists = np.full(graph.indices.size, np.nan) if graph.dists is None else graph.dists
        for field, value in [("indptr", graph.indptr), ("indices", graph.indices),
                             ("angles", graph.angles), ("dists", dists)]:
            got = getattr(back, field)
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), (name, field)
    ctf = absolute_ctf_coeffs(manifest, profiles, basis, cfg)
    denoised, effective = denoise_and_correct(expansion, ctf, refined, basis, cfg)
    for stack, name in [(denoised, "denoised.stack"), (effective, "effective_ctf.stack")]:
        assert read_stack(path(name)).tobytes() == stack.astype(np.float32).tobytes(), name
