"""File formats, run configuration, and the command-line pipeline."""

import json
import os
import struct
import sys

import numpy as np
import pytest

from mfvdm import pipeline
from mfvdm.cli import main
from mfvdm.graph import ViewGraph, write_graph_csv
from mfvdm.io import (
    FormatError,
    RunConfig,
    atomic_open,
    load_config,
    read_manifest,
    read_stack,
    save_config,
    write_manifest,
    write_stack,
)


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


def test_manifest_round_trip(tmp_path, tiny_dataset):
    man = tiny_dataset["manifest"]
    csv_p, json_p = tmp_path / "m.csv", tmp_path / "m.json"
    write_manifest(man, csv_p, json_p)
    back = read_manifest(csv_p, json_p)
    np.testing.assert_array_equal(back.rotations, man.rotations)
    np.testing.assert_array_equal(back.defocus_group, man.defocus_group)
    assert back.snr == man.snr and back.L == man.L
    assert back.support_radius == man.support_radius


def test_writes_are_atomic(tmp_path, tiny_dataset, demo_graph):
    """A writer that raises part way through leaves the previous file byte
    for byte, and no temporary file behind."""
    import dataclasses

    man = tiny_dataset["manifest"]
    csv_p, json_p, graph_p = tmp_path / "m.csv", tmp_path / "m.json", tmp_path / "g.csv"
    write_manifest(man, csv_p, json_p)
    write_graph_csv(demo_graph, graph_p)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the rows run out of defocus groups after five images
    short = dataclasses.replace(man, defocus_group=man.defocus_group[:5])
    with pytest.raises(IndexError):
        write_manifest(short, csv_p, json_p)
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


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(L=32)
    with pytest.raises(ValueError):
        RunConfig(snr=-1.0)
    with pytest.raises(ValueError):
        RunConfig(s=2000, n=1000)
    with pytest.raises(ValueError):
        RunConfig(filter_kind=7)
    with pytest.raises(ValueError):
        RunConfig(energy_fraction=0.0)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("run"))
    cfg = RunConfig(n=30, L=17, support_radius=8.0, snr=0.2, s=5, k_tilde=4,
                    m=10, n_defocus_groups=4, n_blobs=10)
    cfg_path = os.path.join(outdir, "cfg.json")
    save_config(cfg, cfg_path)
    for cmd in ["simulate", "classify", "denoise", "evaluate"]:
        assert main(["--config", cfg_path, cmd, outdir]) == 0
    return outdir, cfg, cfg_path


def test_cli_artifacts(cli_run):
    outdir, cfg, _ = cli_run
    for name in ["clean.stack", "ctf_clean.stack", "noisy.stack",
                 "manifest.csv", "manifest.json", "initial_graph.csv",
                 "refined_graph.csv", "denoised.stack", "effective_ctf.stack",
                 "eval_report.csv", "eval_summary.json"]:
        assert os.path.exists(os.path.join(outdir, name)), name
    noisy = read_stack(os.path.join(outdir, "noisy.stack"))
    assert noisy.shape == (cfg.n, cfg.L, cfg.L)
    denoised = read_stack(os.path.join(outdir, "denoised.stack"))
    assert denoised.shape == noisy.shape
    assert np.isfinite(denoised).all()


def test_cli_simulate_deterministic(cli_run, tmp_path):
    outdir, _, cfg_path = cli_run
    second = str(tmp_path / "rerun")
    assert main(["--config", cfg_path, "simulate", second]) == 0
    for name in ["clean.stack", "ctf_clean.stack", "noisy.stack"]:
        a = open(os.path.join(outdir, name), "rb").read()
        b = open(os.path.join(second, name), "rb").read()
        assert a == b, name


def test_cli_classify_idempotent(cli_run):
    outdir, _, cfg_path = cli_run
    before = open(os.path.join(outdir, "refined_graph.csv")).read()
    assert main(["--config", cfg_path, "classify", outdir]) == 0
    after = open(os.path.join(outdir, "refined_graph.csv")).read()
    assert before == after


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
    import shutil

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


def test_cli_threads_env(cli_run, monkeypatch, tmp_path):
    _, _, cfg_path = cli_run
    monkeypatch.setenv("MFVDM_THREADS", "1")
    d = str(tmp_path / "threaded")
    assert main(["--config", cfg_path, "simulate", d]) == 0


def test_threads_without_threadpoolctl_warns_once(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)   # import fails
    pipeline._warn_uncapped.cache_clear()
    assert pipeline.limit_threads(0) is None
    assert capsys.readouterr().err == ""
    assert pipeline.limit_threads(3) is None
    assert pipeline.limit_threads(3) is None
    err = capsys.readouterr().err
    assert err.count("BLAS thread cap of 3 not applied: threadpoolctl not installed") == 1
    assert "ignored" not in err


def test_threads_one_is_serial_and_identical(cli_run, monkeypatch, tmp_path):
    """The default run solves its eigenproblems on a process pool; --threads 1
    starts no child process, and both write the same graphs and stacks."""
    _, _, cfg_path = cli_run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    runs = {}
    for label, opts in [("pooled", []), ("serial", ["--threads", "1"])]:
        outdir = str(tmp_path / label)
        before = len(forks)
        for cmd in ["simulate", "classify", "denoise", "evaluate"]:
            assert main(opts + ["--config", cfg_path, cmd, outdir]) == 0
        runs[label] = (outdir, len(forks) - before)
    assert runs["pooled"][1] > 0
    assert runs["serial"][1] == 0
    for name in ["initial_graph.csv", "refined_graph.csv", "denoised.stack",
                 "effective_ctf.stack"]:
        with open(os.path.join(runs["pooled"][0], name), "rb") as fh:
            pooled = fh.read()
        with open(os.path.join(runs["serial"][0], name), "rb") as fh:
            assert fh.read() == pooled, name
