"""Smoke test of the benchmark harness on tiny configurations (seconds each).

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Run from the repository root. Checks that both workload shapes emit every
end-to-end and per-layer metric named in BENCHMARK.json with its unit, and
that a stage which fails is counted in ``failed``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

ROOT = os.getcwd()
TINY = {"n": 60, "L": 17, "support_radius": 8.0, "s": 5, "m": 10, "k_tilde": 3,
        "n_defocus_groups": 4, "n_blobs": 10, "snr": 1.0, "filter_kind": 3}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tiny_run(mode, trace, **overrides):
    workload = run.Workload(mode, dict(TINY, **overrides))
    result, ctx = run.run(ROOT, f"smoke-{mode}", workload, seed=3, seconds=0.0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, ctx


def check_metrics(mode, trace):
    result, ctx = tiny_run(mode, trace)
    assert result["correct"] and result["failed"] == 0, ctx["failures"]
    assert result["attempted"] == 4
    declared = declared_metrics()[trace]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared, (mode, trace, set(emitted) ^ set(declared))


def check_failing_stage(mode):
    # a truncation m above n makes the denoise stage raise; evaluate cannot run
    result, ctx = tiny_run(mode, 0, m=70)
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 4, ctx["failures"]
    assert ctx["fail_frac"] > 0


def test_cli_metrics():
    check_metrics("cli", 0)


def test_cli_layer_metrics():
    check_metrics("cli", 1)


def test_memory_metrics():
    check_metrics("memory", 0)


def test_memory_layer_metrics():
    check_metrics("memory", 1)


def test_cli_failing_stage():
    check_failing_stage("cli")


def test_memory_failing_stage():
    check_failing_stage("memory")


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
