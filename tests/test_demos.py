"""The quick demos, and README's library quick start, run to completion as
scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, tmp_path):
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("script", ["01_simulate_and_expand.py", "04_cli_pipeline.py"])
def test_demo_runs(script, tmp_path):
    proc = _run([os.path.join(ROOT, "demos", script)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs(tmp_path):
    """The python block under README's "Library quick start" heading, read
    from README.md when the test runs, runs as a script and hands
    absolute_ctf_coeffs' output to denoise_and_correct: README cannot drift
    from the API it documents."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "absolute_ctf_coeffs(" in code and "denoise_and_correct(" in code
    check = ("\nassert denoised.shape == effective_ctf.shape == (config.n, config.L, config.L)"
             "\nprint(denoised.shape)\n")
    proc = _run(["-c", code + check], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(600, 33, 33)"
