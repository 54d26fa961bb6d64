"""The benchmark harness's layer wrappers find every function they wrap;
the simulate stage loads no module it does not need; the test oracles do
not call the code they check."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

import numpy as np

import mfvdm
from mfvdm.graph import write_graph_csv
from mfvdm.io import write_manifest, write_stack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_sites_resolve():
    """Each (module, attribute) of perfbench/tracing.SITES names a callable
    after `import mfvdm`, so that installing the tracer wraps every site."""
    tracing = _load_perfbench("tracing")
    assert mfvdm.__version__
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing


def test_score_readers_read_the_written_files(tiny_dataset, demo_graph, tmp_path):
    """perfbench/score.py reads graphs, manifests and stacks without mfvdm;
    its readers return exactly the edges, angles, rotations and images that
    mfvdm wrote."""
    score = _load_perfbench("score")
    ds, g = tiny_dataset, demo_graph
    assert g.angles is not None
    write_graph_csv(g, tmp_path / "g.csv")
    write_manifest(ds["manifest"], tmp_path / "m.csv")
    write_stack(ds["noisy"], tmp_path / "s.stack")
    i, j, alpha = score.read_graph_csv(tmp_path / "g.csv")
    for got, expected in ((i, g.rows), (j, g.indices), (alpha, g.angles)):
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(score.read_rotations(tmp_path / "m.csv"),
                                  ds["manifest"].rotations)
    np.testing.assert_array_equal(score.read_stack(tmp_path / "s.stack"),
                                  ds["noisy"].astype(np.float32))


def test_simulate_does_not_import_ndimage():
    """Projecting a stack (in a fresh interpreter, after `import mfvdm`)
    leaves scipy.ndimage unloaded: importing it would add 20-30 ms of
    start-up to every simulate run."""
    code = ("import sys, mfvdm\n"
            "from mfvdm.simulate import make_phantom, project_stack, sample_rotations\n"
            "project_stack(make_phantom(9, 0), sample_rotations(3, 1))\n"
            "print('scipy.ndimage' in sys.modules)\n")
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_reference_imports_no_private_graph_spectral_or_denoise_name():
    """tests/reference.py, the scalar oracles, takes no private name from
    the modules it checks (mfvdm.graph, mfvdm.spectral, mfvdm.denoise), so
    that an oracle does not compare their code with itself."""
    with open(os.path.join(ROOT, "tests", "reference.py")) as f:
        tree = ast.parse(f.read())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("mfvdm.graph", "mfvdm.spectral", "mfvdm.denoise")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private
