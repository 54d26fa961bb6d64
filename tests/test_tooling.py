"""The benchmark harness's layer wrappers find every function they wrap."""

import importlib
import importlib.util
import os

import mfvdm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_sites_resolve():
    """Each (module, attribute) of perfbench/tracing.SITES names a callable
    after `import mfvdm`, so that installing the tracer wraps every site."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert mfvdm.__version__
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing
