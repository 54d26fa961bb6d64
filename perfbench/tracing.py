"""Spans around the public calls of each mfvdm layer, recorded from outside.

``Tracer.install()`` replaces each function at the module attribute its
caller looks it up by (``mfvdm.pipeline.initial_nn_search``,
``mfvdm.denoise.top_eigs``, ...) with a wrapper that records a span: name,
start, end, parent span and ``ru_maxrss`` at its end. The package source is
not modified. Spans stay in memory until ``dump()``; ``layer_metrics()``
turns the spans of one or more processes into the per-layer metrics.
"""

import functools
import importlib
import json
import os
import resource
import time

# (module, attribute the caller looks up, span name). A function called from
# two modules is wrapped at both sites; top_eigs keeps the sites apart because
# the spectral bundle and the denoiser are different workloads for it.
SITES = [
    ("mfvdm.pipeline", "build_basis", "basis.build_basis"),
    ("mfvdm.pipeline", "expand_stack", "basis.expand_stack"),
    ("mfvdm.graph", "expand_stack", "basis.expand_stack"),
    ("mfvdm.pipeline", "reconstruct_grid", "basis.reconstruct_grid"),
    ("mfvdm.pipeline", "simulate_dataset", "simulate.simulate_dataset"),
    ("mfvdm.pipeline", "preprocess", "simulate.preprocess"),
    ("mfvdm.pipeline", "initial_nn_search", "graph.initial_nn_search"),
    ("mfvdm.pipeline", "compute_bundle", "spectral.compute_bundle"),
    ("mfvdm.pipeline", "refine_neighbors", "spectral.refine_neighbors"),
    ("mfvdm.pipeline", "align_graph", "spectral.align_graph"),
    ("mfvdm.spectral", "build_frequency_matrix", "spectral.build_frequency_matrix"),
    ("mfvdm.denoise", "build_frequency_matrix", "spectral.build_frequency_matrix"),
    ("mfvdm.spectral", "top_eigs", "spectral.top_eigs.bundle"),
    ("mfvdm.denoise", "top_eigs", "spectral.top_eigs.denoise"),
    ("mfvdm.pipeline", "denoise_stack", "denoise.denoise_stack"),
    ("mfvdm.pipeline", "ctf_correct", "denoise.ctf_correct"),
    ("mfvdm.pipeline", "prepare_coeffs", "pipeline.prepare_coeffs"),
    ("mfvdm.pipeline", "absolute_ctf_coeffs", "pipeline.absolute_ctf_coeffs"),
    ("mfvdm.pipeline", "denoise_and_correct", "pipeline.denoise_and_correct"),
    ("mfvdm.pipeline", "evaluate_stack", "metrics.evaluate_stack"),
    ("mfvdm.io", "write_stack", "io.write_stack"),
    ("mfvdm.io", "read_stack", "io.read_stack"),
    ("mfvdm.io", "write_manifest", "io.write_manifest"),
    ("mfvdm.io", "read_manifest", "io.read_manifest"),
    ("mfvdm.io", "save_config", "io.save_config"),
    ("mfvdm.cli", "load_config", "io.load_config"),
]

# per-layer metric -> (kind, span name, or a prefix ending in "."); kinds:
# total seconds, call count, self seconds, ru_maxrss (MB) at the end of the
# span, exceptions raised, bytes of the files read or written
LAYER_METRICS = {
    "basis.build_basis_s": ("s", "basis.build_basis"),
    "basis.build_basis_calls": ("calls", "basis.build_basis"),
    "basis.expand_stack_s": ("s", "basis.expand_stack"),
    "basis.reconstruct_grid_s": ("s", "basis.reconstruct_grid"),
    "basis.reconstruct_grid_calls": ("calls", "basis.reconstruct_grid"),
    "simulate.simulate_dataset_s": ("s", "simulate.simulate_dataset"),
    "simulate.preprocess_s": ("s", "simulate.preprocess"),
    "graph.initial_nn_search_s": ("s", "graph.initial_nn_search"),
    "graph.initial_nn_search_rss_mb": ("rss_mb", "graph.initial_nn_search"),
    "spectral.compute_bundle_s": ("s", "spectral.compute_bundle"),
    "spectral.top_eigs.bundle_calls": ("calls", "spectral.top_eigs.bundle"),
    "spectral.top_eigs.bundle_s": ("s", "spectral.top_eigs.bundle"),
    "spectral.top_eigs.denoise_calls": ("calls", "spectral.top_eigs.denoise"),
    "spectral.top_eigs.denoise_s": ("s", "spectral.top_eigs.denoise"),
    "spectral.build_frequency_matrix_calls": ("calls", "spectral.build_frequency_matrix"),
    "spectral.build_frequency_matrix_s": ("s", "spectral.build_frequency_matrix"),
    "spectral.refine_neighbors_s": ("s", "spectral.refine_neighbors"),
    "spectral.refine_neighbors_rss_mb": ("rss_mb", "spectral.refine_neighbors"),
    "spectral.align_graph_s": ("s", "spectral.align_graph"),
    "spectral.eigs_errors": ("errors", "spectral.top_eigs."),
    "denoise.denoise_stack_s": ("s", "denoise.denoise_stack"),
    "denoise.ctf_correct_s": ("s", "denoise.ctf_correct"),
    "denoise.ctf_correct_calls": ("calls", "denoise.ctf_correct"),
    "pipeline.prepare_coeffs_s": ("s", "pipeline.prepare_coeffs"),
    "pipeline.absolute_ctf_coeffs_s": ("s", "pipeline.absolute_ctf_coeffs"),
    "pipeline.denoise_and_correct_self_s": ("self_s", "pipeline.denoise_and_correct"),
    "metrics.evaluate_stack_s": ("s", "metrics.evaluate_stack"),
    "io.bytes_written": ("bytes_written", "io."),
    "io.bytes_read": ("bytes_read", "io."),
}
# counted from the run's outputs rather than from spans
OUTPUT_COUNTS = ("graph.initial_edges", "spectral.refined_edges")

UNITS = {"s": "s", "self_s": "s", "rss_mb": "MB", "bytes_written": "B", "bytes_read": "B"}


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _paths(args):
    return [a for a in args if isinstance(a, (str, os.PathLike))]


class Tracer:
    """Span recorder for one process; create, install, run, dump."""

    def __init__(self):
        self.spans = []
        self._open = []

    def install(self):
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name):
        io_write = name.startswith("io.write") or name == "io.save_config"
        io_read = name.startswith("io.read") or name == "io.load_config"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter()}
            if io_read:
                span["bytes_read"] = sum(
                    os.path.getsize(p) for p in _paths(args) if os.path.exists(p))
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span["errors"] = 1
                raise
            finally:
                span["end"] = time.perf_counter()
                span["rss_mb"] = maxrss_mb()
                self._open.pop()
                if io_write:
                    span["bytes_written"] = sum(
                        os.path.getsize(p) for p in _paths(args) if os.path.exists(p))

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(span_lists, output_counts):
    """Per-layer metrics from the spans of each traced process.

    Self time is a span's duration minus its direct children's durations
    (calls are single-threaded, so children never overlap).
    """
    totals = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] is not None:
                child_time[sp["parent"]] += sp["end"] - sp["start"]
        for sp, child in zip(spans, child_time):
            dur = sp["end"] - sp["start"]
            for metric, (kind, name) in LAYER_METRICS.items():
                if not (sp["name"] == name or name.endswith(".") and sp["name"].startswith(name)):
                    continue
                if kind == "s":
                    value = dur
                elif kind == "self_s":
                    value = dur - child
                elif kind == "calls":
                    value = 1
                elif kind == "rss_mb":
                    totals[metric] = max(totals.get(metric, 0.0), sp["rss_mb"])
                    continue
                else:
                    value = sp.get(kind, 0)
                totals[metric] = totals.get(metric, 0) + value
    out = {}
    for metric, (kind, _) in LAYER_METRICS.items():
        out[metric] = {"value": totals.get(metric, 0), "unit": UNITS.get(kind, "count")}
    for metric in OUTPUT_COUNTS:
        out[metric] = {"value": output_counts[metric], "unit": "count"}
    return out
