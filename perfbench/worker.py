"""One in-memory benchmark run in a fresh process.

    python3 perfbench/worker.py --config JSON --noise-seed N --cache PKL --seconds S --trace 0|1 --out PATH
    python3 perfbench/worker.py --config JSON --noise-seed N --cache PKL --setup-only --out PATH

Set-up is ``import mfvdm`` plus ``build_basis``. The input stack is then
made outside every timed region: phantom and views from the config's seed,
detector noise from the noise seed (noise seed N draws what
``simulate_dataset`` draws for seed N, so N equal to the config seed gives
exactly its stack). Untraced runs pickle ``simulate_dataset``'s output for
the config seed to PKL on first use and read it back from there after.

The pipeline (prepare_coeffs -> classify -> absolute_ctf_coeffs ->
denoise_and_correct -> evaluate_stack + neighbor_histograms) runs at least
once, and again while another pass is expected to end less than half a pass
after S seconds. Each pass's stage times, failed stages (with the reason)
and quality scores go to PATH as JSON.
"""

import argparse
import json
import os
import pickle
import time

import numpy as np

import score
import tracing

STAGES = ("simulate", "classify", "denoise", "evaluate")


def edge_arrays(graph):
    edges = list(graph.edges())
    i = [e[0] for e in edges]
    j = [e[1] for e in edges]
    alpha = [float("nan") if e[2] is None else e[2] for e in edges]
    return np.array(i), np.array(j), np.array(alpha)


def run_pipeline(P, metrics, basis, config, data):
    """One timed pass; returns stage times, failures and quality scores."""
    clean, _, noisy, profiles, manifest = data
    out = {"failed": {}}
    failed = out["failed"]
    t0 = time.perf_counter()
    try:
        coeffs, noise_var = P.prepare_coeffs(noisy, manifest, profiles, basis, config)
        initial, _, refined = P.classify(coeffs, basis, config, noise_var=noise_var)
    except Exception as exc:  # noqa: BLE001 - a failing stage is a measured outcome
        failed["classify"] = repr(exc)
    t1 = time.perf_counter()
    if not failed:
        try:
            ctf = P.absolute_ctf_coeffs(manifest, profiles, basis, config)
            denoised, eff = P.denoise_and_correct(coeffs, ctf, refined, basis, config)
        except Exception as exc:  # noqa: BLE001
            failed["denoise"] = repr(exc)
    t2 = time.perf_counter()
    if not failed:
        try:
            _, summary = P.evaluate_stack(denoised, clean)
            metrics.neighbor_histograms(refined, manifest)
        except Exception as exc:  # noqa: BLE001
            failed["evaluate"] = repr(exc)
    t3 = time.perf_counter()
    out.update(classify_s=t1 - t0, denoise_s=t2 - t1, evaluate_s=t3 - t2, total_s=t3 - t0)
    if failed:
        first = STAGES.index(next(iter(failed)))
        for stage in STAGES[first + 1:]:
            failed[stage] = "not run: an earlier stage failed"

    # output checks and scoring, outside the timed region
    n, L, rot = config.n, config.L, manifest.rotations
    if "classify" not in failed:
        graphs = {name: edge_arrays(g) for name, g in (("initial", initial), ("refined", refined))}
        problems = [f"{name}: {p}" for name, (i, j, a) in graphs.items()
                    for p in score.graph_problems(i, j, a, n, config.s)]
        i, j, a = graphs["refined"]
        out["initial_true_frac"] = score.true_frac(rot, *graphs["initial"][:2])
        out["refined_true_frac"] = score.true_frac(rot, i, j)
        out["align_err_med_deg"] = score.align_err_med_deg(rot, i, j, a)
        out["initial_edges"] = int(graphs["initial"][0].size)
        out["refined_edges"] = int(i.size)
        if problems:
            failed["classify"] = "; ".join(problems)
    if "denoise" not in failed:
        problems = (score.stack_problems(denoised, n, L, "denoised")
                    + score.stack_problems(eff, n, L, "effective CTF"))
        if problems:
            failed["denoise"] = "; ".join(problems)
    if "evaluate" not in failed:
        out["mean_ssim"] = summary["mean_ssim"]
        out["mean_mse"] = summary["mean_mse"]
        if summary["n"] != n:
            failed["evaluate"] = f"summary n={summary['n']} != {n}"
    return out


def simulated(P, config, cache):
    """simulate_dataset at the config's seed, read from the pickle ``cache``
    when it exists and written to it when not (None: no cache)."""
    if cache and os.path.exists(cache):
        with open(cache, "rb") as fh:
            return pickle.load(fh)
    data = list(P.simulate_dataset(
        config.n, config.L, config.seed, config.snr,
        support_radius=config.support_radius, bandlimit=config.bandlimit,
        n_blobs=config.n_blobs, n_defocus_groups=config.n_defocus_groups,
        noise_model=config.noise_model, with_ctf=config.with_ctf,
        shift_px=config.shift_px))
    if cache:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        partial = f"{cache}.{os.getpid()}"
        with open(partial, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(partial, cache)
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="RunConfig fields as JSON")
    ap.add_argument("--noise-seed", type=int, required=True)
    ap.add_argument("--cache", required=True, help="pickle of the noise-free inputs")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import mfvdm
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    P = mfvdm.pipeline
    config = mfvdm.RunConfig(**json.loads(args.config))
    basis = P.build_basis(config.L, config.bandlimit, config.support_radius)
    result = {"setup_s": time.perf_counter() - t0}

    if not args.setup_only:
        error = None
        try:
            # a traced run simulates, so that it times simulate_dataset
            data = simulated(P, config, None if args.trace else args.cache)
            # simulate_dataset draws the noise of seed s from s + 3
            data[2] = mfvdm.simulate.add_noise(data[1], config.snr, args.noise_seed + 3,
                                               model=config.noise_model)
            error = "; ".join(score.stack_problems(data[0], config.n, config.L, "clean")
                              + score.stack_problems(data[2], config.n, config.L, "noisy"))
        except Exception as exc:  # noqa: BLE001 - a failing stage is a measured outcome
            error = repr(exc)
        pipelines = []
        start = time.perf_counter()
        while not error:
            pipelines.append(run_pipeline(P, mfvdm.metrics, basis, config, data))
            elapsed = time.perf_counter() - start
            # the same rule as run.another_pass
            if args.trace or elapsed + pipelines[-1]["total_s"] / 2 >= args.seconds:
                break
        result.update(simulate_error=error or None, pipelines=pipelines)
        if tracer:
            result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
