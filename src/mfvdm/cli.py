"""Command-line pipeline: simulate / classify / denoise / evaluate.

Each subcommand reads its inputs from the run directory written by earlier
stages, so a full run is four commands against one directory. Errors exit
nonzero with a machine-readable JSON object on stderr.
"""

import argparse
import dataclasses
import json
import sys

from .io import RunConfig, load_config
from .pipeline import run_classify, run_denoise, run_evaluate, run_simulate
from .pool import set_threads

__all__ = ["main", "build_parser"]


def build_parser():
    p = argparse.ArgumentParser(
        prog="mfvdm",
        description="Multi-frequency vector diffusion maps: simulation, "
                    "classification, denoising, and evaluation of projection "
                    "image stacks.",
    )
    p.add_argument("--config", metavar="PATH", help="JSON run configuration")
    p.add_argument("--threads", type=int, default=None,
                   help="cap the worker processes of the projections, the RID search "
                        "and the eigensolves, and the OpenBLAS threads, for the whole "
                        "process (default: the config's threads; 0 is unlimited)")
    p.add_argument("--verbose", action="store_true", help="progress messages on stderr")
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("simulate", "generate a synthetic dataset with ground truth"),
        ("classify", "build the initial and refined neighbor graphs"),
        ("denoise", "graph-filter the stack and correct the CTF"),
        ("evaluate", "score the denoised stack against the clean reference"),
    ]:
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("outdir", help="run directory holding the stage artifacts")
    return p


def _resolve_config(args):
    config = load_config(args.config) if args.config else RunConfig()
    if args.threads is not None:
        config = dataclasses.replace(config, threads=args.threads)
    return config


_STAGES = {
    "simulate": run_simulate,
    "classify": run_classify,
    "denoise": run_denoise,
    "evaluate": run_evaluate,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if not set_threads(config.threads) and config.threads:
            print(f"BLAS thread cap of {config.threads} not applied: no OpenBLAS loaded; "
                  "set the BLAS library's thread variable before start", file=sys.stderr)
        if args.verbose:
            print(f"mfvdm {args.command}: outdir={args.outdir}", file=sys.stderr)
        result = _STAGES[args.command](config, args.outdir)
        if args.command == "evaluate":
            print(json.dumps(result))
        elif args.verbose:
            print(f"mfvdm {args.command}: done", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - single wire-format error surface
        err = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps(err), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
