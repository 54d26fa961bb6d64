"""One traced ``mfvdm`` CLI stage in a fresh process.

    python3 perfbench/stage.py SPANS_OUT [mfvdm arguments...]

Installs the layer wrappers, runs ``mfvdm.cli.main`` on the remaining
arguments, writes the recorded spans to SPANS_OUT as JSON, and exits with
main's return code.
"""

import sys

import tracing


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import mfvdm.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return mfvdm.cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
