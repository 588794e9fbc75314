"""Run one e6kit CLI invocation with the tracer installed.

Usage: python perfbench/trace_cli.py TRACE_OUT VERB [ARGS...]

Installs the wrappers, calls e6kit.cli.run(argv), writes the spans and
counts to TRACE_OUT (tracer.write) and exits with the verb's exit code.
"""

import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import e6kit.cli
    t = tracer.Tracer().install()
    try:
        rc = e6kit.cli.run(argv)
    finally:
        sys.stdout.flush()
        t.uninstall()
        tracer.write(t.dump(), out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
