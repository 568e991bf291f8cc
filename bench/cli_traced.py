"""Run one tamearc CLI job in this interpreter with span wrappers installed.

    python3 bench/cli_traced.py SPANS_PATH ARG...

Times ``import tamearc.cli``, installs the wrappers of spans.py, calls
``tamearc.cli.main(ARGS)``, writes the spans (with the import time in the
header) to SPANS_PATH and exits with main's status.
"""

import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import tamearc.cli
    import_s = time.perf_counter() - start

    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        status = tamearc.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path, import_s=import_s)
    return status


if __name__ == "__main__":
    sys.exit(main())
