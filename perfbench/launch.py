"""Run the cvmbqc CLI with the benchmark's span tracer installed.

Usage: python3 perfbench/launch.py SPANS_FILE CVMBQC_ARGS...

Times the fresh-interpreter import of ``cvmbqc.cli``, installs the tracer,
calls ``cvmbqc.cli.main`` with the remaining arguments, writes the spans to
SPANS_FILE and exits with the CLI's exit code.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cvmbqc.cli
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cvmbqc.cli.main(argv)
    finally:
        tracer.write(spans_file, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
