"""One traced cold CLI stage: ``wgflow.cli.main`` with every layer wrapped.

Usage::

    python3 perfbench/cli_shim.py SPANS_PATH STAGE [CLI ARGS...]

Records ``cli.import`` (the package import) and ``cli.STAGE`` (the call to
``main``) as root spans, with the wrapped layer calls nested below, and
writes them to ``SPANS_PATH`` before exiting with the CLI's exit code.
"""

import os
import sys
import time

_T0 = time.monotonic()
import wgflow.cli  # noqa: E402

_T1 = time.monotonic()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.add_span("cli.import", _T0, _T1, -1)
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = wgflow.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
