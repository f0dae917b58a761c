"""Run one ``tripoint`` CLI command in this fresh interpreter, with spans.

Usage: python cli_child.py SPANS_JSON CLI_ARGS...

Records ``cli.import`` (holding ``cli.numpy_import``) around the imports and
``cli.main`` around ``tripoint.cli.main``, with the program's module calls
traced beneath it, writes the spans to SPANS_JSON and exits with the CLI's
exit code.  The caller's ``cli.process`` span covers interpreter start-up
and shutdown around these.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402  (standard library only, imported before timing)


def main() -> int:
    tracer = tracing.Tracer()
    imports = tracer.open("cli.import")
    numpy_import = tracer.open("cli.numpy_import")
    import numpy  # noqa: F401

    tracer.close(numpy_import)
    import tripoint.cli

    tracer.close(imports)
    tracer.install()
    span = tracer.open("cli.main")
    try:
        return tripoint.cli.main(sys.argv[2:])
    finally:
        tracer.close(span)
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
