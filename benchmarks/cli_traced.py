"""`python -m sqzsim.cli` with the benchmark's span wrappers installed.

    python3 benchmarks/cli_traced.py SPANS.json CLI-ARGS...

Runs the CLI in this process, then writes the spans it recorded to
SPANS.json and exits with the CLI's own exit code.
"""

import json
import sys

import sqzsim.cli

from spans import Tracer


def main(spans_path, argv):
    tracer = Tracer()
    tracer.request = 0
    tracer.install()
    try:
        code = tracer.span(f"cli.{argv[0]}", sqzsim.cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
