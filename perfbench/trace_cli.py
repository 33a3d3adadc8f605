"""Traced twin of the ``envalg`` console script, for the shipped-cli traced run.

Usage: ``python3 perfbench/trace_cli.py <envalg arguments>`` with ``src`` on
PYTHONPATH.  Times ``import envalg``, wraps the layer functions, runs the
CLI with the given arguments and prints one JSON object: the exit code, the
report text, the spans (parents as indices) and the counters.
"""

import contextlib
import io
import json
import sys

import tracing


def main(argv):
    tracer = tracing.Tracer()
    tracer.iteration = 0
    start = tracing.clock()
    import envalg.cli
    tracer.record("import.envalg", start, tracing.clock())
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = envalg.cli.main(argv)
    tracer.uninstall()
    doc = {
        "exit": code,
        "report": out.getvalue(),
        "spans": [[name, start, end, parent] for name, start, end, parent, _ in tracer.spans],
        "counters": tracer.counters.get(0, {}),
    }
    sys.stdout.write(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
