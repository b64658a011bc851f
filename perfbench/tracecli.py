"""Traced stand-in for ``python -m weakcm.cli`` in fresh child processes.

Usage: python tracecli.py TRACE_OUT SUBCOMMAND [ARGS...]

Imports the CLI (timing the import), installs the tracer, runs the same
``main`` a user's ``python -m weakcm.cli`` runs, and writes the aggregated
spans to TRACE_OUT.  Standard output is the CLI's own, byte for byte.
"""

import json
import sys
import time

import spans


def run(out_path, argv):
    t0 = time.perf_counter()
    import weakcm.cli
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer().install()
    tracer.active = True
    try:
        code = weakcm.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        data = tracer.export()
        data["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
