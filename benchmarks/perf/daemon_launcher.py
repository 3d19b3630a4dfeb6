"""Start ``repro serve`` with the benchmark's timing wrappers installed.

Used only by the traced half of ``daemon_mixed_1k``: the wrappers go in
before ``repro.server.cli.main`` runs, and the aggregated spans are
written to ``$FOBS_PERF_TRACE_OUT`` once the daemon has drained.  The
untraced half starts the plain ``python -m repro serve``.
"""

from __future__ import annotations

import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    harness.bootstrap()
    from tracing import Tracer

    from repro.server.cli import main

    tracer = Tracer()
    tracer.install()
    tracer.op_begin()
    try:
        status = main(sys.argv[1:])
    finally:
        tracer.op_end()
        tracer.uninstall()
        with open(os.environ["FOBS_PERF_TRACE_OUT"], "w") as fh:
            json.dump(tracer.dump(), fh)
    raise SystemExit(status)
