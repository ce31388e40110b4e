"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SERVE-ARGS...

Used only by the traced serve run.  ``PERFBENCH_TRACE_OUT`` names the
JSON file the server's layer totals go to when it exits, and
``PERFBENCH_WORKER_DIR`` the directory each forked batch worker leaves
its own totals in.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time


def main() -> int:
    started = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracing.install_serve(tracer, os.environ["PERFBENCH_WORKER_DIR"])
    from repro.serve.cli import serve_main

    code = serve_main(sys.argv[1:])
    waits = tracer.queue_wait_ns
    record = {
        "wall_s": time.perf_counter() - started,
        "totals_s": tracer.totals_s(),
        "calls": dict(tracer.calls),
        "queue_wait_ms_p50": statistics.median(waits) / 1e6 if waits else 0.0,
        "exec_ms_p50": statistics.median(tracer.exec_ns) / 1e6 if tracer.exec_ns else 0.0,
        "spans": tracer.spans,
    }
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
