"""Run one ``repro`` command with the layer tracer installed.

    python perfbench/launch.py SPANS.json -- <repro arguments...>

behaves like ``python -m repro <repro arguments...>`` and, when the
command returns (for ``serve``: when SIGINT stops it), writes the spans
it recorded to ``SPANS.json``.  The first span, ``import``, covers
importing the program and installing the wrappers.
"""

import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS.json -- <repro arguments...>")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    import repro.cli

    recorder = tracer.Recorder()
    tracer.install(recorder)
    recorder.add_span("import", t0, time.perf_counter_ns())
    try:
        code = repro.cli.main(argv)
    finally:
        recorder.dump(spans_path)
    sys.exit(code)
