"""Start the strategy service, optionally recording layer spans.

    python3 serve_main.py [--trace-out FILE] serve [serve options...]

The process times the host's speed (:mod:`speed`, printed as
``reference <seconds>``) before the service starts, samples it while
the service runs, and prints the samples as ``samples <JSON list>``
after it stops.  Everything after the optional ``--trace-out FILE``
goes to ``python -m repro.serve`` unchanged.  With it, the layer
wrappers of :mod:`layers` are installed before the service starts, and
the spans are written to FILE as Chrome-trace JSON when the service
shuts down.
"""

from __future__ import annotations

import json
import sys


def main(argv: list) -> int:
    from speed import Sampler, announce

    announce()
    from repro.serve.__main__ import main as serve

    tracer = None
    if argv[:1] == ["--trace-out"]:
        from layers import Tracer

        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    sampler = Sampler()
    try:
        with sampler:
            return serve(argv)
    finally:
        if tracer is not None:
            tracer.write(trace_out)
        print(f"samples {json.dumps(sampler.samples)}", flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
