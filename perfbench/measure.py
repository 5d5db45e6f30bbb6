"""Run one workload in this interpreter and print its raw measurements.

``run.py`` starts this script in a fresh interpreter for every workload,
so datum caches, memo dicts and peak RSS never carry over.  The last line
of standard output is one JSON object.  With ``--trace`` the library
functions listed in ``tracer.LAYERS`` are wrapped for one set-up and one
pass, and the per-layer statistics are added.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import workloads as wl
from tracer import Tracer

#: Untraced runs time at least this many set-ups, for at least this long.
SETUPS = 7
SETUP_SECONDS = 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = wl.WORKLOADS[args.workload](args.seed, wl.load_expected())
    tracer = Tracer() if args.trace else None
    setup_s: list[float] = []
    passes = []
    try:
        if tracer is not None:
            tracer.install()
        else:
            # extra set-ups, timed and discarded, so set-up time is a median
            # of several
            while len(setup_s) < SETUPS - 1 or sum(setup_s) < SETUP_SECONDS:
                setup_s.append(wl.timed_setup(workload)[0])
        for dt, res in wl.passes(workload, args.seconds, 1 if tracer else None):
            if dt is not None:
                setup_s.append(dt)
            passes.append(res)
    finally:
        if tracer is not None:
            tracer.restore()
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    out = {
        "workload": args.workload,
        "setup_s": setup_s,
        "passes": [
            {
                "wall": p.wall,
                "busy": p.busy,
                "raw": p.raw,
                "ops": p.ops,
                "failed": p.failed,
                "latency": p.latency,
                "digest": wl.digest("\n".join(p.outputs)),
            }
            for p in passes
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["restored"] = tracer.restored()
        out["spans"] = tracer.span_count()
        out["layers"] = tracer.layer_stats()
        out["counters"] = tracer.counters()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
