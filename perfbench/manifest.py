"""The benchmark's metric and workload tables, and ``BENCHMARK.json``.

Run from the repository root to rewrite ``BENCHMARK.json`` from these
tables::

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json
import sys

from tracer import COUNTERS, LAYERS, layer_name

RUN_SECONDS = 40

#: The gated workloads.  ``closed-form-f4`` (see ``workloads.py``) runs by
#: hand only: a run takes about 90 s (four F4 set-ups of about 6 s, two
#: passes of about 30 s), and with three workloads the runs a comparison
#: needs would not fit its time budget at a length that keeps the spreads
#: under the bounds.
WORKLOADS = (
    (
        "verify-battery",
        "the oracle-bound correctness gate (GL3, A2-adjoint-flip, C2, G2 at "
        "cap 8): Weyl inverse, mat_inverse and coroot-cone tests; W tiny",
    ),
    (
        "element-cold",
        "seeded CLI element requests on 8 data, each building a fresh datum, "
        "so caches fill and are never reused",
    ),
)

#: (name, unit, better, bound) of every end-to-end metric.  Times are
#: nominal seconds (``speed.py``).  Over ten seeds per workload on a shared
#: 2-vCPU Xeon VM, whose raw speed ran 1.1 to 1.95 times slower than nominal
#: meanwhile, the quartile spread was at most 3.0% of the median for wall_s,
#: 2.6% for ops_per_s, 4.3% for latency_ms_p50, 3.4% for latency_ms_p90,
#: 5.8% for setup_s and 0.6% for peak_rss_mb.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.15),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("latency_ms_p50", "ms", "lower", 0.15),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer() -> list[dict]:
    out = []
    for module, path in LAYERS:
        name = layer_name(module, path)
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, unit, better in COUNTERS:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": per_layer(),
    }


def main() -> int:
    with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
