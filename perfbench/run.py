"""Benchmark entry point for affweyl.

Run from the repository root::

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 40 --trace 0

The workload runs in a fresh interpreter (``measure.py``), one at a time.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the workload runs untraced first and
then once more, for one set-up and one pass, with the library functions of
``tracer.LAYERS`` wrapped, and the JSON object holds the per-layer metrics.
The traced pass runs the same inputs as the first untraced pass and must
give the same output digests; ``trace.overhead_ratio`` is the ratio of
their wall times.

Times are nominal seconds, scaled by speed samples of fixed reference
work so that the host's CPU speed drift stays out of them (``speed.py``).
Human-readable lines above the JSON report what is not a gated metric:
the share of failed ops, sample counts, how much slower than nominal the
host ran, and the line count of ``src/affweyl``.  The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

import manifest
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MEASURE = os.path.join(HERE, "measure.py")
PACKAGE_DIR = os.path.join("src", "affweyl")
#: Whole-run limit, under the 180 s a run may take.
DEADLINE_S = 170


def spawn(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, MEASURE, *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latencies(passes: list[dict]) -> list[float]:
    """The median time of each op over all its repeats in the run, once
    per op it completes."""
    samples: dict[str, list] = {}
    for p in passes:
        for key, (times, weight) in p["latency"].items():
            samples.setdefault(key, [[], weight])[0].extend(times)
    return [statistics.median(times) for times, weight in samples.values() for _ in range(weight)]


def end_to_end(raw: dict) -> dict[str, float]:
    passes = raw["passes"]
    latency = latencies(passes)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "ops_per_s": sum(p["ops"] for p in passes) / sum(p["busy"] for p in passes),
        "latency_ms_p50": 1000 * statistics.median(latency),
        "latency_ms_p90": 1000 * statistics.quantiles(latency, n=10, method="inclusive")[-1],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced_wall: float) -> dict[str, float]:
    (run,) = traced["passes"]
    out: dict[str, float] = {}
    for name, (calls, self_s, _) in traced["layers"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(traced["counters"])
    oracle = traced["layers"]["generic.oracle_generic_class"][2]
    out["generic.oracle_generic_class.path_share"] = oracle / run["raw"]
    out["trace.overhead_ratio"] = run["wall"] / untraced_wall
    return out


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(PACKAGE_DIR, "*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description="affweyl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: run from the repository root; {PACKAGE_DIR} not found", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        raw = spawn([*common, "--seconds", str(args.seconds)], deadline)
        traced = None
        if args.trace:
            traced = spawn([*common, "--seconds", str(args.seconds), "--trace"], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["ops"] for p in raw["passes"])
    failed = sum(p["failed"] for p in raw["passes"])
    e2e = end_to_end(raw)
    units = {n: u for n, u, _, _ in manifest.END_TO_END}
    correct = failed == 0
    if args.trace:
        (run,) = traced["passes"]
        same = run["digest"] == raw["passes"][0]["digest"]
        print(f"trace: {traced['spans']} spans; outputs equal to the untraced pass: {same}; "
              f"wrapped attributes restored: {traced['restored']}")
        attempted += run["ops"]
        failed += run["failed"]
        correct = correct and same and traced["restored"] and run["failed"] == 0
        layer_units = {m["name"]: m["unit"] for m in manifest.per_layer()}
        metrics = {
            name: {"value": value, "unit": layer_units[name]}
            for name, value in per_layer(traced, raw["passes"][0]["wall"]).items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name in units}
    for name, unit in units.items():
        print(f"{name}: {e2e[name]:.6g} {unit}")

    n_samples = len(latencies(raw["passes"]))
    slowdown = sum(p["raw"] for p in raw["passes"]) / sum(p["busy"] for p in raw["passes"])
    print(f"host speed: raw time / nominal time = {slowdown:.3f} over the timed passes")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"passes: {len(raw['passes'])}, set-ups: {len(raw['setup_s'])}, latency samples: {n_samples}")
    print(f"src/affweyl lines (informational): {src_lines()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
