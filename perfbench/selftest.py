"""Self-test of the benchmark.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches the tables in ``manifest.py``; that
installing the tracer wraps every listed function, records spans and
counters, and that ``restore`` leaves every attribute of every affweyl
module and class exactly as before; that the speed ``Meter`` scales every
span and leaves no timer or signal handler behind; and that on each workload a traced
pass gives the same output digests as the untraced one (``run.py
--trace 1`` exits nonzero otherwise).
"""

from __future__ import annotations

import inspect
import json
import os
import signal
import subprocess
import sys
import time

import manifest
import speed
from tracer import LAYERS, PACKAGE, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def check_manifest() -> None:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        assert json.load(fh) == manifest.manifest(), "BENCHMARK.json is stale"


def snapshot() -> dict:
    """Every attribute of every affweyl module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def check_tracer() -> None:
    from affweyl import cli, rootdata, verify, weyl  # noqa: F401  (load every module)

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        changed = {k for k, v in snapshot().items() if before[k] is not v}
        wrapped = {(f"{PACKAGE}.{m}", *p.split(".")) for m, p in LAYERS}
        assert wrapped <= changed, f"not wrapped: {wrapped - changed}"
        weyl.weyl_group(rootdata.datum("B", 2))
    finally:
        tracer.restore()
    assert tracer.restored()
    after = snapshot()
    assert all(after[k] is v for k, v in before.items()), "an attribute was not restored"
    stats = tracer.layer_stats()
    calls, self_s, total = stats["weyl.weyl_group"]
    assert calls == 1 and 0 < self_s <= total, stats["weyl.weyl_group"]
    assert stats["weyl.WeylElement.__mul__"][0] > 0
    roots = sum(
        end - start
        for start, end, parent in zip(tracer.span_start, tracer.span_end, tracer.span_parent)
        if parent < 0
    )
    # self times partition the time of the outermost spans
    assert abs(sum(s[1] for s in stats.values()) - roots) < 1e-6


def check_meter() -> None:
    handler = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    for label in ("short", "long"):
        meter.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < (0.01 if label == "short" else 3 * speed.PERIOD_S):
            speed.reference()
        meter.record(label, t0, time.perf_counter())
    spans = meter.resolve()
    assert signal.getsignal(signal.SIGALRM) is handler, "SIGALRM handler not restored"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer still running"
    assert [label for label, _, _ in spans] == ["short", "long"], spans
    # the long span was cut by at least two samples, whose time it leaves out
    assert len(meter.ticks) == 1 and all(raw > 0 and nominal > 0 for _, raw, nominal in spans)
    (_, raw, _), = [s for s in spans if s[0] == "long"]
    assert raw < 3 * speed.PERIOD_S, spans


def check_workloads() -> None:
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", "7", "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        assert proc.returncode == 0, f"{name}: traced run failed\n{proc.stdout}"
        assert "outputs equal to the untraced pass: True" in proc.stdout, proc.stdout
        print(f"{name}: traced and untraced outputs agree", flush=True)


def main() -> int:
    check_manifest()
    check_tracer()
    print("tracer wraps and restores every listed function", flush=True)
    check_meter()
    print("meter scales every span and restores the timer", flush=True)
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
