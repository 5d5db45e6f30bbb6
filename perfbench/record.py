"""Record the reference outputs the benchmark checks against.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py

It rewrites ``perfbench/expected.json``: the ``verify`` summary lines per
datum, a digest of (nu, kappa, lambda, cordial, d_min, vdim) for each F4
element of length <= 4, and the request pool of ``element-cold`` (a fixed
set of element expressions per datum) with a digest of the exact
``cmd_element`` output of each.  Record only from a commit whose outputs
are known to be right; the workloads then flag any change.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time

import workloads as wl


def expression(rng: random.Random, d) -> str:
    """An affine word (``s0 s2 s1``) or a translation form (``t[1,0] s1``)."""
    gens = [f"s{i}" for i in range(1, d.ss_rank + 1)]
    if rng.random() < 0.5:
        word = [rng.choice(["s0"] + gens) for _ in range(rng.randint(0, 6))]
        return " ".join(word) or "e"
    mu = ",".join(str(rng.randint(-2, 2)) for _ in range(d.rank))
    word = [rng.choice(gens) for _ in range(rng.randint(0, 4))]
    return " ".join([f"t[{mu}]"] + word)


def main() -> int:
    from affweyl import verify

    out: dict = {"verify-battery": {"elements": {}, "summaries": {}}}
    for name in wl.VERIFY_DATA:
        d = wl.build(name)
        out["verify-battery"]["elements"][name] = len(
            verify.scan_elements(d, wl.VERIFY_CAP)
        )
        out["verify-battery"]["summaries"][name] = wl.battery_text(d, 0).split("\n")

    d = wl.build("F4")
    out["closed-form-f4"] = {
        repr(x): wl.digest(wl.f4_query(x))
        for x in verify.scan_elements(d, wl.F4_CAP)
    }

    rng = random.Random(0)
    pools: dict = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for name, size in wl.ELEMENT_POOL.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(wl.DATA[name], fh)
            d = wl.build(name)
            pool: dict = {}
            times = []
            while len(pool) < size:
                expr = expression(rng, d)
                if expr in pool:
                    continue
                t0 = time.perf_counter()
                pool[expr] = wl.digest(wl.element_request(path, expr))
                times.append(time.perf_counter() - t0)
            pools[name] = pool
            times.sort()
            print(
                f"{name}: {len(pool)} requests, median "
                f"{1000 * times[len(times) // 2]:.1f} ms, max {1000 * times[-1]:.1f} ms",
                file=sys.stderr,
            )
    out["element-cold"] = pools

    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
