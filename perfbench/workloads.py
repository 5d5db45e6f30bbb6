"""The benchmark workloads: seeded inputs, set-up, timed passes, output checks.

Every workload is a closed loop: one library call at a time, the next call
starts when the previous one returns, in a single thread.  A pass is the
unit that repeats until the measuring time is used up:

* ``verify-battery``: ``verify.run_battery(d, cap=8)`` (default ``jobs=1``)
  on freshly built GL3, A2-adjoint-flip, C2 and G2.  This is the
  correctness gate users and the test-suite run; about 90% of it is the
  Bruhat-interval oracle, and W has at most 12 elements, so Weyl group and
  QBG set-up are negligible here.  An op is one scanned element, and its
  latency is that of the ``run_battery`` call that checks it.
* ``closed-form-f4``: on F4 (sc), ``generic_class``, ``is_cordial`` and
  ``virtual_dimension`` for each of the 105 elements of length <= 4, in
  seeded order, on a freshly built datum.  The first scan is cold: it
  builds the quantum Bruhat graph rows lazily, and its time is the pass
  wall time.  The scan is then repeated warm.  No oracle runs.
* ``element-cold``: a seeded mix of CLI requests.  Each request calls
  ``cli.load_config`` on a generated JSON file and ``cli.cmd_element`` with
  every verb the datum allows, so it builds a fresh datum as a CLI call
  does and never reuses a cache.  It is the only workload that runs
  ``rootdata.from_config`` per call, the ``snf`` quotients and the twisted
  ``*_general`` transport.  A pass sends every request of a fixed pool
  once, in seeded order, with the garbage of earlier requests collected: 75% small data, 22.5% B3 and 2.5% D4, so that
  the median falls among small-data requests and the 90th percentile
  among B3 requests, and every pass does the same work.

Every time is in nominal seconds: raw ``perf_counter`` time scaled by a
speed samples of fixed reference work taken every 0.2 s while it runs (see
``speed.py``), so that the CPU speed drift of a shared machine stays out
of the figures.  The latency of an op is the median of its
repeats in a run; on F4 this leaves the cold row builds, whose share of
each query depends on the seeded order, out of the latency.

The library receives only inputs generated here from ``random.Random(seed)``.
Outputs are compared with the values recorded in ``expected.json``; a
mismatch or an exception counts the op as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import speed

#: Root data used by the workloads, as ``RootDatum.from_config`` input.
DATA = {
    "GL3": {"components": [{"type": "A", "rank": 2}], "lattice": "gl"},
    "A2-adjoint-flip": {
        "components": [{"type": "A", "rank": 2}],
        "lattice": "adjoint",
        "frobenius": {"perm": [2, 1]},
    },
    "C2": {"components": [{"type": "C", "rank": 2}], "lattice": "sc"},
    "G2": {"components": [{"type": "G", "rank": 2}], "lattice": "sc"},
    "A1-twisted": {
        "components": [{"type": "A", "rank": 1}],
        "lattice": "adjoint",
        "frobenius": {"twist": {"sigma1_word": [1], "mu_sigma": [1]}},
    },
    "A2-twisted": {
        "components": [{"type": "A", "rank": 2}],
        "lattice": "adjoint",
        "frobenius": {"twist": {"sigma1_word": [1, 2], "mu_sigma": [1, 0]}},
    },
    "B3": {"components": [{"type": "B", "rank": 3}], "lattice": "sc"},
    "D4": {"components": [{"type": "D", "rank": 4}], "lattice": "sc"},
    "F4": {"components": [{"type": "F", "rank": 4}], "lattice": "sc"},
}

VERIFY_DATA = ("GL3", "A2-adjoint-flip", "C2", "G2")
VERIFY_CAP = 8
F4_CAP = 4
#: Size of each datum's element-cold request pool; one pass sends every
#: pool entry once.
ELEMENT_POOL = {
    "GL3": 20,
    "A2-adjoint-flip": 20,
    "C2": 20,
    "G2": 20,
    "A1-twisted": 20,
    "A2-twisted": 20,
    "B3": 36,
    "D4": 4,
}
#: The verbs ``cmd_element`` accepts on Omega-twisted data.
TWISTED_VERBS = ("lp", "signtype", "gnp", "cordial")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class PassResult:
    """One timed pass, in nominal seconds: ``wall`` is the pass's wall-time
    sample, ``busy`` all of its timed work (``raw`` the same unscaled),
    ``latency`` every time of each op it ran."""

    wall: float = 0.0
    busy: float = 0.0
    raw: float = 0.0
    ops: int = 0
    failed: int = 0
    latency: dict[str, list] = field(default_factory=dict)  # key: [[s, ...], weight]
    outputs: list[str] = field(default_factory=list)  # digests, in order
    meter: speed.Meter = field(default_factory=speed.Meter)

    def op(self, key: str, expected: str, call, *args, weight: int = 1) -> None:
        """Run one checked call; ``weight`` is the number of ops it
        completes, each of which gets the call's latency."""
        self.meter.start()
        t0 = time.perf_counter()
        try:
            out = digest(call(*args))
        except Exception as exc:  # the op counts as failed
            out = f"exception: {exc!r}"
        self.meter.record((key, weight), t0, time.perf_counter())
        self.ops += weight
        if out != expected:
            self.failed += weight
        self.outputs.append(out)

    def settle(self) -> None:
        """Stop sampling and add the ops timed so far to the totals."""
        for (key, weight), raw, nominal in self.meter.resolve():
            self.busy += nominal
            self.raw += raw
            self.latency.setdefault(key, [[], weight])[0].append(nominal)


# ----------------------------------------------------------------------
# shared library calls
# ----------------------------------------------------------------------


def build(name: str):
    """A fresh datum with its Weyl group and quantum Bruhat graph."""
    from affweyl.qbg import QBGraph
    from affweyl.rootdata import RootDatum
    from affweyl.weyl import weyl_group

    d = RootDatum.from_config(DATA[name])
    weyl_group(d)
    QBGraph.of(d)
    return d


def battery_text(d, seed: int) -> str:
    from affweyl import verify

    reports = verify.run_battery(d, VERIFY_CAP, seed=seed)
    checks = sum(r.checked for r in reports)
    failures = sum(r.failed for r in reports)
    lines = [r.summary() for r in reports]
    return "\n".join(lines + [f"total: {checks} assertions, {failures} failed"])


def f4_query(x) -> str:
    from affweyl import affine, generic

    b = generic.generic_class(x)
    c = generic.is_cordial(x)
    vdim = affine.virtual_dimension(x, b)
    return repr((tuple(b.nu), tuple(b.kappa), b.lam, c.cordial, c.d_min, vdim))


def element_request(path: str, expr: str) -> str:
    from affweyl import cli

    d, _ = cli.load_config(path)
    verbs = TWISTED_VERBS if d.omega_twist is not None else cli.ELEMENT_VERBS
    return cli.cmd_element(d, expr, list(verbs), False)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class VerifyBattery:
    name = "verify-battery"
    fresh_per_pass = True

    def __init__(self, seed: int, expected: dict):
        # the seed picks the battery's random QBG paths and product pairs,
        # afresh for every datum in every pass, since the battery's time
        # depends on the draw (GL3 by up to 25%) and a run should average
        # over several; the data keep a fixed order, since a battery runs
        # faster or slower depending on what ran before it in the process
        self.rng = random.Random(seed)
        self.expected = expected["verify-battery"]

    def setup(self):
        return [(name, build(name)) for name in VERIFY_DATA]

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        for name, d in state:
            expected = digest("\n".join(self.expected["summaries"][name]))
            weight = self.expected["elements"][name]
            battery_seed = self.rng.randrange(2**31)
            res.op(name, expected, battery_text, d, battery_seed, weight=weight)
        res.settle()
        res.wall = res.busy
        return res


class ClosedFormF4:
    name = "closed-form-f4"
    fresh_per_pass = True
    warm_repeats = 3

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected["closed-form-f4"]

    def setup(self):
        from affweyl import verify

        d = build("F4")
        xs = verify.scan_elements(d, F4_CAP)
        random.Random(self.seed).shuffle(xs)
        return xs

    def _scan(self, xs, res: PassResult) -> None:
        for x in xs:
            res.op(repr(x), self.expected.get(repr(x), ""), f4_query, x)

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        self._scan(state, res)
        res.settle()
        res.wall = res.busy
        for _ in range(self.warm_repeats):
            self._scan(state, res)
        res.settle()
        return res


class ElementCold:
    name = "element-cold"
    fresh_per_pass = False  # every request builds its own datum

    def __init__(self, seed: int, expected: dict):
        self.rng = random.Random(seed)
        self.pools = expected["element-cold"]
        self.requests = sorted((name, expr) for name in ELEMENT_POOL for expr in self.pools[name])
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd())
        self.paths = {}
        for name in ELEMENT_POOL:
            path = os.path.join(self.tmp.name, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(DATA[name], fh)
            self.paths[name] = path

    def close(self) -> None:
        self.tmp.cleanup()

    def setup(self):
        """Build every datum of the mix once; requests never reuse them."""
        for name in ELEMENT_POOL:
            build(name)

    def run_pass(self, state) -> PassResult:
        res = PassResult()
        self.rng.shuffle(self.requests)
        for name, expr in self.requests:
            # a CLI call starts without the garbage of earlier calls; this
            # keeps peak RSS and collector pauses independent of the order
            gc.collect()
            res.op(
                f"{name}: {expr}", self.pools[name][expr],
                element_request, self.paths[name], expr,
            )
        res.settle()
        res.wall = res.busy
        return res


WORKLOADS: dict[str, Callable] = {
    w.name: w for w in (VerifyBattery, ClosedFormF4, ElementCold)
}


def timed_setup(workload) -> tuple[float, object]:
    """Run the workload's set-up; returns its time in nominal seconds."""
    meter = speed.Meter()
    meter.start()
    t0 = time.perf_counter()
    state = workload.setup()
    meter.record(None, t0, time.perf_counter())
    ((_, _, nominal),) = meter.resolve()
    return nominal, state


def passes(workload, seconds: float, max_passes: int | None) -> Iterator:
    """Yield (set-up seconds or None, PassResult) as the closed loop runs.

    The first pass, and every pass of a workload that needs one, gets a
    fresh set-up.  Passes repeat while the timed work, in raw seconds, is
    under ``seconds``.
    """
    busy = 0.0
    n = 0
    state = None
    while n == 0 or (busy < seconds and (max_passes is None or n < max_passes)):
        dt = None
        if n == 0 or workload.fresh_per_pass:
            state = None  # free the previous pass's caches first
            dt, state = timed_setup(workload)
        res = workload.run_pass(state)
        busy += res.raw
        n += 1
        yield dt, res
