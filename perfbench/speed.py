"""A reference clock that takes the host's CPU speed drift out of timings.

On a shared virtual machine the speed of one core drifts by 30-45% over
tens of seconds, and process CPU time drifts with it, so two sets of runs
of the same code taken minutes apart disagree by more than any useful
bound.  The benchmark therefore times a fixed piece of reference work next
to the work it measures and scales every measured time by

    REFERENCE_S / (time the reference work took at that moment)

which gives seconds at a fixed nominal speed: the speed at which one call
of ``reference`` takes ``REFERENCE_S``.  The speed changes within a call
that takes seconds too, so a ``Meter`` takes a speed sample every
``PERIOD_S`` from a ``SIGALRM`` handler and scales each piece of a call by
the samples on either side of it.  The reference work is pure
standard-library Python of the same kind the library does (``Fraction``
arithmetic, tuple hashing, dict updates, small lists), run with the
garbage collector off so that the program's own heap does not change its
cost.  It calls nothing in ``affweyl``, so a change to the library moves
the scaled times and never the reference.

A fixed loop of integer arithmetic tracks the drift less well: over a
minute of the same element-cold requests, raw times ranged over 43%, times
scaled by an integer loop over 13%, and times scaled by ``reference`` over
3%.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: Nominal time of one ``reference`` call; scaled times are seconds at the
#: speed where this holds (about the fast phase of a 2-vCPU Xeon VM).
REFERENCE_S = 0.0035
#: Each speed sample is the fastest of this many ``reference`` calls.
REPEATS = 3
#: Wall time between two speed samples of a running ``Meter``.
PERIOD_S = 0.2


def reference() -> Fraction:
    """Fixed work of the library's kind; never changes between versions."""
    counts: dict = {}
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 37, i % 11, i % 5)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 13 + 1, i % 7 + 1)
        _ = [x * 2 for x in key]
    return acc


def sample() -> float:
    """The current time of one ``reference`` call, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor from raw to nominal seconds for work timed between two
    samples."""
    return REFERENCE_S / ((before + after) / 2)


class Meter:
    """Times labelled spans of work in nominal seconds.

    While started, a timer signal takes a speed sample every ``PERIOD_S``.
    ``resolve`` takes a last sample, stops the timer and returns, for each
    span recorded since the previous ``resolve``, its raw and its nominal
    seconds: each piece of the span between two samples is scaled by those
    two samples, and the time spent sampling inside the span is left out.
    The signal handler only appends to ``ticks``, so it can fire anywhere.
    Main thread only.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []  # (start, end, sample)
        self.spans: list[tuple[object, float, float]] = []  # (label, start, end)
        self.running = False
        self.sampling = False
        self.previous = None
        self._tick()

    def _tick(self) -> None:
        start = time.perf_counter()
        t_ref = sample()
        self.ticks.append((start, time.perf_counter(), t_ref))

    def _alarm(self, signum, frame) -> None:
        if not self.sampling:  # a late signal never nests a sample
            self.sampling = True
            try:
                self._tick()
            finally:
                self.sampling = False

    def start(self) -> None:
        if not self.running:
            self.previous = signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self.previous)
            self.running = False

    def record(self, label, start: float, end: float) -> None:
        self.spans.append((label, start, end))

    def resolve(self) -> list[tuple[object, float, float]]:
        """(label, raw s, nominal s) of every span, in the order recorded."""
        self.stop()
        self._tick()
        gaps = [
            (end0, start1, scale(t0, t1))
            for (_, end0, t0), (start1, _, t1) in zip(self.ticks, self.ticks[1:])
        ]
        out = []
        first = 0
        for label, start, end in self.spans:
            while first < len(gaps) - 1 and gaps[first][1] <= start:
                first += 1
            raw = nominal = 0.0
            for lo, hi, k in gaps[first:]:
                if lo >= end:
                    break
                piece = min(end, hi) - max(start, lo)
                if piece > 0:
                    raw += piece
                    nominal += piece * k
            out.append((label, raw, nominal))
        self.ticks = self.ticks[-1:]
        self.spans = []
        return out
