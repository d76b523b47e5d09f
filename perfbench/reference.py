"""A fixed pure-Python reference loop that measures the host's current speed.

The hosts this benchmark runs on share their CPUs with other tenants, which
slow all code down by up to 1.9x for seconds to minutes at a time.  While a
part of a pass runs, a `Speedometer` interrupts it at random intervals of
INTERVAL_S on average (a SIGALRM handler in the main thread) to time one
short reference loop, and it times one loop right before and right after the
part.  The intervals are random so that the loops cannot keep in step with
periodic work of other tenants; in a trial with a fixed interval the
quotient spread twice as much.  The part's time, less the time spent in
those interruptions, divided by the mean loop time and multiplied by REF_S,
is its time in "reference seconds": seconds on a host where the loop takes
REF_S.  That quotient moves much less with the host's load than the plain
time does, while a change to the package moves it as much as it moves the
part.

The loop uses no package code and must never change: changing it changes the
unit every timed metric of the benchmark is reported in.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

REF_S = 0.0005  # what one reference loop counts as, in reference seconds
INTERVAL_S = 0.02  # mean time between the loops run while a part runs

_delays = random.Random(20180509)


def _cycle_start(n: int, seq) -> int:
    counts = [0] * n
    for x in seq:
        counts[x] += 1
    prefix, low, start = 0, 0, 0
    for v in range(n):
        prefix += counts[v] - 1
        if prefix < low:
            low, start = prefix, v + 1
    return start % n


def reference_loop() -> int:
    """Integer, list, tuple, dict and call work in the interpreter's common
    mix; returns a checksum so that nothing is optimised away."""
    state = 12345
    total = 0
    for _ in range(15):
        seq = []
        for _ in range(31):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            seq.append(state % 32)
        start = _cycle_start(32, seq)
        shifted = tuple((x - start) % 32 + 1 for x in seq)
        groups = {}
        for i, v in enumerate(shifted):
            groups.setdefault(v, []).append(i)
        total += sum(len(g) * k for k, g in sorted(groups.items())) + hash(shifted) % 7
    return total


CHECKSUM = reference_loop()


class Speedometer:
    """Times reference loops before, during and after a stretch of code.

    `spent_s` is the time the interruptions took out of the stretch, and
    `loop_s` the mean time of one loop."""

    def __init__(self):
        self.loops = []
        self.spent_s = 0.0
        self._saved = None

    def _loop(self):
        # With the collector on, the loop's allocations would start
        # collections that walk the package's objects and time those too.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            value = reference_loop()
            self.loops.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        if value != CHECKSUM:
            raise ArithmeticError("reference loop gave a different checksum")

    @staticmethod
    def _arm():
        signal.setitimer(signal.ITIMER_REAL, _delays.uniform(0.25, 1.75) * INTERVAL_S)

    def _interrupt(self, signum, frame):
        start = perf_counter()
        try:
            self._loop()
        except RecursionError:
            pass  # the part is near the recursion limit; skip this reading
        self._arm()
        self.spent_s += perf_counter() - start

    def start(self):
        self._loop()
        self._saved = signal.signal(signal.SIGALRM, self._interrupt)
        self._arm()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._loop()

    @property
    def loop_s(self) -> float:
        return sum(self.loops) / len(self.loops)
