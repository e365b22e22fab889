"""Machine-speed probe: how fast this process's CPU runs while work is timed.

On a shared VM the CPU can alternate between a fast and a slow state in
phases of seconds to minutes, set by other tenants; on the 2-vCPU Intel
Xeon VM of bench/BASELINE.json the probe loop ran about 1.45x slower in
the slow state.
A 40 s run then reads fast or slow by how much of it fell in the slow
state, and pure-Python work feels that most.  The probe measures the state
while the work runs: a timer signal interrupts the process every
`interval` seconds and times one fixed pure-Python loop.  The handler runs
in the main thread between bytecodes, so it samples the machine wherever
the work is, and its cost (about 0.15 ms per tick) is the same on every
commit.

`speed(samples)` is PROBE_REF_S over the mean loop time, preemption
outliers dropped; a time multiplied by it is the time at the reference
speed.  Only the benchmark's own loop is timed, never library code, so the
factor is common to every commit and keeps their ratio.

This module imports only `signal` and `time`: the set-up measurement loads
it into a fresh interpreter before timing `import ffsalem.cli`.
"""

from __future__ import annotations

import signal
import time

PROBE_LOOPS = 2000
# the loop's time on the reference machine's fast state (Intel Xeon, 2 vCPUs,
# Python 3.11.7), so that values read as seconds on that machine at full speed
PROBE_REF_S = 1.4e-4


def probe_loop() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


def speed(samples: list) -> float:
    """PROBE_REF_S / mean loop time; a sample over twice the median was
    preempted mid-loop and is dropped."""
    cap = 2 * sorted(samples)[len(samples) // 2]
    kept = [s for s in samples if s <= cap]
    return PROBE_REF_S * len(kept) / sum(kept)


class SpeedProbe:
    """Context manager that times the probe loop every `interval` seconds."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one interval
            self._tick()

    def speed(self) -> float:
        return speed(self.samples)
