"""A speed probe interleaved with the timed work, to take the host's speed out of the times.

The host of this benchmark is shared: its speed changes by up to a third
within seconds, as other tenants load it, and it moves CPU time with wall
time.  A probe timed between rounds misses those changes, because the
speed changes inside a round.  So ``Sampler`` runs a fixed pure-Python
probe from a SIGALRM handler every PERIOD_S seconds, interleaved with the
workload, and keeps three totals: the number of probes, their summed
time, and the time spent in the handler.  For a stretch of work,

    reference seconds = (wall - handler time) * PROBE_REF_S / (mean probe time)

is the time the work would take on a host where one probe takes
PROBE_REF_S.  A faster program lowers it in full, since the probe does not
touch the program.  Python runs the handler between bytecodes, never
inside a numpy call, so the probe cannot disturb the program's state.
"""

from __future__ import annotations

import cmath
import math
import signal
import time

PERIOD_S = 0.02
# One probe took 94-135 us on a shared 2-vCPU Xeon host (Python 3.11.7): 94 us when it
# was quiet, 120 us in its common loaded state.
PROBE_REF_S = 1.0e-4


def probe() -> float:
    """A fixed amount of interpreter and libm work: about 0.1 ms."""
    acc = 0.0
    z = 0.3 + 0.4j
    for i in range(200):
        acc += abs(cmath.log(z + i * 1e-4)) * math.sqrt(i + 1.0)
    return acc


class Sampler:
    """Cumulative probe totals while started; read them with ``totals()``."""

    def __init__(self):
        self.count = 0
        self.probe_s = 0.0
        self.spent_s = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.count += 1
        self.probe_s += t1 - t0
        self.spent_s += time.perf_counter() - t0

    def start(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old if self._old is not None else signal.SIG_DFL)

    def totals(self) -> tuple[int, float, float]:
        return self.count, self.probe_s, self.spent_s


def reference_seconds(wall: float, before: tuple, after: tuple) -> tuple[float, float]:
    """(work in reference seconds, host scale) for a stretch of wall seconds
    between two ``totals()`` readings.  The scale is PROBE_REF_S over the
    mean probe time: below 1 on a host slower than the reference."""
    count = after[0] - before[0]
    if count < 1:
        raise RuntimeError(f"no speed probe ran in {wall:.3f} s")
    scale = PROBE_REF_S / ((after[1] - before[1]) / count)
    return (wall - (after[2] - before[2])) * scale, scale
