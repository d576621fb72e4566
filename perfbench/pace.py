"""Host-speed calibration inside one benchmark child process.

On a shared host the throughput of a core drifts: a fixed pure-Python loop
runs at 1.0 to 1.8 times its fastest time, in phases lasting from seconds to
tens of minutes, so raw wall times of the same program spread more than a
change worth detecting.  A ``Pacer`` runs a fixed calibration burst from a
``SIGALRM`` handler every ``INTERVAL_S`` seconds, on the same core and in the
same process as the measured work, and records each burst's duration.

The parent multiplies the time spent outside the bursts by the host speed,
the mean of ``REF_BURST_S`` over each burst's duration.  The bursts are
evenly spaced in time, so this is the time-average of the host's speed
relative to the reference, and the product is *paced seconds*: the time the
work would take on a host where the burst always takes ``REF_BURST_S``.
The burst does not call into the measured package, so a change to the
package moves paced seconds as it moves wall seconds, while a change in host
speed moves the burst too and cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

BURST_LOOPS = 8000   # about REF_BURST_S on a 2-vCPU Xeon VM at its fastest
REF_BURST_S = 0.001
INTERVAL_S = 0.05    # bursts take about 2 % of a child's wall time


def burst() -> None:
    """Fixed interpreter-bound work, like the package's scalar paths."""
    s = 0.0
    for i in range(BURST_LOOPS):
        s += (i * 0.5) % 3.0


class Pacer:
    """Calibration bursts on a timer; ``spent`` is their total wall time."""

    def __init__(self):
        self.bursts = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        burst()
        dt = time.perf_counter() - t0
        self.bursts.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(bursts: list) -> float:
    """Factor from wall seconds to paced seconds for these bursts."""
    return statistics.fmean(REF_BURST_S / b for b in bursts)
