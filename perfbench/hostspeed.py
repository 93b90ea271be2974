"""In-process probe of the host's current speed, for scaling wall times.

On a shared virtual machine the same computation can take 40% longer from
one minute to the next, because of load elsewhere on the host; the guest
sees no steal time, so CPU time inflates as much as wall time.  The probe
measures that drift where the operation runs: while a ``HostSpeed`` block is
active, a real-time timer interrupts this process every ``INTERVAL`` seconds
and a signal handler times a fixed pure-Python loop.  The loop touches only
a few small objects, so its speed follows the host and not the state the
measured program left in the caches.

``scale()`` is ``REFERENCE_PROBE_S / median(probe time)``: multiplying a wall
time measured inside the block by it gives the time the operation would have
taken with the probe at its reference speed.  The reference is a constant of
the benchmark, so a slower program reads slower by the same factor; only
the host's drift is divided out.  The probe costs about 1% of the block's
wall time, equally in every run.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.025
PROBE_ITERATIONS = 4000
# Median probe time on an Intel Xeon 2-vCPU virtual machine, CPython 3.11,
# during a quiet period; it fixes the unit of the scaled times only.
REFERENCE_PROBE_S = 250e-6


def _probe() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager sampling the probe while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(_probe())

    def __enter__(self):
        self.samples = [_probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_probe())
        return False

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)
