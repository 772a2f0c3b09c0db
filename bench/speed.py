"""The machine's speed, measured while the benchmark runs.

The benchmark's host lends it a share of cores whose speed drifts with the
load of other tenants: a fixed loop ran 1.0 to 2.0 times its fastest time
from one 5 s window to the next, with CPU time equal to wall time. Every
timed operation slows with the machine, so runs made minutes apart differ
by more than a change to the program would. A run therefore also times a
fixed computation, the probe, on the same core: a timer interrupts the
program every ``PERIOD_S`` seconds, and the signal handler runs one tick of
``ROUNDS`` probe rounds between two of the program's Python steps.
``clock`` leaves the ticks' time out of every timed interval. Each time the
benchmark reports is scaled by ``REFERENCE_S`` over the median tick during
that interval: it reads as the time the program would take on a machine
that runs a tick in ``REFERENCE_S``. The probe uses numpy alone, never the
program, so a change to the program moves the scaled times just as it
moves the measured ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median seconds of one probe tick during a run on the reference machine (2
# cores of an Intel Xeon virtual machine, numpy 2.4.6 with OpenBLAS 0.3.31 on
# one thread). A constant: it sets the unit of the scaled times, not their
# spread. A tick of 8 rounds every 0.1 s takes about a tenth of the run; the
# first round finds the caches filled by the program, the others warm.
REFERENCE_S = 0.012
PERIOD_S = 0.1
ROUNDS = 8


class SpeedProbe:
    """Probe ticks on a timer, and a clock that leaves them out.

    One round mirrors the program's hot path on a short video: squared
    distances of 106 unit-norm 2352-D frames to 5 prototypes, a Gaussian
    kernel and its gradient with respect to the prototypes.
    """

    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(20260501)
        self.x = rng.standard_normal((106, 2352))
        self.x /= np.linalg.norm(self.x, axis=1, keepdims=True)
        self.y = self.x[:5] + 0.1 * rng.standard_normal((5, 2352))
        self.wall = clock
        # (start, seconds) of every tick, and the seconds of all ticks.
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0
        self._busy = False
        self._previous_handler = None

    def round(self) -> float:
        x, y = self.x, self.y
        d = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * (x @ y.T)
        k = np.exp(-d / np.median(d))
        return float((k.T @ x - k.sum(0)[:, None] * y).sum())

    def sample(self, *_signal_args) -> None:
        """Time one tick of ``ROUNDS`` rounds; the timer calls this as a
        signal handler. A signal that comes during a tick is dropped, so
        no tick runs inside another and none is counted twice."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = self.wall()
            for _ in range(ROUNDS):
                self.round()
            dt = self.wall() - t0
            self.samples.append((t0, dt))
            self.spent_s += dt
        finally:
            self._busy = False

    def clock(self) -> float:
        """Wall seconds less the probe's seconds so far. A tick that runs
        between the two reads of ``spent_s`` makes them differ; read again."""
        while True:
            spent = self.spent_s
            now = self.wall()
            if spent == self.spent_s:
                return now - spent

    def __enter__(self):
        """Start the timer."""
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured between the wall readings
        ``start`` and ``end`` into the time at the reference speed."""
        inside = [dt for t0, dt in self.samples if start <= t0 < end]
        if not inside:
            raise ValueError(f"no probe tick between {start} and {end}")
        return REFERENCE_S / statistics.median(inside)
