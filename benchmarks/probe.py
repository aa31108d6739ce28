"""Machine-speed probe that puts the benchmark's times on a fixed scale.

On a shared host the vCPU's speed drifts by tens of percent over seconds
to minutes, and process CPU time drifts with it.  So a plain pass time
says as much about the neighbours as about spindd.  The probe measures the
drift where it happens: while a pass runs, a wall-clock interval timer
(``SIGALRM``) interrupts it every ``PERIOD_S`` and the handler times one
run of a small fixed numpy kernel, shaped like spindd's hot path (a batched
``eigh`` of a Hermitian stack, the step exponentials, and a Python loop of
small matrix products).  Outside a pass, ``burst`` times a few kernel runs
back to back.

A pass's time, minus the time its probes took, times
``REFERENCE_S / mean(probe times)``, is the pass's time on a machine
where the probe takes ``REFERENCE_S``.  The kernel is fixed and
independent of spindd, so a change to spindd moves the scaled time, and a
change in the host's speed moves the probe as much as the pass.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# the probe's time on a quiet 2.1 GHz Xeon vCPU (the 10th percentile of
# its back-to-back runs over ten seconds); it only sets the scale
REFERENCE_S = 1.3e-3
PERIOD_S = 0.05     # one probe per 50 ms of wall time, about 3 % of the pass

_DIM = 16           # Hilbert-space dimension of the probe's matrices
_STEPS = 24         # matrices in the stack, and products in the loop


class SpeedProbe:
    """Fixed numpy kernel, timed between or inside timed passes."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = (rng.standard_normal((_STEPS, _DIM, _DIM))
             + 1j * rng.standard_normal((_STEPS, _DIM, _DIM)))
        self._h = 0.01 * (a + a.conj().transpose(0, 2, 1))
        self._samples = None
        self.burst(20)      # warm-up

    def _kernel(self) -> np.ndarray:
        w, v = np.linalg.eigh(self._h)
        steps = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        u = np.eye(_DIM, dtype=complex)
        for k in range(_STEPS):
            u = steps[k] @ u
        return u

    def _timed(self) -> tuple:
        start = perf_counter()
        self._kernel()
        return start, perf_counter() - start

    def burst(self, count: int) -> list:
        """Durations of ``count`` back-to-back kernel runs."""
        return [self._timed()[1] for _ in range(count)]

    def _on_alarm(self, signum, frame):
        self._samples.append(self._timed())

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` inside the block; yields the (start, duration) list."""
        self._samples = samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._samples = None


def scaled(elapsed: float, durations: list) -> float:
    """``elapsed`` seconds on the reference machine, given the probe durations."""
    return elapsed * REFERENCE_S / statistics.fmean(durations)
