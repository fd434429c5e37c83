"""Host-speed calibration: measured times rescaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds: a fixed pure-Python loop timed back to back for a minute on
a shared 2-vCPU VM took from 20 ms to 30 ms, in stretches of 5 to 10 s, and
process time followed wall time.  A run's raw wall time then measures the
host's state more than the program.

``Calibrated`` times a block and runs a fixed pure-Python kernel alongside
it: before it, after it, and from a SIGALRM handler every ``PERIOD_S``
seconds of wall time while it runs.  The handler's time is taken out of the
block's time (``raw_s``).  ``calibrated_s`` is ``raw_s`` scaled by
``REF_KERNEL_S`` over the harmonic mean of the kernel times, i.e. the time
the block would take on a host where the kernel takes ``REF_KERNEL_S``.
The kernel is big-int and container work, like the program's p-adic
arithmetic, so a change to the program moves ``calibrated_s`` as it moves
``raw_s``; only the host's speed is divided out.
"""

from __future__ import annotations

import signal
import time
from statistics import harmonic_mean

PERIOD_S = 0.1
# Kernel time on a quiet shared 2-vCPU x86-64 VM with CPython 3.11; it only
# fixes the unit, so that calibrated and raw seconds are alike there.
REF_KERNEL_S = 0.0025
MODULUS = 7 ** 12


class _Digit:
    __slots__ = ("value", "prec")

    def __init__(self, value: int, prec: int):
        self.value = value
        self.prec = prec


def kernel() -> int:
    """Small objects, attribute reads, big-int arithmetic and a dict, in a loop."""
    xs = [_Digit(i * i % MODULUS, 12) for i in range(64)]
    seen, acc = {}, 0
    for r in range(80):
        for k in range(63):
            a, b = xs[k], xs[k + 1]
            xs[k] = _Digit((a.value * b.value + r) % MODULUS, min(a.prec, b.prec))
        seen[r & 15] = xs[0].value
        acc += seen.get((r * 7) & 15, 0) & 0xFF
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrated:
    """``with Calibrated() as c: ...`` sets ``c.raw_s`` and ``c.calibrated_s``.

    Uses SIGALRM, so only in the main thread and with no other interval timer.
    """

    def __enter__(self) -> "Calibrated":
        kernel()  # warm-up, unmeasured
        self.kernels = [time_kernel(), time_kernel()]
        self._busy = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.raw_s = elapsed - self._busy
        self.kernels += [time_kernel(), time_kernel()]
        self.calibrated_s = self.raw_s * REF_KERNEL_S / harmonic_mean(self.kernels)

    def _tick(self, signum, frame) -> None:
        t = time_kernel()
        self.kernels.append(t)
        self._busy += t


class Stopwatch:
    """``with Stopwatch() as s: ...`` sets ``s.raw_s``; nothing runs alongside."""

    calibrated_s = None

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._t0
