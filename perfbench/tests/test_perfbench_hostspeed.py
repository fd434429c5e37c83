"""Tests of the benchmark's host-speed calibration (perfbench/hostspeed.py)."""

import signal
import sys
import time
from pathlib import Path
from statistics import harmonic_mean

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402


def test_kernels_run_alongside_and_their_time_is_taken_out():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Calibrated() as c:
        time.sleep(0.45)
    # two kernels before, two after, and one per PERIOD_S while the block ran
    assert len(c.kernels) >= 4 + 3
    assert c.raw_s == pytest.approx(0.45, abs=0.05)
    assert c.calibrated_s == pytest.approx(
        c.raw_s * hostspeed.REF_KERNEL_S / harmonic_mean(c.kernels))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_an_exception_stops_the_timer_and_propagates():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(KeyError):
        with hostspeed.Calibrated():
            raise KeyError("x")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_stopwatch_is_not_calibrated():
    with hostspeed.Stopwatch() as s:
        time.sleep(0.01)
    assert s.raw_s >= 0.01
    assert s.calibrated_s is None
