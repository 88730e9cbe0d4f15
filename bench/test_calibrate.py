"""Tests of the machine-speed calibration: its samples, the handler time
it takes out of the timed work, and the scale it gives.

    python3 -m pytest -q bench/test_calibrate.py
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402


def busy_work(seconds):
    end = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < end:
        total += 1
    return total


def test_samples_cover_the_timed_work():
    cal = calibrate.Calibrator().start()
    try:
        start = time.perf_counter()
        busy_work(0.5)
        elapsed = time.perf_counter() - start
    finally:
        cal.stop()
    # one sample per period plus its own time, give or take scheduling
    assert 5 <= len(cal.samples) <= 0.5 / calibrate.PERIOD_S + 1
    assert sum(cal.samples) <= cal.busy < elapsed
    assert cal.scale() == pytest.approx(calibrate.REFERENCE_S / cal.mean())


def test_scale_of_a_window_uses_only_its_samples():
    cal = calibrate.Calibrator()
    cal.samples = [0.001, 0.001, 0.004, 0.004]
    assert cal.scale() == pytest.approx(calibrate.REFERENCE_S / 0.0025)
    assert cal.scale(2) == pytest.approx(calibrate.REFERENCE_S / 0.004)
    with pytest.raises(RuntimeError):
        cal.scale(4)


def test_stop_disarms_the_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    cal = calibrate.Calibrator().start()
    busy_work(0.2)
    cal.stop()
    count = len(cal.samples)
    busy_work(0.2)
    assert len(cal.samples) == count
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == previous
