"""Tests of the host-speed calibration that turns seconds into reference seconds.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402


def test_scale_divides_out_the_kernel_median():
    reference = hostspeed.REFERENCE_KERNEL_S
    # A host running the kernel twice as slow as the reference halves the item.
    assert hostspeed.scale(4.0, [2 * reference] * 3) == pytest.approx(2.0)
    # The median, not the mean: one outlier sample does not move the scale.
    assert hostspeed.scale(1.0, [reference, reference, 50 * reference]) == pytest.approx(1.0)


def test_kernel_checksum_is_fixed():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert len(hostspeed.sample(2)) == 2


def test_sampler_runs_the_kernel_during_the_item_and_excludes_its_time():
    with hostspeed.Sampler(interval=0.02) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:  # busy, so the timer fires between bytecodes
            pass
    during = len(sampler.kernel_seconds) - 2 * hostspeed.KERNEL_REPS
    assert during >= 3
    # The wall interval is 0.3 s plus the tail of the last kernel run at most;
    # the kernel runs made inside it are not counted as the item's time.
    assert 0.3 - sum(sampler.kernel_seconds) < sampler.seconds < 0.3
    assert sampler.reference_seconds == pytest.approx(
        hostspeed.scale(sampler.seconds, sampler.kernel_seconds)
    )
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_without_interval_only_brackets_the_item():
    with hostspeed.Sampler(interval=None) as sampler:
        time.sleep(0.05)
    assert len(sampler.kernel_seconds) == 2 * hostspeed.KERNEL_REPS
    assert sampler.seconds >= 0.05


def test_sampler_stops_its_timer_when_the_item_raises():
    with pytest.raises(ValueError):
        with hostspeed.Sampler(interval=0.01):
            raise ValueError("item failed")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
