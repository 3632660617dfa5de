"""Host-speed calibration: convert measured seconds into reference seconds.

On a shared host the same pass can take 2.4 s in one minute and 5 s in
the next, because other tenants change how fast this process's vCPU runs.
Those swings last longer than a run, so a median over one run cannot
remove them.  The benchmark therefore times a fixed calibration kernel
around and during every timed item, in the same process, and scales the
item's time by how slow the kernel ran meanwhile::

    reference seconds = measured seconds * REFERENCE_KERNEL_S / median kernel seconds

The kernel never calls the program, so a change to the program moves
reference seconds exactly as it moves measured seconds; only the host's
speed is divided out.  It mixes interpreter work (integer arithmetic,
dict look-ups, calls) with a NumPy gather, like the simulators it stands
beside.  The garbage collector is off while it runs, so the program's
heap cannot slow it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_KERNEL_S", "KERNEL_REPS", "INTERVAL_S", "Sampler", "kernel", "sample", "scale"]

#: Kernel seconds that define one reference second (the kernel's typical
#: time on a 2.1 GHz Xeon vCPU), so reference seconds read like seconds.
REFERENCE_KERNEL_S = 0.004

#: Kernel runs right before and right after each timed item.
KERNEL_REPS = 3

#: While an item runs, one kernel run every INTERVAL_S (a timer signal),
#: so long items are scaled by the host's speed all through them.
INTERVAL_S = 0.1

_ARRAY = np.random.default_rng(2013).integers(0, 1 << 20, size=1 << 19, dtype=np.int32)
_INDEX = np.random.default_rng(2014).integers(0, _ARRAY.size, size=1 << 17)
_CHECKSUM: list = []


def _step(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def kernel() -> int:
    """The fixed calibration work; returns a checksum that never changes.

    Mostly interpreter work, and about an eighth a random gather over
    2 MiB.  Over 30 s windows of a shared host it followed the swings of
    all three workloads' passes more closely than interpreter work alone or
    mixes with a 16 MiB gather and streaming NumPy arithmetic.
    """
    table: dict = {}
    x = 12345
    hits = 0
    for i in range(10000):
        x = _step(x)
        key = x % 211
        if key in table:
            hits += 1
        table[key] = i
    gathered = int(_ARRAY[_INDEX].sum(dtype=np.int64))
    return hits * 1_000_003 + gathered


def sample(reps: int = KERNEL_REPS) -> list:
    """Time ``reps`` kernel runs; return their seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        seconds = []
        for _ in range(reps):
            start = time.perf_counter()
            checksum = kernel()
            seconds.append(time.perf_counter() - start)
            if not _CHECKSUM:
                _CHECKSUM.append(checksum)
            elif checksum != _CHECKSUM[0]:
                raise RuntimeError("calibration kernel checksum changed")
    finally:
        if enabled:
            gc.enable()
    return seconds


def scale(seconds: float, kernel_seconds: list) -> float:
    """``seconds`` in reference seconds, given kernel times taken around it."""
    return seconds * REFERENCE_KERNEL_S / statistics.median(kernel_seconds)


class Sampler:
    """Times one item and samples the kernel before, during and after it.

    ``with Sampler() as sampler: item()`` leaves the item's measured
    seconds in ``sampler.seconds``, with the time of the kernel runs made
    during the item taken out, and every kernel time in
    ``sampler.kernel_seconds``.  With ``interval=None`` there are no runs
    during the item (the traced run uses this, so no kernel time lands
    inside a span).
    """

    def __init__(self, interval: float | None = INTERVAL_S) -> None:
        self.interval = interval
        self.kernel_seconds: list = []
        self.seconds = 0.0
        self._spent = 0.0
        self._start = 0.0

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel_seconds.extend(sample(1))
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.kernel_seconds.extend(sample())
        if self.interval is not None:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = end - self._start - self._spent
        self.kernel_seconds.extend(sample())

    @property
    def reference_seconds(self) -> float:
        """The item's time in reference seconds."""
        return scale(self.seconds, self.kernel_seconds)
