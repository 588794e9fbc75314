"""Speed scaling: a fixed pure-Python kernel timed next to each measurement.

The shared host this benchmark runs on changes speed all the time: on each
vCPU the same code runs at one of two speeds about a third apart, switching
within a second, and the share of time spent slow wanders over tens of
seconds.  A fixed loop's CPU time drifts as much as its wall time, and the
two vCPUs are not slow together, so neither CPU time nor a timer on the
other vCPU tracks it.  Raw wall times of runs taken minutes apart then
spread further than any bound a regression check could use.

So the benchmark keeps itself and every child on one vCPU (pin()), and
times a fixed kernel, which imports nothing from e6kit, on that vCPU before,
during and after each measured interval: between float requests, and in a
CLI child's lifetime by stopping the child for the kernel's few
milliseconds (proc.spawn), which are not counted in the child's time.  An
interval is then scaled by REF_S / (mean kernel time over it), so every time
metric reads as it would on a machine where the kernel takes REF_S.  A
change to e6kit moves the interval and not the kernel, so it moves the
metric in full.  The raw wall times are kept in the detail line.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# Kernel time at the reference speed: about the fast state of the shared
# 2-core Xeon the benchmark was built on.
REF_S = 0.010
# Seconds between kernel samples inside a long interval (about 5% overhead).
PERIOD_S = 0.2


def _kernel() -> int:
    """Rational, float, tuple and dict work, as in e6kit; the same every call."""
    total, x, seen = 0, 0.5, {}
    for i in range(1, 1300):
        f = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, 3)
        total += f.numerator % 97 + f.denominator % 89
        x = x * 0.999 + (i % 5) * 0.25
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + int(x)
        total += sum(v for v in (f.numerator, i, len(seen)) if v & 1)
    return total + len(seen)


def pin() -> int | None:
    """Keep this process and the children it starts on its first allowed vCPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Speed:
    """Kernel samples, grouped into the intervals they scale.

    Call sample() before the first interval, as often as wanted during one,
    and factor() at its end; the sample factor() takes closes one interval
    and opens the next.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._window: list[float] = []
        self.due = 0.0  # perf_counter time of the next sample inside an interval

    def sample(self) -> float:
        """Times the kernel once, in seconds."""
        t0 = time.perf_counter()
        _kernel()
        now = time.perf_counter()
        self.samples.append(now - t0)
        self._window.append(now - t0)
        self.due = now + PERIOD_S
        return now - t0

    def factor(self) -> float:
        """Samples once more; the factor that turns the closing interval into reference time."""
        self.sample()
        window, self._window = self._window, self._window[-1:]
        return REF_S * len(window) / sum(window)
