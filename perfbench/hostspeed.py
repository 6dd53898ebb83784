"""Host-speed calibration for timings on a shared machine.

On a shared virtual machine the speed of pure-Python code drifts by up to 2x
within minutes, with CPU time equal to wall time: other tenants of the host
slow the virtual CPU itself. The benchmark therefore runs a fixed calibration
kernel of standard-library ``Fraction`` arithmetic, which does not touch
ngoneq, between operations, and scales each operation's wall time by

    REFERENCE_KERNEL_S / (mean of the kernel's times just before and just after it)

At a given host speed a change to ngoneq moves the scaled time in proportion
to the wall time; a change of host speed moves the kernel too and cancels.
Scaled times are seconds on a host where the kernel takes
``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median kernel time on the machine the baseline was recorded on
# (Intel Xeon, 2 vCPUs, Python 3.11.7).
REFERENCE_KERNEL_S = 0.035
KERNEL_TERMS = 4000


def kernel_seconds() -> float:
    """Wall seconds for a fixed sum of small Fraction products."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


class Clock:
    """Runs the kernel once at the start and again whenever ``every_s``
    seconds of recorded durations have passed since the last run, so each
    recorded duration lies between two kernel runs."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.kernels = [kernel_seconds()]
        self._segment_of: list[int] = []
        self._since = 0.0

    def record(self, seconds: float) -> int:
        """Note one measured duration; return its index for ``scale``."""
        self._segment_of.append(len(self.kernels) - 1)
        self._since += seconds
        if self._since >= self.every_s:
            self._calibrate()
        return len(self._segment_of) - 1

    def finish(self) -> None:
        """Run the kernel after the last recorded durations, if needed."""
        if self._segment_of and self._segment_of[-1] == len(self.kernels) - 1:
            self._calibrate()

    def scale(self, index: int) -> float:
        """Factor that turns recorded duration ``index`` into scaled seconds."""
        before = self._segment_of[index]
        return 2 * REFERENCE_KERNEL_S / (self.kernels[before] + self.kernels[before + 1])

    def _calibrate(self) -> None:
        self.kernels.append(kernel_seconds())
        self._since = 0.0
