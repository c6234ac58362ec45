"""Machine-speed calibration for timings taken on a shared machine.

On the shared 2-core machine this benchmark was written on, the speed of
the same work drifts by up to a factor of two within seconds, and process
CPU time drifts with it.  Every timed item is therefore followed by a fixed
calibration kernel that runs no itmflow code.  A time is divided by the
speed factor around it: the median kernel time of the samples just before
and after it over the kernel's nominal time.  A reported time thus reads as
the time the item takes at the speed where the kernel takes its nominal
time, the fastest speed seen on that machine.

The kernel mimics the work it calibrates: small-array NumPy arithmetic in a
Python loop for in-process solves and scans, plain Python bytecode for
command-line processes, whose time goes to interpreter start and imports.
"""

import statistics
import time

import numpy as np

# Samples on each side of an item that set its speed factor.
WINDOW = 1


def numpy_kernel():
    y = np.array([0.0, 1.0, -1.0])
    for _ in range(60):
        k = np.empty(3)
        k[0] = y[1]
        k[1] = y[2]
        k[2] = -0.5 * y[0] * y[2]
        y = y + 0.01 * k
    return y


def python_kernel():
    total = 0
    for i in range(5000):
        total += i * i
    return total


# kernel, its nominal time in ms
KERNELS = {"numpy": (numpy_kernel, 0.1), "python": (python_kernel, 0.25)}


class SpeedMeter:
    """Kernel timings taken after each timed item, and the speed factors they give."""

    def __init__(self, kernel: str):
        self._kernel, self._nominal_ms = KERNELS[kernel]
        self.samples: list[float] = []
        self._factors = None

    def sample(self) -> int:
        """Time the kernel (twice) now; return the sample's index."""
        t0 = time.perf_counter()
        self._kernel()
        self._kernel()
        self.samples.append((time.perf_counter() - t0) * 500.0)
        self._factors = None
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Slowdown around sample ``index`` relative to the nominal speed."""
        if self._factors is None:
            s = self.samples
            self._factors = [statistics.median(s[max(0, i - WINDOW):i + WINDOW + 1])
                             / self._nominal_ms for i in range(len(s))]
        return self._factors[index]
