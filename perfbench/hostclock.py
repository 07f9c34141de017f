"""Host speed, measured with a fixed kernel that touches no pacok code.

This machine is shared, and its speed drifts by tens of percent over seconds
to minutes: a fixed numpy kernel ran from 0.6x to 1.2x its median within one
40 s run, and ten-run medians of the same workload moved by up to 36% within
an hour. Every timing is slowed alike, so the kernel's time, sampled between
the timed intervals of a window, measures the drift. The end-to-end times are
reported in reference-host seconds: measured seconds times HOST_REFERENCE_S
over the kernel's median time in that window. A change to pacok cannot move
the kernel.

The kernel runs in its own short-lived process, so it adds nothing to the
workload process's peak RSS. Run as a script, it prints one kernel time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# A typical kernel time on this machine when the benchmark was defined; single
# kernel processes then took 0.05-0.08 s. It fixes the scale only.
HOST_REFERENCE_S = 0.06


def _kernel_seconds() -> float:
    """A fixed mix of interpreter, FFT and pointwise work, like the workloads'."""
    import numpy as np

    rng = np.random.default_rng(0)
    fields = ((rng.random((128, 128)), 30), (rng.random((64, 64, 64)), 3))
    timings = []
    for _ in range(2):  # the first pass also builds the FFT plans
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i % 7
        for field, repeats in fields:
            for _ in range(repeats):
                spectrum = np.fft.rfftn(field)
                other = np.fft.irfftn(0.5 * spectrum, s=field.shape, axes=tuple(range(field.ndim)))
                np.maximum(field + other - 1.0, 0.0) + 36.0 * (field - field * field) * (1.0 - 2.0 * field)
        timings.append(time.perf_counter() - start)
    return timings[-1]


class HostClock:
    """Kernel times sampled during one timing window."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        done = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                              timeout=60, check=True)
        self.samples.append(float(done.stdout))

    def factor(self) -> float:
        """Reference-host seconds per measured second in this window."""
        return HOST_REFERENCE_S / statistics.median(self.samples)


if __name__ == "__main__":
    print(repr(_kernel_seconds()))
