"""Reference kernels that measure how fast the machine runs next to each job.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds and across minutes, moving every job's time with it.  A run
therefore also times fixed kernels of the benchmark's own between its jobs
and scales each job to a nominal machine speed:

    scaled = measured * mean over kernels of (NOMINAL[k] / local time of k)

where the local time of a kernel is the mean of its samples taken just
before and just after the job.  Only samples next to the job track its
slowdown: scaling by a whole run's median kernel time did not steady the
jobs.  Each workload names the kernels that resemble its work: the
interpreter kernel is the Python-overhead pattern of the fixed-step
integrators, the memory kernel the large-array passes of the deep tables.
Nothing here calls fractalcalc, so no change to the library moves the kernels.
"""

import bisect
import time

import numpy as np

# kernel times that define the nominal speed, in seconds: their typical
# medians on the Intel Xeon 2.1 GHz vCPUs the benchmark was written on
NOMINAL = {"interpreter": 0.05, "memory": 0.05}
SAMPLE_EVERY_S = 0.5


def interpreter_kernel():
    """6000 RK4 steps of D y = -y on a (2, 16) block, in Python."""
    y = np.ones((2, 16))
    h = 1e-3
    start = time.perf_counter()
    for _ in range(6000):
        k1 = -y
        k2 = -(y + 0.5 * h * k1)
        k3 = -(y + 0.5 * h * k2)
        k4 = -(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return time.perf_counter() - start


class Reference:
    """Kernel samples on the run's timeline, and the scale they imply."""

    def __init__(self, kernels):
        self.kernels = tuple(kernels)
        self.starts = []        # start and end time of each sample
        self.ends = []
        self.values = []        # {kernel: seconds} per sample
        self._grid = np.linspace(0.0, 1.0, 1 << 20)
        self._query = np.random.default_rng(0).uniform(0.0, 1.0, 100_000)

    def memory_kernel(self):
        """A fresh 8 MB cumulative sum, then 1e5 interpolations into it."""
        start = time.perf_counter()
        cum = np.cumsum(self._grid * 0.5)
        np.interp(self._query, self._grid, cum)
        return time.perf_counter() - start

    def sample(self, force=False):
        """Time each kernel, unless a sample ended under SAMPLE_EVERY_S ago."""
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < SAMPLE_EVERY_S:
            return
        runs = {"interpreter": interpreter_kernel, "memory": self.memory_kernel}
        self.values.append({k: runs[k]() for k in self.kernels})
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def scale(self, start, end):
        """Factor that maps the interval [start, end] to the nominal speed."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return float(np.mean([NOMINAL[k] / np.mean([v[k] for v in near])
                              for k in self.kernels]))

    def medians(self):
        return {k: float(np.median([v[k] for v in self.values])) for k in self.kernels}
