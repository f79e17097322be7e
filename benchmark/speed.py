"""Machine-speed probe: a fixed NumPy kernel timed between operations.

On a shared two-core machine identical passes over one workload vary by
±20 % in wall time within a few minutes, and the variation tracks how long
this kernel takes (an allocating form of it followed consecutive
narrowband_onset passes in one process at correlation 0.99). The benchmark
therefore reports times at a fixed machine speed: each point's latency is
multiplied by ``REFERENCE_S`` over the median of the three samples nearest
to it in time, so that one preempted sample does not rescale a stretch of
points, and the rest of a pass by ``REFERENCE_S`` over the pass's median
sample. The raw wall times are reported beside them.

The kernel mirrors the integrand's work on the largest panel blocks, a
sinc², a power law and an exponential over 20000 x 16 nodes and a 16-node
dot product. It calls no code of the program under test and allocates
nothing, so a change to the program cannot change the kernel's speed.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.012  # kernel time that defines the reported speed
INTERVAL_S = 0.5  # least time between samples inside a pass


class SpeedProbe:
    """Kernel samples ``(start, end)`` of the current pass. ``inside_s`` is
    the time that samples taken during the pass added to its wall time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.uniform(0.1, 50.0, size=(20000, 16))
        self._w = rng.uniform(size=16)
        # preallocated, so that a sample never waits on the allocator,
        # whose state depends on what the program under test just freed
        self._a = np.empty_like(self._x)
        self._b = np.empty_like(self._x)
        self._r = np.empty(20000)
        self.start_pass()
        self.sample()  # the first call pays for page faults; not kept
        self.start_pass()

    def start_pass(self):
        self.samples = []
        self.inside_s = 0.0

    def sample(self):
        x, a, b = self._x, self._a, self._b
        t0 = time.perf_counter()
        np.sin(x, out=a)
        np.divide(a, x, out=a)
        np.multiply(a, a, out=a)
        np.power(x, 1.5, out=b)
        np.multiply(a, b, out=a)
        np.multiply(x, -1.0 / 250.0, out=b)
        np.exp(b, out=b)
        np.multiply(a, b, out=a)
        np.dot(a, self._w, out=self._r)
        t1 = time.perf_counter()
        self.samples.append((t0, t1))
        return time.perf_counter() - t0

    def maybe_sample(self):
        """Take a sample inside the pass if INTERVAL_S has passed."""
        if time.perf_counter() - self.samples[-1][1] >= INTERVAL_S:
            self.inside_s += self.sample()

    def factor(self):
        """Multiplier that turns this pass's wall times into reference ones."""
        return REFERENCE_S / statistics.median(t1 - t0 for t0, t1 in self.samples)

    def factor_at(self, start):
        """Multiplier for an operation that began at ``start``, from the
        median of the three samples nearest to it."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - start))[:3]
        return REFERENCE_S / statistics.median(t1 - t0 for t0, t1 in nearest)
