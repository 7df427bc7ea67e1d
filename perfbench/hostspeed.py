"""Host speed, measured with a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x over minutes, as other tenants come and go.  A run cannot avoid
that, so it measures it: between operations it times a small reference
kernel that does the same kinds of work as the package (Fraction
arithmetic, Python-int matrices, breadth-first search over lists, small
numpy products, dict churn) but imports none of it, so no change to the
package moves it.  Each sample stands for the time since the one
before it, so fast and slow stretches weigh on the kernel's mean time
as they weigh on the operations' mean times.  A run's mean times are
then scaled by REFERENCE_S over the kernel's time-weighted mean in that
run: the result is the time the run would have taken on a host where
the kernel takes REFERENCE_S, about the speed of this host when it is
quiet (2-vCPU Xeon guest, Python 3.11.7).

    speed = HostSpeed()
    speed.tick()                     # between operations, untimed
    ...
    seconds * speed.factor()         # at reference host speed
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

import numpy as np

# Mean kernel time on a quiet host; the unit the scaled times are in.
REFERENCE_S = 0.0025
# Sample the kernel at the first gap between operations after each
# INTERVAL_S.
INTERVAL_S = 0.1

_VECTORS = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(8)] for i in range(6)]
_BASE = np.array([[1 if (j - i) % 8 in (1, 3) else 0 for j in range(8)]
                  for i in range(8)], dtype=np.int64)
_OUT = [[(v + s) % 30 for s in (1, 4, 11)] for v in range(30)]


def kernel() -> int:
    """A fixed mix of the package's kinds of work; about 2.5 ms when quiet."""
    # Gram-Schmidt in Fractions
    basis = []
    for v in _VECTORS:
        w = [Fraction(x) for x in v]
        for b, bb in basis:
            c = sum(x * y for x, y in zip(w, b)) / bb
            w = [x - c * y for x, y in zip(w, b)]
        norm = sum(x * x for x in w)
        if norm:
            basis.append((w, norm))
    # breadth-first distances on a 30-vertex circulant
    far = 0
    for s in range(30):
        dist = [-1] * 30
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in _OUT[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        far = max(far, max(dist))
    # int64 powers, then Python-int powers in an object array
    power = _BASE.copy()
    for _ in range(12):
        power = power @ _BASE
    big = _BASE.astype(object)
    for _ in range(4):
        big = big @ big
    # dict churn with tuple keys
    table = {}
    for i in range(600):
        table[(i % 37, i % 11)] = table.get((i % 37, i % 11), 0) + i
    return far + int(power.sum() % 97) + int(big[0, 0] % 97) + len(table) \
        + basis[-1][1].denominator % 97


class HostSpeed:
    """Kernel samples taken between operations, and the scaling they give."""

    def __init__(self):
        self.seconds = []       # kernel time of each sample
        self.weights = []       # seconds of the run each sample stands for
        self._last = None

    def tick(self) -> None:
        """Call between operations: samples the kernel if INTERVAL_S has
        gone by since the last sample.  Each sample is one call after an
        untimed one, the same pattern at every gap: the first call after
        an operation runs with the operation's data in the caches, and a
        long row of calls runs with the kernel's own, so either would
        make the sample depend on the gap."""
        now = time.perf_counter()
        gap = INTERVAL_S if self._last is None else now - self._last
        if gap < INTERVAL_S:
            return
        kernel()
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.seconds.append(self._last - t0)
        self.weights.append(gap)

    def factor(self) -> float:
        """What a time measured in this run is multiplied by to give it
        at reference host speed."""
        weighted = sum(w * k for w, k in zip(self.weights, self.seconds))
        return REFERENCE_S * sum(self.weights) / weighted
