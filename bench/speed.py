"""The machine's speed, measured next to the work so that it can be divided out.

On a shared machine the processor's speed drifts by tens of percent within a
minute, and the same operation takes that much longer or shorter.  So the
untraced run times a fixed pure-Python chunk (breadth-first searches, sorts,
fraction sums and bit-mask loops on a fixed graph, with garbage collection
off) at least every ``EVERY_S`` seconds between operations, and scales each time it
reports to the speed the machine had when the benchmark was defined::

    reported = measured * REFERENCE_S / (mean of the chunks before and after)

The chunk calls no code of the package, so a change to the package cannot
move it; it only tracks how fast this machine runs Python right now.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from fractions import Fraction

# Median chunk time when the benchmark was defined: 2-core Xeon VM, Python 3.11.7.
REFERENCE_S = 0.0048
EVERY_S = 0.1


def _fixed_graph(n: int = 300, degree: int = 3) -> dict:
    """A fixed sparse graph from a linear congruential sequence."""
    adj = {i: set() for i in range(n)}
    x = 12345
    for i in range(n):
        for _ in range(degree):
            x = (1103515245 * x + 12345) % 2 ** 31
            j = x % n
            if j != i:
                adj[i].add(j)
                adj[j].add(i)
    return adj


_GRAPH = _fixed_graph()


def chunk_seconds() -> float:
    """Time of one fixed chunk of interpreter work of the kinds the package
    does: searches over dicts of sets, sorts with keys, fractions, bit masks."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        bits = 0
        for s in range(0, len(_GRAPH), 20):
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in _GRAPH[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            order = sorted(dist, key=lambda v: (dist[v], v))
            total += Fraction(len(order), 1 + dist[order[-1]])
            mask = 0
            for v in order[::2]:
                mask |= 1 << v
            while mask:
                low = mask & -mask
                bits += low.bit_length()
                mask ^= low
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Chunk times along a run, and the scale for the work between two chunks."""

    def __init__(self):
        self.chunks = [chunk_seconds()]
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Call before each operation: times a chunk when one is due, and
        returns the index of the latest chunk."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.chunks.append(chunk_seconds())
            self._last = time.perf_counter()
        return len(self.chunks) - 1

    def close(self) -> None:
        self.chunks.append(chunk_seconds())

    def scale(self, i: int) -> float:
        """Reference over current speed for work between chunks i and i + 1."""
        return REFERENCE_S / ((self.chunks[i] + self.chunks[i + 1]) / 2)
