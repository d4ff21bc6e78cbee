"""A fixed piece of reference work that gauges the machine's speed.

The benchmark shares a few cores of a host with other tenants. On a 2-core
Intel Xeon share the same code runs in a fast and a slow state, about 1.6x
apart, that each last from seconds to minutes, so one timed run may fall in
either or in both. Timed at marks around the program's work (before and
after each operation, between its phases, and about once a second inside
a long one), this work tells which, and the benchmark rescales each timed
interval by ``REFERENCE_S`` over the mean reference time of the marks
around it: seconds on the machine in its slow state.

The work is a heap-driven shortest-path search over a 150x150 grid graph,
some 17 MB of dicts, lists and tuples: pure Python that, like the program,
chases pointers through more memory than the caches hold. Between the two
states it slowed by about the factor the program's operations did, where
a loop that fits in the caches slowed by more. None of it calls the program,
so a change to the program cannot move it. It runs with the garbage
collector off, and its graph is frozen out of the collector's reach, so
neither the program's heap nor the reference's own shows in the other.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import time

# The reference search's median time in the machine's slow state (2-core
# Intel Xeon share, Python 3.11).
REFERENCE_S = 0.050

GRID_N = 150


def _grid(n: int) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {u: [] for u in range(n * n)}
    for u in range(n * n):
        r, c = divmod(u, n)
        for v in ((u + 1) if c + 1 < n else None, (u + n) if r + 1 < n else None):
            if v is not None:
                w = 100.0 + (u * 7919 + v * 104729) % 37
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


def _search(adj: dict[int, list[tuple[int, float]]]) -> float:
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(dist.values())


class Reference:
    """Times the reference search at marks in a run."""

    def __init__(self):
        self.adj = _grid(GRID_N)
        gc.collect()
        gc.freeze()
        self.marks: list[float] = []  # clock readings, midway through each search
        self.samples: list[float] = []  # the search's time at each mark
        self.checksum = _search(self.adj)

    def mark(self) -> None:
        """Times one search and records it at this point of the run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            checksum = _search(self.adj)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if checksum != self.checksum:
            raise RuntimeError("reference search gave another result")
        self.marks.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def seconds(self, interval: tuple[float, float]) -> float:
        """The wall time of `interval` at the reference speed: scaled by
        REFERENCE_S over the mean of the marks right before and after it."""
        start, end = interval
        before = max(bisect.bisect_right(self.marks, start) - 1, 0)
        after = min(bisect.bisect_left(self.marks, end), len(self.marks) - 1)
        reference_s = (self.samples[before] + self.samples[after]) / 2
        return (end - start) * REFERENCE_S / reference_s
