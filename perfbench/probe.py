"""A speed probe: a fixed amount of interpreter work that never touches dynbroadcast.

On a shared host the speed at which one process runs swings by a third and
more, over seconds and over minutes, with the load of other tenants. The
worker times this probe right after set-up and after every job; run.py
scales each timing by the probes on either side of it, so the figures it
reports are at one reference host speed.

The loop mixes what the package's own code does: small tuples, sets and
dicts made and dropped, attribute access and method calls, and a pointer
chase through a 4 MiB table that misses the core's private caches. Its
slowdown under load then tracks the package's. Garbage collection is off
while it runs, so the heap the program has built cannot change its time.
"""

from __future__ import annotations

import gc
import time
from array import array

PROBE_LOOPS = 6_000  # about 10 ms on a 2020s server core
RING_SIZE = 1 << 20  # 4 MiB of int32 successors

_ring: array | None = None


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def _make_ring() -> array:
    """A successor table that visits every slot in one cycle, in an order the
    hardware prefetchers cannot follow: j -> (a * j + c) mod RING_SIZE, with
    a = 1 (mod 4) and c odd, which has full period for a power-of-two size."""
    import numpy as np

    successor = np.arange(RING_SIZE, dtype=np.uint32)
    successor *= np.uint32(2_654_435_761 & ~3 | 1)
    successor += np.uint32(40_503)
    successor &= np.uint32(RING_SIZE - 1)
    ring = array("i")
    ring.frombytes(memoryview(successor).cast("B"))
    return ring


def speed_probe() -> float:
    """Seconds the probe loop takes now."""
    global _ring
    if _ring is None:
        _ring = _make_ring()
    ring, j, acc = _ring, 0, 0
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        key = (i & 63, i & 7)
        seen = {i & 15, i & 31, key}
        table = {key: i, (i & 3,): acc}
        cell = _Cell(i & 31)
        j = ring[ring[ring[j]]]
        acc = (acc + cell.bump(len(seen)) + table[key] + j) & 0xFFFFF
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed
