"""Host-speed probe: scales measured host times to a reference speed.

On a shared host the speed of the interpreter drifts by tens of percent
over tens of seconds as other tenants load the machine, so raw host
times of one commit measured a minute apart differ by more than most
changes worth detecting.  The benchmark therefore times this fixed
probe next to every repetition and reports host times scaled to the
speed at which the probe takes :data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / probe_time

The probe mixes the two kinds of work the workloads do and that
contention slows differently: interpreter work on a small working set
(method calls on slotted objects, integer masking, dict stores) and
loads scattered over a heap far larger than the caches.  It shares no
code with the program under test, so a change to the simulator cannot
move it.
"""

from __future__ import annotations

import random
import time

#: Probe time, in seconds, that defines the reference host speed.
REFERENCE_S = 0.050

_ITERATIONS = 40_000
_HEAP_WORDS = 1 << 19


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def store(self, value: int) -> None:
        self.hits += 1
        self.value = value & 0xFFFFFFFF


class HostSpeedProbe:
    """Owns the probe's heap; :meth:`probe_s` times one probe."""

    def __init__(self) -> None:
        heap = list(range(_HEAP_WORDS))
        random.Random(0).shuffle(heap)
        self._heap = heap

    def probe_s(self) -> float:
        """Host seconds the fixed probe takes now."""
        cells = [_Cell() for _ in range(64)]
        table: dict[int, tuple[int, int]] = {}
        heap = self._heap
        mask = _HEAP_WORDS - 1
        h = 0x9E3779B9
        acc = 0
        t = time.perf_counter()
        for i in range(_ITERATIONS):
            h = (h * 0x01000193 ^ i) & 0xFFFFFFFF
            cell = cells[h & 63]
            cell.store(h)
            table[h & 1023] = (cell.value, i)
            acc += heap[h & mask] + heap[(h >> 12) & mask]
        return time.perf_counter() - t
