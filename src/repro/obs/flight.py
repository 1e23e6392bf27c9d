"""The always-on flight recorder: a bounded ring of recent events.

An aircraft-style black box for the simulated machine: a
fixed-capacity ring buffer of ``(cycle, kind, a, b)`` tuples, so at
any instant — most importantly the instant an injected
:class:`~repro.faults.plan.CrashPoint` fires — the last few thousand
operations leading up to it are available for postmortem analysis
(:mod:`repro.obs.postmortem`).

The recorder is a subscriber of :mod:`repro.probe`: it keeps the last
N events of the stream, projected to ``(cycle, kind, a, b)`` — every
recorded event kind carries its cycle and two small values as its first
three arguments.  Recording is deliberately dumber than tracing: no
categories, no nesting, no args dicts — one ``deque.append`` of a small
tuple per event, cheap enough to leave attached for whole serving runs
(the ``bench_obs_overhead.py`` guard holds it to a ≤2% wall budget).
The recorder never reads anything but the values handed to it and never
calls ``compute()``, so a recorded run is cycle- and log-record-identical
to a bare one.

Event kinds currently recorded (``a``/``b`` are small ints or short
strings; the ring holds whatever the site found cheap to pass):

==================  ==============================================
kind                a, b
==================  ==============================================
``serve.dispatch``  request op, request id
``serve.ack``       request id, transaction id
``wal.append``      entry kind name, frame bytes
``wal.append_group``  frame bytes, first-frame bytes
``device.write``    backend name, bytes
``device.buffer``   backend name, bytes (group-commit buffered)
``device.flush``    backend name, runs pushed
``device.barrier``  backend name, 0
``rvm.commit``      tid, ranges/records
``rvm.flush``       pending commits, 0
``rvm.truncate``    entries applied, 0
``rvm.abort``       tid, 0
``logger.overload`` drain-complete cycle, 0
``fault.hit``       site name, hit count (recorded per site hit
                    while a :class:`FaultPlan` is attached)
``fault.crash``     site name, hit count — always the last event
                    in a crash tail (cycle 0: the power is out)
==================  ==============================================
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

#: Default ring capacity: enough to hold several transactions' worth of
#: serve/WAL/device events without the ring costing real memory.
DEFAULT_CAPACITY = 4096

#: The stream's event kinds the ring keeps (the table above).
KINDS = (
    "serve.dispatch",
    "serve.ack",
    "wal.append",
    "wal.append_group",
    "device.write",
    "device.buffer",
    "device.flush",
    "device.barrier",
    "rvm.commit",
    "rvm.flush",
    "rvm.truncate",
    "rvm.abort",
    "logger.overload",
    "fault.hit",
    "fault.crash",
)


class FlightRecorder:
    """A bounded ring buffer of cycle-stamped structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        #: total events ever recorded (the ring keeps only the tail)
        self.seen = 0

    def handlers(self) -> dict:
        ring = self._ring

        def recorder(kind):
            def record(cycle, a, b, *_detail) -> None:
                ring.append((cycle, kind, a, b))
                self.seen += 1

            return record

        return {kind: recorder(kind) for kind in KINDS}

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted by ring wrap-around."""
        return self.seen - len(self._ring)

    def tail(self, limit: int | None = None) -> list:
        """The retained events, oldest first (optionally the last ``limit``)."""
        events = list(self._ring)
        if limit is not None:
            events = events[-limit:]
        return events

    def clear(self) -> None:
        self._ring.clear()
