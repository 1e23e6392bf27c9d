"""The ``LogDevice`` protocol: pluggable log-destination backends.

The paper's TPC-A measurement pins durability to one device — "a RAM
disk to hold the log" (section 4.2).  This package makes the log
destination pluggable in the style of nvthreads' ``LOG_DEST {DISK,
RAM, DRAM_TMPFS, NVRAM_TMPFS}``: every backend implements the same
small protocol, differing only in its latency model (and, for the
group-commit layer, in *when* bytes become durable).

The protocol, shared by every backend:

* :meth:`LogDevice.write` / :meth:`LogDevice.read` — timed operations
  that charge the issuing CPU per the backend's cost model;
* :meth:`LogDevice.peek` / :meth:`LogDevice.poke` — untimed access to
  the *durable* bytes (recovery-time scanning and test setup); a
  buffering backend's unflushed data is deliberately invisible to
  ``peek``, exactly as it is to a post-crash scan;
* :meth:`LogDevice.flush` — make buffered appends durable (a no-op on
  synchronous devices); the ``backend.flush`` fault site fires here;
* :meth:`LogDevice.barrier` — flush plus a write-ordering point: the
  fault harness's unflushed reorder window drains, so bytes read after
  a barrier can no longer be lost by a crash (``backend.barrier``);
* :meth:`LogDevice.lose_volatile` — crash semantics: drop anything not
  yet durable (buffered runs in the group-commit layer);
* :meth:`LogDevice.durable_bytes` — the bytes a power failure leaves
  behind, which is what crash snapshots capture.

Latency models are imitation-based in the spirit of Virtuoso: a
per-operation overhead (system call, buffer management) plus a
per-block transfer cost, with backend-specific additions (seek and
rotation for the rotating disk, a write-drain penalty for NVRAM-backed
tmpfs).  The fault-injection hooks live on the shared timed paths, so
the crash-consistency sweep drives every backend identically.
"""

from __future__ import annotations

from repro import probe
from repro.errors import AddressError
from repro.hw.cpu import CPU

#: Transfer block size for cost accounting.
BLOCK_BYTES = 256


def flush_point(cpu: CPU) -> None:
    """The fault-injection point every backend's flush passes through.

    A ``before``-mode crash here models power failing just as the
    buffered appends were about to reach the medium: nothing buffered
    is durable.
    """
    probe.hit("backend.flush", cycle=cpu.now)


def barrier_point(device: "LogDevice", cpu: CPU) -> None:
    """The fault-injection + ordering point of every backend barrier.

    After the barrier, writes that already reached ``device`` can no
    longer be reordered away by a crash: the plan's unflushed window
    for the device drains.
    """
    probe.hit("backend.barrier", cycle=cpu.now)
    p = probe._ACTIVE
    if p is not None and "device.stable" in p:
        p["device.stable"](device)


class LogDevice:
    """A byte-addressable durable log device with I/O cost accounting.

    Subclasses select a latency model by overriding :meth:`_write_cost`
    / :meth:`_read_cost` (or just the constructor parameters); the
    timed paths and their probe events are shared so every backend is
    instrumented identically.
    """

    #: Short backend name (the ``LOG_DEST``-style selector).
    name = "device"

    def __init__(
        self,
        size: int,
        op_overhead_cycles: int,
        per_block_cycles: int,
    ) -> None:
        if size <= 0:
            raise AddressError("log device size must be positive")
        self.size = size
        self.op_overhead_cycles = op_overhead_cycles
        self.per_block_cycles = per_block_cycles
        self._data = bytearray(size)
        self.write_ops = 0
        self.read_ops = 0
        self.bytes_written = 0
        self.flush_ops = 0
        self.barrier_ops = 0

    # ------------------------------------------------------------------
    # Cost model (override points)
    # ------------------------------------------------------------------
    @staticmethod
    def _blocks(nbytes: int) -> int:
        return -(-max(nbytes, 1) // BLOCK_BYTES)

    def _transfer_cost(self, nbytes: int) -> int:
        return self.op_overhead_cycles + self._blocks(nbytes) * self.per_block_cycles

    def _write_cost(self, offset: int, nbytes: int) -> int:
        return self._transfer_cost(nbytes)

    def _read_cost(self, offset: int, nbytes: int) -> int:
        return self._transfer_cost(nbytes)

    # ------------------------------------------------------------------
    # Timed operations
    # ------------------------------------------------------------------
    def write(self, cpu: CPU, offset: int, data: bytes) -> None:
        """Durable write of ``data`` at ``offset``; charges ``cpu``."""
        if offset < 0 or offset + len(data) > self.size:
            raise AddressError(f"{self.name} device write out of range")
        p = probe._ACTIVE
        if p is not None and "device.write.begin" in p:
            # A fault plan may raise CrashPoint here (optionally after a
            # torn prefix or the full write reached the platter) and
            # tracks the unflushed reorder window.
            p["device.write.begin"](cpu, self, offset, data)
        start = cpu.now if p is not None and "device.write" in p else 0
        self._data[offset : offset + len(data)] = data
        self.write_ops += 1
        self.bytes_written += len(data)
        cpu.compute(self._write_cost(offset, len(data)))
        if p is not None and "device.write" in p:
            p["device.write"](cpu.now, self.name, len(data), start, cpu.index)

    def read(self, cpu: CPU, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; charges ``cpu``."""
        if offset < 0 or offset + length > self.size:
            raise AddressError(f"{self.name} device read out of range")
        p = probe._ACTIVE
        if p is not None and "device.stable" in p:
            # A timed read is a write barrier: the fault plan's unflushed
            # window drains first.  Otherwise truncation could ingest log
            # entries via its read-back, apply them to the segment images,
            # and then have those entries reverted out of the window at a
            # crash, leaving recovery to replay a partial old log over
            # newer images.
            p["device.stable"](self)
        start = cpu.now if p is not None and "device.read" in p else 0
        self.read_ops += 1
        cpu.compute(self._read_cost(offset, length))
        if p is not None and "device.read" in p:
            p["device.read"](cpu.now, self.name, length, start, cpu.index)
        return bytes(self._data[offset : offset + length])

    # ------------------------------------------------------------------
    # Durability protocol
    # ------------------------------------------------------------------
    def flush(self, cpu: CPU) -> None:
        """Make buffered appends durable (no-op on synchronous devices)."""
        p = probe._ACTIVE
        if p is not None and "device.flush.begin" in p:
            p["device.flush.begin"](cpu)
        flush_point(cpu)
        self.flush_ops += 1
        if p is not None and "device.flush" in p:
            p["device.flush"](cpu.now, self.name, 0)

    def barrier(self, cpu: CPU) -> None:
        """Flush, then stabilise everything already written.

        After a barrier, a crash cannot lose or reorder any write
        issued before it — the guarantee truncation relies on before it
        scans the log back and resets the head.
        """
        self.flush(cpu)
        p = probe._ACTIVE
        if p is not None and "device.barrier.begin" in p:
            p["device.barrier.begin"](cpu)
        barrier_point(self, cpu)
        self.barrier_ops += 1
        if p is not None and "device.barrier" in p:
            p["device.barrier"](cpu.now, self.name, 0)

    def lose_volatile(self) -> None:
        """Crash semantics: drop anything not yet durable (no-op here)."""

    def durable_bytes(self) -> bytes:
        """The bytes a power failure would leave on the medium."""
        return bytes(self._data)

    # ------------------------------------------------------------------
    # Untimed access (recovery-time scanning and tests)
    # ------------------------------------------------------------------
    def peek(self, offset: int, length: int) -> bytes:
        """Untimed read of the *durable* bytes."""
        return bytes(self._data[offset : offset + length])

    def poke(self, offset: int, data: bytes) -> None:
        """Untimed durable write (test setup and torn-write partials)."""
        self._data[offset : offset + len(data)] = data
