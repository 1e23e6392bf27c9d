"""Write-ahead log on a pluggable log device.

Shared by RVM and RLVM: transactions append BEGIN / WRITE / COMMIT /
ABORT entries; recovery scans the log and replays the writes of
committed transactions onto the durable segment images; truncation
applies the committed tail and resets the log.

Entry framing (little endian)::

    u32 length   (of the payload that follows, excluding this header)
    u8  kind     (1=BEGIN, 2=WRITE, 3=COMMIT, 4=ABORT)
    u32 crc      (CRC-32 of the payload)
    ... kind-specific payload ...

WRITE payload: u32 tid, u16 seg_id, u32 offset, u16 nbytes, data bytes.
BEGIN/COMMIT/ABORT payload: u32 tid.

The payload CRC makes torn appends detectable: a crash that lands a
frame's header on the disk but not its payload leaves stale or zero
bytes where the payload should be, which would otherwise decode as a
plausible entry (e.g. a COMMIT of transaction 0).  Recovery rejects
any frame whose payload fails its CRC.

The log is *self-terminating*: every append places a zeroed header
(kind 0) just past its last frame, in the same device write, and
:meth:`WriteAheadLog.reset` durably zeroes the log head *before* the
space is reclaimed for new entries.  Recovery cannot trust the
in-memory ``tail`` (it dies with the power), so :meth:`scan_recover`
rediscovers the durable tail by scanning from the head — the
terminator guarantees the scan stops exactly at the last durable frame
and can never run into stale frames of a previous log generation,
which would resurrect already-truncated transactions.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Iterator, NamedTuple

from repro import probe
from repro.backends.base import LogDevice
from repro.errors import RecoveryError
from repro.hw.cpu import CPU

_HEADER = struct.Struct("<IBI")
_TID = struct.Struct("<I")
_WRITE_HEAD = struct.Struct("<IHIH")

#: Zeroed header written after every append's last frame (kind 0 is
#: invalid, so a recovery scan stops here).  ``tail`` never includes
#: it; the next append overwrites it.
_TERMINATOR = b"\x00" * _HEADER.size

#: Durable log-head marker written by :meth:`WriteAheadLog.reset`
#: before the log space may be reused.
_HEAD_MARKER_BYTES = 16


class EntryKind(enum.IntEnum):
    BEGIN = 1
    WRITE = 2
    COMMIT = 3
    ABORT = 4


#: Entry kinds by their on-disk byte.
_KINDS = {kind.value: kind for kind in EntryKind}


class WalEntry(NamedTuple):
    """One decoded log entry."""

    kind: EntryKind
    tid: int
    seg_id: int = 0
    offset: int = 0
    data: bytes = b""


class WriteAheadLog:
    """Append-only transaction log on any :class:`LogDevice` backend."""

    def __init__(self, disk: LogDevice, base: int = 0, capacity: int | None = None):
        self.disk = disk
        self.base = base
        self.capacity = capacity if capacity is not None else disk.size - base
        self.tail = 0
        self.appends = 0

    # ------------------------------------------------------------------
    # Appending (timed)
    # ------------------------------------------------------------------
    def _append(self, cpu: CPU, kind: EntryKind, payload: bytes) -> None:
        frame = _HEADER.pack(len(payload), kind, zlib.crc32(payload)) + payload
        if self.tail + len(frame) + len(_TERMINATOR) > self.capacity:
            raise RecoveryError("write-ahead log is full; truncate first")
        p = probe._ACTIVE
        if p is not None and "fault.site" in p:
            # Torn mode: the entry header reaches the disk, the payload
            # does not — the classic crash between header and payload.
            base = self.base + self.tail
            probe.hit(
                "wal.append",
                cycle=cpu.now,
                partial=lambda: self.disk.poke(base, frame[: _HEADER.size]),
            )
        if p is not None and "wal.append.begin" in p:
            p["wal.append.begin"](cpu)
        start = cpu.now if p is not None and "wal.append" in p else 0
        self.disk.write(cpu, self.base + self.tail, frame + _TERMINATOR)
        self.tail += len(frame)
        self.appends += 1
        if p is not None and "wal.append" in p:
            # Emitted only after the write lands, so a CrashPoint raised
            # by a fault plan never leaves a dangling span.
            p["wal.append"](cpu.now, kind.name, len(frame), start, cpu.index)

    def append_begin(self, cpu: CPU, tid: int) -> None:
        self._append(cpu, EntryKind.BEGIN, _TID.pack(tid))

    def append_commit(self, cpu: CPU, tid: int) -> None:
        self._append(cpu, EntryKind.COMMIT, _TID.pack(tid))

    def append_abort(self, cpu: CPU, tid: int) -> None:
        self._append(cpu, EntryKind.ABORT, _TID.pack(tid))

    def append_write(
        self, cpu: CPU, tid: int, seg_id: int, offset: int, data: bytes
    ) -> None:
        payload = _WRITE_HEAD.pack(tid, seg_id, offset, len(data)) + data
        self._append(cpu, EntryKind.WRITE, payload)

    def append_writes(
        self, cpu: CPU, tid: int, writes: list[tuple[int, int, bytes]]
    ) -> None:
        """Append several WRITE entries as one disk operation (group I/O)."""
        if not writes:
            # An empty group is a no-op, exactly like append_transactions:
            # no I/O, no cycles, no append accounting.
            return
        parts = []
        first_len = 0
        for seg_id, offset, data in writes:
            payload = _WRITE_HEAD.pack(tid, seg_id, offset, len(data)) + data
            parts.append(
                _HEADER.pack(len(payload), EntryKind.WRITE, zlib.crc32(payload))
            )
            parts.append(payload)
            if not first_len:
                first_len = _HEADER.size + len(payload)
        frames = b"".join(parts)
        if self.tail + len(frames) + len(_TERMINATOR) > self.capacity:
            raise RecoveryError("write-ahead log is full; truncate first")
        self._group_write(cpu, frames, first_len, len(writes))
        self.appends += 1

    def append_transactions(
        self, cpu: CPU, txns: list[tuple[int, list[tuple[int, int, bytes]]]]
    ) -> None:
        """Append several whole transactions in ONE disk operation.

        Used by no-flush commit batching: each ``(tid, writes)`` becomes
        its WRITE entries followed by a COMMIT entry, all in a single
        group I/O — the amortisation that makes lazy commit cheap.
        """
        parts = []
        first_txn_len = 0
        for tid, writes in txns:
            for seg_id, offset, data in writes:
                payload = _WRITE_HEAD.pack(tid, seg_id, offset, len(data)) + data
                parts.append(
                    _HEADER.pack(len(payload), EntryKind.WRITE, zlib.crc32(payload))
                )
                parts.append(payload)
            payload = _TID.pack(tid)
            parts.append(
                _HEADER.pack(len(payload), EntryKind.COMMIT, zlib.crc32(payload))
            )
            parts.append(payload)
            if not first_txn_len:
                first_txn_len = sum(len(p) for p in parts)
        frames = b"".join(parts)
        if not frames:
            return
        if self.tail + len(frames) + len(_TERMINATOR) > self.capacity:
            raise RecoveryError("write-ahead log is full; truncate first")
        # Every entry is two parts: its header and its payload.
        self._group_write(cpu, frames, first_txn_len, len(parts) // 2)
        self.appends += 1

    def _group_write(
        self, cpu: CPU, frames: bytes, first_len: int, entries: int
    ) -> None:
        """One group I/O of ``entries`` entries in ``frames``; torn mode
        keeps only the first ``first_len`` bytes (a crash mid-way through
        the group write)."""
        p = probe._ACTIVE
        if p is not None and "fault.site" in p:
            base = self.base + self.tail
            probe.hit(
                "wal.append_group",
                cycle=cpu.now,
                partial=lambda: self.disk.poke(base, frames[:first_len]),
            )
        if p is not None and "wal.append_group.begin" in p:
            p["wal.append_group.begin"](cpu)
        start = cpu.now if p is not None and "wal.append_group" in p else 0
        self.disk.write(cpu, self.base + self.tail, frames + _TERMINATOR)
        self.tail += len(frames)
        if p is not None and "wal.append_group" in p:
            p["wal.append_group"](
                cpu.now,
                len(frames),
                first_len,
                start,
                cpu.index,
                entries,
            )

    def reset(self, cpu: CPU | None = None) -> None:
        """Discard all entries (after truncation has applied them).

        The durable log-head marker — a zeroed run at the head of the
        log region — is written *before* the in-memory tail is reset,
        i.e. before any new append may reclaim the space.  Without it a
        crash after new (shorter) entries were appended could leave a
        recovery scan running past them into stale frames of the
        previous generation, resurrecting already-truncated
        transactions.  Pass ``cpu`` to charge the marker I/O (the
        "log-head update" of the TPC-A cost envelope); recovery-time
        callers omit it.
        """
        marker = min(_HEAD_MARKER_BYTES, self.capacity)
        if cpu is not None:
            probe.hit("wal.reset", cycle=cpu.now)
            self.disk.write(cpu, self.base, b"\x00" * marker)
        else:
            self.disk.poke(self.base, b"\x00" * marker)
        self.tail = 0

    # ------------------------------------------------------------------
    # Scanning (untimed: used at recovery and by truncation logic)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[WalEntry]:
        """Decode entries in append order, from one read of ``[0, tail)``.

        Every frame is checked as it is reached: a header or payload cut
        short by ``tail``, or a payload failing its CRC, raises
        :class:`RecoveryError`.
        """
        tail = self.tail
        log = self.disk.peek(self.base, tail)
        pos = 0
        while pos < tail:
            if pos + _HEADER.size > tail:
                raise RecoveryError("truncated entry header in WAL")
            length, code, crc = _HEADER.unpack_from(log, pos)
            pos += _HEADER.size
            end = pos + length
            if end > tail:
                raise RecoveryError("truncated entry payload in WAL")
            payload = log[pos:end]
            if zlib.crc32(payload) != crc:
                raise RecoveryError("WAL entry payload fails its CRC")
            pos = end
            # Every kind is truthy; an unknown byte raises ValueError.
            yield self._decode(_KINDS.get(code) or EntryKind(code), payload)

    def scan_recover(self) -> list[WalEntry]:
        """Rediscover the durable tail by scanning from the log head.

        After a crash the in-memory ``tail`` is gone; the only truth is
        the bytes on the RAM disk.  The scan walks frames from the head
        and stops at the first invalid one — the append-time terminator
        for a clean tail, or garbage/zeroes where a torn write cut an
        entry short (that entry never became durable and is discarded,
        per standard WAL recovery semantics).  Sets ``tail`` to the
        valid durable prefix and returns its decoded entries.
        """
        entries: list[WalEntry] = []
        pos = 0
        while pos + _HEADER.size <= self.capacity:
            length, kind, crc = _HEADER.unpack_from(
                self.disk.peek(self.base + pos, _HEADER.size)
            )
            if kind < EntryKind.BEGIN or kind > EntryKind.ABORT:
                break
            if pos + _HEADER.size + length > self.capacity:
                break
            payload = self.disk.peek(self.base + pos + _HEADER.size, length)
            if zlib.crc32(payload) != crc:
                break  # torn append: header durable, payload garbage
            if EntryKind(kind) is EntryKind.WRITE:
                if length < _WRITE_HEAD.size:
                    break
                nbytes = _WRITE_HEAD.unpack_from(payload)[3]
                if nbytes != length - _WRITE_HEAD.size:
                    break  # frame length and payload disagree: torn
            elif length != _TID.size:
                break
            entries.append(self._decode(EntryKind(kind), payload))
            pos += _HEADER.size + length
        self.tail = pos
        return entries

    @staticmethod
    def _decode(kind: EntryKind, payload: bytes) -> WalEntry:
        if kind is EntryKind.WRITE:
            tid, seg_id, offset, nbytes = _WRITE_HEAD.unpack_from(payload)
            data = payload[_WRITE_HEAD.size : _WRITE_HEAD.size + nbytes]
            if len(data) != nbytes:
                raise RecoveryError("WRITE entry data length mismatch")
            return WalEntry(kind, tid, seg_id, offset, data)
        (tid,) = _TID.unpack_from(payload)
        return WalEntry(kind, tid)

    def committed_tids(self) -> set[int]:
        """Transaction ids with a COMMIT entry in the log."""
        return {e.tid for e in self.entries() if e.kind is EntryKind.COMMIT}

    def committed_writes(self) -> Iterator[WalEntry]:
        """WRITE entries of committed transactions, in log order.

        One decode of the log: the writes are held until the scan has
        seen every COMMIT, since a transaction's writes precede it.
        """
        committed = set()
        writes = []
        for entry in self.entries():
            if entry.kind is EntryKind.WRITE:
                writes.append(entry)
            elif entry.kind is EntryKind.COMMIT:
                committed.add(entry.tid)
        for entry in writes:
            if entry.tid in committed:
                yield entry
