"""Exactness of the WAL's single-read, single-pass decode.

``entries()`` and ``committed_writes()`` decode ``[0, tail)`` from one
device read, and ``committed_writes()`` decodes it once.  They are
compared here with the reference they replaced: one ``peek`` per frame
header and payload, and a second full decode for the committed tids.
"""

import struct
import zlib

import pytest

from repro.backends.ramdisk import RamDisk
from repro.errors import RecoveryError
from repro.rvm.wal import EntryKind, WalEntry, WriteAheadLog

_HEADER = struct.Struct("<IBI")
_TID = struct.Struct("<I")
_WRITE_HEAD = struct.Struct("<IHIH")


def reference_entries(wal):
    """Frame-by-frame decode with one device read per header and payload."""
    out = []
    pos = 0
    while pos < wal.tail:
        if pos + _HEADER.size > wal.tail:
            raise RecoveryError("truncated entry header in WAL")
        length, kind, crc = _HEADER.unpack_from(
            wal.disk.peek(wal.base + pos, _HEADER.size)
        )
        pos += _HEADER.size
        if pos + length > wal.tail:
            raise RecoveryError("truncated entry payload in WAL")
        payload = wal.disk.peek(wal.base + pos, length)
        if zlib.crc32(payload) != crc:
            raise RecoveryError("WAL entry payload fails its CRC")
        pos += length
        kind = EntryKind(kind)
        if kind is EntryKind.WRITE:
            tid, seg_id, offset, nbytes = _WRITE_HEAD.unpack_from(payload)
            data = payload[_WRITE_HEAD.size : _WRITE_HEAD.size + nbytes]
            if len(data) != nbytes:
                raise RecoveryError("WRITE entry data length mismatch")
            out.append(WalEntry(kind, tid, seg_id, offset, data))
        else:
            out.append(WalEntry(kind, _TID.unpack_from(payload)[0]))
    return out


def reference_committed_writes(wal):
    """The two-pass form: committed tids first, then a second decode."""
    committed = {e.tid for e in reference_entries(wal) if e.kind is EntryKind.COMMIT}
    return [
        e
        for e in reference_entries(wal)
        if e.kind is EntryKind.WRITE and e.tid in committed
    ]


def interleaved_wal(cpu, base=0):
    """Interleaved, aborted, uncommitted and group-appended tids."""
    wal = WriteAheadLog(RamDisk(1 << 16), base=base)
    wal.append_begin(cpu, 1)
    wal.append_write(cpu, 1, 0, 0, b"a1")
    wal.append_begin(cpu, 2)
    wal.append_write(cpu, 2, 1, 8, b"b2b2")
    wal.append_write(cpu, 1, 0, 4, b"c1")
    wal.append_write(cpu, 3, 0, 12, b"d3")  # tid 3 aborts
    wal.append_commit(cpu, 2)
    wal.append_abort(cpu, 3)
    wal.append_write(cpu, 4, 1, 16, b"e4")  # tid 4 never commits
    wal.append_writes(cpu, 5, [(0, 20, b"f5"), (1, 24, b"g5g5g5")])
    wal.append_commit(cpu, 1)
    wal.append_transactions(cpu, [(6, [(0, 32, b"h6")]), (7, [])])
    wal.append_commit(cpu, 5)
    return wal


class TestSinglePassDecode:
    @pytest.mark.parametrize("base", [0, 96])
    def test_entries_match_reference(self, machine, proc, base):
        wal = interleaved_wal(proc.cpu, base)
        assert list(wal.entries()) == reference_entries(wal)

    @pytest.mark.parametrize("base", [0, 96])
    def test_committed_writes_match_two_pass(self, machine, proc, base):
        wal = interleaved_wal(proc.cpu, base)
        committed = list(wal.committed_writes())
        assert committed == reference_committed_writes(wal)
        assert [(e.tid, e.data) for e in committed] == [
            (1, b"a1"),
            (2, b"b2b2"),
            (1, b"c1"),
            (5, b"f5"),
            (5, b"g5g5g5"),
            (6, b"h6"),
        ]
        assert wal.committed_tids() == {1, 2, 5, 6, 7}

    def test_empty_log(self, machine, proc):
        wal = WriteAheadLog(RamDisk(1 << 12))
        assert list(wal.committed_writes()) == []
        assert wal.committed_tids() == set()


class TestDecodeStillChecksFrames:
    def _corrupt(self, proc, how):
        wal = interleaved_wal(proc.cpu)
        if how == "torn header":
            wal.tail += 3
        elif how == "torn payload":
            wal.tail -= 2
        else:  # flip one payload byte of the first WRITE entry
            pos = _HEADER.size + _TID.size + _HEADER.size + _WRITE_HEAD.size
            byte = wal.disk.peek(pos, 1)[0]
            wal.disk.poke(pos, bytes([byte ^ 0xFF]))
        return wal

    @pytest.mark.parametrize("how", ["torn header", "torn payload", "crc mismatch"])
    def test_corruption_raises_recovery_error(self, machine, proc, how):
        wal = self._corrupt(proc, how)
        with pytest.raises(RecoveryError):
            reference_entries(wal)
        with pytest.raises(RecoveryError):
            list(wal.entries())
        with pytest.raises(RecoveryError):
            list(wal.committed_writes())
        with pytest.raises(RecoveryError):
            wal.committed_tids()
