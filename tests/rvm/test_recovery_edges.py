"""Recovery edge cases: empty logs, torn final entries, crashes during
truncation, and the stale-generation hazards the durable log-head
marker and the self-terminating scan exist to prevent.
"""

import struct
import zlib

import pytest

from repro import probe
from repro.faults import CrashPoint, FaultPlan
from repro.backends.ramdisk import RamDisk
from repro.rvm.rvm import RVM
from repro.rvm.wal import EntryKind, WriteAheadLog

# header (u32 length, u8 kind, u32 crc) + u32 tid payload
_COMMIT_FRAME_BYTES = 9 + 4


def _commit_frame(tid: int) -> bytes:
    payload = struct.pack("<I", tid)
    return (
        struct.pack("<IBI", len(payload), int(EntryKind.COMMIT), zlib.crc32(payload))
        + payload
    )


class TestEmptyAndTornLogs:
    def test_scan_recover_on_empty_disk(self):
        wal = WriteAheadLog(RamDisk(1 << 12))
        assert wal.scan_recover() == []
        assert wal.tail == 0

    def test_recovery_with_no_transactions(self, machine, proc):
        rvm = RVM(proc)
        rvm.map("db", 4096)
        recovered = rvm.crash_and_recover()
        assert proc.read(recovered.segments["db"].base_va) == 0

    def test_torn_last_entry_is_discarded(self, machine, proc):
        """Crash between a frame's header and its payload: the header is
        durable but the payload is garbage, so the scan must stop at the
        previous frame — the torn entry never committed."""
        wal = WriteAheadLog(RamDisk(1 << 12))
        plan = FaultPlan.at_site("wal.append", nth=2, mode="torn")
        with probe.attached(plan):
            wal.append_commit(proc.cpu, 1)
            with pytest.raises(CrashPoint):
                wal.append_commit(proc.cpu, 2)
        entries = wal.scan_recover()
        assert [e.tid for e in entries] == [1]
        assert wal.tail == _COMMIT_FRAME_BYTES

    def test_disk_torn_append_keeps_a_valid_prefix(self, machine, proc):
        """A torn *device* write cuts the frame-plus-terminator blob at
        an arbitrary byte.  Depending on the cut, entry 2 either became
        fully durable or not at all — both are legal outcomes for an
        in-flight append; what recovery may never see is half of it."""
        wal = WriteAheadLog(RamDisk(1 << 12))
        plan = FaultPlan.at_disk_write(nth=2, mode="torn", seed=3)
        with probe.attached(plan):
            wal.append_commit(proc.cpu, 1)
            with pytest.raises(CrashPoint):
                wal.append_commit(proc.cpu, 2)
        entries = wal.scan_recover()
        assert [e.tid for e in entries] in ([1], [1, 2])


class TestCrashDuringTruncation:
    def _committed_rvm(self, proc):
        rvm = RVM(proc)
        va = rvm.map("db", 4096)
        for i, value in enumerate((0x11, 0x22, 0x33)):
            txn = rvm.begin()
            txn.set_range(va + 4 * i, 4)
            txn.write(va + 4 * i, value)
            txn.commit()
        return rvm

    @staticmethod
    def _assert_values(proc, backend):
        va = backend.segments["db"].base_va
        for i, value in enumerate((0x11, 0x22, 0x33)):
            assert proc.read(va + 4 * i) == value

    def test_double_recovery_with_crashing_truncations(self, machine, proc):
        """Crash mid-way through applying the log to the images, recover,
        then crash again before the log-head reset of the *second*
        truncation, and recover again.  Replay is idempotent physical
        redo, so every committed value survives both crashes."""
        rvm = self._committed_rvm(proc)
        with probe.attached(FaultPlan.at_site("rvm.truncate.apply", nth=2)):
            with pytest.raises(CrashPoint):
                rvm.truncate()
        recovered = rvm.crash_and_recover()
        self._assert_values(proc, recovered)

        # Re-commit something so the second truncation has work to do.
        va = recovered.segments["db"].base_va
        txn = recovered.begin()
        txn.set_range(va + 12, 4)
        txn.write(va + 12, 0x44)
        txn.commit()
        with probe.attached(FaultPlan.at_site("wal.reset", nth=1)):
            with pytest.raises(CrashPoint):
                recovered.truncate()
        final = recovered.crash_and_recover()
        self._assert_values(proc, final)
        assert proc.read(final.segments["db"].base_va + 12) == 0x44


class TestStaleGenerationHazards:
    def test_unterminated_frames_resurrect_stale_entries(self):
        """Documents the hazard the framing discipline exists for: poke
        two generation-1 frames with *no* terminators, overwrite only
        the first with a generation-2 frame, and the scan happily walks
        past it into the stale generation-1 frame behind it."""
        disk = RamDisk(1 << 12)
        disk.poke(0, _commit_frame(7))
        disk.poke(_COMMIT_FRAME_BYTES, _commit_frame(8))
        disk.poke(0, _commit_frame(9))  # generation 2, same length
        wal = WriteAheadLog(disk)
        assert [e.tid for e in wal.scan_recover()] == [9, 8]

    def test_real_append_path_cannot_resurrect(self, machine, proc):
        """The same shape through the real API — append, durable reset,
        append a shorter new generation — must scan to exactly the new
        generation: the in-write terminator stops the scan."""
        wal = WriteAheadLog(RamDisk(1 << 12))
        wal.append_commit(proc.cpu, 7)
        wal.append_commit(proc.cpu, 8)
        wal.reset(proc.cpu)
        wal.append_commit(proc.cpu, 9)
        assert [e.tid for e in wal.scan_recover()] == [9]

    def test_reset_is_durable_before_space_reclaim(self, machine, proc):
        """Regression guard for the stale-tid resurrection bug: reset
        must durably zero the log head *before* the in-memory tail is
        reused.  A crash immediately after reset (in-memory state gone)
        then scans an empty log, not the pre-reset entries."""
        wal = WriteAheadLog(RamDisk(1 << 12))
        wal.append_commit(proc.cpu, 1)
        wal.append_commit(proc.cpu, 2)
        wal.reset(proc.cpu)
        wal.tail = 0  # crash: volatile tail is gone
        assert wal.scan_recover() == []

    def test_volatile_only_reset_would_resurrect(self, machine, proc):
        """The failing half of the regression pair: a reset that only
        clears the in-memory tail (no durable head marker) leaves the
        old entries scannable after a crash — exactly the bug the
        durable marker fixes."""
        wal = WriteAheadLog(RamDisk(1 << 12))
        wal.append_commit(proc.cpu, 1)
        wal.append_commit(proc.cpu, 2)
        wal.tail = 0  # buggy reset: nothing durable happened
        assert [e.tid for e in wal.scan_recover()] == [1, 2]
