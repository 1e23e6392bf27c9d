"""Unit tests: RLVM — recoverable memory via logged regions."""

import pytest

from repro.errors import TransactionError
from repro.rvm.rlvm import RLVM


@pytest.fixture
def rlvm(machine, proc):
    return RLVM(proc)


class TestRlvmTransactions:
    def test_no_set_range_needed(self, rlvm, proc):
        """Section 2.5: 'In RLVM, no set_range() calls are needed.'"""
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 42)  # just write
        txn.commit()
        assert proc.read(va) == 42

    def test_abort_restores_exactly_written_words(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 10)
        txn.write(va + 100, 20)
        txn.commit()

        txn = rlvm.begin()
        txn.write(va, 111)
        txn.write(va + 100, 222)
        txn.write(va + 200, 333)
        txn.abort()
        assert proc.read(va) == 10
        assert proc.read(va + 100) == 20
        assert proc.read(va + 200) == 0

    def test_abort_handles_repeated_writes_to_same_word(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 1)
        txn.commit()
        txn = rlvm.begin()
        for v in (5, 6, 7):
            txn.write(va, v)
        txn.abort()
        assert proc.read(va) == 1

    def test_subword_writes_recoverable(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 0xAABBCCDD)
        txn.commit()
        txn = rlvm.begin()
        txn.write(va + 1, 0x11, 1)
        txn.abort()
        assert proc.read(va) == 0xAABBCCDD

    def test_in_txn_write_is_cheap(self, rlvm, proc):
        """Table 3: the recoverable write costs ~16 cycles (ours: the
        saturated write-through cost, 6)."""
        va = rlvm.map("db", 4096)
        proc.write(va, 0)
        proc.machine.quiesce()
        txn = rlvm.begin()
        txn.write(va, 0)  # absorb the cold logger pipeline
        t0 = proc.now
        txn.write(va + 4, 1)
        cost = proc.now - t0
        assert cost <= 20  # two orders of magnitude below RVM's 3,515
        txn.commit()

    def test_commit_truncates_hardware_log(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 1)
        txn.commit()
        assert rlvm.segments["db"].log.record_count == 0

    def test_marker_written_on_begin(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        proc.machine.quiesce()
        records = list(rlvm.segments["db"].log.records())
        assert len(records) == 1  # the control-word marker
        assert records[0].value == txn.tid
        txn.commit()

    def test_one_txn_at_a_time(self, rlvm):
        rlvm.map("db", 4096)
        rlvm.begin()
        with pytest.raises(TransactionError):
            rlvm.begin()

    def test_multiple_segments_separate_logs(self, rlvm, proc):
        """'Using a separate log per region means that each process can
        have a separate log so transactions are not randomly intermixed'
        (section 2.5)."""
        va1 = rlvm.map("a", 4096)
        va2 = rlvm.map("b", 4096)
        txn = rlvm.begin()
        txn.write(va1, 1)
        txn.write(va2, 2)
        txn.commit()
        assert proc.read(va1) == 1
        assert proc.read(va2) == 2
        assert rlvm.segments["a"].log is not rlvm.segments["b"].log


class TestRlvmRecovery:
    def test_committed_survives_crash(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 77)
        txn.commit()
        recovered = rlvm.crash_and_recover()
        va2 = recovered.segments["db"].data_va
        assert proc.read(va2) == 77

    def test_uncommitted_lost_on_crash(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 1)
        txn.commit()
        txn = rlvm.begin()
        txn.write(va, 999)
        recovered = rlvm.crash_and_recover()
        va2 = recovered.segments["db"].data_va
        assert proc.read(va2) == 1

    def test_crash_after_truncate(self, rlvm, proc):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 3)
        txn.commit()
        rlvm.truncate()
        recovered = rlvm.crash_and_recover()
        assert proc.read(recovered.segments["db"].data_va) == 3


class TestRvmRlvmEquivalence:
    def test_same_final_state_for_same_workload(self, machine, proc):
        """RVM and RLVM must agree on every committed/aborted outcome."""
        from repro.rvm.rvm import RVM

        rvm = RVM(proc)
        rlvm = RLVM(proc)
        va_r = rvm.map("db", 4096)
        va_l = rlvm.map("db", 4096)

        script = [
            ("commit", [(0, 10), (4, 20)]),
            ("abort", [(0, 99), (8, 98)]),
            ("commit", [(8, 30)]),
            ("abort", [(4, 0)]),
            ("commit", [(12, 40), (0, 50)]),
        ]
        for outcome, writes in script:
            t_r = rvm.begin()
            t_l = rlvm.begin()
            for off, value in writes:
                t_r.set_range(va_r + off, 4)
                t_r.write(va_r + off, value)
                t_l.write(va_l + off, value)
            if outcome == "commit":
                t_r.commit()
                t_l.commit()
            else:
                t_r.abort()
                t_l.abort()

        for off in range(0, 16, 4):
            assert proc.read(va_r + off) == proc.read(va_l + off)


class TestRlvmLogChecks:
    """Commit and abort read the transaction's records with the batched
    log scan; its marker and address checks still reject a bad log."""

    @pytest.mark.parametrize("end", ["commit", "abort"])
    def test_stale_marker_rejected(self, rlvm, proc, end):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 1)
        proc.write(rlvm.segments["db"].base_va, txn.tid + 7)
        with pytest.raises(TransactionError, match="stale transaction marker"):
            getattr(txn, end)()

    @pytest.mark.parametrize("end", ["commit", "abort"])
    def test_records_without_marker_rejected(self, rlvm, proc, end):
        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        proc.machine.quiesce()
        rlvm.segments["db"].log.truncate()  # drop the begin marker
        txn.write(va, 1)
        with pytest.raises(TransactionError, match="without a begin marker"):
            getattr(txn, end)()

    def test_record_outside_segment_rejected(self, rlvm, proc):
        from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE
        from repro.hw.records import encode_record

        va = rlvm.map("db", 4096)
        txn = rlvm.begin()
        txn.write(va, 1)
        proc.machine.quiesce()
        log = rlvm.segments["db"].log
        index, in_page = divmod(log.append_offset, PAGE_SIZE)
        log.page(index).frame.write_bytes(in_page, encode_record(0xDEAD000, 0, 4, 0))
        log.note_append(LOG_RECORD_SIZE)
        with pytest.raises(TransactionError, match="outside the segment"):
            txn.commit()
