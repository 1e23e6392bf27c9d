"""Exactness of the page-batched log decoder.

``LogSegment.record_pages`` decodes a log a page at a time, and
``RegionLogView.scan`` translates its records in one pass.  Both are
compared here with the reference they replaced: a walk over every
record offset, one ``read_bytes`` copy and one decode per record, and
one validated ``offset_of`` lookup per record.
"""

import pytest

from conftest import make_logged_region
from repro.core.log_reader import LogFollower, RegionLogView
from repro.core.log_segment import LogSegment
from repro.core.segment import StdSegment
from repro.errors import LoggingError
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE
from repro.hw.records import (
    EXTENDED_RECORD_SIZE,
    FLAG_VIRTUAL_ADDR,
    decode_extended_record,
    decode_record,
    encode_extended_record,
    encode_record,
)


# ----------------------------------------------------------------------
# The per-record reference
# ----------------------------------------------------------------------
def walk_offsets(log, start, end):
    """Offsets of whole records in ``[start, end)``, record by record."""
    stride = log.record_size
    offset = start
    while offset + stride <= end:
        if PAGE_SIZE - offset % PAGE_SIZE < stride:
            offset = (offset // PAGE_SIZE + 1) * PAGE_SIZE
            continue
        yield offset
        offset += stride


def reference_records(log, start=None):
    """``(offset, record)`` pairs, one ``read_bytes`` decode per record."""
    begin = log.start_offset if start is None else max(start, log.start_offset)
    decode = decode_extended_record if log.extended_records else decode_record
    return [
        (offset, decode(log.read_bytes(offset, log.record_size)))
        for offset in walk_offsets(log, begin, log.append_offset)
    ]


def reference_scan(view, start=None):
    """``(log_offset, seg_offset, value, size)`` via per-record ``offset_of``."""
    return [
        (offset, view.offset_of(record), record.value, record.size)
        for offset, record in reference_records(view.log, start)
    ]


def assert_decoder_exact(log, start=None):
    expected = reference_records(log, start)
    assert list(log.records_with_offsets(start=start)) == expected
    if start is None:
        assert list(log.records()) == [record for _, record in expected]


def place(log, offset, payload):
    """Put a raw record at ``offset``, materialising its log page."""
    index, in_page = divmod(offset, PAGE_SIZE)
    log.page(index).frame.write_bytes(in_page, payload)


def fill(log, n, addr=lambda i: 4 * i):
    """Append ``n`` records the way the hardware does (16-byte or padded
    24-byte), with distinct values and timestamps."""
    if log.extended_records:
        sink = log.make_sink()
        for i in range(n):
            payload = encode_extended_record(addr(i), 1000 + i, 4, i, 7 * i, pc=i)
            dest = sink(payload)
            log.machine.memory.write_bytes(dest, payload)
    else:
        for i in range(n):
            dest = log.hw_append_paddr()
            log.machine.memory.write_bytes(dest, encode_record(addr(i), 1000 + i, 4, i))
            log.note_append(LOG_RECORD_SIZE)


FORMATS = [
    pytest.param(False, id="16-byte"),
    pytest.param(True, id="24-byte"),
]


# ----------------------------------------------------------------------
# LogSegment.record_pages
# ----------------------------------------------------------------------
class TestPageBatchedDecoder:
    @pytest.mark.parametrize("extended", FORMATS)
    def test_whole_log_across_pages(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 600)
        assert log.append_offset > 2 * PAGE_SIZE
        assert_decoder_exact(log)
        assert len(list(log.records())) == 600

    @pytest.mark.parametrize("extended", FORMATS)
    def test_start_mid_page(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 600)
        offsets = [offset for offset, _ in reference_records(log)]
        for start in (offsets[1], offsets[300], offsets[-1], log.append_offset):
            assert start % PAGE_SIZE or start == log.append_offset
            assert_decoder_exact(log, start=start)

    @pytest.mark.parametrize("extended", FORMATS)
    def test_start_on_page_boundary_and_in_padding(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 600)
        for start in (PAGE_SIZE, 2 * PAGE_SIZE, PAGE_SIZE - 8, PAGE_SIZE - 4):
            assert_decoder_exact(log, start=start)

    @pytest.mark.parametrize("extended", FORMATS)
    def test_truncated_start(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 600)
        offsets = [offset for offset, _ in reference_records(log)]
        log.truncate(offsets[275])
        assert_decoder_exact(log)
        # A start below the truncation point is clamped to it.
        assert_decoder_exact(log, start=0)
        assert list(log.records_with_offsets(start=0))[0][0] == offsets[275]

    @pytest.mark.parametrize("extended", FORMATS)
    def test_rewound_tail(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 600)
        offsets = [offset for offset, _ in reference_records(log)]
        log.rewind(offsets[401])
        assert_decoder_exact(log)
        assert len(list(log.records())) == 401
        assert_decoder_exact(log, start=offsets[350])

    def test_extended_padding_is_skipped(self, machine):
        log = LogSegment(machine=machine, extended_records=True)
        fill(log, 171)
        per_page = PAGE_SIZE // EXTENDED_RECORD_SIZE
        offsets = [offset for offset, _ in log.records_with_offsets()]
        assert offsets[per_page - 1] == (per_page - 1) * EXTENDED_RECORD_SIZE
        assert offsets[per_page] == PAGE_SIZE
        assert [r.pc for r in log.records()] == list(range(171))
        assert_decoder_exact(log)

    def test_extended_flag_still_checked(self, machine):
        log = LogSegment(machine=machine, extended_records=True)
        fill(log, 3)
        # Clear FLAG_EXTENDED on the second record.
        place(log, EXTENDED_RECORD_SIZE, encode_record(4, 1001, 4, 1) + bytes(8))
        with pytest.raises(LoggingError):
            list(log.records())
        with pytest.raises(LoggingError):
            reference_records(log)

    def test_never_materialised_page_reads_as_zeros(self, machine):
        log = LogSegment(machine=machine)
        place(log, 0, encode_record(0x40, 1, 4, 1))
        place(log, 2 * PAGE_SIZE, encode_record(0x44, 2, 4, 2))
        log.append_offset = 2 * PAGE_SIZE + LOG_RECORD_SIZE
        assert log.page(1, allocate=False) is None
        assert_decoder_exact(log)
        values = [r.value for r in log.records()]
        assert len(values) == 2 * (PAGE_SIZE // LOG_RECORD_SIZE) + 1
        assert values[0] == 1 and values[-1] == 2
        assert set(values[1:-1]) == {0}
        # Decoding does not materialise the page.
        assert log.page(1, allocate=False) is None

    def test_pages_stream_one_at_a_time(self, machine):
        log = LogSegment(machine=machine)
        fill(log, 3 * (PAGE_SIZE // LOG_RECORD_SIZE) + 5)
        firsts = [first for first, _ in log.record_pages(start=LOG_RECORD_SIZE)]
        assert firsts == [LOG_RECORD_SIZE, PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE]
        pages = log.record_pages()
        first, fields = next(pages)
        assert first == 0
        assert next(fields) == (0, 1000, 4, 0, 0)


# ----------------------------------------------------------------------
# Record counts: arithmetic versus a walk
# ----------------------------------------------------------------------
class TestRecordCountArithmetic:
    @pytest.mark.parametrize("extended", FORMATS)
    def test_rewind_and_truncate_count_matches_walk(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 700)
        offsets = [offset for offset, _ in reference_records(log)]
        per_page = PAGE_SIZE // log.record_size
        for head in (offsets[1], offsets[per_page - 1], offsets[per_page + 1]):
            log.truncate(head)
            assert log.record_count == len(
                list(walk_offsets(log, head, log.append_offset))
            )
        cuts = [offsets[i] for i in (699, 2 * per_page, per_page + 2, per_page + 1)]
        for cut in cuts:
            log.rewind(cut)
            assert log.records_appended == len(list(walk_offsets(log, 0, cut)))
            assert log.record_count == len(
                list(walk_offsets(log, log.start_offset, cut))
            )
        assert log.record_count == 0

    @pytest.mark.parametrize("extended", FORMATS)
    def test_count_at_every_in_page_offset(self, machine, extended):
        log = LogSegment(machine=machine, extended_records=extended)
        fill(log, 2 * (PAGE_SIZE // log.record_size) + 3)
        for offset in range(0, log.append_offset + 1, 8):
            assert log._records_below(offset) == len(list(walk_offsets(log, 0, offset)))


# ----------------------------------------------------------------------
# RegionLogView.scan
# ----------------------------------------------------------------------
class TestBatchedTranslation:
    def test_scan_matches_offset_of(self, machine, proc):
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        for i in range(700):
            proc.write(va + (i * 44) % (4 * PAGE_SIZE), i)
        machine.quiesce()
        view = RegionLogView(region)
        assert log.append_offset > 2 * PAGE_SIZE
        assert list(view.scan()) == reference_scan(view)
        start = [offset for offset, _ in log.records_with_offsets()][333]
        assert list(view.scan(start=start)) == reference_scan(view, start)
        assert list(view.updates()) == [t[1:] for t in reference_scan(view)]

    def test_virtual_address_records(self, onchip_machine):
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        for i in range(300):
            proc.write(va + (i * 52) % (4 * PAGE_SIZE), i)
        machine.quiesce()
        view = RegionLogView(region)
        records = list(log.records())
        assert records and all(r.flags & FLAG_VIRTUAL_ADDR for r in records)
        assert list(view.scan()) == reference_scan(view)

    def test_extended_records(self, onchip_machine):
        machine = onchip_machine
        proc = machine.current_process
        region, log, va = make_logged_region(
            machine, size=2 * PAGE_SIZE, extended_records=True
        )
        for i in range(400):
            proc.write(va + (i * 12) % (2 * PAGE_SIZE), i)
        machine.quiesce()
        assert log.append_offset > 2 * PAGE_SIZE
        view = RegionLogView(region)
        assert list(view.scan()) == reference_scan(view)

    def test_remapped_page_between_scans(self, machine, proc):
        region, log, va = make_logged_region(machine, size=4 * PAGE_SIZE)
        proc.write(va + 0x10, 1)
        proc.write(va + PAGE_SIZE + 0x20, 2)
        machine.quiesce()
        view = RegionLogView(region)
        assert [t[1] for t in view.scan()] == [0x10, PAGE_SIZE + 0x20]
        page0, page1 = region.segment.page(0), region.segment.page(1)
        page0.frame, page1.frame = page1.frame, page0.frame
        assert [t[1] for t in view.scan()] == [PAGE_SIZE + 0x10, 0x20]
        assert list(view.scan()) == reference_scan(view)

    def test_unbacked_address_raises_after_earlier_records(self, machine, proc):
        region, log, va = make_logged_region(machine)
        proc.write(va, 5)
        proc.write(va + 4, 6)
        machine.quiesce()
        place(log, log.append_offset, encode_record(0xDEAD000, 0, 4, 9))
        log.note_append(LOG_RECORD_SIZE)
        view = RegionLogView(region)
        scan = view.scan()
        assert [t[2] for t in (next(scan), next(scan))] == [5, 6]
        with pytest.raises(LoggingError):
            next(scan)
        with pytest.raises(LoggingError):
            reference_scan(view)

    def test_apply_to_with_limit_matches_reference(self, machine, proc):
        region, log, va = make_logged_region(machine, size=2 * PAGE_SIZE)
        for i in range(400):
            proc.write(va + (i * 20) % (2 * PAGE_SIZE), i + 1)
        machine.quiesce()
        view = RegionLogView(region)
        limit = [offset for offset, _ in log.records_with_offsets()][300]
        replica = StdSegment(2 * PAGE_SIZE, machine=machine)
        expected = bytearray(2 * PAGE_SIZE)
        for offset, seg_offset, value, size in reference_scan(view):
            if offset >= limit:
                break
            expected[seg_offset : seg_offset + size] = value.to_bytes(size, "little")
        assert view.apply_to(replica, limit_offset=limit) == 300
        assert replica.read_bytes(0, 2 * PAGE_SIZE) == bytes(expected)


# ----------------------------------------------------------------------
# LogFollower
# ----------------------------------------------------------------------
class TestFollowerPollsFromCursor:
    def test_poll_decodes_only_new_records(self, machine):
        log = LogSegment(machine=machine, extended_records=True)
        fill(log, 5)
        region, _, _ = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region, log))
        assert [r.value for r in follower.poll()] == [1000 + i for i in range(5)]
        # Corrupt a consumed record: a poll that re-decoded the whole
        # log would now fail the extended-format check.
        place(log, 0, encode_record(0, 0, 4, 0) + bytes(8))
        payload = encode_extended_record(4, 77, 4, 5, 0)
        log.machine.memory.write_bytes(log.make_sink()(payload), payload)
        assert [r.value for r in follower.poll()] == [77]
        assert follower.records_seen == 6

    def test_truncation_past_cursor_resumes_at_truncation_point(self, machine, proc):
        region, log, va = make_logged_region(machine)
        follower = LogFollower(RegionLogView(region))
        proc.write(va, 1)
        machine.quiesce()
        assert [r.value for r in follower.poll()] == [1]
        for v in (2, 3, 4):
            proc.write(va + 4 * v, v)
        machine.quiesce()
        log.truncate(log.append_offset - LOG_RECORD_SIZE)
        assert [r.value for r in follower.poll()] == [4]
        assert follower.backlog_bytes == 0
        assert follower.poll() == []
