"""Reading a region's log: address translation and streaming.

The prototype logger stores *physical* addresses in log records
(section 3.1.2), so every log consumer — rollback, RLVM commit, the
debugger, log-based consistency — needs the reverse translation back to
a segment offset or virtual address.  :class:`RegionLogView` is that
shared consumer-side view; :class:`LogFollower` adds the streaming
pattern of section 2.6, where "the output process executes
asynchronously with respect to the application process and only
synchronizes on the end of the log".
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import LoggingError
from repro.core.log_segment import LogSegment
from repro.core.region import Region
from repro.hw.params import PAGE_SIZE
from repro.hw.records import FLAG_VIRTUAL_ADDR, LogRecord


class RegionLogView:
    """Consumer-side view of a logged region's records.

    Translates each record's address (physical on the prototype,
    virtual with the on-chip logger) to the region's segment offset and
    virtual address.  :meth:`scan` translates a whole log in one pass;
    :meth:`offset_of` serves single records.
    """

    def __init__(self, region: Region, log: LogSegment | None = None) -> None:
        self.region = region
        self.log = log if log is not None else region.log_segment
        if self.log is None:
            raise LoggingError("region has no log segment to read")
        self._frame_map: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def offset_of(self, record: LogRecord) -> int:
        """Segment offset the record's write landed at."""
        if record.is_virtual:
            return self.region.va_to_offset(record.addr)
        target = record.addr // PAGE_SIZE
        page_index = self._frame_map.get(target)
        if page_index is not None:
            # Validate the hit against the live page table: after a page
            # is remapped (or its frame number reused by a different
            # page) a stale entry would silently translate the record to
            # the wrong segment offset.
            page = self.region.segment.page(page_index, allocate=False)
            if page is None or page.frame.number != target:
                page_index = None
        if page_index is None:
            page_index = self._remap(record.addr)
        return page_index * PAGE_SIZE + record.addr % PAGE_SIZE

    def va_of(self, record: LogRecord) -> int:
        """Virtual address the record's write targeted."""
        if record.is_virtual:
            return record.addr
        return self.region.offset_to_va(self.offset_of(record))

    def scan(self, start: int | None = None) -> Iterator[tuple[int, int, int, int]]:
        """``(log_offset, seg_offset, value, size)`` for retained records.

        The batched form of :meth:`offset_of` over
        :meth:`LogSegment.record_pages`, from ``start`` (clamped to the
        truncation point) in write order.  The frame map is rebuilt
        once when the scan starts, so a remap between scans is seen;
        an address it does not know rebuilds it once more and then
        raises :class:`LoggingError`, as :meth:`offset_of` does.
        """
        log = self.log
        stride = log.record_size
        va_to_offset = self.region.va_to_offset
        frame_map = self._rebuild_frame_map()
        for offset, fields in log.record_pages(start):
            for record in fields:
                addr = record[0]
                if record[3] & FLAG_VIRTUAL_ADDR:
                    seg_offset = va_to_offset(addr)
                else:
                    page_index = frame_map.get(addr // PAGE_SIZE)
                    if page_index is None:
                        page_index = self._remap(addr)
                        frame_map = self._frame_map
                    seg_offset = page_index * PAGE_SIZE + addr % PAGE_SIZE
                yield offset, seg_offset, record[1], record[2]
                offset += stride

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> Iterator[LogRecord]:
        """Retained records of the log, in write order."""
        return self.log.records()

    def updates(self) -> Iterator[tuple[int, int, int]]:
        """(segment offset, value, size) triples, in write order."""
        for _log_offset, seg_offset, value, size in self.scan():
            yield seg_offset, value, size

    def apply_to(self, segment, limit_offset: int | None = None) -> int:
        """Replay retained records onto ``segment`` (roll-forward).

        Stops before the log offset ``limit_offset`` when given.
        Returns the number of records applied.
        """
        applied = 0
        for log_offset, seg_offset, value, size in self.scan():
            if limit_offset is not None and log_offset >= limit_offset:
                break
            segment.write(seg_offset, value, size)
            applied += 1
        return applied

    def _rebuild_frame_map(self) -> dict[int, int]:
        self._frame_map = {
            page.frame.number: page.index for page in self.region.segment.pages()
        }
        return self._frame_map

    def _remap(self, addr: int) -> int:
        """Page index backing physical ``addr`` after a map rebuild."""
        page_index = self._rebuild_frame_map().get(addr // PAGE_SIZE)
        if page_index is None:
            raise LoggingError(
                f"log record address {addr:#x} is not backed by "
                "any page of the region's segment"
            )
        return page_index


class LogFollower:
    """Incremental consumption of a growing log (section 2.6 output).

    A separate process tails the log; :meth:`poll` returns the records
    appended since the previous poll without truncating the log, so
    the producer and other consumers are unaffected.
    """

    def __init__(self, view: RegionLogView) -> None:
        self.view = view
        self._cursor = view.log.start_offset
        self.records_seen = 0

    def poll(self) -> list[LogRecord]:
        """Records appended since the last poll."""
        log = self.view.log
        # A producer that truncated past our cursor (records we already
        # consumed) is fine: the read resumes at the truncation point.
        out = [record for _offset, record in log.records_with_offsets(self._cursor)]
        self._cursor = log.append_offset
        self.records_seen += len(out)
        return out

    @property
    def backlog_bytes(self) -> int:
        """Bytes appended but not yet consumed."""
        return max(0, self.view.log.append_offset - self._cursor)

    def synchronize(self) -> list[LogRecord]:
        """Sync with the end of the log (producer handoff point)."""
        self.view.region.machine.sync(self.view.region.machine.cpu(0))
        return self.poll()
