"""Memory-mapped files over segments (section 2.7).

"Attaching the logging to a memory region also fits with application
structuring required with mapped files and mapped I/O."  A
:class:`FileSegmentManager` backs a segment with a file on the RAM
disk: pages fault in from the file, and :func:`msync` writes dirty
pages back.  Combined with a logged region, the write log records
exactly which file bytes changed — an incremental-backup / replication
feed for free.
"""

from __future__ import annotations

from repro.errors import SegmentError
from repro.core.process import Process
from repro.core.region import StdRegion
from repro.core.segment import Segment, SegmentManager, StdSegment
from repro.hw.memory import Frame
from repro.hw.params import PAGE_SIZE
from repro.backends.ramdisk import RamDisk


class FileSegmentManager(SegmentManager):
    """Pages a segment in from (and back to) a RAM-disk file."""

    def __init__(self, disk: RamDisk, file_offset: int, file_bytes: int) -> None:
        if file_offset % PAGE_SIZE:
            raise SegmentError("file mappings must be page aligned")
        self.disk = disk
        self.file_offset = file_offset
        self.file_bytes = file_bytes
        self.pages_faulted_in = 0

    def handle_fault(self, segment: Segment, page_index: int, frame: Frame) -> None:
        """Fill the faulting page from the file (untimed here; the
        kernel's page-fault cost covers the service time)."""
        start = page_index * PAGE_SIZE
        if start >= self.file_bytes:
            return  # beyond EOF: zero fill
        length = min(PAGE_SIZE, self.file_bytes - start)
        frame.write_bytes(0, self.disk.peek(self.file_offset + start, length))
        self.pages_faulted_in += 1


class MappedFile:
    """A file mapped into a process's address space."""

    def __init__(
        self,
        proc: Process,
        disk: RamDisk,
        file_offset: int,
        file_bytes: int,
    ) -> None:
        self.proc = proc
        self.manager = FileSegmentManager(disk, file_offset, file_bytes)
        self.segment = StdSegment(
            file_bytes, segment_manager=self.manager, machine=proc.machine
        )
        self.region = StdRegion(self.segment)
        self.base_va = self.region.bind(proc.address_space())
        self.file_bytes = file_bytes
        self.disk = disk
        self.file_offset = file_offset

    def write(self, offset: int, data: bytes) -> None:
        """Timed store of ``data`` at file offset ``offset``.

        Routed through the bulk-access engine; on a logged mapping the
        per-word log records are produced exactly as by a word loop.
        """
        self.proc.write_block(self.base_va + offset, data)

    def read(self, offset: int, length: int) -> bytes:
        """Timed load of ``length`` bytes at file offset ``offset``."""
        return self.proc.read_block(self.base_va + offset, length)

    def msync(self) -> int:
        """Write resident pages back to the file; returns bytes written.

        Charged as RAM-disk I/O on the owning process.
        """
        written = 0
        for page in self.segment.pages():
            start = page.index * PAGE_SIZE
            if start >= self.file_bytes:
                continue
            length = min(PAGE_SIZE, self.file_bytes - start)
            self.disk.write(
                self.proc.cpu,
                self.file_offset + start,
                self.segment.read_bytes(start, length),
            )
            written += length
        return written

    def msync_from_log(self, view) -> int:
        """Incremental msync: write back only the logged byte ranges.

        ``view`` is a :class:`~repro.core.log_reader.RegionLogView` over
        this mapping's logged region.  Returns bytes written — for
        sparse updates this is far less I/O than a full msync.
        """
        written = 0
        for offset, value, size in view.updates():
            if offset >= self.file_bytes:
                continue
            self.disk.write(
                self.proc.cpu,
                self.file_offset + offset,
                value.to_bytes(size, "little"),
            )
            written += size
        view.log.truncate()
        return written
