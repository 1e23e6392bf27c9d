"""The hardware logger (section 3.1).

"The logger is a hardware device that snoops the system bus for write
operations to logged segments and translates each such write operation
into a log record, storing it in the associated log segment."

Pipeline (Figure 5): bus snoop → write FIFO → page-mapping-table lookup
→ log-table lookup/update → log-record FIFO → DMA into memory.

The pipeline is simulated *lazily*: snooped writes are queued with the
cycle at which they appeared on the bus, and are serviced (one every
``logger_service_cycles``) whenever time is observed to advance.  This
keeps the model deterministic and fast while reproducing the two
timing behaviours the paper measures:

* the stability threshold — the logger keeps up as long as there is no
  more than one logged write per ~27 compute cycles (section 4.5.3);
* the overload penalty — crossing the 512-entry FIFO threshold raises
  an interrupt and the kernel suspends all processes that might
  generate log data until the FIFOs drain, costing >30,000 cycles.

Faults (section 3.2): a PMT miss or an invalid log-table entry (log
address crossed a page boundary) raises a *logging fault*, serviced by
the kernel through the :class:`LoggingFaultHandler` protocol.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from repro import probe
from repro.hw.bus import BusWrite, SystemBus
from repro.hw.clock import Clock
from repro.hw.fifo import HardwareFifo, PushResult
from repro.hw.log_table import LogTable
from repro.hw.memory import PhysicalMemory
from repro.hw.page_mapping_table import PageMappingTable
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig
from repro.hw.records import RECORD_DTYPE, RECORD_STRUCT, encode_record

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
_UNSET = object()
#: A ``limit`` no service completion reaches: serve everything queued.
_NEVER = 1 << 62


class LogMode(enum.Enum):
    """Logging modes (sections 2.1 and 2.6)."""

    #: Append a 16-byte (address, value, size, timestamp) record.
    NORMAL = "normal"
    #: Write the update value to the *corresponding offset* of the log
    #: segment (mapped-I/O output, section 2.6).
    DIRECT_MAPPED = "direct_mapped"
    #: Append just the data values, without addresses — streamed output
    #: (section 2.6).  Values are stored as 4-byte little-endian words.
    INDEXED = "indexed"


#: Size of one indexed-mode log entry (a bare data value).
INDEXED_ENTRY_SIZE = 4

#: The mode of a log with none declared (read per stretch, and an enum
#: member's class-attribute read is slow).
_NORMAL = LogMode.NORMAL


class LoggingFaultHandler(Protocol):
    """Kernel services invoked by the logger.

    Handler methods return the number of kernel cycles consumed; the
    logger adds that to its pipeline stall.
    """

    def pmt_miss(self, paddr: int) -> tuple[int | None, int]:
        """PMT missed for ``paddr``.

        Returns ``(log_index, cycles)``; ``log_index`` is None when no
        log serves this page (the record is dropped).
        """
        ...  # pragma: no cover - protocol

    def log_boundary(self, log_index: int) -> tuple[int | None, int]:
        """Log ``log_index`` needs its next page.

        Returns ``(log_address, cycles)``; ``log_address`` is None when
        no page is available, in which case the logger redirects records
        to the kernel's default log page and they are lost (section 3.2).
        """
        ...  # pragma: no cover - protocol

    def record_written(self, log_index: int, paddr: int, nbytes: int) -> None:
        """A record was DMA'd for log ``log_index`` at ``paddr``."""
        ...  # pragma: no cover - protocol

    def record_lost(self, log_index: int) -> None:
        """A record for log ``log_index`` was absorbed by the default page."""
        ...  # pragma: no cover - protocol

    def log_segment_for(self, log_index: int) -> object | None:
        """Optional batching hook (looked up with ``getattr``).

        Returning a log-segment object authorises the logger to account
        appended records inline (``append_offset += 16``,
        ``records_appended += 1``) instead of calling
        :meth:`record_written` once per record; return None to keep the
        per-record callback.  Only NORMAL-mode logs whose accounting is
        exactly that pair of increments may be returned.  The logger
        keeps the answer until the handler is re-attached, or until
        :meth:`Logger.set_log_mode` or :meth:`Logger.unload_log` is
        called for that log.
        """
        ...  # pragma: no cover - protocol

    def overload(self, drain_complete_cycle: int) -> None:
        """The write FIFO crossed its threshold (overload interrupt)."""
        ...  # pragma: no cover - protocol


class LoggerStats:
    """Counters exposed for the evaluation benchmarks."""

    def __init__(self) -> None:
        self.records_logged = 0
        self.records_dropped = 0
        self.overload_events = 0
        self.logging_faults = 0
        self.pmt_fault_count = 0
        self.boundary_fault_count = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


#: A stretch of this many records or more is packed by one numpy pass; a
#: shorter one record by record (numpy's fixed cost per pass is about
#: what packing this many records one by one costs).
_NUMPY_RECORDS = 16


class Logger:
    """Bus-snooping hardware logger.

    Its timing model is written once, here, and the word path
    (:meth:`_drain_fast`), the generic per-record path (:meth:`_process`)
    and the bulk engine (``repro.core.bulk``) all call it:

    * service — :meth:`_backlog`: when queued writes complete;
    * routing — :meth:`_target`: which records may skip :meth:`_process`
      (:meth:`_fallback` takes the others there);
    * DMA — :meth:`_dma`: when each record's DMA holds the bus;
    * writing — :meth:`_write`, timestamped by :meth:`_stamped_at`;
    * overload — :meth:`_overload_raised` and :meth:`_overload_served`.
    """

    def __init__(
        self,
        config: MachineConfig,
        memory: PhysicalMemory,
        bus: SystemBus,
        clock: Clock,
    ) -> None:
        self.config = config
        self.memory = memory
        self.bus = bus
        self.clock = clock
        self.pmt = PageMappingTable(config.pmt_index_bits, config.pmt_tag_bits)
        self.log_table = LogTable(config.log_table_entries)
        self.write_fifo: HardwareFifo[BusWrite] = HardwareFifo(
            config.logger_fifo_capacity, config.logger_overload_threshold
        )
        self.stats = LoggerStats()
        self._service_free = 0
        self._modes: dict[int, LogMode] = {}
        #: direct-mapped mode: source physical page -> log dest page base
        self._direct_map: dict[int, int] = {}
        self._fault_handler: LoggingFaultHandler | None = None
        #: default page used to absorb records when a log has no next
        #: page available; records written here are lost (section 3.2).
        self._default_page_paddr: int | None = None
        #: logs currently absorbing into the default page
        self._absorbing: set[int] = set()
        #: ``(entries, ppn, paddrs, values, sizes)``: the FIFO entries the
        #: bulk engine (``repro.core.bulk``) last left queued, with their
        #: fields as arrays, so its next run need not decode them again;
        #: that run checks by identity that they are still the ones queued
        self.bulk_tail = None
        #: log_index -> the handler's ``log_segment_for`` answer (a
        #: LogSegment the drain may account inline, or None); dropped
        #: when the handler, or that log's mode or loading, changes
        self._sinks: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Kernel-facing configuration
    # ------------------------------------------------------------------
    def attach_fault_handler(self, handler: LoggingFaultHandler) -> None:
        """Register the kernel's logging-fault / overload handler."""
        self._fault_handler = handler
        self._sinks.clear()

    def set_default_page(self, paddr: int) -> None:
        """Set the kernel's default absorption page (section 3.2)."""
        self._default_page_paddr = paddr

    def set_log_mode(self, log_index: int, mode: LogMode) -> None:
        """Declare the logging mode for log-table slot ``log_index``."""
        self._modes[log_index] = mode
        self._sinks.pop(log_index, None)

    def load_direct_mapping(self, src_paddr: int, dest_page_base: int) -> None:
        """Map a source page to its direct-mapped log destination page."""
        self._direct_map[src_paddr // PAGE_SIZE] = dest_page_base

    def is_absorbing(self, log_index: int) -> bool:
        """True while records for this log are being lost to the default page."""
        return log_index in self._absorbing

    def resume_log(self, log_index: int, log_address: int) -> None:
        """Point a log back at real storage after default-page absorption.

        Called by the kernel when the user extends a log segment that
        had run out of pages ("the kernel then can efficiently resume
        the log writing", section 3.2).
        """
        self._absorbing.discard(log_index)
        self.log_table.load(log_index, log_address)

    def unload_log(self, log_index: int) -> int | None:
        """Unload a log from the logger tables (e.g. on context switch).

        Returns the log's current append address so the kernel can
        record the log segment's true length, or None if not loaded.
        """
        self._modes.pop(log_index, None)
        self._sinks.pop(log_index, None)
        self._absorbing.discard(log_index)
        self.pmt.invalidate_log(log_index)
        entry = self.log_table.unload(log_index)
        return entry.log_address if entry is not None else None

    # ------------------------------------------------------------------
    # Bus snooping (producer side)
    # ------------------------------------------------------------------
    def snoop_write(self, complete_cycle: int, write: BusWrite) -> None:
        """Observe a completed bus write (SystemBus snooper hook).

        Only writes whose page mapping asserted the bus "log" signal are
        latched (section 3.1).  The pipeline first services whatever
        completes by ``complete_cycle``: this is :meth:`drain`, inlined,
        as this runs once per logged store.
        """
        if write.log_tag is None:
            return
        p = probe._ACTIVE
        fifo = self.write_fifo
        entries = fifo._entries
        if entries:
            dones = self._backlog(
                entries[0][0], self._service_free, len(entries), complete_cycle
            )
            if dones:
                self._drain_fast(complete_cycle, dones)
                if p is not None and "logger.drain" in p:
                    p["logger.drain"](complete_cycle)
        result = fifo.push(complete_cycle, write)
        if p is not None and "logger.fifo_depth" in p:
            p["logger.fifo_depth"](complete_cycle, len(entries))
        if result is PushResult.THRESHOLD:
            self._handle_overload(complete_cycle)
        elif result is PushResult.OVERFLOW:
            # The entry was lost at hard capacity.  This is a dropped
            # record, not a fresh overload event — the overload interrupt
            # (and its suspend penalty) was already raised when occupancy
            # first crossed the threshold.
            self.stats.records_dropped += 1

    # ------------------------------------------------------------------
    # Pipeline (consumer side)
    # ------------------------------------------------------------------
    def drain(self, now: int) -> None:
        """Service every queued write whose processing completes by ``now``."""
        entries = self.write_fifo._entries
        if not entries:
            return
        dones = self._backlog(entries[0][0], self._service_free, len(entries), now)
        if not dones:
            return
        self._drain_fast(now, dones)
        p = probe._ACTIVE
        if p is not None and "logger.drain" in p:
            p["logger.drain"](now)

    def flush(self) -> int:
        """Service every queued write regardless of time.

        Returns the cycle at which the pipeline finished — the "FIFOs
        have drained" time used by the overload handler.
        """
        if self.write_fifo._entries:
            self._drain_fast(_NEVER)
            p = probe._ACTIVE
            if p is not None and "logger.drain" in p:
                p["logger.drain"](self._service_free)
        return self._service_free

    # ------------------------------------------------------------------
    # The timing model
    # ------------------------------------------------------------------
    def _drain_fast(self, limit: int, dones=None) -> None:
        """Service the queued writes whose service completes by ``limit``.

        ``dones`` are their completions, as :meth:`_backlog` gives them
        (asked here when not given).  A serviced write that
        :meth:`_target` lets skip the generic path opens a stretch, which
        the writes behind it to the same page join while they fit its
        log page; the stretch then takes the bus (:meth:`_dma`) and is
        written (:meth:`_write`) at once.  Any other write, and every
        write while an attached probe needs per-record events
        (``probe.per_record``: injection sites and trace spans live on
        the generic path), goes through :meth:`_process`, whose faults
        may delay the writes behind it: their completions are asked
        again.
        """
        entries = self.write_fifo._entries
        p = probe._ACTIVE
        generic = p is not None and p.per_record
        bus = self.bus
        while True:
            if dones is None:
                if not entries:
                    return
                dones = self._backlog(
                    entries[0][0], self._service_free, len(entries), limit
                )
            count = len(dones)
            i = 0
            while i < count:
                write = entries.popleft()[1]
                page = write.paddr >> _PAGE_SHIFT
                target = None if generic else self._target(page)
                if target is None:
                    self._fallback(write, dones[i], bus._busy_until)
                    break
                log_index, entry, sink, room = target
                writes = [write]
                j = i + 1
                end = i + room if i + room < count else count
                while j < end and entries[0][1].paddr >> _PAGE_SHIFT == page:
                    writes.append(entries.popleft()[1])
                    j += 1
                stretch = dones[i:j]
                self._dma(stretch, bus)
                paddrs, values, sizes, _, _ = zip(*writes)
                self._write(log_index, entry, sink, paddrs, values, sizes, stretch)
                self.pmt.lookup_count += j - i
                self._service_free = dones[j - 1]
                i = j
            else:
                return
            dones = None

    def _backlog(self, ready: int, free: int, count: int, limit: int):
        """Service completions of the next ``count`` queued writes, up to
        ``limit``.

        The pipeline is free from ``free``, and the first of the writes
        was queued at ``ready``: its service completes
        ``logger_service_cycles`` after the later of the two.  Each later
        one was queued before the one ahead of it completed (a push first
        drains what its own bus write reaches), so it completes one
        service time after that one.  Only those completing by ``limit``
        are served.
        """
        service = self.config.logger_service_cycles
        first = (ready if ready > free else free) + service
        if first > limit:
            return ()
        if not service:
            return [first] * count
        if first + (count - 1) * service > limit:
            count = (limit - first) // service + 1
        return range(first, first + count * service, service)

    def _target(self, ppn: int):
        """Where records for physical page ``ppn`` go when they skip
        :meth:`_process`, or None when they may not.

        They may when the PMT maps the page to a log, the log is NORMAL
        and not absorbing into the default page, and its log-table entry
        is valid.  Returns ``(log_index, entry, sink, room)``: the log,
        its log-table entry, its sink (:meth:`_sink`), and how many
        records fit in the entry's current log page.  The PMT lookup is
        not counted here: the fast paths count one per record written.
        """
        pmt = self.pmt
        slot = pmt._slots.get(ppn & pmt._index_mask)
        if slot is None or slot.tag != ppn >> pmt.index_bits:
            return None
        log_index = slot.log_index
        entry = self.log_table._entries.get(log_index)
        if (
            entry is None
            or not entry.valid
            or log_index in self._absorbing
            or self._modes.get(log_index, _NORMAL) is not _NORMAL
        ):
            return None
        sink = self._sinks.get(log_index, _UNSET)
        if sink is _UNSET:
            sink = self._sink(log_index)
        room = (PAGE_SIZE - (entry.log_address & _PAGE_MASK)) // LOG_RECORD_SIZE
        return log_index, entry, sink, room

    def _sink(self, log_index: int):
        """The handler's ``log_segment_for`` answer for ``log_index``
        (None without the hook), kept in ``_sinks``."""
        sinks = self._sinks
        sink = sinks.get(log_index, _UNSET)
        if sink is _UNSET:
            getlog = getattr(self._fault_handler, "log_segment_for", None)
            sink = sinks[log_index] = getlog(log_index) if getlog is not None else None
        return sink

    def _dma(self, dones, bus: SystemBus) -> tuple[int, int]:
        """The DMAs of records serviced at ``dones`` take ``bus``.

        Each record's DMA takes the bus at the later of its service
        completion and the end of the bus's earlier work — its cursor,
        then the DMA before it — and holds it ``log_dma_bus_cycles``;
        each counts as one transaction and its busy cycles.  Returns
        ``(end, held)``: the bus cursor after the last DMA and the
        cycles they held.  The bulk engine asks it how one record's DMA
        takes a bus that comes free as the record is done by applying it
        to a scratch bus.
        """
        hold = self.config.log_dma_bus_cycles
        busy = bus._busy_until
        for done in dones:
            busy = (done if done > busy else busy) + hold
        held = hold * len(dones)
        bus._busy_until = busy
        bus.total_busy_cycles += held
        bus.transaction_count += len(dones)
        return busy, held

    def _stamped_at(self, dones):
        """The cycles whose timestamps the records serviced at ``dones``
        carry: their service completions (for a faulted record, the
        fault handler's return, see :meth:`_process`)."""
        return dones

    def _write(self, log_index, entry, sink, paddrs, values, sizes, dones) -> None:
        """Write the records serviced at ``dones`` at ``entry``'s append point.

        ``paddrs``, ``values`` and ``sizes`` are the records' fields in
        service order, and the records all fit in the entry's current
        log page.  Each is :data:`RECORD_STRUCT`, 32-bit fields
        truncated, timestamped at the cycle :meth:`_stamped_at` names
        (``Clock.timestamp``'s floor).  The entry advances past them and
        turns invalid at the page end; the appends are accounted to
        ``sink`` or, record by record, to the handler's
        ``record_written``.  A stretch of ``_NUMPY_RECORDS`` or more is
        packed by one numpy pass, a shorter one record by record.
        """
        count = len(dones)
        dest = entry.log_address
        memory = self.memory
        data = (memory._frames.get(dest >> _PAGE_SHIFT) or memory.frame_of(dest)).data
        offset = dest & _PAGE_MASK
        divider = self.clock._timestamp_divider
        stamps = self._stamped_at(dones)
        if count < _NUMPY_RECORDS:
            pack_into = RECORD_STRUCT.pack_into
            for i in range(count):
                pack_into(
                    data,
                    offset,
                    paddrs[i] & 0xFFFFFFFF,
                    values[i] & 0xFFFFFFFF,
                    sizes[i],
                    0,
                    stamps[i] // divider & 0xFFFFFFFF,
                )
                offset += LOG_RECORD_SIZE
        else:
            # Storing 64-bit columns into the 32-bit fields truncates,
            # as the hardware does.
            records = np.zeros(count, RECORD_DTYPE)
            records["addr"] = np.asarray(paddrs, np.int64)
            records["value"] = np.asarray(values, np.int64)
            records["size"] = sizes
            records["ts"] = np.asarray(stamps, np.int64) // divider
            data[offset : offset + count * LOG_RECORD_SIZE] = records.tobytes()
        advanced = dest + count * LOG_RECORD_SIZE
        entry.log_address = advanced
        if not advanced & _PAGE_MASK:
            entry.valid = False
        self.stats.records_logged += count
        if sink is not None:
            sink.append_offset += advanced - dest
            sink.records_appended += count
        elif self._fault_handler is not None:
            written = self._fault_handler.record_written
            for paddr in range(dest, advanced, LOG_RECORD_SIZE):
                written(log_index, paddr, LOG_RECORD_SIZE)

    def _fallback(self, write: BusWrite, done: int, busy: int) -> tuple[int, int]:
        """Service ``write`` through :meth:`_process`, its service having
        completed at ``done`` with the bus busy until ``busy``; returns
        the pipeline's and the bus's cursors after it."""
        self._service_free = done
        bus = self.bus
        bus._busy_until = busy
        self._process(write, done)
        return self._service_free, bus._busy_until

    def _handle_overload(self, now: int) -> None:
        """FIFO crossed the threshold: interrupt and drain (section 3.1.3)."""
        self._overload_raised(now)
        self._drain_fast(_NEVER)
        self._overload_served(now)

    def _overload_raised(self, now: int) -> None:
        """The overload interrupt is raised at ``now``; the FIFO is
        flushed next."""
        probe.hit("logger.overload", cycle=now)
        self.stats.overload_events += 1

    def _overload_served(self, now: int) -> None:
        """The overload flush is done: report it, have the kernel
        suspend the processes that may log until it completed, and move
        the clock there."""
        drain_complete = self._service_free
        p = probe._ACTIVE
        if p is not None and "logger.drain" in p:
            p["logger.drain"](drain_complete)
        if p is not None and "logger.overload" in p:
            p["logger.overload"](now, drain_complete, 0)
        if self._fault_handler is not None:
            self._fault_handler.overload(max(now, drain_complete))
        self.clock.advance_to(drain_complete)

    def _dma_txn(self, cycle: int) -> int:
        """The generic paths' DMA of one record serviced at ``cycle``
        (:meth:`_dma`), reported as a ``bus.txn`` the way
        :meth:`SystemBus.acquire` reports one; returns its end."""
        end, held = self._dma((cycle,), self.bus)
        p = probe._ACTIVE
        if p is not None and "bus.txn" in p:
            p["bus.txn"](cycle, end - held, held)
        return end

    def _process(self, write: BusWrite, complete_cycle: int) -> None:
        """Run one write through PMT → log table → record FIFO → DMA.

        The generic path: it takes the logging faults, the default-page
        absorption and the special modes, and reports per-record
        events.  The DMA (:meth:`_dma_txn`) and the writing of a NORMAL
        record (:meth:`_write`) are the fast paths'.
        """
        handler = self._fault_handler
        p = probe._ACTIVE
        log_index = self.pmt.lookup(write.paddr)
        if log_index is None:
            # Logging fault: missing page-mapping-table entry.
            self.stats.logging_faults += 1
            self.stats.pmt_fault_count += 1
            if handler is None:
                self.stats.records_dropped += 1
                return
            log_index, cycles = handler.pmt_miss(write.paddr)
            self._service_free += cycles
            if p is not None and "logger.fault" in p:
                p["logger.fault"](complete_cycle, cycles, "logger.pmt_fault")
            # The record cannot proceed down the pipeline until the fault
            # service completes: its DMA and timestamp happen at the later
            # of the bus completion and the fault-handler return.
            if self._service_free > complete_cycle:
                complete_cycle = self._service_free
            if log_index is None:
                self.stats.records_dropped += 1
                return

        mode = self._modes.get(log_index, LogMode.NORMAL)
        if mode is LogMode.DIRECT_MAPPED:
            self._process_direct(write, log_index, complete_cycle)
            return

        if not self.log_table.is_ready(log_index):
            # Logging fault: log address crossed a page boundary.
            self.stats.logging_faults += 1
            self.stats.boundary_fault_count += 1
            new_addr = None
            if handler is not None:
                new_addr, cycles = handler.log_boundary(log_index)
                self._service_free += cycles
                if p is not None and "logger.fault" in p:
                    p["logger.fault"](
                        complete_cycle, cycles, "logger.boundary_fault"
                    )
                if self._service_free > complete_cycle:
                    complete_cycle = self._service_free
            if new_addr is None:
                # Absorb into the default page; records are lost until
                # the kernel supplies a real page (section 3.2).
                if self._default_page_paddr is None:
                    self.stats.records_dropped += 1
                    return
                self._absorbing.add(log_index)
                self.log_table.load(log_index, self._default_page_paddr)
            else:
                self._absorbing.discard(log_index)
                self.log_table.load(log_index, new_addr)

        entry = self.log_table.get(log_index)
        dest = entry.log_address
        lost = log_index in self._absorbing
        stamp = self.clock.timestamp(self._stamped_at((complete_cycle,))[0])
        # A crash here loses a record that was latched but not yet DMA'd.
        probe.hit("logger.dma", cycle=complete_cycle)
        dma_done = self._dma_txn(complete_cycle)
        if p is not None and "logger.dma" in p:
            # The record's own timestamp field.
            p["logger.dma"](complete_cycle, dma_done, dest, stamp)
        if mode is LogMode.NORMAL and not lost:
            self._write(
                log_index,
                entry,
                self._sink(log_index),
                (write.paddr,),
                (write.value,),
                (write.size,),
                (complete_cycle,),
            )
            return
        if mode is LogMode.NORMAL:
            payload = encode_record(write.paddr, write.value, write.size, stamp)
        else:  # INDEXED: a bare 4-byte value, no address or timestamp.
            payload = (write.value & 0xFFFFFFFF).to_bytes(INDEXED_ENTRY_SIZE, "little")
        self.memory.write_bytes(dest, payload)
        if lost:
            # Keep the default page reusable forever.
            self.log_table.load(log_index, self._default_page_paddr)
            self.stats.records_dropped += 1
            if handler is not None:
                handler.record_lost(log_index)
        else:
            self.log_table.advance(log_index, INDEXED_ENTRY_SIZE)
            self.stats.records_logged += 1
            if handler is not None:
                handler.record_written(log_index, dest, INDEXED_ENTRY_SIZE)

    def _process_direct(
        self, write: BusWrite, log_index: int, complete_cycle: int
    ) -> None:
        """Direct-mapped mode: mirror the value at the same page offset."""
        handler = self._fault_handler
        dest_base = self._direct_map.get(write.paddr // PAGE_SIZE)
        if dest_base is None:
            self.stats.records_dropped += 1
            return
        dest = dest_base + write.paddr % PAGE_SIZE
        self._dma_txn(complete_cycle)
        self.memory.write(dest, write.value, write.size)
        self.stats.records_logged += 1
        if handler is not None:
            handler.record_written(log_index, dest, write.size)
