"""Regression tests for hot-path timing bugs.

Each class pins a bug that existed in the original code:

* ``Logger._process`` charged fault-handler cycles to the pipeline but
  still DMA'd (and timestamped) the record at the pre-fault completion
  cycle — records appeared in memory *before* the fault that produced
  them had been serviced.
* ``HardwareFifo.push`` returned the same truthy signal for a threshold
  crossing and for a hard-capacity overflow, so the logger counted a
  dropped entry as a fresh overload event (double-counting the overload
  interrupt and mis-attributing the lost record).
* ``CPU.drain_write_buffer`` / ``reset_time`` interaction with the
  overload-suspension ``_resume_at``.

It also pins what ``Logger._drain_fast`` keeps across calls (its
bindings tuple and the per-log sink answers): a fault handler, PMT
entry, log mode or loaded log changed between two stores must be seen
by the very next drain.
"""

from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.bus import BusWrite, SystemBus
from repro.hw.clock import Clock
from repro.hw.cpu import CPU
from repro.hw.fifo import HardwareFifo, PushResult
from repro.hw.logger import LogMode, Logger
from repro.hw.memory import PhysicalMemory
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig
from repro.hw.records import decode_record


class ScriptedHandler:
    """Minimal fault handler with fixed 800-cycle service times."""

    def __init__(self, memory, logger):
        self.frames = [memory.allocate_frame() for _ in range(4)]
        self.next_page = 0
        self.pmt_map = {}
        self.logger = logger
        self.written = []
        self.lost = 0
        self.overloads = []

    def pmt_miss(self, paddr):
        idx = self.pmt_map.get(paddr // PAGE_SIZE)
        if idx is not None:
            self.logger.pmt.load(paddr, idx)
        return idx, 800

    def log_boundary(self, log_index):
        if self.next_page >= len(self.frames):
            return None, 800
        addr = self.frames[self.next_page].base_addr
        self.next_page += 1
        return addr, 800

    def record_written(self, log_index, paddr, nbytes):
        self.written.append((log_index, paddr, nbytes))

    def record_lost(self, log_index):
        self.lost += 1

    def overload(self, drain_cycle):
        self.overloads.append(drain_cycle)


def make_logger(**config_overrides):
    config = MachineConfig(memory_bytes=4 * 1024 * 1024, **config_overrides)
    memory = PhysicalMemory(config.num_frames)
    logger = Logger(config, memory, SystemBus(), Clock())
    handler = ScriptedHandler(memory, logger)
    logger.attach_fault_handler(handler)
    default = memory.allocate_frame()
    logger.set_default_page(default.base_addr)
    return logger, handler, memory


class TestLoggerFaultTiming:
    """A record delayed by a logging fault is DMA'd after the fault."""

    def test_pmt_miss_delays_record_dma_and_timestamp(self):
        logger, handler, memory = make_logger()
        frame = memory.allocate_frame()
        handler.pmt_map[frame.base_addr // PAGE_SIZE] = 1
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        # PMT not preloaded: the record faults inside the pipeline.
        # Service of the record starts at 100 and completes at 128; the
        # 800-cycle pmt_miss handler returns at 928.  The DMA and the
        # record's timestamp must happen at 928, not 128.
        logger.snoop_write(100, BusWrite(frame.base_addr, 0xABCD, 4, 1, 0))
        logger.flush()

        assert logger._service_free == 928
        assert logger.bus.busy_until == 928 + logger.config.log_dma_bus_cycles
        record = decode_record(memory.read_bytes(log_base, LOG_RECORD_SIZE))
        assert record.timestamp == 928 // logger.clock._timestamp_divider
        assert logger.stats.pmt_fault_count == 1

    def test_boundary_fault_delays_record_dma_and_timestamp(self):
        logger, handler, memory = make_logger()
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        # No log-table entry: the first record takes a boundary fault,
        # serviced in 800 cycles; its DMA and timestamp land at 928.
        logger.snoop_write(100, BusWrite(frame.base_addr, 0x1111, 4, 1, 0))
        logger.flush()

        assert logger._service_free == 928
        assert logger.bus.busy_until == 928 + logger.config.log_dma_bus_cycles
        log_base = handler.frames[0].base_addr
        record = decode_record(memory.read_bytes(log_base, LOG_RECORD_SIZE))
        assert record.timestamp == 928 // logger.clock._timestamp_divider
        assert logger.stats.boundary_fault_count == 1

    def test_unfaulted_record_timing_unchanged(self):
        logger, handler, memory = make_logger()
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        logger.snoop_write(100, BusWrite(frame.base_addr, 0x2222, 4, 1, 0))
        logger.flush()

        assert logger._service_free == 128
        record = decode_record(memory.read_bytes(log_base, LOG_RECORD_SIZE))
        assert record.timestamp == 128 // logger.clock._timestamp_divider


class TestFifoOverflowAccounting:
    """Overflow drops the entry; it is not a fresh overload event."""

    def test_overflow_is_not_an_overload(self):
        logger, handler, memory = make_logger(
            logger_fifo_capacity=4, logger_overload_threshold=4
        )
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        # Five writes land on the bus at cycle 0; none can be serviced
        # yet, so the fifth hits hard capacity and is lost.
        for _ in range(5):
            logger.snoop_write(0, BusWrite(frame.base_addr, 1, 4, 1, 0))

        assert logger.write_fifo.occupancy == 4
        assert logger.write_fifo.overflow_count == 1
        assert logger.stats.records_dropped == 1
        assert logger.stats.overload_events == 0
        assert handler.overloads == []

    def test_threshold_crossing_still_raises_overload(self):
        logger, handler, memory = make_logger(
            logger_fifo_capacity=16, logger_overload_threshold=2
        )
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        for _ in range(3):
            logger.snoop_write(0, BusWrite(frame.base_addr, 1, 4, 1, 0))

        assert logger.stats.overload_events == 1
        assert len(handler.overloads) == 1
        assert logger.stats.records_dropped == 0
        assert logger.write_fifo.occupancy == 0  # the overload flushed

    def test_push_results_distinguishable(self):
        fifo = HardwareFifo(capacity=3, threshold=2)
        assert fifo.push(0, "a") is PushResult.OK
        assert fifo.push(0, "b") is PushResult.OK
        assert fifo.push(0, "c") is PushResult.THRESHOLD
        assert fifo.push(0, "d") is PushResult.OVERFLOW
        assert len(fifo) == 3


class TestCpuTimeControl:
    """reset_time / drain_write_buffer vs the suspension mechanism."""

    def make_cpu(self):
        config = MachineConfig(memory_bytes=4 * 1024 * 1024)
        return CPU(0, config, SystemBus(), Clock())

    def test_drain_is_a_fence_not_a_schedule_point(self):
        cpu = self.make_cpu()
        cpu.write_through(0x40, 1, 4, log_tag=None)  # completes at cycle 9
        cpu.suspend_until(50)
        cpu.drain_write_buffer()
        # The fence waits for the bus copy, not for the suspension.
        assert cpu._now == 9
        assert not cpu._write_buffer
        assert cpu.stats.suspend_cycles == 0
        # Observing time applies the pending suspension.
        assert cpu.now == 50
        assert cpu.stats.suspend_cycles == 41

    def test_reset_time_clears_pending_suspension(self):
        cpu = self.make_cpu()
        cpu.write_through(0x40, 1, 4, log_tag=None)
        cpu.suspend_until(500)
        cpu.reset_time()
        assert cpu._now == 0
        assert cpu._resume_at == 0
        cpu.compute(10)
        assert cpu.now == 10  # no leftover suspension charge
        assert cpu.stats.suspend_cycles == 0

    def test_reset_time_drains_buffer_first(self):
        cpu = self.make_cpu()
        complete = cpu.write_through(0x40, 1, 4, log_tag=None)
        cpu.reset_time()
        assert not cpu._write_buffer
        # The global clock saw the drain before local time was zeroed.
        assert cpu.clock.now >= complete
        assert cpu.now == 0


class SinkHandler(ScriptedHandler):
    """A handler that lets the logger account records inline."""

    class Sink:
        append_offset = 0
        records_appended = 0

    def __init__(self, memory, logger):
        super().__init__(memory, logger)
        self.sink = self.Sink()

    def log_segment_for(self, log_index):
        return self.sink


def _ready_logger(handler_cls=ScriptedHandler):
    """A logger whose log 1 serves one data frame; returns the pieces."""
    config = MachineConfig(memory_bytes=4 * 1024 * 1024)
    memory = PhysicalMemory(config.num_frames)
    logger = Logger(config, memory, SystemBus(), Clock())
    handler = handler_cls(memory, logger)
    logger.attach_fault_handler(handler)
    frame = memory.allocate_frame()
    logger.pmt.load(frame.base_addr, 1)
    logger.log_table.load(1, handler.frames[0].base_addr)
    handler.next_page = 1
    return logger, handler, memory, frame


def _store(logger, frame, cycle, value=7):
    """One logged store at ``cycle``, drained right away."""
    logger.snoop_write(cycle, BusWrite(frame.base_addr, value, 4, 1, 0))
    logger.drain(cycle + 10 * logger.config.logger_service_cycles)


class TestDrainSeesRebinding:
    """State changed between two stores reaches the next drain."""

    def test_reattached_handler_gets_the_next_record(self):
        logger, first, memory, frame = _ready_logger()
        _store(logger, frame, 0)
        second = ScriptedHandler(memory, logger)
        logger.attach_fault_handler(second)
        _store(logger, frame, 1000)
        assert len(first.written) == 1
        assert len(second.written) == 1

    def test_reattached_handler_drops_the_cached_sink(self):
        logger, first, memory, frame = _ready_logger(SinkHandler)
        _store(logger, frame, 0)
        assert first.sink.records_appended == 1
        second = ScriptedHandler(memory, logger)
        logger.attach_fault_handler(second)
        _store(logger, frame, 1000)
        assert first.sink.records_appended == 1
        dest = first.frames[0].base_addr + LOG_RECORD_SIZE
        assert second.written == [(1, dest, LOG_RECORD_SIZE)]

    def test_invalidated_pmt_entry_faults_on_the_next_store(self):
        logger, handler, memory, frame = _ready_logger()
        _store(logger, frame, 0)
        logger.pmt.invalidate(frame.base_addr)
        _store(logger, frame, 1000)
        assert logger.stats.pmt_fault_count == 1
        assert logger.stats.records_dropped == 1  # the handler maps no log
        assert len(handler.written) == 1

    def test_reloaded_pmt_entry_redirects_the_next_store(self):
        logger, handler, memory, frame = _ready_logger()
        other_log = handler.frames[2].base_addr
        logger.log_table.load(2, other_log)
        _store(logger, frame, 0, value=0x11)
        logger.pmt.load(frame.base_addr, 2)
        _store(logger, frame, 1000, value=0x22)
        assert [w[0] for w in handler.written] == [1, 2]
        record = decode_record(memory.read_bytes(other_log, LOG_RECORD_SIZE))
        assert record.value == 0x22

    def test_log_mode_and_unload_drop_the_cached_sink(self):
        logger, handler, memory, frame = _ready_logger(SinkHandler)
        _store(logger, frame, 0)
        sink, handler.sink = handler.sink, None
        logger.set_log_mode(1, LogMode.NORMAL)
        _store(logger, frame, 1000)
        assert sink.records_appended == 1
        assert len(handler.written) == 1

        handler.sink = sink
        logger.unload_log(1)
        logger.set_log_mode(1, LogMode.NORMAL)
        logger.pmt.load(frame.base_addr, 1)
        logger.log_table.load(1, handler.frames[2].base_addr)
        _store(logger, frame, 2000)
        assert sink.records_appended == 2
        assert len(handler.written) == 1


def test_relogged_region_accounts_to_its_new_log(machine, proc):
    """Kernel level: unlog a region and log it to another segment;
    records now land in the new log segment."""
    region = StdRegion(StdSegment(PAGE_SIZE, machine=machine))
    first = LogSegment(size=4 * PAGE_SIZE, machine=machine)
    region.log(first)
    va = region.bind(proc.address_space())
    proc.write(va, 1)
    machine.quiesce()
    region.unlog()
    second = LogSegment(size=4 * PAGE_SIZE, machine=machine)
    region.log(second)
    proc.write(va + 4, 2)
    proc.write(va + 8, 3)
    machine.quiesce()
    assert first.records_appended == 1
    assert [r.value for r in second.records()] == [2, 3]
