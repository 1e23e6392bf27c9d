"""The bulk-access engine: page-run timed memory access.

Driving the simulator word-at-a-time through ``AddressSpace.write`` →
``CPU.write_through`` → ``Logger.snoop_write`` costs a dozen Python
calls per simulated store, and every headline experiment issues millions
of them.  This module provides :func:`write_block` / :func:`read_block`,
which process a whole page-run in one call while producing
*bit-identical* state: cycles, counters, FIFO contents and log records
equal the word loop's (``tests/core/test_bulk_engine.py`` asserts this
on randomized and edge-case workloads).  The word path is the reference.

Cached (unlogged) stores and loads tag-check the L1 once per cache line
(:func:`_l1_run`) and advance the CPU clock once per run.

A logged page-run on the prototype bus logger is charged one *event* at
a time, not one word at a time (:func:`_write_run_bus_logged`).  With a
depth-1 write buffer every store waits for the previous one's bus write,
so between events a word costs the bus write plus its L1 charge (hit or
line fill): word completion times are a prefix sum, and the next event
is found by bisection.  The events are

* a record's logger service completing — the word whose bus write
  reaches it drains the FIFO, and the next word waits for the ``k``
  record DMAs (``bus + max(l1, dma·k)``);
* the FIFO rising above the overload threshold — a backlogged logger
  completes one record per service time, so the overload flush is
  arithmetic too;
* a log-page boundary, or any record the inline path does not model
  (PMT miss, invalid log-table entry, absorbing log, special mode),
  which goes through ``Logger._process`` with the shared state
  synchronised;
* the end of the run.

When the logger is slower than any store (the prototype's 28-cycle
service against a 6- to 13-cycle store), every drain takes exactly one
record, so the drains are found one bisection each without leaving the
prefix sum; otherwise (a faster logger, a FIFO that can overflow) each
drain is a general event step.  With a deeper write buffer a store need
not wait for the previous one, and every access is stepped on its own.
All of it is one function.  Serviced records are packed one log page at
a time by one numpy pass (:func:`_emit_records`).

The word-at-a-time path is taken instead when an attached probe needs
per-record events (``probe.per_record``), with a modeled L2, with extra
bus snoopers, and for the on-chip logger; page faults and protection
traps are taken by the generic code at the run's first word, exactly
where the word loop takes them.

The engine never changes what is simulated, only how fast the
simulation runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from repro import probe
from repro.errors import ProtectionError
from repro.hw.bus import BusWrite
from repro.hw.logger import LogMode
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import CPU
    from repro.hw.machine import Machine
    from repro.core.address_space import AddressSpace

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
#: "No event": later than any cycle a run can reach.
_NEVER = 1 << 62

#: The 16-byte record layout of :data:`repro.hw.records.RECORD_STRUCT`
#: (addr, value, size, flags, timestamp) as a numpy record.
_RECORD_DTYPE = np.dtype(
    [("addr", "<u4"), ("value", "<u4"), ("size", "<u2"), ("flags", "<u2"), ("ts", "<u4")]
)


def access_steps(vaddr: int, length: int) -> list[tuple[int, int]]:
    """The word-at-a-time access plan for ``length`` bytes at ``vaddr``.

    Returns ``(offset, size)`` pairs covering the range with the widest
    naturally-aligned access at each position: 4 bytes when the address
    is word aligned and at least 4 bytes remain, else 2 bytes when
    halfword aligned with at least 2 remaining, else 1 byte.  This is
    the single definition of the stepping used by both the slow
    ``write_bytes``/``read_bytes`` loops and the bulk engine, so the two
    paths always agree on the per-word charges.
    """
    steps = []
    pos = 0
    while pos < length:
        addr = vaddr + pos
        remaining = length - pos
        if not addr & 3 and remaining >= 4:
            size = 4
        elif not addr & 1 and remaining >= 2:
            size = 2
        else:
            size = 1
        steps.append((pos, size))
        pos += size
    return steps


def _access_arrays(va: int, chunk: bytes, paddr_base: int):
    """Per-access ``(paddr, size, value)`` numpy arrays of a page-run."""
    n = len(chunk)
    if not (va | n) & 3:
        count = n >> 2
        paddrs = np.arange(paddr_base, paddr_base + n, 4, dtype=np.int64)
        return paddrs, np.full(count, 4, np.int64), np.frombuffer(chunk, "<u4").astype(np.int64)
    steps = access_steps(va, n)
    offsets = np.array([off for off, _ in steps], np.int64)
    sizes = np.array([size for _, size in steps], np.int64)
    values = np.array(
        [int.from_bytes(chunk[off : off + size], "little") for off, size in steps],
        np.int64,
    )
    return paddr_base + offsets, sizes, values


def _l1_run(l1, paddr: int, nbytes: int, accesses: int) -> list[int]:
    """Charge the L1 tags for ``accesses`` in-order accesses covering
    ``[paddr, paddr + nbytes)``; returns the line numbers that missed.

    The accesses ascend, so each line is tag-checked once, by its first
    access, and every later access to it hits.
    """
    tags = l1._tags
    get = tags.get
    num_lines = l1.num_lines
    line_size = l1.line_size
    last = (paddr + nbytes - 1) // line_size
    missed = []
    # Lines less than a cache apart have distinct indices, so each such
    # stretch is checked against the tags before it.
    for base in range(paddr // line_size, last + 1, num_lines):
        lines = range(base, min(base + num_lines, last + 1))
        miss = [line for line in lines if get(line % num_lines) != line]
        for line in miss:
            tags[line % num_lines] = line
        missed += miss
    l1.hits += accesses - len(missed)
    l1.misses += len(missed)
    return missed


def write_block(aspace: "AddressSpace", cpu: "CPU", vaddr: int, data: bytes) -> None:
    """Timed store of ``data`` at ``vaddr``, one call per page-run."""
    if not isinstance(data, bytes):
        data = bytes(data)
    machine = aspace.machine
    total = len(data)
    pos = 0
    while pos < total:
        va = vaddr + pos
        run = PAGE_SIZE - (va & _PAGE_MASK)
        if run > total - pos:
            run = total - pos
        _write_run(aspace, cpu, machine, va, data[pos : pos + run])
        pos += run


def read_block(aspace: "AddressSpace", cpu: "CPU", vaddr: int, length: int) -> bytes:
    """Timed load of ``length`` bytes at ``vaddr``, one call per page-run."""
    out = []
    pos = 0
    while pos < length:
        va = vaddr + pos
        run = PAGE_SIZE - (va & _PAGE_MASK)
        if run > length - pos:
            run = length - pos
        out.append(_read_run(aspace, cpu, va, run))
        pos += run
    return b"".join(out)


# ----------------------------------------------------------------------
# Per-page-run paths
# ----------------------------------------------------------------------
def _write_run(
    aspace: "AddressSpace", cpu: "CPU", machine: "Machine", va: int, chunk: bytes
) -> None:
    vpn = va >> _PAGE_SHIFT
    pte = aspace._tc.get(vpn)
    if pte is None or pte.write_protected:
        # Same sequence (and charges) as the first word of the slow
        # loop: resolve (possibly faulting the page in), then take the
        # protection trap if the page is write-protected.
        pte = aspace._resolve(cpu, va, 1)
        if pte.write_protected:
            machine.kernel.protection_fault(cpu, aspace, va, pte)
            if pte.write_protected:
                raise ProtectionError(
                    f"store to write-protected page at {va:#x}"
                )
        aspace._tc[vpn] = pte
    in_page = va & _PAGE_MASK
    seg_offset = pte.page_index * PAGE_SIZE + in_page
    paddr_base = pte.base_paddr + in_page
    segment = pte.region.segment
    if pte.logged:
        if machine.on_chip_logger is not None:
            _write_run_onchip(cpu, machine, pte, segment, va, chunk, seg_offset, paddr_base)
        elif _write_run_bus_logged(
            cpu, machine, pte, segment, chunk, va, seg_offset, paddr_base
        ):
            p = probe._ACTIVE
            if p is not None and "bulk.run" in p:
                p["bulk.run"](True)
        else:
            # Unusual configuration (modeled L2, extra snoopers) or an
            # attached fault plan / tracer: use the word-at-a-time
            # path, which is always exact.
            p = probe._ACTIVE
            if p is not None and "bulk.run" in p:
                p["bulk.run"](False)
            for off, size in access_steps(va, len(chunk)):
                value = int.from_bytes(chunk[off : off + size], "little")
                aspace.write(cpu, va + off, value, size)
    else:
        segment.write_bytes(seg_offset, chunk)
        _cached_run(cpu, va, len(chunk), paddr_base, store=True)


def _read_run(aspace: "AddressSpace", cpu: "CPU", va: int, run: int) -> bytes:
    vpn = va >> _PAGE_SHIFT
    pte = aspace._tc.get(vpn)
    if pte is None:
        pte = aspace._resolve(cpu, va, 1)
        aspace._tc[vpn] = pte
    in_page = va & _PAGE_MASK
    seg_offset = pte.page_index * PAGE_SIZE + in_page
    data = pte.region.segment.read_bytes(seg_offset, run)
    _cached_run(cpu, va, run, pte.base_paddr + in_page, store=False)
    return data


def _cached_run(cpu, va: int, n: int, paddr_base: int, store: bool) -> None:
    """Timing of ordinary cached stores (``store``) or loads: the
    ``CPU.cached_write``/``cached_read`` charges of every access."""
    if cpu.l2 is not None:
        access = cpu.cached_write if store else cpu.cached_read
        for off, _size in access_steps(va, n):
            access(paddr_base + off)
        return
    # Suspension is applied once up front: nothing in this run can move
    # _resume_at, so per-step application (what _advance does) degenerates
    # to this single catch-up.
    if cpu._resume_at > cpu._now:
        cpu.stats.suspend_cycles += cpu._resume_at - cpu._now
        cpu._now = cpu._resume_at
    config = cpu.config
    count = n >> 2 if not (va | n) & 3 else len(access_steps(va, n))
    misses = len(_l1_run(cpu.l1, paddr_base, n, count))
    hit = config.cached_write_cycles if store else config.l1_hit_cycles
    cpu._now += count * hit + misses * (config.l2_hit_cycles - hit)
    if store:
        cpu.stats.stores += count
    else:
        cpu.stats.loads += count
    cpu.clock.advance_to(cpu._now)


def _write_run_onchip(cpu, machine, pte, segment, va, chunk, seg_offset, paddr_base):
    """On-chip logger (section 4.6): hoist the functional access, keep
    the per-word timing calls (cache + record emission) in order."""
    steps = access_steps(va, len(chunk))
    on_chip = machine.on_chip_logger
    log = pte.region.log_segment
    extended = log is not None and log.extended_records
    old_values = None
    if extended:
        # The steps never overlap, so reading every pre-write value
        # before the single functional write matches reading each one
        # immediately before its word's write.
        old_values = [segment.read(seg_offset + off, size) for off, size in steps]
    segment.write_bytes(seg_offset, chunk)
    log_index = pte.log_index
    for i, (off, size) in enumerate(steps):
        value = int.from_bytes(chunk[off : off + size], "little")
        cpu.cached_write(paddr_base + off)
        on_chip.logged_write(
            cpu,
            log_index,
            va + off,
            value,
            size,
            old_values[i] if extended else 0,
        )


def _write_run_bus_logged(
    cpu, machine, pte, segment, chunk, va, seg_offset, paddr_base
):
    """Prototype bus logger: the page-run charged event by event.

    Produces the state of the word loop (``CPU.write_through`` →
    ``SystemBus.write_transaction`` → ``Logger.snoop_write``, with the
    logger's NORMAL-mode record processing and the overload interrupt's
    FIFO flush) without stepping it per word; see the module docstring
    for the events.  During the run the FIFO is held as a queue of
    *items*: the ``(ready, BusWrite)`` entries queued before the run
    (``pre``), then this run's accesses (item ``npre + j`` is access
    ``j``).  Entries still queued when the run ends are put back as
    ``(ready, BusWrite)`` pairs.

    Returns False (without touching any state) when the configuration
    has features this path does not model — the caller then uses the
    word-at-a-time path.
    """
    logger = machine.logger
    bus = cpu.bus
    snoopers = bus._snoopers
    if cpu.l2 is not None or len(snoopers) != 1 or snoopers[0] is not logger:
        return False
    p = probe._ACTIVE
    if p is not None and p.per_record:
        # This path bypasses the evented bus/FIFO/logger paths; fault
        # plans need every record to visit the injection sites, and a
        # tracer needs the per-word spans there (the generic path is
        # cycle-identical).
        return False
    if p is not None and "logged.run" in p:
        # SystemBus.write_transaction is never called here, so report
        # the whole run as one logged write (same page span, same
        # writer) before taking it.
        p["logged.run"](cpu.index, paddr_base, len(chunk), cpu._now)

    segment.write_bytes(seg_offset, chunk)

    config = cpu.config
    clock = cpu.clock
    stats = cpu.stats
    bus_write = config.write_through_bus_cycles
    depth = config.write_buffer_depth
    buf = cpu._write_buffer
    log_tag = pte.log_index
    cpu_index = cpu.index

    fifo = logger.write_fifo
    entries = fifo._entries
    capacity = fifo.capacity
    threshold = fifo.threshold
    service = config.logger_service_cycles
    dma = config.log_dma_bus_cycles
    logger_stats = logger.stats
    pmt = logger.pmt
    slots = pmt._slots
    index_mask = pmt._index_mask
    index_bits = pmt.index_bits
    lt_entries = logger.log_table._entries
    modes = logger._modes
    absorbing = logger._absorbing
    handler = logger._fault_handler
    frames = machine.memory._frames
    normal = LogMode.NORMAL
    record_size = LOG_RECORD_SIZE

    # CPU side: step[j] = bus write + L1 charge of access j, and
    # Q[j + 1] = step[0] + ... + step[j].
    paddrs, sizes, values = _access_arrays(va, chunk, paddr_base)
    n = len(paddrs)
    hit = config.cached_write_cycles
    step = np.full(n, bus_write + hit, np.int64)
    missed = _l1_run(cpu.l1, paddr_base, len(chunk), n)
    if missed:
        first_access = np.searchsorted(paddrs, np.array(missed) * cpu.l1.line_size)
        step[first_access] = bus_write + config.l2_hit_cycles
    Qa = np.zeros(n + 1, np.int64)
    np.cumsum(step, out=Qa[1:])
    Q = Qa.tolist()
    # A drain's DMA delays the next access by extra[j] over its step.
    extra = np.maximum(dma - (step - bus_write), 0).tolist()
    extra.append(0)
    # Drains service one record each and never overflow the FIFO.
    steady = (
        service > bus_write + max(hit, config.l2_hit_cycles, dma)
        and threshold < capacity
    )
    run_ppn = paddr_base >> _PAGE_SHIFT

    # Logger side: the queue of FIFO items, its head position and
    # length, and the service completion of its head.
    free = logger._service_free
    pre = list(entries)
    entries.clear()
    npre = len(pre)
    queue = list(range(npre))
    head = 0
    occ = npre
    pre_ppn = pre_run_end = ()
    it_paddr, it_value, it_size = paddrs, values, sizes
    head_done = _NEVER
    if pre:
        carried = logger.bulk_tail
        if (
            carried is not None
            and npre <= len(carried[0])
            and pre[0] is carried[0][-npre]
            and pre[-1] is carried[0][-1]
        ):
            # The tail an earlier run left queued, less what was since
            # serviced: its fields are at hand.
            tail, ppn, c_paddr, c_value, c_size = carried
            k = len(tail) - npre
            pre_ppn = [ppn] * npre
            pre_run_end = [npre] * npre
            pre_paddr, pre_value, pre_size = c_paddr[k:], c_value[k:], c_size[k:]
        else:
            pre_paddr, pre_value, pre_size, _, _ = zip(*(write for _, write in pre))
            pre_ppn = [paddr >> _PAGE_SHIFT for paddr in pre_paddr]
            # pre_run_end[pos]: where the items of pre_ppn[pos]'s page end
            pre_run_end = [npre] * npre
            for pos in range(npre - 2, -1, -1):
                pre_run_end[pos] = (
                    pos + 1 if pre_ppn[pos + 1] != pre_ppn[pos] else pre_run_end[pos + 1]
                )
            pre_value = [value & 0xFFFFFFFF for value in pre_value]
        it_paddr = np.concatenate((pre_paddr, paddrs))
        it_value = np.concatenate((pre_value, values))
        it_size = np.concatenate((pre_size, sizes))
        ready = pre[0][0]
        head_done = (ready if ready > free else free) + service
    # Records serviced inline but not yet written (``dones``: their
    # service completions; they are the items just before ``head``),
    # and the log they go to: ``room`` more records fit in its page,
    # and the PMT maps every page in ``verified`` to it.
    dones: list[int] = []
    verified: set[int] = set()
    tgt_log = -1
    entry = sink = frame_data = None
    room = 0
    # Word completion of access j is offs[s] + Q[j + 1] for the last
    # stretch start starts[s] <= j.
    starts: list[int] = []
    offs: list[int] = []

    now = cpu._now
    resume_at = cpu._resume_at
    busy = bus._busy_until
    high_water = fifo.high_water_mark
    suspend_cycles = stalls = bus_busy = transactions = 0
    complete = now
    i = 0
    while i < n:
        # --- access i, generically: CPU.write_through's front half and
        # the bus write.
        if resume_at > now:
            suspend_cycles += resume_at - now
            now = resume_at
        while buf and buf[0] <= now:
            buf.popleft()
        if len(buf) >= depth:
            stalls += 1
            now = buf.popleft()
        now += Q[i + 1] - Q[i] - bus_write
        complete = (now if now > busy else busy) + bus_write
        busy = complete
        bus_busy += bus_write
        transactions += 1
        starts.append(i)
        offs.append(complete - Q[i + 1])
        e = i
        if (
            depth == 1
            and complete < head_done
            and i < n - 1
            and not threshold <= occ < capacity
        ):
            # No drain and no overload at access i: glide to the next
            # access e that drains, overloads, or ends the run.  Accesses
            # i..e-1 only queue their records.  (Deeper write buffers
            # take each access as its own event.)
            if not occ:
                head_done = (complete if complete > free else free) + service
            # The access whose record would rise above the threshold.
            overload_at = i + threshold - occ if threshold < capacity else n
            # Each access waits for the previous bus write, so the
            # completions are a prefix sum, offset by access i's.  When
            # the logger is steady a drain takes exactly one record,
            # whose DMA delays the next access by extra[]; the drains of
            # the queued items, from the head on, that go to the current
            # log page (``allowed``) are taken here, one bisection each.
            allowed = 0
            if steady and occ:
                pos = head
                while pos < npre and pre_ppn[pos] in verified:
                    pos = pre_run_end[pos]
                allowed = pos - head
                if pos >= npre and run_ppn in verified or allowed > room:
                    allowed = room
            off = complete - Q[i + 1]
            first_done = head_done
            drains = 0
            lo = i + 2
            # Drains found at k - 1 < hi - 1 are neither the run's
            # last access nor past the overload, which each drain
            # delays by an access (it does not change occupancy).
            hi = overload_at + 2 if overload_at + 2 < n else n
            while drains < allowed:
                k = bisect_left(Q, head_done - off, lo, hi)
                if k == hi:
                    break
                off += extra[k]
                drains += 1
                head_done += service
                lo = k + 1
                if hi < n:
                    hi += 1
                starts.append(k)
                offs.append(off)
            else:
                k = bisect_left(Q, head_done - off, lo)
            e = k - 1
            # Drains do not change occupancy, so each one delays
            # the overload by an access.
            if e > overload_at + drains:
                e = overload_at + drains
            if e > n - 1:
                e = n - 1
            complete = off + Q[e + 1]
            now = complete - bus_write
            if drains and e == lo - 1:
                now -= extra[e]
            stalls += e - i
            bus_busy += bus_write * (e - i) + dma * drains
            transactions += e - i + drains
            busy = complete
            if drains:
                dones.extend(range(first_done, head_done, service))
                free = head_done - service
                head += drains
                occ -= drains
                room -= drains
            pushed = e - i
            if pushed > capacity - occ:
                pushed = capacity - occ if capacity > occ else 0
                dropped = e - i - pushed
                fifo.overflow_count += dropped
                logger_stats.records_dropped += dropped
            queue.extend(range(npre + i, npre + i + pushed))
            occ += pushed
            if occ > high_water:
                high_water = occ

        # --- access e: Logger.snoop_write (drain, push, overload flush)
        limit = complete
        overloaded = False
        while True:
            while occ and head_done <= limit:
                item = queue[head]
                if item < npre:
                    write = pre[item][1]
                    ppn = pre_ppn[item]
                else:
                    write = None
                    ppn = run_ppn
                if ppn not in verified:
                    slot = slots.get(ppn & index_mask)
                    log_index = -1
                    if slot is not None and slot.tag == ppn >> index_bits:
                        log_index = slot.log_index
                    if log_index != tgt_log:
                        if dones:
                            _emit_records(logger, tgt_log, entry, frame_data, sink,
                                          queue[head - len(dones) : head], dones,
                                          it_paddr, it_value, it_size)
                            dones = []
                        tgt_log = log_index
                        verified.clear()
                        room = 0
                        entry = lt_entries.get(log_index)
                        if (
                            entry is not None
                            and entry.valid
                            and log_index not in absorbing
                            and modes.get(log_index, normal) is normal
                        ):
                            dest = entry.log_address
                            frame = frames.get(dest >> _PAGE_SHIFT)
                            if frame is not None and not dest % record_size:
                                frame_data = frame.data
                                room = (PAGE_SIZE - (dest & _PAGE_MASK)) // record_size
                                getlog = getattr(handler, "log_segment_for", None)
                                sink = getlog(log_index) if getlog is not None else None
                    verified.add(ppn)
                if room:
                    # Inline service of k records: a backlogged logger
                    # completes one per service time, and each record's
                    # DMA follows the bus's earlier work.
                    if write is None:
                        k = occ if occ < room else room
                    else:
                        k = pre_run_end[item] - item
                        if k > room:
                            k = room
                    if service and (limit - head_done) // service < k:
                        k = (limit - head_done) // service + 1
                    last_done = head_done + (k - 1) * service
                    dones.extend(
                        range(head_done, last_done + 1, service)
                        if service
                        else repeat(head_done, k)
                    )
                    dma_end = head_done + k * dma
                    if service > dma:
                        dma_end += (k - 1) * (service - dma)
                    busy += k * dma
                    if dma_end > busy:
                        busy = dma_end
                    bus_busy += k * dma
                    transactions += k
                    free = last_done
                    head += k
                    occ -= k
                    room -= k
                else:
                    # PMT miss, log-page boundary, absorbing log, or
                    # special mode: the generic path, with the shared
                    # state synchronised.
                    if dones:
                        _emit_records(logger, tgt_log, entry, frame_data, sink,
                                      queue[head - len(dones) : head], dones,
                                      it_paddr, it_value, it_size)
                        dones = []
                    if write is None:
                        j = item - npre
                        write = BusWrite(
                            int(paddrs[j]), int(values[j]), int(sizes[j]), log_tag, cpu_index
                        )
                    head += 1
                    occ -= 1
                    logger._service_free = head_done
                    bus._busy_until = busy
                    logger._process(write, head_done)
                    free = logger._service_free
                    busy = bus._busy_until
                    tgt_log = -1
                    verified.clear()
                    room = 0
                # Every queued item was pushed before the service of the
                # one ahead of it completed (a push first drains what its
                # own bus write reaches), so the next starts at once.
                head_done = free + service if occ else _NEVER
            if overloaded:
                break
            # Push (PushResult semantics inlined).
            if occ >= capacity:
                fifo.overflow_count += 1
                logger_stats.records_dropped += 1
                break
            queue.append(npre + e)
            occ += 1
            if occ == 1:
                head_done = (complete if complete > free else free) + service
            if occ > high_water:
                high_water = occ
            if occ <= threshold:
                break
            # Overload interrupt: Logger._handle_overload, with the flush
            # done by the loop above.
            logger_stats.overload_events += 1
            overloaded = True
            limit = _NEVER
        if overloaded:
            # ... then the kernel's suspension via the generic handler.
            if dones:
                _emit_records(logger, tgt_log, entry, frame_data, sink,
                              queue[head - len(dones) : head], dones,
                              it_paddr, it_value, it_size)
                dones = []
            drain_complete = free
            fifo.high_water_mark = high_water
            logger._service_free = free
            bus._busy_until = busy
            bus.total_busy_cycles += bus_busy
            bus_busy = 0
            bus.transaction_count += transactions
            transactions = 0
            cpu._now = now
            clock.advance_to(complete)
            if handler is not None:
                handler.overload(
                    drain_complete if drain_complete > complete else complete
                )
            clock.advance_to(drain_complete)
            free = logger._service_free
            busy = bus._busy_until
            resume_at = cpu._resume_at
            high_water = fifo.high_water_mark
            tgt_log = -1
            verified.clear()
            room = 0
        # --- CPU.write_through back half
        buf.append(complete)
        if resume_at > now:
            suspend_cycles += resume_at - now
            now = resume_at
        i = e + 1

    if dones:
        _emit_records(logger, tgt_log, entry, frame_data, sink,
                      queue[head - len(dones) : head], dones,
                      it_paddr, it_value, it_size)
    cpu._now = now
    bus._busy_until = busy
    logger._service_free = free
    stats.stores += n
    stats.write_through_stores += n
    stats.write_buffer_stalls += stalls
    stats.suspend_cycles += suspend_cycles
    bus.total_busy_cycles += bus_busy
    bus.transaction_count += transactions
    fifo.high_water_mark = high_water
    clock.advance_to(complete if complete > now else now)
    # Put the still-queued items back as (ready, BusWrite) entries, and
    # keep their fields for the next run that finds them queued.
    logger.bulk_tail = None
    if head < npre:
        entries.extend(pre[head:])
    rest = queue[max(head, npre) :]
    if rest:
        j = np.array(rest) - npre
        # Completions of accesses j[0].. on, stretch by stretch.
        s0 = bisect_right(starts, j[0]) - 1
        bounds = starts[s0:]
        bounds[0] = j[0]
        bounds.append(n)
        complete_from = np.repeat(offs[s0:], np.diff(bounds)) + Qa[j[0] + 1 :]
        ready = complete_from[j - j[0]].tolist()
        fields = (paddrs[j], values[j], sizes[j])
        # tuple.__new__ builds the BusWrite NamedTuples without a Python
        # call per entry.
        tail = list(
            zip(
                ready,
                map(
                    tuple.__new__,
                    repeat(BusWrite),
                    zip(*(f.tolist() for f in fields), repeat(log_tag), repeat(cpu_index)),
                ),
            )
        )
        entries.extend(tail)
        logger.bulk_tail = (tail, run_ppn) + fields
    return True


def _emit_records(
    logger, log_index, entry, frame_data, sink, items, dones, it_paddr, it_value, it_size
):
    """Write inline-serviced records into their log page in one slice.

    ``items`` are the FIFO items serviced, in order, at the cycles
    ``dones``; they all fit in the log-table entry's current page.
    Advances the entry and accounts the appends exactly as the
    per-record path does.
    """
    count = len(dones)
    idx = np.array(items) if items[-1] - items[0] != count - 1 else slice(items[0], items[0] + count)
    # Storing into the 32-bit fields truncates, as the hardware does.
    records = np.zeros(count, _RECORD_DTYPE)
    records["addr"] = it_paddr[idx]
    records["value"] = it_value[idx]
    records["size"] = it_size[idx]
    records["ts"] = np.array(dones, np.int64) // logger.clock._timestamp_divider
    dest = entry.log_address
    offset = dest & _PAGE_MASK
    nbytes = count * LOG_RECORD_SIZE
    frame_data[offset : offset + nbytes] = records.tobytes()
    advanced = dest + nbytes
    entry.log_address = advanced
    if not advanced & _PAGE_MASK:
        entry.valid = False
    logger.stats.records_logged += count
    logger.pmt.lookup_count += count
    if sink is not None:
        sink.append_offset += nbytes
        sink.records_appended += count
    elif logger._fault_handler is not None:
        for paddr in range(dest, advanced, LOG_RECORD_SIZE):
            logger._fault_handler.record_written(log_index, paddr, LOG_RECORD_SIZE)
