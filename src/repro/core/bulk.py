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
a time, not one word at a time (:func:`_write_run_bus_logged`).  This
module finds the events on the CPU side; what the logger does at each
one is the logger's own timing model (``repro.hw.logger``), called once
per drain or per log-page stretch.  With a depth-1 write buffer every
store waits for the previous one's bus write, so between events a word
costs the bus write plus its L1 charge (hit or line fill): word
completion times are a prefix sum, and the next event is found by
bisection.  The events are

* a record's logger service completing — the word whose bus write
  reaches it drains the FIFO: the logger serves the due records
  (``Logger._backlog``) and says when their DMAs hold the bus
  (``Logger._dma``), which the next word then waits for;
* the FIFO rising above the overload threshold — the logger raises the
  overload (``Logger._overload_raised``), a backlogged logger completes
  one record per service time, so the flush is arithmetic too, and the
  logger then reports and serves it (``Logger._overload_served``);
* a log-page boundary, or any record ``Logger._target`` does not let
  skip the generic path (PMT miss, invalid log-table entry, absorbing
  log, special mode), which goes through ``Logger._process``
  (``Logger._fallback``);
* the end of the run.

When the logger's schedule (``Logger._backlog``) spaces service
completions wider than any two stores are apart (the prototype's
28-cycle service against a 6- to 13-cycle store), every drain takes
exactly one record, whose DMA follows the draining store at once, so the
drains are found one bisection each without leaving the prefix sum; the
store after a drain waits for that DMA as long as ``Logger._dma`` says
one record's DMA, started as the bus comes free, holds the bus.  This is
the one rule the engine keeps: a drained record's DMA starts when the
bus write that drains it completes.  Otherwise (a faster logger, a FIFO
that can overflow) each drain is a general event step.  With a deeper
write buffer a store need not wait for the previous one, and every
access is stepped on its own.  All of it is one function.  Serviced
records are written one log page at a time (``Logger._write``).

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
from repro.hw.bus import BusWrite, SystemBus
from repro.hw.params import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import CPU
    from repro.hw.machine import Machine
    from repro.core.address_space import AddressSpace

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
#: "No event": later than any cycle a run can reach.
_NEVER = 1 << 62


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
    logger_stats = logger.stats
    backlog = logger._backlog
    dma = logger._dma

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
    # A drain at access j - 1 takes records already serviced when its
    # bus write completes, so their DMAs take the bus right after that
    # write.  How long one holds it, and what it counts, the logger's
    # DMA rule says once (asked of a scratch bus, the record done as the
    # bus comes free); access j waits for it by extra[j] over its step.
    scratch = SystemBus()
    wait = np.maximum(dma((0,), scratch)[0] - (step - bus_write), 0)
    extra = wait.tolist()
    extra.append(0)
    # The longest two access completions can be apart between events.
    longest = int((step + wait).max())
    # The FIFO cannot overflow between overloads.
    steady = threshold < capacity
    run_ppn = paddr_base >> _PAGE_SHIFT

    # Logger side: the queue of FIFO items, its head position and
    # length, and when its head was queued (``head_ready``: at most
    # ``free`` once it waited for the one ahead of it) and its service
    # completes (``head_done``, from ``Logger._backlog``).
    free = logger._service_free
    pre = list(entries)
    entries.clear()
    npre = len(pre)
    queue = list(range(npre))
    head = 0
    occ = npre
    pre_ppn = pre_run_end = ()
    it_paddr, it_value, it_size = paddrs, values, sizes
    head_ready = head_done = _NEVER
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
        head_ready = pre[0][0]
        head_done = backlog(head_ready, free, 1, _NEVER)[0]
    # Records serviced inline but not yet written (``dones``: their
    # service completions; they are the items just before ``head``),
    # and where they go (``target``, from ``Logger._target``): ``room``
    # more records fit in its log page, and the PMT maps every page in
    # ``verified`` to its log.
    dones: list[int] = []
    verified: set[int] = set()
    target = None
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
                head_ready = complete
                head_done = backlog(complete, free, 1, _NEVER)[0]
            # The access whose record would rise above the threshold.
            overload_at = i + threshold - occ if threshold < capacity else n
            # Each access waits for the previous bus write, so the
            # completions are a prefix sum, offset by access i's.  The
            # drains of the queued items, from the head on, that go to
            # the current log page (``allowed``) are taken here, one
            # bisection each, while each takes exactly one record.
            allowed = 0
            if steady and occ:
                pos = head
                while pos < npre and pre_ppn[pos] in verified:
                    pos = pre_run_end[pos]
                allowed = pos - head
                if pos >= npre and run_ppn in verified or allowed > room:
                    allowed = room
            # The head's service completion, and the next ``allowed``.
            sched = (head_done,)
            if allowed:
                sched = backlog(head_ready, free, allowed + 1, _NEVER)
                if sched[1] - sched[0] <= longest:
                    # A drain could take more than one record: each is
                    # an event step of its own.
                    allowed = 0
            off = complete - Q[i + 1]
            drains = 0
            lo = i + 2
            # Drains found at k - 1 < hi - 1 are neither the run's
            # last access nor past the overload, which each drain
            # delays by an access (it does not change occupancy).
            hi = overload_at + 2 if overload_at + 2 < n else n
            for done in sched[:allowed]:
                k = bisect_left(Q, done - off, lo, hi)
                if k == hi:
                    break
                off += extra[k]
                drains += 1
                lo = k + 1
                if hi < n:
                    hi += 1
                starts.append(k)
                offs.append(off)
            else:
                k = bisect_left(Q, sched[drains] - off, lo)
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
            bus_busy += bus_write * (e - i)
            transactions += e - i
            busy = complete
            if drains:
                # Their DMAs' bus cycles and transactions, as the
                # logger counted one.
                bus_busy += scratch.total_busy_cycles * drains
                transactions += scratch.transaction_count * drains
                dones.extend(sched[:drains])
                free = head_ready = sched[drains - 1]
                head_done = sched[drains]
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
                    routed = logger._target(ppn)
                    if routed is None or target is None or routed[0] != target[0]:
                        if dones:
                            _write_records(logger, target,
                                           queue[head - len(dones) : head], dones,
                                           it_paddr, it_value, it_size)
                            dones = []
                        target = routed
                        room = 0 if routed is None else routed[3]
                        verified.clear()
                    verified.add(ppn)
                if room:
                    # The logger serves the k records at the head that
                    # fit its log page (they were queued back to back),
                    # and their DMAs take the bus.
                    if write is None:
                        k = occ if occ < room else room
                    else:
                        k = pre_run_end[item] - item
                        if k > room:
                            k = room
                    served = backlog(head_ready, free, k, limit)
                    k = len(served)
                    dones.extend(served)
                    bus._busy_until = busy
                    busy = dma(served, bus)[0]
                    free = served[-1]
                    head += k
                    occ -= k
                    room -= k
                else:
                    # PMT miss, log-page boundary, absorbing log, or
                    # special mode: the generic path.
                    if dones:
                        _write_records(logger, target,
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
                    free, busy = logger._fallback(write, head_done, busy)
                    target = None
                    verified.clear()
                    room = 0
                # The next item was queued before the one ahead of it
                # completed.
                head_ready = free
                head_done = backlog(free, free, 1, _NEVER)[0] if occ else _NEVER
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
                head_ready = complete
                head_done = backlog(complete, free, 1, _NEVER)[0]
            if occ > high_water:
                high_water = occ
            if occ <= threshold:
                break
            # Overload interrupt: the logger raises it, and the loop
            # above is its FIFO flush.
            logger._overload_raised(complete)
            overloaded = True
            limit = _NEVER
        if overloaded:
            # ... then the rest of the logger's overload handling.
            if dones:
                _write_records(logger, target,
                               queue[head - len(dones) : head], dones,
                               it_paddr, it_value, it_size)
                dones = []
            fifo.high_water_mark = high_water
            logger._service_free = free
            bus._busy_until = busy
            bus.total_busy_cycles += bus_busy
            bus_busy = 0
            bus.transaction_count += transactions
            transactions = 0
            cpu._now = now
            clock.advance_to(complete)
            logger._overload_served(complete)
            free = logger._service_free
            busy = bus._busy_until
            resume_at = cpu._resume_at
            high_water = fifo.high_water_mark
            target = None
            verified.clear()
            room = 0
        # --- CPU.write_through back half
        buf.append(complete)
        if resume_at > now:
            suspend_cycles += resume_at - now
            now = resume_at
        i = e + 1

    if dones:
        _write_records(logger, target, queue[head - len(dones) : head], dones,
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


def _write_records(logger, target, items, dones, it_paddr, it_value, it_size):
    """Have the logger write inline-serviced records to ``target``.

    ``items`` are the FIFO items serviced, in order, at the cycles
    ``dones``; they all fit in the target's current log page.  Each
    record's PMT lookup is counted here, where it is settled.
    """
    count = len(dones)
    idx = np.array(items) if items[-1] - items[0] != count - 1 else slice(items[0], items[0] + count)
    log_index, entry, sink, _room = target
    logger._write(log_index, entry, sink, it_paddr[idx], it_value[idx], it_size[idx], dones)
    logger.pmt.lookup_count += count
