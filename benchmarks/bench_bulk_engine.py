"""Bulk-access engine: simulator throughput on a logged-region copy.

Not a figure from the paper — this measures the *simulator itself*: the
wall-clock speedup of the bulk-access engine (``write_block`` /
``read_block``) over the word-at-a-time reference loop on a 256 KiB
copy into a logged region, while asserting the two paths are
cycle-exact: identical memory contents, log records, and CPU / bus /
logger cycle totals.  Results are written to ``BENCH_bulk_engine.json``.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from conftest import print_header, write_bench_json
from repro.baselines.bcopy import vm_copy
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment

COPY_BYTES = 256 * 1024
RESULT_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_bulk_engine.json"


def make_copy_setup(machine):
    """A logged destination region and an unlogged source region."""
    proc = machine.current_process
    src_seg = StdSegment(COPY_BYTES, machine=machine)
    src_region = StdRegion(src_seg)
    src_va = src_region.bind(proc.address_space())
    dst_seg = StdSegment(COPY_BYTES, machine=machine)
    dst_region = StdRegion(dst_seg)
    dst_region.log(LogSegment(size=32 * 1024 * 1024, machine=machine))
    dst_va = dst_region.bind(proc.address_space())
    # Deterministic source contents, written through the timed path so
    # both machines start from identical hardware state.
    pattern = bytes(range(256)) * (COPY_BYTES // 256)
    proc.write_block(src_va, pattern)
    machine.quiesce()
    return src_va, dst_va, dst_seg, dst_region.log_segment


def machine_cycles(machine, log):
    cpu = machine.cpu(0)
    return {
        "cpu_now": cpu.now,
        "cpu_stats": cpu.stats.snapshot(),
        "clock_now": machine.clock.now,
        "bus_busy_cycles": machine.bus.total_busy_cycles,
        "bus_transactions": machine.bus.transaction_count,
        "logger_stats": machine.logger.stats.snapshot(),
        "log_append_offset": log.append_offset,
        "log_records": log.records_appended,
    }


def timed_copy(fresh_machine, use_blocks):
    machine = fresh_machine()
    src_va, dst_va, dst_seg, log = make_copy_setup(machine)
    t0 = time.perf_counter()
    vm_copy(machine.current_process, src_va, dst_va, COPY_BYTES,
            use_blocks=use_blocks)
    machine.quiesce()
    wall = time.perf_counter() - t0
    contents = dst_seg.snapshot()
    records = log.read_bytes(0, log.append_offset)
    return wall, machine_cycles(machine, log), contents, records, machine


@pytest.mark.benchmark(group="bulk_engine")
def test_bulk_engine_speedup_and_exactness(benchmark, fresh_machine):
    def run():
        slow_wall, slow_cycles, slow_mem, slow_recs, _ = timed_copy(
            fresh_machine, use_blocks=False
        )
        fast_wall, fast_cycles, fast_mem, fast_recs, fast_machine = timed_copy(
            fresh_machine, use_blocks=True
        )
        return slow_wall, slow_cycles, slow_mem, slow_recs, \
            fast_wall, fast_cycles, fast_mem, fast_recs, fast_machine

    slow_wall, slow_cycles, slow_mem, slow_recs, \
        fast_wall, fast_cycles, fast_mem, fast_recs, fast_machine = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    # Exactness guard: identical contents, log records, and cycles.
    assert fast_mem == slow_mem
    assert fast_recs == slow_recs
    assert fast_cycles == slow_cycles

    speedup = slow_wall / fast_wall
    print_header(
        "Bulk-access engine: 256 KiB logged-region copy",
        "simulator engineering (not a paper figure)",
    )
    print(f"  word-at-a-time : {slow_wall * 1e3:9.1f} ms")
    print(f"  bulk engine    : {fast_wall * 1e3:9.1f} ms")
    print(f"  speedup        : {speedup:9.2f}x")
    print(f"  simulated cycles (both paths): {slow_cycles['cpu_now']}")
    print(f"  log records (both paths)     : {slow_cycles['log_records']}")

    # Under half the slowest of nine runs of the event-driven engine
    # (11.2x; median 13.4x).
    assert speedup >= 5.5, (
        f"bulk engine speedup {speedup:.2f}x below the 5.5x floor"
    )

    # Written only once every gate above has held.
    write_bench_json(
        RESULT_FILE,
        "bulk_engine",
        {
            "copy_bytes": COPY_BYTES,
            "word_at_a_time_seconds": slow_wall,
            "bulk_engine_seconds": fast_wall,
            "speedup": speedup,
            "cycles": slow_cycles,
            "cycle_exact": True,
        },
        machine=fast_machine,
    )
