"""Golden pin for the word path: exact simulated state of two runs.

The bulk engine is tested against the word path (``AddressSpace.write``
→ ``CPU.write_through`` → bus → logger FIFO), so a change that alters
the word path's simulation could drift both sides together and still
pass every cycle-identity test.  These values were recorded before the
word path's per-store work was trimmed; any change to the simulation
of a logged store — cycles, a counter, a log byte, a final value —
fails here.

Two runs:

* the Figure 7 point where the logger overloads (c=32, s=256, w=8,
  ``end_time=1000``, one scheduler) under both state savers;
* a short Table 3 TPC-A run over RLVM (40 transactions, seed 1).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.context import boot, set_current_machine
from repro.hw.params import MachineConfig
from repro.obs.machine_sources import snapshot_machine
from repro.rvm.rlvm import RLVM
from repro.rvm.tpca import TPCABenchmark, TPCAConfig
from repro.timewarp import SyntheticModel, TimeWarpSimulation


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _log_sha(log) -> str:
    """Every byte the logger appended, truncated prefix included."""
    return _sha(log.read_bytes(0, log.append_offset))


@pytest.fixture
def fresh_machine():
    yield lambda **config: boot(MachineConfig(**config))
    set_current_machine(None)


FIG7_GOLDEN = {
    "lvm": {
        "elapsed_cycles": 787207,
        "events": (2907, 2907, 0, 2),
        "final_state": "27868cbfe219275c",
        "log": ("f728d1cff958335b", 387360),
        "gauges": {
            "hw.bus.busy_cycles": 314730,
            "hw.bus.transactions": 48420,
            "hw.bus.utilisation": 0.399806,
            "hw.cpu.compute_cycles": 385224,
            "hw.cpu.loads": 0,
            "hw.cpu.stores": 24210,
            "hw.cpu.suspend_cycles": 78226,
            "hw.cpu.write_buffer_stalls": 20358,
            "hw.cpu.write_through_stores": 24210,
            "hw.l1.hits": 24081,
            "hw.l1.misses": 129,
            "hw.logger.boundary_fault_count": 94,
            "hw.logger.fifo_depth": 0,
            "hw.logger.fifo_high_water": 513,
            "hw.logger.fifo_overflows": 0,
            "hw.logger.logging_faults": 94,
            "hw.logger.overload_events": 2,
            "hw.logger.pmt_fault_count": 0,
            "hw.logger.pmt_lookups": 24210,
            "hw.logger.records_dropped": 0,
            "hw.logger.records_logged": 24210,
            "kernel.direct_mapped_updates": 0,
            "kernel.logged_page_faults": 1,
            "kernel.logging_faults": 94,
            "kernel.overloads": 2,
            "kernel.page_faults": 1,
            "kernel.protection_faults": 0,
            "machine.cycles": 787207,
        },
    },
    "copy": {
        "elapsed_cycles": 1507410,
        "events": (2907, 2907, 0, 0),
        "final_state": "27868cbfe219275c",
        "log": None,
        "gauges": {
            "hw.bus.busy_cycles": 0,
            "hw.bus.transactions": 0,
            "hw.bus.utilisation": 0.0,
            "hw.cpu.compute_cycles": 1483770,
            "hw.cpu.loads": 0,
            "hw.cpu.stores": 23256,
            "hw.cpu.suspend_cycles": 0,
            "hw.cpu.write_buffer_stalls": 0,
            "hw.cpu.write_through_stores": 0,
            "hw.l1.hits": 23128,
            "hw.l1.misses": 128,
            "hw.logger.boundary_fault_count": 0,
            "hw.logger.fifo_depth": 0,
            "hw.logger.fifo_high_water": 0,
            "hw.logger.fifo_overflows": 0,
            "hw.logger.logging_faults": 0,
            "hw.logger.overload_events": 0,
            "hw.logger.pmt_fault_count": 0,
            "hw.logger.pmt_lookups": 0,
            "hw.logger.records_dropped": 0,
            "hw.logger.records_logged": 0,
            "kernel.direct_mapped_updates": 0,
            "kernel.logged_page_faults": 0,
            "kernel.logging_faults": 0,
            "kernel.overloads": 0,
            "kernel.page_faults": 1,
            "kernel.protection_faults": 0,
            "machine.cycles": 1507410,
        },
    },
}

RLVM_GOLDEN = {
    "elapsed_cycles": 1818009,
    "machine_cycles": 1848089,
    "balances": (2158, 2158, 2158),
    "final_state": "56e48c450a3ee644",
    "log": ("16cf8a8bae76e320", 5120),
    "wal": "853bd08fd0005d1d",
    "gauges": {
        "hw.bus.busy_cycles": 4160,
        "hw.bus.transactions": 640,
        "hw.bus.utilisation": 0.002251,
        "hw.cpu.compute_cycles": 1839200,
        "hw.cpu.loads": 140,
        "hw.cpu.stores": 320,
        "hw.cpu.suspend_cycles": 5720,
        "hw.cpu.write_buffer_stalls": 240,
        "hw.cpu.write_through_stores": 320,
        "hw.l1.hits": 346,
        "hw.l1.misses": 114,
        "hw.logger.boundary_fault_count": 1,
        "hw.logger.fifo_depth": 0,
        "hw.logger.fifo_high_water": 6,
        "hw.logger.fifo_overflows": 0,
        "hw.logger.logging_faults": 1,
        "hw.logger.overload_events": 0,
        "hw.logger.pmt_fault_count": 0,
        "hw.logger.pmt_lookups": 320,
        "hw.logger.records_dropped": 0,
        "hw.logger.records_logged": 320,
        "kernel.direct_mapped_updates": 0,
        "kernel.logged_page_faults": 20,
        "kernel.logging_faults": 1,
        "kernel.overloads": 0,
        "kernel.page_faults": 20,
        "kernel.protection_faults": 0,
        "machine.cycles": 1848089,
    },
}


@pytest.mark.parametrize("saver", ["lvm", "copy"])
def test_fig7_point_is_pinned(fresh_machine, saver):
    machine = fresh_machine(num_cpus=1, memory_bytes=256 * 1024 * 1024)
    sim = TimeWarpSimulation(
        SyntheticModel(c=32, s=256, w=8, seed=1),
        end_time=1000,
        saver=saver,
        n_schedulers=1,
        machine=machine,
        gvt_interval=10_000,
    )
    result = sim.run()
    machine.quiesce()
    log = getattr(sim.schedulers[0].saver, "log", None)
    got = {
        "elapsed_cycles": result.elapsed_cycles,
        "events": (
            result.events_committed,
            result.events_processed,
            result.rollbacks,
            result.overloads,
        ),
        "final_state": _sha(repr(sorted(result.final_state.items())).encode()),
        "log": None if log is None else (_log_sha(log), log.append_offset),
        "gauges": snapshot_machine(machine)["gauges"],
    }
    assert got == FIG7_GOLDEN[saver]


def test_rlvm_tpca_is_pinned(fresh_machine):
    machine = fresh_machine(memory_bytes=64 * 1024 * 1024)
    library = RLVM(machine.current_process)
    bench = TPCABenchmark(library, TPCAConfig(seed=1))
    result = bench.run(40)
    machine.quiesce()
    rseg = library.segments["tpca"]
    got = {
        "elapsed_cycles": result.total_cycles,
        "machine_cycles": machine.current_process.now,
        "balances": bench.balances(),
        "final_state": _sha(rseg.segment.snapshot()),
        "log": (_log_sha(rseg.log), rseg.log.append_offset),
        "wal": _sha(library.disk.durable_bytes()),
        "gauges": snapshot_machine(machine)["gauges"],
    }
    assert got == RLVM_GOLDEN
