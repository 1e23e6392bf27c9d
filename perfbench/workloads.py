"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs
its timed phase in :meth:`run`, and in :meth:`finish` checks its outputs
and collects every simulated counter.  ``run`` receives a
:class:`~tracer.SpanTracer` on traced repetitions and ``None`` on bare
ones; the only code it adds to a bare run is the host timer around each
operation.

The sizes make one repetition take roughly 0.2–2 s of host time.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import math
import random
import time
from dataclasses import dataclass

from repro.backends import make_backend
from repro.core.context import boot, set_current_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import PAGE_SIZE, MachineConfig
from repro.obs import causal
from repro.obs.machine_sources import snapshot_machine
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM
from repro.rvm.tpca import HISTORY_RECORD_BYTES, TPCABenchmark, TPCAConfig
from repro.serve.cli import SERVE_DEVICE_BYTES, SERVE_SEG_BYTES
from repro.serve.server import ClientSession, TxnServer
from repro.timewarp import SyntheticModel, TimeWarpSimulation

import checks
import tracer as tr

#: Table 3 of the paper: RLVM runs TPC-A at 552 transactions/second.
TABLE3_RLVM_TPS = 552.0

#: Figure 7 point where section 4.3 says the logger overflows.
FIG7_C, FIG7_S, FIG7_W = 32, 256, 8
FIG7_END_TIME = 1000
#: Forward path only: GVT is never advanced mid-run (section 4.3
#: methodology, as in the Figure 7 bench).
FIG7_GVT_INTERVAL = 10_000

TPCA_TXNS = 1000

SERVE_CLIENTS = 16
SERVE_TXNS = 128
SERVE_WRITES = 3
SERVE_GROUP = 4
#: Clients write into the first 256 words of the served segment, as the
#: ``python -m repro serve`` demo does.
SERVE_WORDS = 256

BULK_BYTES = 2 * 1024 * 1024
#: One page per call.  Per-call host time is multi-modal (every fourth
#: page costs about a third more); 1 KiB calls put the median between
#: modes, and 16 KiB calls leave too few calls for a steady p99.
BULK_CHUNK = PAGE_SIZE

clock = time.perf_counter_ns

#: The module, not the ``bcopy`` function the package re-exports under
#: the same name; ``vm_copy`` is looked up on it at each call so the
#: traced run's wrapper applies.
bcopy = importlib.import_module("repro.baselines.bcopy")


@dataclass
class Outcome:
    """What one repetition produced, besides its host times."""

    sim_cycles: int
    attempted: int
    failed: int
    #: simulated model outputs (``model.*`` metrics)
    model: dict
    #: polled counters of the machine whose hardware the workload loads
    gauges: dict
    #: per-layer values the workload knows directly (device counters...)
    layer: dict
    #: every simulated value of the run; must repeat bit for bit
    exact: dict

    def digest(self) -> str:
        return _hash(sorted(self.exact.items()))


def _gauges(machine) -> dict:
    return snapshot_machine(machine)["gauges"]


def nearest_rank(values, q: float):
    """The ``q`` quantile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def _hash(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def _device_layer(device) -> dict:
    return {
        "backends.write_ops": device.write_ops,
        "backends.flush_ops": device.flush_ops,
        "backends.barrier_ops": device.barrier_ops,
        "backends.bytes_written": device.bytes_written,
        "backends.writes_per_flush": (
            device.write_ops / device.flush_ops if device.flush_ops else 0.0
        ),
    }


class Workload:
    name = ""
    #: what one operation (the unit of ``op_host_us_*``) is
    op = ""

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, state, tracer) -> None:
        raise NotImplementedError

    def finish(self, state) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
class TimeWarpFig7(Workload):
    """Figure 7 forward path under LVM and copy-based state saving."""

    name = "timewarp_fig7"
    op = "Time Warp event (one Scheduler.step)"

    def setup(self, seed: int):
        state = {"samples": [], "sims": [], "results": []}
        samples = state["samples"]
        for saver in ("lvm", "copy"):
            machine = boot(MachineConfig(num_cpus=1, memory_bytes=256 * 1024 * 1024))
            sim = TimeWarpSimulation(
                SyntheticModel(c=FIG7_C, s=FIG7_S, w=FIG7_W, seed=seed),
                end_time=FIG7_END_TIME,
                saver=saver,
                n_schedulers=1,
                machine=machine,
                gvt_interval=FIG7_GVT_INTERVAL,
            )
            sched = sim.schedulers[0]
            sched.step = _timed(sched.step, samples)
            state["sims"].append(sim)
        return state

    def run(self, state, tracer) -> None:
        for i, sim in enumerate(state["sims"]):
            if tracer is not None:
                tracer.unit_id = i
            state["results"].append(sim.run())

    def finish(self, state) -> Outcome:
        lvm, copy = state["results"]
        lvm_machine, copy_machine = (sim.machine for sim in state["sims"])
        set_current_machine(None)
        events = len(state["samples"])
        model = {
            "model.sim_cycles": lvm.elapsed_cycles + copy.elapsed_cycles,
            "model.timewarp.lvm_speedup": copy.elapsed_cycles / lvm.elapsed_cycles,
        }
        gauges = _gauges(lvm_machine)
        exact = dict(model)
        for label, result, machine in (("lvm", lvm, lvm_machine), ("copy", copy, copy_machine)):
            exact[label] = (
                result.elapsed_cycles,
                result.events_committed,
                result.events_processed,
                result.rollbacks,
                result.overloads,
                _hash(sorted(result.final_state.items())),
                sorted(_gauges(machine).items()),
            )
        return Outcome(
            sim_cycles=model["model.sim_cycles"],
            attempted=events,
            failed=checks.timewarp_failures(lvm, copy, events),
            model=model,
            gauges=gauges,
            layer={
                "timewarp.events_committed": lvm.events_committed,
                "timewarp.rollbacks": lvm.rollbacks + copy.rollbacks,
            },
            exact=exact,
        )


def _timed(fn, samples):
    def timed():
        t = clock()
        result = fn()
        samples.append(clock() - t)
        return result

    return timed


# ----------------------------------------------------------------------
class TpcaRlvm(Workload):
    """Table 3 TPC-A over RLVM on the RAM disk, synchronous commits,
    truncation after every transaction; one closed-loop caller."""

    name = "tpca_rlvm"
    op = "TPC-A transaction (begin to commit return)"

    def setup(self, seed: int):
        machine = boot(MachineConfig(memory_bytes=64 * 1024 * 1024))
        library = RLVM(machine.current_process)
        bench = TPCABenchmark(library, TPCAConfig(seed=seed))
        if TPCA_TXNS > bench.config.history_capacity:
            raise ValueError("history records would wrap; the check needs them all")
        bench._warm()
        return {"machine": machine, "library": library, "bench": bench, "samples": []}

    def run(self, state, tracer) -> None:
        bench, library, samples = state["bench"], state["library"], state["samples"]
        proc = bench.proc
        start = proc.now
        in_txn = 0
        for i in range(1, TPCA_TXNS + 1):
            if tracer is not None:
                tracer.unit_id = i
            t = clock()
            in_txn += bench.run_transaction(flush=True)
            samples.append(clock() - t)
            library.truncate()
        state["total_cycles"] = proc.now - start
        state["in_txn_cycles"] = in_txn

    def finish(self, state) -> Outcome:
        machine, library, bench = state["machine"], state["library"], state["bench"]
        total = state["total_cycles"]
        tps = TPCA_TXNS / (total / machine.config.clock_hz)
        gauges = _gauges(machine)
        balances = bench.balances()
        rseg = library.segments["tpca"]
        history = sum(
            # The delta is the last word of each history record.
            rseg.segment.read(bench.history_va(i) + HISTORY_RECORD_BYTES - 4 - rseg.base_va, 4)
            for i in range(TPCA_TXNS)
        )
        layer = {"rvm.txns": library.committed_count, "rvm.wal.appends": library.wal.appends}
        layer.update(_device_layer(library.disk))
        bench.backend = library.crash_and_recover()
        recovered = bench.balances()
        set_current_machine(None)
        model = {
            "model.sim_cycles": total,
            "model.tpca.sim_tps": tps,
            "model.tpca.in_txn_fraction": state["in_txn_cycles"] / total,
        }
        exact = dict(model)
        exact.update(layer)
        exact["balances"] = balances
        exact["gauges"] = sorted(gauges.items())
        return Outcome(
            sim_cycles=total,
            attempted=TPCA_TXNS,
            failed=checks.tpca_failures(balances, history, recovered, TPCA_TXNS),
            model=model,
            gauges=gauges,
            layer=layer,
            exact=exact,
        )


def table3_error_pct(tps: float) -> float:
    """Distance of a simulated RLVM TPC-A rate from the paper's Table 3."""
    return abs(tps - TABLE3_RLVM_TPS) / TABLE3_RLVM_TPS * 100.0


# ----------------------------------------------------------------------
class ServeGroup(Workload):
    """16 closed-loop clients on one event loop against a TxnServer over
    RVM on the disk device with the group-commit buffer, group=4."""

    name = "serve_group"
    op = "client transaction (begin call to commit ack)"

    def setup(self, seed: int):
        machine = boot(MachineConfig(memory_bytes=32 * 1024 * 1024))
        device = make_backend("disk", SERVE_DEVICE_BYTES, group_commit=True)
        library = RVM(machine.current_process, disk=device)
        server = TxnServer(library, group_size=SERVE_GROUP, seg_bytes=SERVE_SEG_BYTES)
        inputs = []
        for client in range(SERVE_CLIENTS):
            rng = random.Random(seed * 10_007 + client)
            inputs.append(
                [
                    [(rng.randrange(SERVE_WORDS), rng.randrange(1 << 32)) for _ in range(SERVE_WRITES)]
                    for _ in range(SERVE_TXNS)
                ]
            )
        return {
            "machine": machine,
            "device": device,
            "library": library,
            "server": server,
            "inputs": inputs,
            "loop": asyncio.new_event_loop(),
            "samples": [],
            "tids": [],
            "stages": None,
        }

    def run(self, state, tracer) -> None:
        machine, server = state["machine"], state["server"]
        drive = _drive(server, state["inputs"], state["samples"], state["tids"])
        run = state["loop"].run_until_complete
        start = machine.time()
        if tracer is None:
            run(drive)
        else:
            with causal.installed() as tracker:
                tracer.wrap(run, tr.SERVE_RUN)(drive)
            state["stages"] = _stage_totals(tracker)
        state["sim_cycles"] = machine.time() - start

    def finish(self, state) -> Outcome:
        machine, server, library, device = (
            state["machine"],
            state["server"],
            state["library"],
            state["device"],
        )
        state["loop"].close()
        set_current_machine(None)
        lat = server.commit_latencies
        attempted = SERVE_CLIENTS * SERVE_TXNS
        failed = checks.serve_failures(
            state["tids"],
            server.acked,
            server.commit_order,
            library.wal.committed_tids(),
            server.crashed is not None,
        )
        failed += attempted - len(state["tids"])
        model = {
            "model.sim_cycles": state["sim_cycles"],
            "model.serve.commit_cycles_p50": nearest_rank(lat, 0.50),
            "model.serve.commit_cycles_p99": nearest_rank(lat, 0.99),
        }
        layer = {
            "rvm.txns": library.committed_count,
            "rvm.wal.appends": library.wal.appends,
            "serve.acks_per_batch": len(server.acked) / device.flush_ops,
        }
        layer.update(_device_layer(device))
        if state["stages"] is not None:
            layer.update(state["stages"])
        gauges = _gauges(machine)
        exact = dict(model)
        exact.update({k: v for k, v in layer.items() if not k.startswith("serve.stage.")})
        exact["acked"] = _hash(server.acked)
        exact["latencies"] = _hash(lat)
        exact["gauges"] = sorted(gauges.items())
        return Outcome(
            sim_cycles=state["sim_cycles"],
            attempted=attempted,
            failed=failed,
            model=model,
            gauges=gauges,
            layer=layer,
            exact=exact,
        )


async def _client(server, client_id, txns, samples, tids):
    session = ClientSession(server, client_id)
    for writes in txns:
        t = clock()
        tids.append(await session.begin())
        for word, value in writes:
            await session.write(word, value)
        await session.commit()
        samples.append(clock() - t)


async def _drive(server, inputs, samples, tids):
    serve_task = asyncio.ensure_future(server.serve())
    await asyncio.gather(
        *(_client(server, c, txns, samples, tids) for c, txns in enumerate(inputs))
    )
    await ClientSession(server, -1).shutdown()
    await serve_task


def _stage_totals(tracker) -> dict:
    """Simulated cycles per causal stage, summed over every request."""
    totals = {stage: 0 for stage in causal.STAGES}
    for ctx in tracker.completed:
        for stage, cycles in ctx.stages.items():
            totals[stage] += cycles
    return {f"serve.stage.{stage}_cycles": cycles for stage, cycles in totals.items()}


# ----------------------------------------------------------------------
class BulkCopy(Workload):
    """vm_copy through the bulk engine from an unlogged source into a
    logged destination, one page per call."""

    name = "bulk_copy"
    op = "page chunk copy (one vm_copy call)"

    def setup(self, seed: int):
        machine = boot(MachineConfig(memory_bytes=64 * 1024 * 1024))
        proc = machine.current_process
        aspace = proc.address_space()
        src = StdSegment(BULK_BYTES, machine=machine)
        src_region = StdRegion(src)
        dst = StdSegment(BULK_BYTES, machine=machine)
        dst_region = StdRegion(dst)
        # One 16-byte record per copied word.
        log = LogSegment(size=BULK_BYTES * 4, machine=machine)
        dst_region.log(log)
        src_va = src_region.bind(aspace)
        dst_va = dst_region.bind(aspace)
        data = random.Random(seed).randbytes(BULK_BYTES)
        src.write_bytes(0, data)
        for off in range(0, BULK_BYTES, PAGE_SIZE):
            proc.read(src_va + off)
            proc.read(dst_va + off)
        machine.quiesce()
        return {
            "machine": machine,
            "proc": proc,
            "dst": dst,
            "log": log,
            "src_va": src_va,
            "dst_va": dst_va,
            "data": data,
            "samples": [],
        }

    def run(self, state, tracer) -> None:
        machine, proc, samples = state["machine"], state["proc"], state["samples"]
        src_va, dst_va = state["src_va"], state["dst_va"]
        start = proc.now
        for i, off in enumerate(range(0, BULK_BYTES, BULK_CHUNK)):
            if tracer is not None:
                tracer.unit_id = i
            t = clock()
            bcopy.vm_copy(proc, src_va + off, dst_va + off, BULK_CHUNK, use_blocks=True)
            samples.append(clock() - t)
        machine.quiesce()
        state["sim_cycles"] = proc.now - start

    def finish(self, state) -> Outcome:
        machine, dst, log = state["machine"], state["dst"], state["log"]
        dest = dst.read_bytes(0, BULK_BYTES)
        frames = {page.frame.number: page.index for page in dst.pages()}
        offsets, values, sizes = checks.log_offsets(log, frames)
        gauges = _gauges(machine)
        set_current_machine(None)
        chunks = BULK_BYTES // BULK_CHUNK
        model = {"model.sim_cycles": state["sim_cycles"]}
        exact = dict(model)
        exact["records"] = len(offsets)
        exact["dest"] = hashlib.sha256(dest).hexdigest()[:16]
        exact["gauges"] = sorted(gauges.items())
        return Outcome(
            sim_cycles=state["sim_cycles"],
            attempted=chunks,
            failed=checks.bulk_failures(state["data"], dest, offsets, values, sizes, BULK_CHUNK),
            model=model,
            gauges=gauges,
            layer={},
            exact=exact,
        )


WORKLOADS = {wl.name: wl for wl in (TimeWarpFig7(), TpcaRlvm(), ServeGroup(), BulkCopy())}
