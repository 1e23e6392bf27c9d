"""The asyncio serving front-end: concurrency, ordering, crash honesty.

Many concurrent clients drive begin/write/commit against one server;
the tests pin that (a) the serialised commit order matches the WAL's
append order, (b) serve runs are schedule-deterministic, and (c) a
mid-serve crash recovers to exactly the commits that were acknowledged
durable — the contract that makes a commit acknowledgement mean
something.
"""

import asyncio
import random

import pytest

from repro import probe
from repro.backends import make_backend
from repro.core.context import boot, set_current_machine
from repro.faults.checker import capture_snapshot, recover
from repro.faults.plan import CrashSpec, FaultPlan
from repro.hw.params import MachineConfig
from repro.obs.core import Observability
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM
from repro.rvm.wal import EntryKind
from repro.serve.channel import Channel
from repro.serve.server import ClientSession, ServeCrashed, TxnServer

SERVE_CONFIG = MachineConfig(memory_bytes=32 * 1024 * 1024)
DEVICE_BYTES = 256 * 1024


async def _client(server, client_id, txns, writes, seed, writes_by_tid):
    """A seeded client; survives a server crash by stopping early."""
    session = ClientSession(server, client_id)
    rng = random.Random(seed * 10_007 + client_id)
    try:
        for _ in range(txns):
            if server.crashed is not None:
                return
            tid = await session.begin()
            mine = writes_by_tid.setdefault(tid, [])
            for _ in range(writes):
                if server.crashed is not None:
                    return
                word, value = rng.randrange(256), rng.randrange(1 << 32)
                await session.write(word, value)
                mine.append((word, value))
            if server.crashed is not None:
                return
            await session.commit()
    except ServeCrashed:
        return


async def _drive(server, clients, txns, writes, seed, writes_by_tid):
    serve_task = asyncio.ensure_future(server.serve())
    await asyncio.gather(
        *(_client(server, c, txns, writes, seed, writes_by_tid) for c in range(clients))
    )
    if server.crashed is None:
        await ClientSession(server, -1).shutdown()
    await serve_task


def _serve_run(
    library_cls,
    device_name="ram",
    group_commit=False,
    group_size=1,
    clients=16,
    txns=3,
    writes=3,
    seed=1995,
    plan=None,
):
    """Boot a fresh machine, serve one full client fleet, tear down.

    Returns ``(server, library, writes_by_tid, wal_commit_order)``.
    A ``plan`` installs fault injection for the duration of the serve.
    """
    machine = boot(SERVE_CONFIG)
    try:
        device = make_backend(device_name, DEVICE_BYTES, group_commit=group_commit)
        library = library_cls(machine.current_process, disk=device)
        server = TxnServer(library, group_size=group_size, seg_bytes=8192)
        writes_by_tid = {}
        if plan is not None:
            plan.snapshot_source(lambda: capture_snapshot(library))
            with probe.attached(plan):
                asyncio.run(
                    _drive(server, clients, txns, writes, seed, writes_by_tid)
                )
        else:
            asyncio.run(_drive(server, clients, txns, writes, seed, writes_by_tid))
        # A crashed library's in-memory WAL tail may point past the
        # durable bytes on a buffering device; only scan it when the
        # serve completed cleanly.
        wal_commit_order = (
            [e.tid for e in library.wal.entries() if e.kind is EntryKind.COMMIT]
            if server.crashed is None
            else []
        )
        return server, library, writes_by_tid, wal_commit_order
    finally:
        set_current_machine(None)


class TestConcurrentServing:
    @pytest.mark.parametrize("library_cls", [RVM, RLVM], ids=["rvm", "rlvm"])
    def test_sixteen_clients_fully_served_in_wal_order(self, library_cls):
        server, library, _writes, wal_order = _serve_run(library_cls, clients=16)
        assert server.crashed is None
        assert len(server.acked) == 16 * 3
        # Serialised commit order is exactly the WAL's append order.
        assert server.commit_order == wal_order
        assert server.acked == server.commit_order  # sync: ack == commit
        assert sorted(library.wal.committed_tids()) == sorted(server.acked)
        assert len(server.commit_latencies) == len(server.acked)

    def test_group_commit_withholds_acks_until_durable(self):
        server, library, _writes, wal_order = _serve_run(
            RVM, device_name="disk", group_commit=True, group_size=4
        )
        assert server.crashed is None
        assert len(server.acked) == 16 * 3
        assert server.commit_order == wal_order
        # Acks happen in batches but still in commit order.
        assert server.acked == server.commit_order
        # Batch of 4: one library flush per 4 commits (plus drain/shutdown).
        assert library.disk.flush_ops < len(server.acked)

    def test_serving_is_schedule_deterministic(self):
        a = _serve_run(RVM, clients=16, seed=7)
        b = _serve_run(RVM, clients=16, seed=7)
        assert a[0].acked == b[0].acked
        assert a[0].commit_latencies == b[0].commit_latencies
        assert a[3] == b[3]

    def test_per_backend_latency_histograms(self):
        with probe.attached(Observability()) as obs:
            server, _lib, _writes, _order = _serve_run(
                RVM, device_name="nvram_tmpfs", clients=4, txns=2
            )
            snapshot = obs.metrics.snapshot()
        hists = snapshot["histograms"]
        assert "serve.commit_cycles" in hists
        assert "serve.commit_cycles.nvram_tmpfs" in hists
        assert hists["serve.commit_cycles"]["count"] == len(server.acked) == 8
        assert hists["serve.commit_cycles.nvram_tmpfs"]["count"] == 8

    def test_group_commit_cuts_mean_latency_on_slow_media(self):
        sync, *_ = _serve_run(RVM, device_name="disk", group_size=1)
        grouped, *_ = _serve_run(
            RVM, device_name="disk", group_commit=True, group_size=8
        )
        mean = lambda xs: sum(xs) // len(xs)
        assert mean(grouped.commit_latencies) < mean(sync.commit_latencies)


class TestCrashDuringServe:
    def test_crash_recovers_to_exactly_the_acked_commits(self):
        """Group-commit serving: the batch flush is the durability
        point, so a crash there must lose precisely the unacknowledged
        batch — recovery sees the acked commits and nothing else."""
        plan = FaultPlan(seed=3, crash=CrashSpec("backend.flush", 3, "before"))
        server, _lib, writes_by_tid, _order = _serve_run(
            RVM,
            device_name="disk",
            group_commit=True,
            group_size=4,
            plan=plan,
        )
        assert server.crashed is not None
        # Two full batches were acknowledged before the third flush died.
        assert len(server.acked) == 8
        recovered = recover(server.crashed.snapshot)
        assert recovered.committed_tids == frozenset(server.acked)
        # The recovered image is exactly the acked commits replayed in
        # commit order over a fresh segment.
        expected = bytearray(len(recovered.images["db"]))
        data_off = server.base_va - _lib.segments["db"].base_va
        for tid in server.commit_order:
            if tid not in recovered.committed_tids:
                continue
            for word, value in writes_by_tid[tid]:
                off = data_off + 4 * word
                expected[off : off + 4] = value.to_bytes(4, "little")
        assert recovered.images["db"] == bytes(expected)

    def test_sync_crash_never_loses_an_acked_commit(self):
        """Synchronous serving: a crash mid-commit may leave that one
        commit durable-but-unacked, but every acknowledged commit must
        survive recovery."""
        plan = FaultPlan(seed=3, crash=CrashSpec("rvm.commit.durable", 20, "before"))
        server, _lib, _writes, _order = _serve_run(RVM, plan=plan)
        assert server.crashed is not None
        recovered = recover(server.crashed.snapshot)
        acked = frozenset(server.acked)
        assert acked <= recovered.committed_tids
        # At most the single in-flight commit beyond the acked set.
        assert len(recovered.committed_tids - acked) <= 1

    def test_crash_fails_every_outstanding_future(self):
        """No client coroutine may hang: begin/write/commit futures in
        flight at the crash all resolve with ServeCrashed."""
        plan = FaultPlan(seed=3, crash=CrashSpec("backend.flush", 2, "before"))
        server, _lib, _writes, _order = _serve_run(
            RVM, device_name="ram", group_commit=True, group_size=4, plan=plan
        )
        assert server.crashed is not None
        assert server.channel.pending() == 0
        assert not server._batch and not server._parked

    def test_parked_begin_and_inflight_commit_fail_on_crash(self):
        """The in-flight commit and a begin parked behind it both see
        the crash — neither client coroutine hangs."""

        async def scenario(server):
            task = asyncio.ensure_future(server.serve())
            s0 = ClientSession(server, 0)
            s1 = ClientSession(server, 1)
            await s0.begin()
            parked = asyncio.ensure_future(s1.begin())  # queued behind s0
            await s0.write(0, 0xDEAD)
            with pytest.raises(ServeCrashed):
                await s0.commit()  # the first commit crashes
            with pytest.raises(ServeCrashed):
                await parked
            await task

        machine = boot(SERVE_CONFIG)
        try:
            library = RVM(
                machine.current_process,
                disk=make_backend("ram", DEVICE_BYTES),
            )
            plan = FaultPlan(
                seed=0, crash=CrashSpec("rvm.commit.begin", 1, "before")
            )
            plan.snapshot_source(lambda: capture_snapshot(library))
            server = TxnServer(library, seg_bytes=8192)
            with probe.attached(plan):
                asyncio.run(scenario(server))
            assert server.crashed is not None
            assert server.acked == []
        finally:
            set_current_machine(None)
