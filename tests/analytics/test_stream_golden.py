"""Golden agreement: the streaming estimator over a full log must
reproduce the offline :mod:`repro.analysis` results exactly, on the
same canned workloads the CI obs job runs."""

from __future__ import annotations

from repro import probe
from repro.analysis.locality import working_set_curve
from repro.analysis.logstats import compute_stats
from repro.analysis.redundancy import analyse
from repro.analytics.core import RedundancyFold, StatsFold
from repro.analytics.stream import LogTap
from repro.obs.workloads import run_workload


def assert_stream_matches_offline(log, window=64):
    records = list(log.records())
    stats = compute_stats(records)
    tap = LogTap(log, window=window)
    consumed = tap.advance()

    assert consumed == stats.record_count
    assert tap.stats.record_count == stats.record_count
    assert tap.stats.bytes_logged == stats.bytes_logged
    assert tap.stats.data_bytes_written == stats.data_bytes_written
    assert tap.stats.duration_timestamps == stats.duration_timestamps
    assert tap.stats.pages_touched == stats.pages_touched
    assert dict(tap.stats.writes_per_page) == stats.writes_per_page
    assert tap.wss.curve() == working_set_curve(records, window=window)
    # Heat covers exactly the pages the offline histogram knows about.
    assert set(tap.heat._heat) == set(stats.writes_per_page)
    return stats


class TestGoldenCopy:
    def test_streaming_matches_logstats_on_copy(self):
        summary = run_workload("copy")
        stats = assert_stream_matches_offline(summary["log"])
        assert stats.record_count == summary["records_logged"]
        assert stats.data_bytes_written == summary["bytes_written"]


class TestGoldenRlvm:
    def test_streaming_matches_logstats_on_rlvm_transactions(self, machine, proc):
        from repro.rvm.rlvm import RLVM

        # Every RLVM commit/abort truncates the segment log, so the
        # offline reference is the record stream accumulated per
        # transaction *before* each truncation — which is exactly what
        # the live tap folds incrementally.
        lib = RLVM(proc)
        base = lib.map("bank", 16 * 1024)
        log = lib.segments["bank"].log
        live = LogTap(log, window=4)
        stream_records = []
        for i in range(8):
            txn = lib.begin()
            va = base + 96 * i
            txn.write(va, 0xBEEF0000 + i)
            txn.write(va + 4, i)
            txn.write(va, 0xC0FFEE00 + i)  # redundant rewrite
            machine.quiesce()
            stream_records.extend(log.records())
            live.advance()
            if i % 4 == 3:
                txn.abort()
            else:
                txn.commit(flush=(i % 2 == 0))

        stats = compute_stats(stream_records)
        assert stats.record_count == len(stream_records) > 0
        assert live.stats.record_count == stats.record_count
        assert live.stats.data_bytes_written == stats.data_bytes_written
        assert live.stats.duration_timestamps == stats.duration_timestamps
        assert dict(live.stats.writes_per_page) == stats.writes_per_page
        assert live.wss.curve() == working_set_curve(stream_records, window=4)

        # Redundancy: the shared fold reproduces the offline report.
        fold = RedundancyFold()
        for record in stream_records:
            fold.fold(record)
        report = analyse(stream_records)
        assert fold.total_writes == report.total_writes
        assert fold.unique_locations == report.unique_locations
        assert fold.redundant_writes == report.redundant_writes
        assert report.redundant_writes > 0  # the rewrites are visible


class _NoCult:
    """A CULT policy that always defers, so logs are never truncated."""

    def should_run(self, lvt, gvt, log_bytes):
        return False


class TestGoldenTimewarp:
    def test_streaming_matches_logstats_on_timewarp(self, machine):
        from repro.timewarp.kernel import TimeWarpSimulation
        from repro.timewarp.state_saving import LVMStateSaver
        from repro.timewarp.workloads import SyntheticModel

        # Mirrors obs.workloads.run_timewarp, but keeps the simulation
        # object (so the savers' logs stay reachable) and defers CULT
        # (so the full record stream is retained for the offline fold).
        model = SyntheticModel(c=400, s=256, w=8, num_objects=8)
        sim = TimeWarpSimulation(
            model,
            end_time=60,
            n_schedulers=2,
            machine=machine,
            saver_factory=lambda: LVMStateSaver(cult_policy=_NoCult()),
        )
        result = sim.run()
        assert result.rollbacks > 0  # the interesting case: rewound logs

        total = StatsFold()
        for scheduler in sim.schedulers:
            log = scheduler.saver.log
            stats = assert_stream_matches_offline(log, window=16)
            total.fold_page_counts(
                stats.writes_per_page,
                stats.record_count,
                stats.data_bytes_written,
                0,
                0,
            )
        assert total.record_count > 0

    def test_live_taps_see_every_logged_record_despite_truncation(
        self, machine
    ):
        from repro.analytics.stream import AnalyticsHub
        from repro.timewarp.kernel import TimeWarpSimulation
        from repro.timewarp.workloads import SyntheticModel

        # Default savers truncate at every checkpoint advance, but taps
        # attached at bind time consume at each drain — ahead of both
        # rewinds and truncations — so the streamed totals equal the
        # hardware logger's append counter for the whole run.
        hub = AnalyticsHub()
        with probe.attached(hub):
            model = SyntheticModel(c=400, s=256, w=8, num_objects=8)
            sim = TimeWarpSimulation(
                model,
                end_time=60,
                saver="lvm",
                n_schedulers=2,
                machine=machine,
            )
            result = sim.run()
            machine.quiesce()
            hub.notify(machine.clock.now)
        assert result.rollbacks > 0
        streamed = sum(tap.stats.record_count for tap in hub.taps)
        assert streamed == machine.logger.stats.records_logged
