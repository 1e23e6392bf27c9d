"""Tests: write monitoring, reverse execution, and address tracing."""


from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.debugger import (
    ReverseExecutor,
    TraceCacheSimulator,
    WriteMonitor,
    extract_trace,
    write_intensity,
)
from repro.analysis import analyse, compute_stats, last_write_only
from repro.hw.params import PAGE_SIZE


def make_target(machine, proc, size=2 * PAGE_SIZE, logged=False):
    seg = StdSegment(size, machine=machine)
    region = StdRegion(seg)
    if logged:
        region.log(LogSegment(machine=machine))
    va = region.bind(proc.address_space())
    return region, va


class TestWriteMonitor:
    def test_attaches_log_dynamically(self, machine, proc):
        region, va = make_target(machine, proc)
        assert not region.is_logged
        monitor = WriteMonitor(region)
        assert region.is_logged
        monitor.detach()
        assert not region.is_logged

    def test_watch_hits(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        monitor.watch(va + 0x100)
        proc.write(va + 0x100, 42)
        proc.write(va + 0x200, 7)  # unwatched
        hits, _ = monitor.poll()
        assert len(hits) == 1
        assert hits[0].vaddr == va + 0x100
        assert hits[0].value == 42

    def test_overwrite_detection(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        proc.write(va, 1)
        proc.write(va, 2)  # the erroneous overwrite
        _, overwrites = monitor.poll()
        assert len(overwrites) == 1
        assert (overwrites[0].first_value, overwrites[0].second_value) == (1, 2)

    def test_acknowledge_suppresses_overwrite(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        proc.write(va, 1)
        monitor.poll()
        monitor.acknowledge(va)
        proc.write(va, 2)
        _, overwrites = monitor.poll()
        assert overwrites == []

    def test_poll_consumes_records(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        proc.write(va, 1)
        monitor.poll()
        hits, overwrites = monitor.poll()
        assert hits == [] and overwrites == []

    def test_unwatch(self, machine, proc):
        region, va = make_target(machine, proc)
        monitor = WriteMonitor(region)
        monitor.watch(va)
        monitor.unwatch(va)
        proc.write(va, 1)
        hits, _ = monitor.poll()
        assert hits == []


class TestReverseExecutor:
    def test_state_at_positions(self, machine, proc):
        region, va = make_target(machine, proc)
        rex = ReverseExecutor(region)
        proc.write(va, 10)
        proc.write(va + 4, 20)
        proc.write(va, 30)
        assert len(rex) == 3
        s0 = rex.state_at(0)
        assert s0[:8] == bytes(8)
        s2 = rex.state_at(2)
        assert int.from_bytes(s2[0:4], "little") == 10
        assert int.from_bytes(s2[4:8], "little") == 20
        s3 = rex.state_at(3)
        assert int.from_bytes(s3[0:4], "little") == 30

    def test_step_back_and_forward(self, machine, proc):
        region, va = make_target(machine, proc)
        rex = ReverseExecutor(region)
        for i in range(5):
            proc.write(va, i + 1)
        state = rex.step_back(2)
        assert int.from_bytes(state[0:4], "little") == 3
        state = rex.step_forward(1)
        assert int.from_bytes(state[0:4], "little") == 4
        assert rex.position == 4

    def test_step_back_clamps_at_zero(self, machine, proc):
        region, va = make_target(machine, proc)
        rex = ReverseExecutor(region)
        proc.write(va, 1)
        state = rex.step_back(10)
        assert rex.position == 0
        assert state[:4] == bytes(4)

    def test_when_written(self, machine, proc):
        region, va = make_target(machine, proc)
        rex = ReverseExecutor(region)
        proc.write(va, 1)
        proc.write(va + 8, 2)
        proc.write(va, 3)
        hits = rex.when_written(va)
        assert [pos for pos, _ in hits] == [1, 3]
        assert [r.value for _, r in hits] == [1, 3]

    def test_checkpoint_preserves_pre_attach_state(self, machine, proc):
        region, va = make_target(machine, proc)
        proc.write(va, 0xAA)  # before the debugger attaches
        rex = ReverseExecutor(region)
        proc.write(va, 0xBB)
        assert int.from_bytes(rex.state_at(0)[0:4], "little") == 0xAA

    def test_history_quiesces_every_cpu(self, machine, proc):
        # Regression: history() used to sync only CPU 0.  Reading the
        # log is then unordered with the other CPUs' writes — the
        # cycle-domain race the sanitizer exists to catch — whereas a
        # whole-machine quiesce is a global barrier.
        from repro import probe
        from repro.core.process import Process
        from repro.sanitize import race

        region, va = make_target(machine, proc)
        rex = ReverseExecutor(region)
        other = Process(machine, cpu_index=1, address_space=proc.address_space())
        proc.write(va, 0x11)
        machine.quiesce()  # order CPU 0's write before CPU 1's
        with probe.attached(race.LogRaceDetector()) as detector:
            other.write(va, 0x22)
            assert len(rex) == 2  # CPU 1's write is visible
            proc.write(va, 0x33)  # CPU 0 writes after reading history
        # history()'s quiesce ordered CPU 1's write before CPU 0's next
        # one; with the old sync(cpu(0)) these two writes race.
        assert detector.races_seen == 0
        assert int.from_bytes(rex.state_at(3)[0:4], "little") == 0x33

    def test_seek_uses_checkpoints_near_the_tip(self, machine, proc):
        region, va = make_target(machine, proc)
        rex = ReverseExecutor(region, checkpoint_interval=8)
        for i in range(40):
            proc.write(va + 4 * (i % 16), i)
        rex.seek(39)
        # A near-tip seek replays only the gap past the last checkpoint,
        # never the whole 40-write history.
        assert rex.engine.stats.records_replayed < 8
        assert rex.engine.stats.checkpoints_captured == 4


class TestTraceAndAnalysis:
    def _logged_region(self, machine, proc):
        region, va = make_target(machine, proc, logged=True)
        return region, region.log_segment, va

    def test_extract_trace(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for i in range(10):
            proc.write(va + 4 * i, i)
        trace = extract_trace(log)
        assert len(trace) == 10
        assert all(t.size == 4 for t in trace)
        stamps = [t.timestamp for t in trace]
        assert stamps == sorted(stamps)

    def test_trace_feeds_cache_simulator(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for _ in range(4):
            for i in range(8):
                proc.write(va + 4 * i, i)
        trace = extract_trace(log)
        sim = TraceCacheSimulator(size_bytes=256)
        hits, misses = sim.run(trace)
        assert hits + misses == 32
        assert sim.hit_rate > 0.5  # strong locality in this loop

    def test_write_intensity_buckets(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        proc.write(va, 1)
        proc.compute(100_000)
        proc.write(va + 4, 2)
        trace = extract_trace(log)
        buckets = write_intensity(trace, bucket_cycles=1000)
        assert buckets[0] == 1
        assert buckets[-1] == 1
        assert sum(buckets) == 2

    def test_redundancy_analysis(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for v in range(9):
            proc.write(va, v)  # 9 writes, 1 location
        proc.write(va + 4, 1)
        machine.quiesce()
        report = analyse(log)
        assert report.total_writes == 10
        assert report.unique_locations == 2
        assert report.redundant_writes == 8
        assert report.hot_locations[0][1] == 9
        assert report.compression_ratio == 5.0

    def test_last_write_only(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for v in range(5):
            proc.write(va, v)
        proc.write(va + 4, 99)
        machine.quiesce()
        collapsed = last_write_only(list(log.records()))
        assert len(collapsed) == 2
        assert sorted(r.value for r in collapsed) == [4, 99]

    def test_log_stats(self, machine, proc):
        region, log, va = self._logged_region(machine, proc)
        for i in range(20):
            proc.write(va + 64 * i, i)
        machine.quiesce()
        stats = compute_stats(log)
        assert stats.record_count == 20
        assert stats.bytes_logged == 320
        assert stats.data_bytes_written == 80
        assert stats.pages_touched == 1
        assert stats.log_expansion == 4.0

    def test_empty_log_stats(self, machine):
        from repro.analysis import compute_stats

        stats = compute_stats([])
        assert stats.record_count == 0
        assert stats.writes_per_1k_timestamps == 0.0
