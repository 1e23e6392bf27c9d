"""The Observability subscriber: attach/detach, span routing, nesting."""

import pytest

from repro import probe
from repro.errors import ConfigError
from repro.obs.core import Observability
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import Tracer, validate_trace


class TestInstall:
    def test_disabled_by_default(self):
        assert probe._ACTIVE is None
        assert probe.find(Observability) is None

    def test_install_uninstall(self):
        obs = Observability()
        probe.attach(obs)
        try:
            assert probe.find(Observability) is obs
            with pytest.raises(ConfigError, match="already attached"):
                probe.attach(Observability())
        finally:
            probe.detach(obs)
        assert probe._ACTIVE is None

    def test_installed_context_manager(self):
        obs = Observability()
        with probe.attached(obs) as o:
            assert o is obs and probe.find(Observability) is obs
        assert probe._ACTIVE is None

    def test_installed_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with probe.attached(Observability()):
                raise RuntimeError("boom")
        assert probe._ACTIVE is None

    def test_trace_detail_requires_a_tracer(self):
        with probe.attached(Observability()):
            assert not probe._ACTIVE.per_record  # metrics-only
        with probe.attached(Observability(tracer=Tracer())):
            assert probe._ACTIVE.per_record

    def test_metrics_snapshot_if_active(self):
        with probe.attached(Observability()) as obs:
            probe._ACTIVE["device.buffer"](0, "ram", 3)
            snap = obs.metrics.snapshot()
        assert snap["counters"]["rvm.disk.bytes_buffered"] == 3


class TestSpanRouting:
    def test_span_feeds_tracer_and_profiler(self):
        obs = Observability(tracer=Tracer(categories=["txn"]), profiler=CycleProfiler())
        obs.span("txn", "work", 10, 30, tid=1)
        assert obs.tracer.events[0]["ph"] == "X"
        assert obs.profiler.sites["work"].total_cycles == 20

    def test_disabled_category_still_profiles(self):
        obs = Observability(tracer=Tracer(categories=["txn"]), profiler=CycleProfiler())
        obs.span("bus", "bus.txn", 0, 5)
        assert obs.tracer.events == []  # category off
        assert obs.profiler.sites["bus.txn"].calls == 1

    def test_disabled_inner_span_does_not_close_enabled_outer(self):
        # The regression the _traced stack exists for: an enabled outer
        # B span must survive a disabled-category inner begin/end pair.
        obs = Observability(tracer=Tracer(categories=["txn"]))
        obs.span_begin("txn", "outer", 0, tid=2)
        obs.span_begin("bus", "inner", 1, tid=2)  # not traced
        obs.span_end(2, tid=2)  # must NOT emit an E for "outer"
        obs.span_end(3, tid=2)
        phases = [(ev["ph"], ev["name"]) for ev in obs.tracer.events]
        assert phases == [("B", "outer"), ("E", "outer")]
        validate_trace(obs.tracer.to_json())

    def test_counter_tracks_sample_registry_counters(self):
        obs = Observability(tracer=Tracer(categories=["metrics"]))
        obs.metrics.inc("a", 7)
        obs.emit_counter_tracks(ts=42)
        (ev,) = obs.tracer.events
        assert ev["ph"] == "C" and ev["args"] == {"a": 7}
        assert ev["ts"] == 42

    def test_finalize_closes_everything(self):
        obs = Observability(
            tracer=Tracer(categories=["txn"]), profiler=CycleProfiler()
        )
        obs.span_begin("txn", "open", 0, tid=1)
        obs.finalize(50)
        validate_trace(obs.tracer.to_json())
        assert obs.profiler.sites["open"].total_cycles == 50
        assert obs._traced == {}

    def test_metrics_only_needs_no_tracer(self):
        obs = Observability()
        obs.span("txn", "work", 0, 10)
        obs.instant("kernel", "fault", 5)
        obs.counter_track("metrics", "x", 1, 2)  # all no-ops, no error
        obs.metrics.inc("x")
        assert obs.metrics.value("x") == 1
