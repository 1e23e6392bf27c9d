"""The one instrumentation gate: attach/detach, routing, and isolation.

Every consumer subscribes to the one :mod:`repro.probe` stream, so the
contract worth pinning is that subscribers do not see each other: any
combination of them observes a seeded run exactly as each does alone,
and only a per-record consumer (a tracer or a fault plan) moves the
fused fast paths onto the generic ones.
"""

import pytest

from repro import probe
from repro.analytics.stream import AnalyticsHub
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.obs.causal import CausalTracker
from repro.obs.core import Observability
from repro.obs.flight import FlightRecorder
from repro.obs.trace import Tracer
from repro.obs.workloads import run_copy
from repro.sanitize.race import LogRaceDetector
from repro.serve.cli import run_serve

_SERVE = dict(backend="rlvm", group=2, clients=4, txns=3, writes=2, seed=11)

SUBSCRIBERS = {
    "obs": lambda: Observability(tracer=Tracer()),
    "causal": CausalTracker,
    "flight": FlightRecorder,
    "hub": AnalyticsHub,
    "race": LogRaceDetector,
    "plan": FaultPlan,
}

#: Subscribers that publish into another by design: the tracker and the
#: hub add request spans, stage histograms and analytics gauges to
#: Observability, and a fault plan's site hits land in the flight ring.
#: Those outputs are compared with their publishers attached.
PUBLISHERS = {"obs": ("causal", "hub"), "flight": ("plan",)}


def _output(name, sub):
    """Everything the subscriber derived from the run, comparably."""
    if name == "obs":
        return sub.metrics.snapshot(), sub.tracer.events
    if name == "causal":
        return [
            (ctx.rid, ctx.op, ctx.submit_cycle, ctx.ack_cycle, ctx.stages)
            for ctx in sub.completed
        ]
    if name == "flight":
        return sub.seen, sub.tail()
    if name == "hub":
        return sub.report()
    if name == "race":
        return sub.writes_checked, sub.summary()
    return dict(sub.counts)


def _served(*names):
    subs = {name: SUBSCRIBERS[name]() for name in names}
    for sub in subs.values():
        probe.attach(sub)
    try:
        result = run_serve(**_SERVE)
    finally:
        for sub in subs.values():
            probe.detach(sub)
    assert result["server"].crashed is None
    return {name: _output(name, sub) for name, sub in subs.items()}, result


class TestIsolation:
    def test_all_six_attached_match_each_alone(self):
        together, result = _served(*SUBSCRIBERS)
        bare = run_serve(**_SERVE)
        assert result["machine"].time() == bare["machine"].time()
        assert result["server"].acked == bare["server"].acked
        for name in SUBSCRIBERS:
            alone, _ = _served(name, *PUBLISHERS.get(name, ()))
            assert together[name] == alone[name], name
            assert together[name], name  # each one really observed the run


class TestFusedPathChoice:
    @pytest.mark.parametrize(
        "name, per_record",
        [
            ("metrics", False),
            ("tracer", True),
            ("causal", False),
            ("flight", False),
            ("hub", False),
            ("race", False),
            ("plan", True),
        ],
    )
    def test_fused_paths_follow_the_per_record_flag(self, name, per_record):
        bare = run_copy()
        if name == "tracer":
            obs, extra = Observability(tracer=Tracer()), None
        else:
            obs = Observability()
            extra = None if name == "metrics" else SUBSCRIBERS[name]()
        with probe.attached(obs):
            if extra is not None:
                probe.attach(extra)
            assert probe._ACTIVE.per_record is per_record
            summary = run_copy()
        counters = obs.metrics.snapshot()["counters"]
        fast = counters.get("core.bulk.write_runs_fast", 0)
        slow = counters.get("core.bulk.write_runs_slow", 0)
        if per_record:
            assert slow > 0 and fast == 0
        else:
            assert fast > 0 and slow == 0
        # Either way the run is cycle- and record-identical to bare.
        assert summary["cycles"] == bare["cycles"]
        assert summary["records_logged"] == bare["records_logged"]


class TestAttach:
    def test_attached_nests_and_restores_the_previous_probe(self):
        assert probe._ACTIVE is None
        obs, flight = Observability(), FlightRecorder()
        with probe.attached(obs):
            outer = probe._ACTIVE
            with probe.attached(flight):
                assert probe._ACTIVE.subscribers == (obs, flight)
                assert probe.find(FlightRecorder) is flight
            assert probe._ACTIVE is outer
            assert probe.find(FlightRecorder) is None
        assert probe._ACTIVE is None

    def test_detach_drops_the_gate_with_the_last_subscriber(self):
        obs, flight = probe.attach(Observability()), probe.attach(FlightRecorder())
        probe.detach(obs)
        assert probe._ACTIVE.subscribers == (flight,)
        probe.detach(flight)
        assert probe._ACTIVE is None

    def test_attaching_the_same_subscriber_twice_is_refused(self):
        tracker = CausalTracker()
        with probe.attached(tracker):
            with pytest.raises(ConfigError, match="already attached"):
                probe.attach(tracker)
            with pytest.raises(ConfigError, match="already attached"):
                probe.attach(CausalTracker())
            assert probe._ACTIVE.subscribers == (tracker,)

    def test_pre_effect_subscriber_sees_each_event_first(self):
        calls = []

        class Consumer:
            def handlers(self):
                return {"device.flush": lambda *args: calls.append("consumer")}

        class Plan(Consumer):
            pre_effect = True

            def handlers(self):
                return {"device.flush": lambda *args: calls.append("plan")}

        with probe.attached(Consumer()), probe.attached(Plan()):
            probe._ACTIVE["device.flush"](0, "ram", 0)
        assert calls == ["plan", "consumer"]
