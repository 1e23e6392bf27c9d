"""ServeCrashed carries the in-flight request descriptors.

When an injected fault kills the server, every client whose request
was mid-dispatch, batched, parked, or still queued gets the same
:class:`ServeCrashed` — and the exception (plus the server's
``crash_inflight`` mirror) names those requests: rid, client, op, and
— when a :class:`CausalTracker` is attached — the last pipeline stage
each one completed before the power went out.
"""

from repro import probe
from repro.faults.plan import CrashSpec, FaultPlan
from repro.obs.causal import CausalTracker
from repro.serve.cli import run_serve
from repro.serve.server import ServeCrashed

_WORKLOAD = dict(clients=8, txns=3, writes=2, seed=7)


def _crash_plan(nth=3):
    return FaultPlan(seed=7, crash=CrashSpec("backend.flush", nth))


class TestInflightOnCrash:
    def test_serve_crashed_lists_inflight_requests(self):
        result = run_serve(plan=_crash_plan(), **_WORKLOAD)
        error = result["error"]
        server = result["server"]
        assert isinstance(error, ServeCrashed)
        assert server.crashed is not None
        assert error.inflight  # the dying commit at minimum
        assert error.inflight == server.crash_inflight
        for req in error.inflight:
            assert isinstance(req["rid"], int)
            assert isinstance(req["client"], int)
            assert req["op"] in ("begin", "write", "commit", "abort", "shutdown")
        # The mid-dispatch request — the one whose work tripped the
        # fault — is listed first, and it was a commit reaching for
        # the device flush.
        assert error.inflight[0]["op"] == "commit"

    def test_last_stage_populated_with_causal_tracker(self):
        with probe.attached(CausalTracker()):
            result = run_serve(plan=_crash_plan(), **_WORKLOAD)
        error = result["error"]
        assert isinstance(error, ServeCrashed)
        head = error.inflight[0]
        # The crash fired at the flush fault point, inside the barrier
        # stage the device hook had just opened.
        assert head["last_stage"] == "barrier"
        assert all("last_stage" in req for req in error.inflight)

    def test_last_stage_none_without_tracker(self):
        result = run_serve(plan=_crash_plan(), **_WORKLOAD)
        assert all(
            req["last_stage"] is None for req in result["error"].inflight
        )

    def test_inflight_empty_on_clean_run(self):
        result = run_serve(**_WORKLOAD)
        assert result["error"] is None
        assert result["crash"] is None
        assert result["server"].crash_inflight == []
