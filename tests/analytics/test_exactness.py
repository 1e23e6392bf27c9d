"""Acceptance: an analytics-attached run is cycle- and log-record-
identical to an unattached one.

The tap's reads are untimed functional reads and its hooks are gated
one-``None``-check branches, so attaching a hub (with or without an
observability export target) must change *nothing* the simulated
machine computes — not the cycle count, not a single log record.
"""

from __future__ import annotations

import pytest

from repro import probe
from repro.analytics.stream import AnalyticsHub
from repro.obs.core import Observability
from repro.obs.workloads import WORKLOADS, run_workload


def summary_fingerprint(summary):
    """Everything deterministic a workload reports, plus the log tail."""
    fp = {
        key: value
        for key, value in summary.items()
        if key not in ("machine", "log")
    }
    log = summary.get("log")
    if log is not None:
        fp["log_records"] = [
            (r.addr, r.value, r.size, r.flags, r.timestamp)
            for r in log.records()
        ]
    return fp


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestAnalyticsExactness:
    def test_attached_run_is_cycle_and_record_identical(self, workload):
        baseline = summary_fingerprint(run_workload(workload))

        hub = AnalyticsHub()
        with probe.attached(hub):
            attached = run_workload(workload)
        assert summary_fingerprint(attached) == baseline
        if attached["log"] is not None:
            # The hub really was in the loop, not a no-op bystander.
            tap = hub.tap_for(attached["log"])
            assert tap is not None and tap.stats.record_count > 0

    def test_attached_with_export_is_cycle_identical_too(self, workload):
        baseline = summary_fingerprint(run_workload(workload))

        hub = AnalyticsHub()
        with probe.attached(Observability()) as obs:
            with probe.attached(hub):
                attached = run_workload(workload)
            gauges = obs.metrics.snapshot()["gauges"]
        assert summary_fingerprint(attached) == baseline
        if attached["log"] is not None:
            assert any(name.startswith("analytics.") for name in gauges)
