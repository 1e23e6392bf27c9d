"""Tests of the benchmark itself: checks that must fail, exactness, and
the traced run's accounting.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The workloads are shrunk so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run  # first: puts the checkout's src/ on the import path
import checks
import tracer as tr
import workloads
from repro.hw.params import PAGE_SIZE

ROOT = run.ROOT

SEED = 7  # not the command-line default


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setattr(workloads, "FIG7_END_TIME", 60)
    monkeypatch.setattr(workloads, "TPCA_TXNS", 40)
    monkeypatch.setattr(workloads, "SERVE_TXNS", 5)
    monkeypatch.setattr(workloads, "BULK_BYTES", 16 * PAGE_SIZE)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_OP_SAMPLES", 1)


def rep_state(name: str, seed: int = SEED):
    """Set up and run one bare repetition; return (workload, state)."""
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    wl.run(state, None)
    return wl, state


# ----------------------------------------------------------------------
# Each check passes on a real run and fails on a corrupted one
# ----------------------------------------------------------------------
def test_tpca_passes():
    wl, state = rep_state("tpca_rlvm")
    out = wl.finish(state)
    assert (out.attempted, out.failed) == (40, 0)


def test_tpca_fails_on_flipped_balance():
    wl, state = rep_state("tpca_rlvm")
    bench, rseg = state["bench"], state["library"].segments["tpca"]
    offset = bench.account_va(3) - rseg.base_va
    rseg.segment.write(offset, rseg.segment.read(offset, 4) ^ 0x100, 4)
    assert wl.finish(state).failed == 40


def test_tpca_fails_when_recovery_loses_a_write():
    wl, state = rep_state("tpca_rlvm")
    bench, rseg = state["bench"], state["library"].segments["tpca"]
    offset = bench.branch_va(0) - rseg.base_va
    rseg.disk_image[offset] ^= 0x01
    assert wl.finish(state).failed == 40


def test_serve_passes():
    wl, state = rep_state("serve_group")
    out = wl.finish(state)
    assert out.attempted == workloads.SERVE_CLIENTS * 5
    assert out.failed == 0


def test_serve_fails_on_dropped_ack():
    wl, state = rep_state("serve_group")
    state["server"].acked.pop(3)
    assert wl.finish(state).failed >= 1


def test_serve_fails_on_reordered_ack():
    wl, state = rep_state("serve_group")
    acked = state["server"].acked
    acked[0], acked[1] = acked[1], acked[0]
    assert wl.finish(state).failed == 2


def test_serve_fails_on_ack_missing_from_wal():
    tids = [1, 2, 3, 4]
    assert checks.serve_failures(tids, tids, tids, [1, 2, 4], crashed=False) == 1
    assert checks.serve_failures(tids, tids, tids, tids, crashed=True) == 4


def test_timewarp_passes():
    wl, state = rep_state("timewarp_fig7")
    out = wl.finish(state)
    assert out.attempted > 0 and out.failed == 0


def test_timewarp_fails_on_flipped_state():
    wl, state = rep_state("timewarp_fig7")
    final = state["results"][0].final_state
    obj = next(iter(final))
    final[obj] = bytes([final[obj][0] ^ 1]) + final[obj][1:]
    out = wl.finish(state)
    assert out.failed == out.attempted


def test_bulk_passes():
    wl, state = rep_state("bulk_copy")
    out = wl.finish(state)
    assert out.attempted == 16 * PAGE_SIZE // workloads.BULK_CHUNK
    assert out.failed == 0


def test_bulk_fails_on_flipped_destination_byte():
    wl, state = rep_state("bulk_copy")
    dst = state["dst"]
    dst.write(5 * PAGE_SIZE + 8, dst.read(5 * PAGE_SIZE + 8, 1) ^ 0x80, 1)
    assert wl.finish(state).failed == 1


def test_bulk_fails_on_dropped_log_record():
    wl, state = rep_state("bulk_copy")
    log = state["log"]
    log.truncate(log.start_offset + log.record_size)
    assert wl.finish(state).failed == 1


# ----------------------------------------------------------------------
# Exactness and tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bare_and_traced_reps_agree_at_a_non_default_seed(name):
    reps = run.measure(workloads.WORKLOADS[name], SEED, seconds=0, trace=True)
    assert [r.traced for r in reps] == [False, True]
    assert run.verify(reps) == []
    assert all(r.outcome.failed == 0 for r in reps)
    summary = reps[1].summary
    assert summary["self_total_ns"] == summary["root_total_ns"] <= reps[1].wall_ns


def test_a_changed_simulated_output_is_caught():
    reps = run.measure(workloads.WORKLOADS["tpca_rlvm"], SEED, seconds=0, trace=False)
    reps += run.measure(workloads.WORKLOADS["tpca_rlvm"], SEED + 1, seconds=0, trace=False)
    assert any("differ" in p for p in run.verify(reps))


def test_an_open_span_fails_the_summary():
    tracer = tr.SpanTracer()
    stuck = tracer.wrap(lambda: tracer.summary(), tr.HW)
    with pytest.raises(RuntimeError, match="left open"):
        stuck()


def test_layer_split_follows_the_workload_design():
    bench = run.load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    def rows(name):
        reps = run.measure(workloads.WORKLOADS[name], SEED, seconds=0, trace=True)
        got = run.per_layer_rows(reps, units)
        assert set(got) == set(units)
        return {k: r.value for k, r in got.items()}

    tw, tpca, serve, bulk = (
        rows(n) for n in ("timewarp_fig7", "tpca_rlvm", "serve_group", "bulk_copy")
    )
    assert tw["core.word.calls"] > 0 and tw["core.bulk.calls"] == 0
    assert bulk["core.bulk.calls"] > 0 and bulk["core.word.calls"] == 0
    assert tpca["rvm.txns"] == 40 and tw["rvm.txns"] == 0
    assert serve["serve.requests"] > 0 and tpca["serve.host_self_s"] == 0
    assert tw["timewarp.events_committed"] > 0 and serve["timewarp.saver.calls"] == 0


def test_end_to_end_rows_match_the_benchmark_file():
    bench = run.load_benchmark()
    reps = run.measure(workloads.WORKLOADS["tpca_rlvm"], SEED, seconds=0, trace=False)
    got = run.end_to_end_rows(workloads.WORKLOADS["tpca_rlvm"], reps, SEED)
    assert {(r.name, r.unit) for r in got.values()} == {
        (m["name"], m["unit"]) for m in bench["end_to_end"]
    }
    assert all(r.value > 0 for r in got.values())


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "tpca_rlvm", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, *cmd[1:], *args], cwd=tmp_path, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
